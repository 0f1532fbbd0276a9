"""Rooted genealogy DAGs of the backward net, relevance, and reduction.

The component of the backward net grown from a root down to t = 0 is a
finite acyclic digraph whose vertices have out-degree at most two.  An
intermediate vertex is *relevant* when two directed paths leave it and
reach the leaves without sharing any other vertex; by Menger's theorem,
exactly when its immediate post-dominator, with all leaves joined to one
sink, is that sink.  A brute-force path-pair oracle is kept for
cross-validation.  The reduced graph skips all irrelevant vertices: it
keeps the root, the relevant vertices and the leaves, and joins two kept
vertices when some path of the original graph connects them through
irrelevant interior vertices only.

Every irrelevant vertex funnels through a single cut vertex, so the first
kept vertex reached from it is unique; ReductionError signals a violation
of that invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError, ReductionError, StateSpaceError, WindowError
from .lattice_net import ArrowOutcome, Vertex, is_odd_vertex
from .rng import rescale_uniform


class DagKind(str, Enum):
    ROOT = "root"
    BRANCH = "branch"
    KILLING_LEAF = "killing_leaf"
    TIME_ZERO_LEAF = "time_zero_leaf"
    PASS_THROUGH = "pass_through"


LEAF_KINDS = (DagKind.KILLING_LEAF, DagKind.TIME_ZERO_LEAF)


@dataclass
class RootedDag:
    """Backward component from ``root``: kinds, ordered children, uniforms.

    ``children[v]`` lists the targets of v's arrows, left arrow first.
    ``uniforms`` holds a draw for exactly the vertices that consume
    randomness when coloring: branching vertices (two children), killing
    leaves, horizon leaves, and a two-child root.
    """

    root: Vertex
    kinds: dict[Vertex, DagKind]
    children: dict[Vertex, tuple[Vertex, ...]]
    uniforms: dict[Vertex, float]

    @property
    def vertices(self) -> set[Vertex]:
        return set(self.kinds)

    def leaves(self) -> list[Vertex]:
        return [v for v, k in self.kinds.items() if k in LEAF_KINDS]

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        return [(p, c) for p, cs in self.children.items() for c in cs]

    def out_degree(self, v: Vertex) -> int:
        return len(self.children.get(v, ()))


@dataclass
class ReducedDag(RootedDag):
    """Reduction of a RootedDag: root, relevant vertices and leaves only.

    A branch vertex whose two routes end at the same kept vertex stores
    that child twice (an edge of multiplicity two); coloring treats it as
    two agreeing neighbors.
    """


def build_dag(net, root: Vertex) -> RootedDag:
    """Grow the backward component of ``net`` from ``root`` down to t = 0.

    Arrows point to time t-1.  Vertices at t = 0 become horizon leaves
    regardless of their outcome; arrowless vertices above it become
    killing leaves; vertices with both arrows branch.  Raises WindowError
    if the component would leave the window sideways, the root is outside
    it or below t = 0, or it starts above t = 0.
    """
    w = net.window
    if not is_odd_vertex(root.x, root.t):
        raise InvalidParameterError(f"root {root} is not on the odd sublattice")
    if not w.contains(root.x, root.t):
        raise WindowError(f"root {root} outside window {w}")
    if w.t_min > 0 or root.t < 0:
        raise WindowError(f"t = 0 outside [{w.t_min}, {root.t}]")

    b, kappa = net.b, net.kappa
    walk = 1.0 - b - kappa
    kinds: dict[Vertex, DagKind] = {}
    children: dict[Vertex, tuple[Vertex, ...]] = {}
    uniforms: dict[Vertex, float] = {}

    frontier = {root}
    for t in range(root.t, -1, -1):
        if not frontier:
            break
        next_frontier: set[Vertex] = set()
        for v in sorted(frontier):
            out = net.outcome_at(v.x, v.t)
            if v.t == 0:
                kinds[v] = DagKind.TIME_ZERO_LEAF
                children[v] = ()
                uniforms[v] = net.uniform_at(v.x, v.t)
                continue
            if out is ArrowOutcome.NONE:
                kinds[v] = DagKind.KILLING_LEAF
                children[v] = ()
                uniforms[v] = rescale_uniform(net.uniform_at(v.x, v.t), 1.0 - kappa, kappa)
                continue
            if out is ArrowOutcome.LEFT_ONLY:
                kids = (Vertex(v.x - 1, v.t - 1),)
            elif out is ArrowOutcome.RIGHT_ONLY:
                kids = (Vertex(v.x + 1, v.t - 1),)
            else:
                kids = (Vertex(v.x - 1, v.t - 1), Vertex(v.x + 1, v.t - 1))
                uniforms[v] = rescale_uniform(net.uniform_at(v.x, v.t), walk, b)
            for c in kids:
                if not (w.x_min <= c.x <= w.x_max):
                    raise WindowError(
                        f"component from {root} escaped window sideways at {c}; widen the window"
                    )
                next_frontier.add(c)
            kinds[v] = DagKind.BRANCH if len(kids) == 2 else DagKind.PASS_THROUGH
            children[v] = kids
        frontier = next_frontier

    kinds[root] = DagKind.ROOT if kinds[root] in (DagKind.BRANCH, DagKind.PASS_THROUGH) else kinds[root]
    return RootedDag(root, kinds, children, uniforms)


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------

def topological_order(dag: RootedDag) -> list[Vertex]:
    """Leaves-to-root order; valid for full and reduced graphs since every
    edge strictly decreases t."""
    return sorted(dag.kinds, key=lambda v: (v.t, v.x))


def relevant_points(dag: RootedDag) -> set[Vertex]:
    """Non-root vertices with two paths to the leaves disjoint except at
    the vertex itself: those whose immediate post-dominator is the sink.

    One leaves-to-root pass: a leaf's immediate post-dominator is the
    sink, a one-child vertex's is its child, and a two-child vertex's is
    the nearest common ancestor of its children in the post-dominator
    tree.  Two paths ending at the same leaf meet there, and a repeated
    child is its own common ancestor, so neither makes a vertex relevant.
    """
    sink = None
    ipdom: dict[Vertex, Vertex | None] = {}
    depth: dict[Vertex | None, int] = {sink: 0}
    out: set[Vertex] = set()
    for v in topological_order(dag):
        kids = dag.children.get(v, ())
        if len(kids) == 2:
            a, b = kids
            while a != b:  # climb the deeper branch until the two meet
                if depth[a] >= depth[b]:
                    a = ipdom[a]
                else:
                    b = ipdom[b]
            ipdom[v] = a
            if a is sink and v != dag.root:
                out.add(v)
        else:
            ipdom[v] = kids[0] if kids else sink
        depth[v] = depth[ipdom[v]] + 1
    return out


def relevant_points_bruteforce(dag: RootedDag) -> set[Vertex]:
    """Relevance by enumerating all path pairs; oracle for small graphs
    (StateSpaceError past 20000 paths from one vertex)."""
    out: set[Vertex] = set()
    for z in dag.kinds:
        if z == dag.root or dag.out_degree(z) != 2:
            continue
        paths: list[frozenset[Vertex]] = []
        stack = [(z, [])]
        while stack:
            v, trail = stack.pop()
            kids = dag.children.get(v, ())
            if not kids:
                paths.append(frozenset(trail + [v]) - {z})
                if len(paths) > 20000:
                    raise StateSpaceError("too many paths for brute-force relevance")
                continue
            for c in kids:
                stack.append((c, trail + [v]))
        if any(
            p1.isdisjoint(p2) for i, p1 in enumerate(paths) for p2 in paths[i + 1:]
        ):
            out.add(z)
    return out


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def reduce_dag(dag: RootedDag) -> ReducedDag:
    """Skip all irrelevant vertices, keeping root, relevant vertices, leaves.

    Kept vertices are joined when a path of the source graph connects them
    through irrelevant interior vertices only; a branch vertex's two route
    targets keep the left/right order of its arrows.  Uniforms carry over
    unchanged.
    """
    rel = relevant_points(dag)
    keep = set(rel) | {dag.root} | set(dag.leaves())

    target: dict[Vertex, Vertex] = {}

    def resolve(v0: Vertex) -> Vertex:
        stack = [v0]
        while stack:
            v = stack[-1]
            if v in target or v in keep:
                stack.pop()
                continue
            pending = [c for c in dag.children[v] if c not in keep and c not in target]
            if pending:
                stack.extend(pending)
                continue
            ts = {c if c in keep else target[c] for c in dag.children[v]}
            if len(ts) != 1:
                raise ReductionError(f"irrelevant vertex {v} reaches multiple kept vertices {ts}")
            target[v] = next(iter(ts))
            stack.pop()
        return v0 if v0 in keep else target[v0]

    kinds: dict[Vertex, DagKind] = {}
    children: dict[Vertex, tuple[Vertex, ...]] = {}
    uniforms: dict[Vertex, float] = {}
    for v in keep:
        kind = dag.kinds[v]
        # the root and the leaves keep their kinds (a leaf root its leaf kind)
        kinds[v] = kind if v == dag.root or kind in LEAF_KINDS else DagKind.BRANCH
        children[v] = () if kind in LEAF_KINDS else tuple(resolve(c) for c in dag.children[v])
        if v in dag.uniforms:
            uniforms[v] = dag.uniforms[v]

    for v, kids in children.items():
        if v != dag.root and kinds[v] is DagKind.BRANCH and len(kids) != 2:
            raise ReductionError(f"reduced vertex {v} has out-degree {len(kids)}")
    return ReducedDag(dag.root, kinds, children, uniforms)


def differ_only_by_root(g1: RootedDag, g2: RootedDag) -> bool:
    """True when relabeling g1's root as g2's root and fixing every other
    vertex is a graph isomorphism (edge sets correspond exactly)."""
    if g1.vertices - {g1.root} != g2.vertices - {g2.root}:
        return False
    psi = {g1.root: g2.root}
    return {(psi.get(p, p), psi.get(c, c)) for p, c in g1.edges()} == set(g2.edges())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def dag_to_json(dag: RootedDag) -> str:
    order = sorted(dag.kinds)
    idx = {v: i for i, v in enumerate(order)}
    verts = []
    for v in order:
        rec = {"x": v.x, "t": v.t, "kind": dag.kinds[v].value}
        if v in dag.uniforms:
            rec["uniform"] = dag.uniforms[v]
        verts.append(rec)
    edges = []
    for p in order:
        kids = dag.children.get(p, ())
        edges += [{"parent": idx[p], "child": idx[c], "multiplicity": kids.count(c)} for c in dict.fromkeys(kids)]
    doc = {
        "root": {"x": dag.root.x, "t": dag.root.t},
        "reduced": isinstance(dag, ReducedDag),
        "vertices": verts,
        "edges": edges,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _field(rec, key: str, typ, where: str):
    """``rec[key]`` checked to be of ``typ`` (never a bool)."""
    if not isinstance(rec, dict) or key not in rec:
        raise InvalidParameterError(f"dag JSON: {where} needs the field {key!r}")
    val = rec[key]
    if not isinstance(val, typ) or isinstance(val, bool):
        raise InvalidParameterError(f"dag JSON: {where}.{key} has the wrong type ({val!r})")
    return val


def dag_from_json(text: str) -> RootedDag:
    """Parse the ``dag_to_json`` format and check it with ``validate_dag``;
    malformed input raises InvalidParameterError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"dag JSON: not valid JSON ({exc})") from None
    records = _field(doc, "vertices", list, "document")
    verts = [
        Vertex(_field(rec, "x", int, f"vertices[{i}]"), _field(rec, "t", int, f"vertices[{i}]"))
        for i, rec in enumerate(records)
    ]
    if len(set(verts)) != len(verts):
        raise InvalidParameterError("dag JSON: a vertex is listed twice")
    kinds: dict[Vertex, DagKind] = {}
    uniforms: dict[Vertex, float] = {}
    for i, (v, rec) in enumerate(zip(verts, records)):
        kind = _field(rec, "kind", str, f"vertices[{i}]")
        if kind not in {k.value for k in DagKind}:
            raise InvalidParameterError(f"dag JSON: vertices[{i}].kind {kind!r} is not a vertex kind")
        kinds[v] = DagKind(kind)
        if "uniform" in rec:
            u = _field(rec, "uniform", (int, float), f"vertices[{i}]")
            if not 0.0 <= u < 1.0:
                raise InvalidParameterError(f"dag JSON: vertices[{i}].uniform {u!r} outside [0, 1)")
            uniforms[v] = u
    children: dict[Vertex, list[Vertex]] = {v: [] for v in verts}
    for j, e in enumerate(_field(doc, "edges", list, "document")):
        parent, child = (_field(e, key, int, f"edges[{j}]") for key in ("parent", "child"))
        if not (0 <= parent < len(verts) and 0 <= child < len(verts)):
            raise InvalidParameterError(
                f"dag JSON: edges[{j}] has a vertex index outside 0..{len(verts) - 1}"
            )
        mult = _field(e, "multiplicity", int, f"edges[{j}]") if "multiplicity" in e else 1
        kids = children[verts[parent]]
        if mult < 1 or len(kids) + mult > 2:
            raise InvalidParameterError(
                f"dag JSON: edges[{j}] gives vertex {parent} an out-degree outside 1..2"
            )
        kids += [verts[child]] * mult
    root_rec = _field(doc, "root", dict, "document")
    root = Vertex(_field(root_rec, "x", int, "root"), _field(root_rec, "t", int, "root"))
    reduced = doc.get("reduced", False)
    if not isinstance(reduced, bool):
        raise InvalidParameterError(f"dag JSON: reduced must be true or false, got {reduced!r}")
    cls = ReducedDag if reduced else RootedDag
    dag = cls(root, kinds, {v: tuple(cs) for v, cs in children.items()}, uniforms)
    try:
        validate_dag(dag)
    except ReductionError as exc:
        raise InvalidParameterError(f"dag JSON: {exc}") from None
    return dag


def dag_to_dot(dag: RootedDag) -> str:
    """Graphviz export for visual inspection."""
    shapes = {
        DagKind.ROOT: "doublecircle",
        DagKind.BRANCH: "circle",
        DagKind.PASS_THROUGH: "point",
        DagKind.KILLING_LEAF: "box",
        DagKind.TIME_ZERO_LEAF: "triangle",
    }
    lines = ["digraph dual {", "  rankdir=TB;"]
    lines += [f'  "{v.x},{v.t}" [shape={shapes[dag.kinds[v]]} label="({v.x},{v.t})"];' for v in sorted(dag.kinds)]
    lines += [f'  "{p.x},{p.t}" -> "{c.x},{c.t}";' for p, c in dag.edges()]
    return "\n".join(lines) + "\n}\n"


def validate_dag(dag: RootedDag) -> None:
    """Check structural invariants; raises ReductionError on violation."""
    if dag.root not in dag.kinds:
        raise ReductionError("root missing")
    seen = set()
    stack = [dag.root]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        kind = dag.kinds[v]
        deg = dag.out_degree(v)
        if kind in LEAF_KINDS and deg != 0:
            raise ReductionError(f"leaf {v} has children")
        if kind is DagKind.BRANCH and deg != 2:
            raise ReductionError(f"branch {v} has out-degree {deg}")
        if kind is DagKind.PASS_THROUGH and deg != 1:
            raise ReductionError(f"pass-through {v} has out-degree {deg}")
        for c in dag.children.get(v, ()):
            if c.t >= v.t:
                raise ReductionError(f"edge {v}->{c} does not decrease time")
            stack.append(c)
    if seen != dag.vertices:
        raise ReductionError("unreachable vertices present")
