import random
from pathlib import Path

import pytest

from vmpnet.dualgraph import (
    DagKind,
    ReducedDag,
    RootedDag,
    build_dag,
    dag_from_json,
    dag_to_dot,
    dag_to_json,
    differ_only_by_root,
    reduce_dag,
    relevant_points,
    relevant_points_bruteforce,
    validate_dag,
)
from vmpnet.errors import WindowError
from vmpnet.lattice_net import (
    ArrowField,
    KeyedNet,
    Vertex,
    Window,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fuzz_net(seed, b=0.3, kappa=0.1, t=6):
    w = Window(-t - 1, t + 1, 0, t)
    return KeyedNet(b, kappa, seed, w), Vertex(0 if t % 2 else 1, t)


# ---------------------------------------------------------------------------
# build_dag
# ---------------------------------------------------------------------------

def test_chain_graph_when_no_branch_no_kill():
    net, root = fuzz_net(5, b=0.0, kappa=0.0, t=5)
    dag = build_dag(net, root)
    kinds = list(dag.kinds.values())
    assert kinds.count(DagKind.TIME_ZERO_LEAF) == 1
    assert kinds.count(DagKind.ROOT) == 1
    assert kinds.count(DagKind.PASS_THROUGH) == len(kinds) - 2
    assert not relevant_points(dag)
    red = reduce_dag(dag)
    assert len(red.kinds) == 2  # root -> leaf


def test_root_killing_point_single_vertex():
    net, root = fuzz_net(5, b=0.0, kappa=1.0, t=4)
    dag = build_dag(net, root)
    assert dag.kinds == {root: DagKind.KILLING_LEAF}
    assert dag.children[root] == ()


def test_root_at_horizon_is_leaf():
    net, _ = fuzz_net(5, t=4)
    dag = build_dag(net, Vertex(1, 0))
    assert dag.kinds == {Vertex(1, 0): DagKind.TIME_ZERO_LEAF}


def test_build_dag_window_escape_errors():
    net = KeyedNet(1.0, 0.0, 1, Window(-2, 2, 0, 4))
    with pytest.raises(WindowError):
        build_dag(net, Vertex(0, 4) if (0 + 4) % 2 else Vertex(1, 4))


def test_build_dag_deterministic():
    net, root = fuzz_net(17)
    d1 = build_dag(net, root)
    d2 = build_dag(net, root)
    assert d1.kinds == d2.kinds and d1.children == d2.children and d1.uniforms == d2.uniforms


def test_fixture_field_structure():
    field = ArrowField.from_text((FIXTURES / "branching_demo_field.txt").read_text())
    dag = build_dag(field, Vertex(1, 4))
    expected = dag_from_json((FIXTURES / "branching_demo_dag.json").read_text())
    assert dag.kinds == expected.kinds
    assert dag.children == expected.children
    assert relevant_points(dag) == {Vertex(1, 2)}
    red = reduce_dag(dag)
    assert set(red.kinds) == {Vertex(1, 4), Vertex(1, 2), Vertex(0, 1), Vertex(3, 0)}
    assert red.children[Vertex(1, 4)] == (Vertex(1, 2), Vertex(1, 2))  # multiplicity 2
    assert red.children[Vertex(1, 2)] == (Vertex(0, 1), Vertex(3, 0))


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------

def test_coalescing_branch_not_relevant():
    # branch whose two child chains coalesce before any leaf
    root = Vertex(0, 3)
    a, b = Vertex(-1, 2), Vertex(1, 2)
    m = Vertex(0, 1)
    leaf = Vertex(1, 0)
    dag = RootedDag(
        root,
        {
            root: DagKind.ROOT,
            a: DagKind.PASS_THROUGH,
            b: DagKind.PASS_THROUGH,
            m: DagKind.PASS_THROUGH,
            leaf: DagKind.TIME_ZERO_LEAF,
        },
        {root: (a, b), a: (m,), b: (m,), m: (leaf,), leaf: ()},
        {root: 0.5, leaf: 0.5},
    )
    assert relevant_points(dag) == set()
    assert relevant_points_bruteforce(dag) == set()

    # a non-root branch whose two branches meet only at one shared leaf
    root, z = Vertex(1, 3), Vertex(0, 2)
    a, b = Vertex(-1, 1), Vertex(1, 1)
    leaf = Vertex(0, 0)
    dag = RootedDag(
        root,
        {
            root: DagKind.ROOT,
            z: DagKind.BRANCH,
            a: DagKind.PASS_THROUGH,
            b: DagKind.PASS_THROUGH,
            leaf: DagKind.TIME_ZERO_LEAF,
        },
        {root: (z,), z: (a, b), a: (leaf,), b: (leaf,), leaf: ()},
        {z: 0.5, leaf: 0.5},
    )
    validate_dag(dag)
    assert relevant_points(dag) == set()
    assert relevant_points_bruteforce(dag) == set()


def test_relevance_equals_bruteforce_on_fuzz():
    rng = random.Random(3)
    checked = 0
    for trial in range(800):
        t = rng.randint(2, 6)
        net, root = fuzz_net(70_000 + trial, b=rng.choice([0.15, 0.3, 0.5]), kappa=rng.choice([0.0, 0.1, 0.25]), t=t)
        dag = build_dag(net, root)
        if len(dag.kinds) > 12:
            continue
        assert relevant_points(dag) == relevant_points_bruteforce(dag)
        red = reduce_dag(dag)
        assert relevant_points(red) == relevant_points_bruteforce(red)
        checked += 1
    assert checked >= 300


def test_relevance_equals_bruteforce_on_larger_fuzz():
    # 13-40 vertices: beyond the <= 12-vertex brute-force check of the reduction gate
    rng = random.Random(13)
    checked = 0
    for trial in range(2000):
        t = rng.randint(5, 10)
        net, root = fuzz_net(110_000 + trial, b=rng.choice([0.15, 0.3, 0.5]), kappa=rng.choice([0.0, 0.1, 0.25]), t=t)
        dag = build_dag(net, root)
        if not 13 <= len(dag.kinds) <= 40:
            continue
        assert relevant_points(dag) == relevant_points_bruteforce(dag)
        red = reduce_dag(dag)
        assert relevant_points(red) == relevant_points_bruteforce(red)
        checked += 1
        if checked == 400:
            break
    assert checked == 400


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_soundness_fuzz():
    rng = random.Random(4)
    for trial in range(300):
        net, root = fuzz_net(90_000 + trial, b=0.35, kappa=0.1, t=rng.randint(3, 8))
        dag = build_dag(net, root)
        validate_dag(dag)
        red = reduce_dag(dag)
        assert set(red.kinds) <= set(dag.kinds)
        assert set(red.leaves()) == set(dag.leaves())
        # every reduced vertex reachable from the root within the reduced graph
        seen = {red.root}
        stack = [red.root]
        while stack:
            for c in red.children.get(stack.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        assert seen == set(red.kinds)
        # intermediate out-degree exactly two
        for v, kind in red.kinds.items():
            if v != red.root and kind is DagKind.BRANCH:
                assert len(red.children[v]) == 2
        # every reduced edge has a directed path with irrelevant interior
        keep = set(red.kinds)
        for parent, child in red.edges():
            assert _connected_through_irrelevant(dag, parent, child, keep)


def _connected_through_irrelevant(dag, parent, child, keep):
    stack = [parent]
    first = True
    seen = set()
    while stack:
        v = stack.pop()
        for c in dag.children.get(v, ()):
            if c == child:
                return True
            if c in keep or c in seen:
                continue
            seen.add(c)
            stack.append(c)
        first = False
    return False


def test_reduce_idempotent_on_reduced():
    net, root = fuzz_net(424242, b=0.4, kappa=0.1, t=7)
    red = reduce_dag(build_dag(net, root))
    again = reduce_dag(red)
    assert again.kinds == red.kinds
    assert again.children == red.children


# ---------------------------------------------------------------------------
# differ_only_by_root
# ---------------------------------------------------------------------------

def test_differ_only_by_root_self():
    net, root = fuzz_net(7, t=6)
    red = reduce_dag(build_dag(net, root))
    assert differ_only_by_root(red, red)


def test_differ_only_by_root_distinct_leaves():
    def chain(root_x, leaf_x):
        root = Vertex(root_x, 2)
        mid = Vertex((root_x + leaf_x) // 2, 1)
        leaf = Vertex(leaf_x, 0)
        return ReducedDag(
            root,
            {root: DagKind.ROOT, leaf: DagKind.TIME_ZERO_LEAF},
            {root: (leaf,), leaf: ()},
            {leaf: 0.1},
        )

    g1 = chain(1, 1)
    g2 = chain(3, 3)
    assert not differ_only_by_root(g1, g2)


def test_adjacent_roots_differ_only_by_root_more_often_at_fine_scale():
    """Discrete analog of the reduced-graph locality: adjacent roots share
    their reduced graph (up to the root label) with frequency approaching
    one as the branching/killing scale shrinks."""
    def frequency(eps_exp, n=150):
        freq = 0
        b, kappa = 1.0 * 2.0 ** -eps_exp, 1.0 * 4.0 ** -eps_exp
        t = 2 ** (2 * eps_exp - 1)
        for trial in range(n):
            w = Window(-3 * t, 3 * t, 0, t)
            net = KeyedNet(b, kappa, 1_000_000 * eps_exp + trial, w)
            x0 = 0 if t % 2 else 1
            g1 = reduce_dag(build_dag(net, Vertex(x0, t)))
            g2 = reduce_dag(build_dag(net, Vertex(x0 + 2, t)))
            freq += differ_only_by_root(g1, g2)
        return freq / n

    coarse = frequency(2)
    fine = frequency(4)
    assert fine > 0.5
    assert fine > coarse + 0.2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_preserves_everything():
    net, root = fuzz_net(2718, b=0.35, kappa=0.15, t=7)
    dag = build_dag(net, root)
    back = dag_from_json(dag_to_json(dag))
    assert back.root == dag.root
    assert back.kinds == dag.kinds
    assert back.children == dag.children
    assert back.uniforms == dag.uniforms
    red = reduce_dag(dag)
    back_red = dag_from_json(dag_to_json(red))
    assert isinstance(back_red, ReducedDag)
    assert back_red.children == red.children


def test_dot_export_mentions_every_vertex():
    net, root = fuzz_net(12, t=5)
    dag = build_dag(net, root)
    dot = dag_to_dot(dag)
    for v in dag.kinds:
        assert f'"{v.x},{v.t}"' in dot
