"""Forward/dual distributional equality checks, exact and statistical.

The k-point color law of the forward chain must coincide with the law of
the root colors of backward-net genealogies built over one shared field.
Two independent exact oracles verify this at desk scale:

* ``exact_forward_law`` integrates the forward chain by dynamic programming
  over the joint configuration law on the shrinking dependence cone.
* ``exact_dual_law`` enumerates every arrow configuration of the dual cone,
  weights each by its probability, and propagates exact color laws through
  the resulting genealogy DAG union (uniforms integrated out vertex by
  vertex).  The frontier law is joint, never a product of marginals,
  because coalescence correlates the query genealogies.

The two computations share no code path beyond the parameter container, so
their agreement to 1e-10 is a genuine check of the duality, not of a
single implementation.  ``duality_gof_test`` adds a two-sample chi-square
gate between large forward and dual samples drawn from disjoint seed
streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as _chi2

from .coloring import (
    ColorDistribution,
    boundary_table_from,
    color_dag,
    color_from_uniform,
)
from .dualgraph import build_dag
from .errors import InvalidParameterError, ParityError, StateSpaceError, WindowError
from .lattice_net import BACKWARD, KeyedNet, Vertex, Window, is_odd_vertex
from .models import VmpParams, forward_batch, potts_params, simple_vmp, transition_distribution
from .rng import derive_seed, derive_seed_array, rescale_uniform, vertex_uniform


def as_query_points(points) -> list[Vertex]:
    out = []
    for p in points:
        v = Vertex(int(p[0]), int(p[1]))
        if not is_odd_vertex(v.x, v.t):
            raise ParityError(f"query point {v} not on the odd sublattice")
        if v.t < 0:
            raise InvalidParameterError(f"query point {v} has negative time")
        out.append(v)
    if not out:
        raise InvalidParameterError("need at least one query point")
    return out


def cone_window(points, horizon: int = 0, margin: int = 0) -> Window:
    """Smallest window containing the dependence cones of all points."""
    pts = as_query_points(points)
    x_lo = min(v.x - (v.t - horizon) for v in pts) - margin
    x_hi = max(v.x + (v.t - horizon) for v in pts) + margin
    return Window(x_lo, x_hi, horizon, max(v.t for v in pts))


@dataclass
class JointColorLaw:
    """Joint law of k colors: array of shape (q,)*k, 1-based color indices."""

    q: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (self.q,) * self.probs.ndim:
            raise InvalidParameterError("probs must be a (q,)*k array")
        if self.probs.min() < -1e-12:
            raise InvalidParameterError("negative probability in law")
        if abs(self.probs.sum() - 1.0) > 1e-10:
            raise InvalidParameterError(f"law sums to {self.probs.sum()!r}")

    @property
    def k(self) -> int:
        return self.probs.ndim

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {
            tuple(i + 1 for i in idx): float(self.probs[idx])
            for idx in np.ndindex(self.probs.shape)
        }

    def tvd(self, other: "JointColorLaw") -> float:
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


# ---------------------------------------------------------------------------
# Dual sampling
# ---------------------------------------------------------------------------

def dual_colors_genealogy(
    params: VmpParams, seed: int, points, window: Window | None = None
) -> tuple[int, ...]:
    """Root colors of the backward genealogies over one shared field.

    Memoized top-down expansion with leaf-to-root evaluation; identical
    output to building the DAGs explicitly and coloring them (tested), and
    to a forward run with the same seed.
    """
    pts = as_query_points(points)
    win = window if window is not None else cone_window(pts)
    w, b, kappa = params.w, params.b, params.kappa
    lam, p, g = params.lam, params.p, params.g
    half_w = 0.5 * w
    memo: dict[tuple[int, int], int] = {}

    def color_of(x0: int, t0: int) -> int:
        stack = [(x0, t0)]
        while stack:
            x, t = stack[-1]
            if (x, t) in memo:
                stack.pop()
                continue
            if not (win.x_min <= x <= win.x_max):
                raise WindowError(f"genealogy escaped window at ({x},{t}); widen the window")
            if t == 0:
                memo[(x, t)] = color_from_uniform(vertex_uniform(seed, x, t), lam)
                stack.pop()
                continue
            u = vertex_uniform(seed, x, t)
            if u >= 1.0 - kappa:
                memo[(x, t)] = color_from_uniform(rescale_uniform(u, 1.0 - kappa, kappa), p)
                stack.pop()
                continue
            if u < half_w:
                need = [(x - 1, t - 1)]
            elif u < w:
                need = [(x + 1, t - 1)]
            else:
                need = [(x - 1, t - 1), (x + 1, t - 1)]
            missing = [c for c in need if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            if len(need) == 1:
                memo[(x, t)] = memo[need[0]]
            else:
                k_, l_ = memo[need[0]], memo[need[1]]
                if k_ == l_:
                    memo[(x, t)] = k_
                else:
                    memo[(x, t)] = color_from_uniform(rescale_uniform(u, w, b), g.dist(k_, l_))
            stack.pop()
        return memo[(x0, t0)]

    return tuple(color_of(v.x, v.t) for v in pts)


def dual_colors_graph(
    params: VmpParams, seed: int, points, window: Window | None = None
) -> tuple[int, ...]:
    """Same law and values as ``dual_colors_genealogy`` but through explicit
    RootedDag construction and the sequential coloring algorithm."""
    pts = as_query_points(points)
    win = window if window is not None else cone_window(pts)
    net = KeyedNet(params.b, params.kappa, seed, win, direction=BACKWARD)
    out = []
    for v in pts:
        dag = build_dag(net, v, horizon=0)
        colors = color_dag(dag, params.g, params.lam, params.p)
        out.append(colors[v])
    return tuple(out)


def dual_sample_many(
    params: VmpParams,
    points,
    master_seed: int,
    trials: int,
    window: Window | None = None,
    trial_offset: int = 0,
) -> np.ndarray:
    """(trials, k) dual colors; trial i uses the seed derived from index
    trial_offset + i, so results are independent of chunking."""
    pts = as_query_points(points)
    win = window if window is not None else cone_window(pts)
    seeds = derive_seed_array(master_seed, trial_offset, trial_offset + trials, "dual-trial")
    out = np.zeros((trials, len(pts)), dtype=np.uint8)
    for i in range(trials):
        out[i] = dual_colors_genealogy(params, int(seeds[i]), pts, win)
    return out


def forward_sample_many(
    params: VmpParams,
    points,
    master_seed: int,
    trials: int,
    trial_offset: int = 0,
    batch: int = 1 << 14,
) -> np.ndarray:
    """(trials, k) forward colors via the vectorized chain, seeds per index."""
    pts = as_query_points(points)
    win = cone_window(pts)
    out = np.zeros((trials, len(pts)), dtype=np.uint8)
    done = 0
    while done < trials:
        n = min(batch, trials - done)
        lo = trial_offset + done
        seeds = derive_seed_array(master_seed, lo, lo + n, "forward-trial")
        out[done : done + n] = forward_batch(
            params, seeds, win.x_min, win.x_max, [(v.x, v.t) for v in pts]
        )
        done += n
    return out


# ---------------------------------------------------------------------------
# Exact forward oracle
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _queries_law(law: np.ndarray, dims: list[Vertex], pts: list[Vertex], q: int) -> JointColorLaw:
    """Marginal joint law over the query tuple; duplicate query points map
    to the same axis (diagonal expansion)."""
    axis_of = {v: i for i, v in enumerate(dims)}
    out = np.zeros((q,) * len(pts))
    for idx in np.ndindex(law.shape):
        out[tuple(idx[axis_of[v]] for v in pts)] += law[idx]
    return JointColorLaw(q, out)


def exact_forward_law(
    params: VmpParams, points, window: Window | None = None, max_states: int = 250_000
) -> JointColorLaw:
    """Exact k-point law of the forward chain by joint-configuration DP.

    Starts from the product(lam) law on the union of dependence-cone bases
    and pushes the joint law forward one slice at a time; per-site kernels
    are conditionally independent given the previous slice.  Color axes of
    query sites persist once their slice is passed.  Guarded by a
    state-space cap (q^width).
    """
    pts = as_query_points(points)
    q = params.q
    t_max = max(v.t for v in pts)
    if window is not None:
        need = cone_window(pts)
        if not (window.x_min <= need.x_min and window.x_max >= need.x_max):
            raise WindowError(f"window {window} does not cover the dependence cones {need}")

    def sites_at(s: int) -> list[int]:
        xs = set()
        for v in pts:
            if v.t >= s:
                xs.update(range(v.x - (v.t - s), v.x + (v.t - s) + 1, 2))
        return sorted(xs)

    # per-neighbor-pair color kernel T[left, right, new]
    kernel = np.zeros((q, q, q))
    for left in range(1, q + 1):
        for right in range(1, q + 1):
            kernel[left - 1, right - 1] = transition_distribution(params, left, right).as_array()

    base = sites_at(0)
    if q ** len(base) > max_states:
        raise StateSpaceError(
            f"base width {len(base)} gives {q ** len(base)} states (cap {max_states})"
        )
    law = np.ones(())
    lam = params.lam.as_array()
    dims: list[Vertex] = []
    for x in base:
        law = np.multiply.outer(law, lam)
        dims.append(Vertex(x, 0))
    query_verts = set(pts)
    recorded = {v for v in dims if v in query_verts}

    for s in range(1, t_max + 1):
        new_sites = sites_at(s)
        if len(dims) + len(new_sites) > len(_LETTERS):
            raise StateSpaceError("too many simultaneous axes for the einsum DP")
        letter = {v: _LETTERS[i] for i, v in enumerate(dims)}
        operands: list[np.ndarray] = [law]
        subs = ["".join(letter[v] for v in dims)]
        new_dims: list[tuple[Vertex, str]] = []
        nxt = len(dims)
        for x in new_sites:
            lv, rv = Vertex(x - 1, s - 1), Vertex(x + 1, s - 1)
            if lv not in letter or rv not in letter:
                raise WindowError(f"cone bookkeeping missed neighbors of ({x},{s})")
            nl = _LETTERS[nxt]
            nxt += 1
            operands.append(kernel)
            subs.append(letter[lv] + letter[rv] + nl)
            new_dims.append((Vertex(x, s), nl))
        out_dims = [v for v in dims if v in recorded] + [vd[0] for vd in new_dims]
        if q ** len(out_dims) > max_states:
            raise StateSpaceError(f"state space {q ** len(out_dims)} exceeds cap {max_states}")
        out_sub = "".join(letter[v] for v in dims if v in recorded) + "".join(
            nl for _, nl in new_dims
        )
        law = np.einsum(",".join(subs) + "->" + out_sub, *operands, optimize=True)
        dims = out_dims
        recorded |= {Vertex(x, s) for x in new_sites if Vertex(x, s) in query_verts}

    return _queries_law(law, dims, pts, q)


# ---------------------------------------------------------------------------
# Exact dual oracle
# ---------------------------------------------------------------------------

def exact_dual_law(
    params: VmpParams,
    points,
    window: Window | None = None,
    max_configs: int = 300_000,
    max_states: int = 250_000,
    hybrid_samples: int | None = None,
    hybrid_seed: int = 0,
) -> JointColorLaw:
    """Exact joint law of the dual root colors.

    Full-enumeration mode sums over every arrow configuration of the
    decision cone (vertices with 1 <= t <= root time), weighting each by
    its probability; for each configuration the exact root-color joint law
    is propagated leaves-to-roots over the shared DAG union, with the
    coloring uniforms integrated out exactly.  Outcomes with probability
    zero are never enumerated.  Hybrid mode replaces the enumeration with
    ``hybrid_samples`` keyed-sampled fields and averages the per-field
    exact color laws (Monte Carlo over arrows, exact over colors).
    """
    pts = as_query_points(points)
    q = params.q
    decision: list[Vertex] = sorted(
        {
            Vertex(x, t)
            for v in pts
            for t in range(1, v.t + 1)
            for x in range(v.x - (v.t - t), v.x + (v.t - t) + 1, 2)
        }
    )
    if window is not None:
        need = cone_window(pts)
        if not (window.x_min <= need.x_min and window.x_max >= need.x_max):
            raise WindowError(f"window {window} does not cover the dependence cones {need}")

    w, b, kappa = params.w, params.b, params.kappa
    outcome_probs = [(0, 0.5 * w), (1, 0.5 * w), (2, b), (3, kappa)]  # L, R, Both, None
    support = [(o, pr) for o, pr in outcome_probs if pr > 0.0]

    total = np.zeros((q,) * len(pts))
    if hybrid_samples is None:
        n_configs = len(support) ** len(decision)
        if n_configs > max_configs:
            raise StateSpaceError(
                f"{n_configs} arrow configurations exceed cap {max_configs}; "
                "shrink the instance or use hybrid mode"
            )
        for assignment in itertools.product(support, repeat=len(decision)):
            weight = 1.0
            outcomes = {}
            for v, (o, pr) in zip(decision, assignment):
                weight *= pr
                outcomes[v] = o
            law = _dag_union_law(params, pts, outcomes)
            total += weight * law
    else:
        from .lattice_net import outcome_from_uniform

        for i in range(hybrid_samples):
            seed_i = derive_seed(hybrid_seed, "dual-hybrid", i)
            outcomes = {
                v: int(outcome_from_uniform(vertex_uniform(seed_i, v.x, v.t), b, kappa))
                for v in decision
            }
            total += _dag_union_law(params, pts, outcomes)
        total /= hybrid_samples
    return JointColorLaw(q, total)


def _dag_union_law(params: VmpParams, pts: list[Vertex], outcomes: dict[Vertex, int]) -> np.ndarray:
    """Exact joint root-color law for one fixed arrow configuration.

    Propagates the joint color law of the frontier leaves-to-roots: each
    vertex's color is conditionally independent given its children's
    colors, but the frontier law stays joint because genealogies share
    vertices.
    """
    q = params.q
    # grow the union of components from all roots under the fixed outcomes
    children: dict[Vertex, tuple[Vertex, ...]] = {}
    stack = list(pts)
    while stack:
        v = stack.pop()
        if v in children:
            continue
        if v.t == 0:
            children[v] = ()
            continue
        o = outcomes[v]
        if o == 3:
            children[v] = ()
        elif o == 0:
            children[v] = (Vertex(v.x - 1, v.t - 1),)
        elif o == 1:
            children[v] = (Vertex(v.x + 1, v.t - 1),)
        else:
            children[v] = (Vertex(v.x - 1, v.t - 1), Vertex(v.x + 1, v.t - 1))
        stack.extend(children[v])

    pending_parents: dict[Vertex, int] = {}
    for v, kids in children.items():
        for c in kids:
            pending_parents[c] = pending_parents.get(c, 0) + 1

    roots = set(pts)
    lam = params.lam.as_array()
    p_bulk = params.p.as_array()
    branch = params.g.branch_tensor()  # [left, right, new]; diagonal = copy

    law = np.ones(())
    dims: list[Vertex] = []

    def add_axis(arr: np.ndarray, vec: np.ndarray) -> np.ndarray:
        return np.multiply.outer(arr, vec)

    for v in sorted(children, key=lambda u: (u.t, u.x)):
        kids = children[v]
        if len(dims) + 1 > len(_LETTERS):
            raise StateSpaceError("frontier too wide for the einsum DP")
        if not kids:
            vec = lam if v.t == 0 else p_bulk
            law = add_axis(law, vec)
            dims.append(v)
        elif len(kids) == 1:
            # deterministic copy: duplicate the child's axis
            ci = dims.index(kids[0])
            letter = {u: _LETTERS[i] for i, u in enumerate(dims)}
            nl = _LETTERS[len(dims)]
            eye = np.eye(q)
            sub = "".join(letter[u] for u in dims) + "," + letter[kids[0]] + nl
            law = np.einsum(sub + "->" + "".join(letter[u] for u in dims) + nl, law, eye)
            dims.append(v)
        else:
            letter = {u: _LETTERS[i] for i, u in enumerate(dims)}
            nl = _LETTERS[len(dims)]
            sub = (
                "".join(letter[u] for u in dims)
                + ","
                + letter[kids[0]]
                + letter[kids[1]]
                + nl
            )
            law = np.einsum(
                sub + "->" + "".join(letter[u] for u in dims) + nl, law, branch, optimize=True
            )
            dims.append(v)
        # retire children that no longer feed anything and are not roots
        for c in set(kids):
            pending_parents[c] -= 1
        retire = [
            u
            for u in set(kids)
            if pending_parents.get(u, 0) == 0 and u not in roots and u in dims
        ]
        if retire:
            letter = {u: _LETTERS[i] for i, u in enumerate(dims)}
            keep = [u for u in dims if u not in retire]
            law = np.einsum(
                "".join(letter[u] for u in dims) + "->" + "".join(letter[u] for u in keep), law
            )
            dims = keep

    return _queries_law(law, dims, pts, q).probs


# ---------------------------------------------------------------------------
# Two-sample chi-square gate
# ---------------------------------------------------------------------------

def pooled_two_sample_chisquare(
    counts1: np.ndarray, counts2: np.ndarray, min_combined: int = 10
) -> tuple[float, int, float, int]:
    """Contingency chi-square between two count vectors over the same cells.

    Cells whose combined count is below ``min_combined`` (expected < 5 per
    sample at equal sizes) are pooled into one bucket; an undersized bucket
    is merged into the smallest kept cell.  Returns (statistic, dof,
    p_value, n_cells_after_pooling).
    """
    c1 = np.asarray(counts1, dtype=np.float64)
    c2 = np.asarray(counts2, dtype=np.float64)
    combined = c1 + c2
    keep = combined >= min_combined
    cells = [(float(c1[i]), float(c2[i])) for i in np.flatnonzero(keep)]
    rest = (float(c1[~keep].sum()), float(c2[~keep].sum()))
    if rest[0] + rest[1] > 0:
        if rest[0] + rest[1] >= min_combined or not cells:
            cells.append(rest)
        else:
            j = min(range(len(cells)), key=lambda i: cells[i][0] + cells[i][1])
            cells[j] = (cells[j][0] + rest[0], cells[j][1] + rest[1])
    if len(cells) < 2:
        return 0.0, 0, 1.0, len(cells)
    n1 = sum(a for a, _ in cells)
    n2 = sum(b_ for _, b_ in cells)
    stat = 0.0
    for a, b_ in cells:
        tot = a + b_
        e1 = tot * n1 / (n1 + n2)
        e2 = tot * n2 / (n1 + n2)
        stat += (a - e1) ** 2 / e1 + (b_ - e2) ** 2 / e2
    dof = len(cells) - 1
    return stat, dof, float(_chi2.sf(stat, dof)), len(cells)


def _encode_tuples(samples: np.ndarray, q: int) -> np.ndarray:
    codes = np.zeros(samples.shape[0], dtype=np.int64)
    for j in range(samples.shape[1]):
        codes = codes * q + (samples[:, j].astype(np.int64) - 1)
    return codes


def corrupted(params: VmpParams) -> VmpParams:
    """The deliberately wrong dual: boundary table transposed off-diagonal."""
    return VmpParams(
        params.q, params.w, params.b, params.kappa, params.g.transposed(), params.p, params.lam
    )


def duality_gof_test(
    params: VmpParams,
    points,
    trials: int,
    seed: int,
    corrupt_dual: bool = False,
    alpha: float = 0.01,
) -> dict:
    """Two-sample chi-square between forward and dual samples.

    Forward and dual samplers use disjoint seed streams derived from
    ``seed``; optionally the dual side runs with the transposed boundary
    table (power check).  Report includes the statistic, dof, p-value and
    the total variation distance between the two empirical laws.
    """
    if trials < 10_000:
        raise InvalidParameterError("GOF gate needs at least 10^4 trials per side")
    pts = as_query_points(points)
    q = params.q
    fwd = forward_sample_many(params, pts, derive_seed(seed, "gof-forward"), trials)
    dual_params = corrupted(params) if corrupt_dual else params
    dual = dual_sample_many(dual_params, pts, derive_seed(seed, "gof-dual"), trials)
    n_cells = q ** len(pts)
    counts_f = np.bincount(_encode_tuples(fwd, q), minlength=n_cells)
    counts_d = np.bincount(_encode_tuples(dual, q), minlength=n_cells)
    stat, dof, p_value, cells = pooled_two_sample_chisquare(counts_f, counts_d)
    tvd = 0.5 * float(np.abs(counts_f / trials - counts_d / trials).sum())
    return {
        "statistic": stat,
        "dof": dof,
        "p_value": p_value,
        "tvd": tvd,
        "n": trials,
        "cells": cells,
        "corrupt_dual": corrupt_dual,
        "alpha": alpha,
        "pass": bool(p_value >= alpha),
    }


# ---------------------------------------------------------------------------
# Frozen parameter suites
# ---------------------------------------------------------------------------

def _q2_asym(b: float, kappa: float, lam=(0.6, 0.4), p=(0.3, 0.7)) -> VmpParams:
    g = boundary_table_from(2, {(1, 2): (0.85, 0.15), (2, 1): (0.25, 0.75)})
    return simple_vmp(2, b, kappa, g, ColorDistribution(2, p), ColorDistribution(2, lam))


_Q3_TABLES = {
    "A": {
        (1, 2): (0.2, 0.1, 0.7),
        (2, 1): (0.6, 0.3, 0.1),
        (1, 3): (0.3, 0.5, 0.2),
        (3, 1): (0.1, 0.2, 0.7),
        (2, 3): (0.5, 0.3, 0.2),
        (3, 2): (0.15, 0.25, 0.6),
    },
    "B": {
        (1, 2): (0.05, 0.8, 0.15),
        (2, 1): (0.7, 0.1, 0.2),
        (1, 3): (0.1, 0.15, 0.75),
        (3, 1): (0.65, 0.2, 0.15),
        (2, 3): (0.1, 0.7, 0.2),
        (3, 2): (0.2, 0.1, 0.7),
    },
    "C": {
        (1, 2): (0.4, 0.45, 0.15),
        (2, 1): (0.1, 0.6, 0.3),
        (1, 3): (0.55, 0.15, 0.3),
        (3, 1): (0.2, 0.3, 0.5),
        (2, 3): (0.3, 0.55, 0.15),
        (3, 2): (0.45, 0.1, 0.45),
    },
}


def _q3_asym(
    b: float, kappa: float, style: str = "A", lam=(0.5, 0.3, 0.2), p=(0.25, 0.35, 0.4)
) -> VmpParams:
    g = boundary_table_from(3, _Q3_TABLES[style])
    return simple_vmp(3, b, kappa, g, ColorDistribution(3, p), ColorDistribution(3, lam))


def oracle_settings() -> list[dict]:
    """Enumerable instances for the exact forward-vs-dual equality check:
    q in {2,3}, t <= 2, at most two query points."""
    import math

    settings = [
        {"name": "potts-q2-ln2-t2", "params": potts_params(math.log(2.0), 2), "points": [(1, 2)]},
        {"name": "potts-q3-ln2-t2", "params": potts_params(math.log(2.0), 3), "points": [(1, 2)]},
        {"name": "potts-q2-ln2-k2", "params": potts_params(math.log(2.0), 2), "points": [(-1, 2), (1, 2)]},
        {"name": "potts-q3-b1.5-t1", "params": potts_params(1.5, 3), "points": [(0, 1)]},
        {"name": "q2-asym-t1", "params": _q2_asym(0.3, 0.1), "points": [(0, 1)]},
        {"name": "q2-asym-t2", "params": _q2_asym(0.3, 0.1), "points": [(1, 2)]},
        {"name": "q2-asym-k2-t2", "params": _q2_asym(0.25, 0.05), "points": [(-1, 2), (1, 2)]},
        {"name": "q2-nokill-t2", "params": _q2_asym(0.35, 0.0), "points": [(1, 2)]},
        {"name": "q3-asym-t1", "params": _q3_asym(0.3, 0.1), "points": [(0, 1)]},
        {"name": "q3-asym-t2", "params": _q3_asym(0.3, 0.1), "points": [(1, 2)]},
        {"name": "q3-asym-k2-t1", "params": _q3_asym(0.2, 0.15), "points": [(0, 1), (2, 1)]},
        {"name": "q3-asym-k2-t2", "params": _q3_asym(0.25, 0.1), "points": [(-1, 2), (1, 2)]},
        {"name": "q2-heavykill-t2", "params": _q2_asym(0.1, 0.5), "points": [(1, 2)]},
        {"name": "q3-nowalk-mix-t2", "params": _q3_asym(0.5, 0.3), "points": [(1, 2)]},
    ]
    return settings


#: Of the 20 gate settings, at least this many must pass on honest samples
#: and fail on the corrupted dual; the two Potts settings are the slack.
GATE_NEED = 18


def gate_settings() -> list[dict]:
    """The 20 statistical-gate settings.

    Eighteen settings use asymmetric boundary tables with two query points
    (equal or mixed times); the transposed-dual corruption shifts each of
    their exact laws by total variation >= 0.017, so the power check is
    decisive at 10^5 samples per side.  One-point laws are invariant under
    transposition (a space reflection maps the transposed model back to the
    original), so power requires multi-point queries.  The two Potts
    settings carry symmetric tables on which transposition is a no-op;
    they are the tolerated non-failures of the power gate.
    """
    import math

    adj_t1 = [(0, 1), (2, 1)]
    adj_t2 = [(-1, 2), (1, 2)]
    mix_t12 = [(0, 1), (1, 2)]
    mix_t23 = [(-1, 2), (0, 3)]
    return [
        {"name": "potts-q3-b1.5", "params": potts_params(1.5, 3), "points": [(1, 2)]},
        {"name": "potts-q2-ln2", "params": potts_params(math.log(2.0), 2), "points": [(1, 2)]},
        {"name": "q3A-b.3-k.1-adj2", "params": _q3_asym(0.3, 0.1, "A"), "points": adj_t2},
        {"name": "q3A-b.3-k.1-mix12", "params": _q3_asym(0.3, 0.1, "A"), "points": mix_t12},
        {"name": "q3A-b.35-k.05-adj1", "params": _q3_asym(0.35, 0.05, "A"), "points": adj_t1},
        {"name": "q3A-b.35-k.05-adj2", "params": _q3_asym(0.35, 0.05, "A"), "points": adj_t2},
        {"name": "q3A-b.2-k.15-adj2", "params": _q3_asym(0.2, 0.15, "A"), "points": adj_t2},
        {"name": "q3A-b.25-k0-adj2", "params": _q3_asym(0.25, 0.0, "A"), "points": adj_t2},
        {"name": "q3A-b.4-k.1-adj1", "params": _q3_asym(0.4, 0.1, "A"), "points": adj_t1},
        {"name": "q3B-b.3-k.1-mix12", "params": _q3_asym(0.3, 0.1, "B"), "points": mix_t12},
        {"name": "q3B-b.35-k.05-mix23", "params": _q3_asym(0.35, 0.05, "B"), "points": mix_t23},
        {"name": "q3B-b.2-k.15-mix12", "params": _q3_asym(0.2, 0.15, "B"), "points": mix_t12},
        {"name": "q3B-b.25-k0-mix23", "params": _q3_asym(0.25, 0.0, "B"), "points": mix_t23},
        {"name": "q3B-b.4-k.1-mix12", "params": _q3_asym(0.4, 0.1, "B"), "points": mix_t12},
        {"name": "q3C-b.3-k.1-mix12", "params": _q3_asym(0.3, 0.1, "C"), "points": mix_t12},
        {"name": "q3C-b.35-k.05-mix23", "params": _q3_asym(0.35, 0.05, "C"), "points": mix_t23},
        {"name": "q3C-b.4-k.1-mix12", "params": _q3_asym(0.4, 0.1, "C"), "points": mix_t12},
        {"name": "q3C-b.2-k.15-mix23", "params": _q3_asym(0.2, 0.15, "C"), "points": mix_t23},
        {"name": "q3C-b.25-k0-mix12", "params": _q3_asym(0.25, 0.0, "C"), "points": mix_t12},
        {"name": "q2-b.3-k.1-mix12", "params": _q2_asym(0.3, 0.1), "points": mix_t12},
    ]


def _gate_one(item, trials, seed, corrupt_dual, alpha):
    i, st = item
    rep = duality_gof_test(
        st["params"],
        st["points"],
        trials,
        derive_seed(seed, "gate-setting", i),
        corrupt_dual=corrupt_dual,
        alpha=alpha,
    )
    rep["setting"] = st["name"]
    return rep


def run_duality_gate(
    trials: int,
    seed: int,
    corrupt_dual: bool = False,
    alpha: float = 0.01,
    settings: list[dict] | None = None,
    workers: int = 1,
) -> list[dict]:
    """GOF reports for every gate setting, seeds derived per setting index."""
    import functools

    from .parallel import parallel_map

    if settings is None:
        settings = gate_settings()
    worker = functools.partial(
        _gate_one, trials=trials, seed=seed, corrupt_dual=corrupt_dual, alpha=alpha
    )
    return parallel_map(worker, list(enumerate(settings)), workers)
