"""Forward/dual distributional equality checks, exact and statistical.

The k-point color law of the forward chain must coincide with the law of
the root colors of backward-net genealogies built over one shared field.
Two independent exact oracles verify this at desk scale:

* ``exact_forward_law`` integrates the forward chain by dynamic programming
  over the joint configuration law on the shrinking dependence cone.
* ``exact_dual_law`` enumerates every arrow configuration of the dual cone,
  weights each by its probability, and propagates exact color laws through
  the resulting genealogy DAG union, one kernel step per vertex (``lam``,
  ``p``, copy or ``g``; uniforms integrated out vertex by vertex).  The
  frontier law is joint, never a product of marginals, because
  coalescence correlates the query genealogies.

Beyond the parameter container, the two computations share only
``_queries_law``, the last step that reads the query tuple's law off the
final joint law.  Their dynamic programs are separate, so their agreement
to 1e-10 is a genuine check of the duality, not of a single
implementation.  The one Monte-Carlo dual sampler, ``dual_colors_sweep``,
runs the trials of several query groups (each its own parameters, seeds,
points and window, all one q) level by level in one down/up sweep with the
forward chain's site rule; ``dual_colors_genealogy`` is its one-group call,
and ``dual_colors_graph`` builds each DAG and is its reference.  ``duality_gof_test`` adds a two-sample chi-square gate between
large forward and dual samples drawn from disjoint seed streams.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coloring import ColorDistribution, boundary_table_from, color_dag
from .dualgraph import build_dag
from .errors import InvalidParameterError, ParityError, StateSpaceError, WindowError
from .lattice_net import BOTH_CODE, KeyedNet, Vertex, Window, arrow_outcomes
from .lattice_net import is_odd_vertex
from .models import SiteRule, VmpParams, _invcdf_rows, forward_batch, potts_params, simple_vmp, site_colors
from .models import transition_distribution
from .rng import _as_u64, derive_seed, derive_seed_array, vertex_uniform_grid


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


def cone_window(points) -> Window:
    """Smallest window containing the dependence cones of all points down to t = 0."""
    pts = as_query_points(points)
    x_lo = min(v.x - v.t for v in pts)
    x_hi = max(v.x + v.t for v in pts)
    return Window(x_lo, x_hi, 0, max(v.t for v in pts))


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

    def tvd(self, other: "JointColorLaw") -> float:
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


# ---------------------------------------------------------------------------
# Dual sampling
# ---------------------------------------------------------------------------

def _merge_runs(*runs: np.ndarray) -> np.ndarray:
    """``np.unique`` of the concatenated sorted runs: one stable sort merges
    the runs, then adjacent duplicates are dropped."""
    return _drop_repeats(np.sort(np.concatenate(runs), kind="stable"))


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """A sorted array without its adjacent duplicates."""
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


#: Per outcome code (L, R, Both, None), whether the vertex reads its child at
#: x - 1 and at x + 1.
_READS = np.array([[True, False], [False, True], [True, True], [False, False]])


def dual_colors_genealogy(params: VmpParams, seeds, points, window: Window | None = None) -> np.ndarray:
    """Root colors of the genealogies of ``points``, one shared field per
    seed: an array of shape ``np.shape(seeds) + (k,)``.  The one-group
    call of ``dual_colors_sweep``.

    Raises WindowError exactly where ``dual_colors_graph`` does: when the
    window does not reach t = 0, holds not every query point, or a
    genealogy leaves its x range.
    """
    return dual_colors_sweep([(params, seeds, points, window)])[0]


#: Largest key that int32 holds; wider key spaces use int64.
_INT32_KEYS = np.iinfo(np.int32).max


def dual_colors_sweep(groups) -> list[np.ndarray]:
    """Root colors of several query groups ``(params, seeds, points,
    window)`` that share q, in one down/up sweep of ``max t`` levels:
    group i's colors are ``out[i]``, as ``dual_colors_genealogy`` returns
    them for that group alone, byte for byte.

    All trials of all groups advance together, one time level at a time.
    Down from the latest query time, each needed vertex is a sorted
    (trial, x) key whose uniform is drawn and classified once with its
    group's w and kappa; a level keeps its keys, outcome codes, and the
    branch/kill uniforms with their groups (every uniform at t = 0).  Up
    from t = 0, drawing nothing, each level is colored from the one below by
    ``models.site_colors``, the forward chain's rule, so a draw equals the
    forward run of its seed.  A group whose genealogy leaves its own window
    raises WindowError, whatever the other groups' windows.
    """
    rule = SiteRule.of([params for params, *_ in groups])
    pts_of, wins, flats, shapes = [], [], [], []
    for params, seeds, points, window in groups:
        pts = as_query_points(points)
        win = window if window is not None else cone_window(pts)
        if win.t_min > 0 or any(not win.contains(v.x, v.t) for v in pts):
            raise WindowError(f"window {win} does not hold the query points {pts} down to t = 0")
        pts_of.append(pts)
        wins.append(win)
        flats.append(_as_u64(seeds).reshape(-1))
        shapes.append(np.shape(seeds) + (len(pts),))
    sizes = [flat.size for flat in flats]
    seed_of = np.concatenate(flats)
    # a vertex in its window has x - x_min + 1 in [1, width + 1] and a child
    # in [0, width + 2], so x +- 1 never reaches into the next trial's keys
    widths = [win.x_max - win.x_min for win in wins]
    span = max(widths) + 3
    key_dtype = np.int32 if seed_of.size * span <= _INT32_KEYS else np.int64
    # each trial's group; each group's x at column 0 and its window's x_max column
    group_of = np.repeat(np.arange(len(groups), dtype=np.intp), sizes)
    x_at_col0 = np.array([win.x_min - 1 for win in wins])
    last_col = np.array([width + 1 for width in widths])

    # per query time, each group's query columns and their keys (trials, columns)
    queries: dict[int, list] = {}
    starts = np.cumsum([0] + sizes)
    for i, (pts, win) in enumerate(zip(pts_of, wins)):
        trial_base = np.arange(starts[i], starts[i + 1], dtype=key_dtype) * span
        for t in sorted({v.t for v in pts}):
            cols = [j for j, v in enumerate(pts) if v.t == t]
            offsets = np.array([pts[j].x - win.x_min + 1 for j in cols], dtype=key_dtype)
            queries.setdefault(t, []).append((i, cols, trial_base[:, None] + offsets))
    t_max = max(queries)
    levels = []  # (keys, outcome codes, kept uniforms, their groups) per time, t_max first
    keys = np.empty(0, dtype=key_dtype)
    for t in range(t_max, -1, -1):
        if t in queries:
            keys = _merge_runs(keys, *(qk.ravel() for *_, qk in queries[t]))
        trial, col = np.divmod(keys, span)  # int32 indices: ``take`` is the fast gather
        group = group_of.take(trial)
        escaped = (col == 0) | (col > last_col.take(group))
        if escaped.any():
            win = wins[group[escaped.argmax()]]
            raise WindowError(f"genealogy escaped window {win} at t={t}; widen the window")
        u = vertex_uniform_grid(seed_of.take(trial), col + x_at_col0.take(group), np.int64(t))
        if t == 0:
            levels.append((keys, None, u, group))
            break
        outcome = arrow_outcomes(u, rule.w.take(group), rule.kappa.take(group))
        drawn = outcome >= BOTH_CODE
        levels.append((keys, outcome, u[drawn], group[drawn]))
        # each key's two would-be children, x - 1 then x + 1, kept where read:
        # a trial's keys lie two or more apart and inside its window, so the
        # kept ones are in key order and only a shared child repeats
        both = np.empty((keys.size, 2), dtype=key_dtype)
        np.subtract(keys, 1, out=both[:, 0])
        np.add(keys, 1, out=both[:, 1])
        keys = _drop_repeats(np.compress(_READS.take(outcome, axis=0).ravel(), both))

    out = [np.zeros((size, len(pts)), dtype=np.uint8) for size, pts in zip(sizes, pts_of)]
    for t in range(t_max + 1):
        keys, outcome, u, group = levels.pop()
        if t == 0:
            colors = _invcdf_rows(u, rule.lam_cum.take(group, axis=0))
        else:  # a child the vertex does not read looks up an arbitrary color
            padded = np.append(colors, np.uint8(1))
            left, right = (padded[np.searchsorted(below, keys + d)] for d in (-1, 1))
            colors = site_colors(rule, outcome, u, left, right, group)
        for i, cols, qk in queries.get(t, ()):
            out[i][:, cols] = colors[np.searchsorted(keys, qk)]
        below = keys
    return [colors_of.reshape(shape) for colors_of, shape in zip(out, shapes)]


def dual_colors_graph(params: VmpParams, seed: int, points, window: Window | None = None) -> tuple[int, ...]:
    """Same law and values as ``dual_colors_genealogy`` for one seed, but
    through explicit RootedDag construction and the sequential coloring."""
    pts = as_query_points(points)
    win = window if window is not None else cone_window(pts)
    net = KeyedNet(params.b, params.kappa, seed, win)
    return tuple(color_dag(build_dag(net, v), params.g, params.lam, params.p)[v] for v in pts)


#: Trials per batch of the two samplers below: bounds memory, moves no output.
_TRIAL_BATCH = 1 << 14


def _sample_many(sample, k: int, master_seed: int, trials: int, stream: str) -> np.ndarray:
    """(trials, k) colors of ``sample(seeds)``; trial i uses the seed derived from index i."""
    out = np.zeros((trials, k), dtype=np.uint8)
    for lo in range(0, trials, _TRIAL_BATCH):
        hi = min(lo + _TRIAL_BATCH, trials)
        out[lo:hi] = sample(derive_seed_array(master_seed, lo, hi, stream))
    return out


def dual_sample_many(params: VmpParams, points, master_seed: int, trials: int) -> np.ndarray:
    """(trials, k) dual colors; trial i uses the seed derived from index i."""
    pts = as_query_points(points)
    sample = functools.partial(dual_colors_genealogy, params, points=pts)
    return _sample_many(sample, len(pts), master_seed, trials, "dual-trial")


def forward_sample_many(params: VmpParams, points, master_seed: int, trials: int) -> np.ndarray:
    """(trials, k) forward colors via the vectorized chain, seeds per index."""
    pts = as_query_points(points)
    win = cone_window(pts)
    sample = functools.partial(forward_batch, params, x_lo=win.x_min, x_hi=win.x_max, record=pts)
    return _sample_many(sample, len(pts), master_seed, trials, "forward-trial")


# ---------------------------------------------------------------------------
# Exact forward oracle
# ---------------------------------------------------------------------------

#: Caps of the two exact oracles: joint forward states (q^width) and
#: enumerated dual arrow configurations.
_MAX_STATES = 250_000
_MAX_CONFIGS = 300_000


def _queries_law(law: np.ndarray, dims: list[Vertex], pts: list[Vertex], q: int) -> np.ndarray:
    """Marginal joint law over the query tuple; duplicate query points map
    to the same axis (diagonal expansion)."""
    out = np.zeros((q,) * len(pts))
    grid = np.indices(law.shape)
    np.add.at(out, tuple(grid[dims.index(v)] for v in pts), law)
    return out


def exact_forward_law(params: VmpParams, points) -> JointColorLaw:
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
    if q ** len(base) > _MAX_STATES:
        raise StateSpaceError(
            f"base width {len(base)} gives {q ** len(base)} states (cap {_MAX_STATES})"
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
        axis = {v: i for i, v in enumerate(dims)}
        operands: list = [law, list(range(len(dims)))]
        new_dims = [Vertex(x, s) for x in new_sites]
        new_axes = list(range(len(dims), len(dims) + len(new_dims)))
        for v, i in zip(new_dims, new_axes):
            lv, rv = Vertex(v.x - 1, s - 1), Vertex(v.x + 1, s - 1)
            if lv not in axis or rv not in axis:
                raise WindowError(f"cone bookkeeping missed neighbors of ({v.x},{s})")
            operands += [kernel, [axis[lv], axis[rv], i]]
        kept = [v for v in dims if v in recorded]
        out_dims = kept + new_dims
        if q ** len(out_dims) > _MAX_STATES:
            raise StateSpaceError(f"state space {q ** len(out_dims)} exceeds cap {_MAX_STATES}")
        law = np.einsum(*operands, [axis[v] for v in kept] + new_axes, optimize=True)
        dims = out_dims
        recorded |= {v for v in new_dims if v in query_verts}

    return JointColorLaw(q, _queries_law(law, dims, pts, q))


# ---------------------------------------------------------------------------
# Exact dual oracle
# ---------------------------------------------------------------------------

def exact_dual_law(params: VmpParams, points) -> JointColorLaw:
    """Exact joint law of the dual root colors.

    Sums over every arrow configuration of the decision cone (vertices
    with 1 <= t <= root time), weighting each by its probability; for each
    configuration the exact root-color joint law is propagated
    leaves-to-roots over the shared DAG union, with the coloring uniforms
    integrated out exactly.  Outcomes with probability zero are never
    enumerated.
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
    # outcome codes index _CHILD_OFFSETS: L, R, Both, None
    probs = (0.5 * params.w, 0.5 * params.w, params.b, params.kappa)
    support = [(o, pr) for o, pr in enumerate(probs) if pr > 0.0]

    n_configs = len(support) ** len(decision)
    if n_configs > _MAX_CONFIGS:
        raise StateSpaceError(
            f"{n_configs} arrow configurations exceed cap {_MAX_CONFIGS}; shrink the instance"
        )
    if q ** len(pts) > _MAX_STATES:
        raise StateSpaceError(f"{len(pts)} query points give {q ** len(pts)} states (cap {_MAX_STATES})")
    total = np.zeros((q,) * len(pts))
    for config in itertools.product(support, repeat=len(decision)):
        outcomes = {v: o for v, (o, _) in zip(decision, config)}
        total += math.prod(pr for _, pr in config) * _dag_union_law(params, pts, outcomes)
    return JointColorLaw(q, total)


#: Child x-offsets of a vertex per arrow outcome code: L, R, Both, None.
_CHILD_OFFSETS = ((-1,), (1,), (-1, 1), ())


def _dag_union_law(params: VmpParams, pts: list[Vertex], outcomes: dict[Vertex, int]) -> np.ndarray:
    """Exact joint root-color law for one fixed arrow configuration.

    Visits the DAG union leaves-to-roots, one vertex at a time: the
    vertex's color axis enters through one kernel over (children..., v),
    ``lam`` at a time-zero leaf, ``p`` at a killing leaf, the identity for
    a one-child copy and ``g`` at a branching vertex.  Then each child
    whose last parent is in, unless it is a root, is summed out.  The law
    stays joint because genealogies share vertices.
    """
    q = params.q
    children: dict[Vertex, tuple[Vertex, ...]] = {}
    stack = list(pts)
    while stack:
        v = stack.pop()
        if v not in children:
            offsets = _CHILD_OFFSETS[outcomes[v]] if v.t > 0 else ()
            children[v] = tuple(Vertex(v.x + d, v.t - 1) for d in offsets)
            stack.extend(children[v])
    pending = Counter(c for kids in children.values() for c in kids)
    roots = set(pts)
    lam, p_bulk = params.lam.as_array(), params.p.as_array()
    copy, branch = np.eye(q), params.g.branch_tensor()  # [left, right, new]

    law = np.ones(())
    dims: list[Vertex] = []
    for v in sorted(children, key=lambda u: (u.t, u.x)):
        kids = children[v]
        n = len(dims)
        if q ** (n + 1) > _MAX_STATES:
            raise StateSpaceError(f"frontier of {n + 1} colors exceeds the state cap {_MAX_STATES}")
        kernel = (lam if v.t == 0 else p_bulk, copy, branch)[len(kids)]
        axes = list(range(n))
        law = np.einsum(law, axes, kernel, [dims.index(c) for c in kids] + [n], axes + [n])
        dims.append(v)
        pending.subtract(kids)
        keep = [i for i, u in enumerate(dims) if not (u in kids and pending[u] == 0 and u not in roots)]
        if len(keep) < len(dims):
            law = np.einsum(law, list(range(len(dims))), keep)
            dims = [dims[i] for i in keep]

    return _queries_law(law, dims, pts, q)


# ---------------------------------------------------------------------------
# Two-sample chi-square gate
# ---------------------------------------------------------------------------

def pooled_two_sample_chisquare(counts1: np.ndarray, counts2: np.ndarray) -> tuple[float, int, float, int]:
    """Contingency chi-square between two count vectors over the same cells.

    Cells whose combined count is below 10 (expected < 5 per sample at
    equal sizes) are pooled into one bucket; an undersized bucket is merged
    into the smallest kept cell.  Returns (statistic, dof, p_value,
    n_cells_after_pooling).
    """
    c1 = np.asarray(counts1, dtype=np.float64)
    c2 = np.asarray(counts2, dtype=np.float64)
    combined = c1 + c2
    keep = combined >= 10
    cells = [(float(c1[i]), float(c2[i])) for i in np.flatnonzero(keep)]
    rest = (float(c1[~keep].sum()), float(c2[~keep].sum()))
    if rest[0] + rest[1] > 0:
        if rest[0] + rest[1] >= 10 or not cells:
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
    from scipy.special import chdtrc  # 0.2 s to import; only p-values need it
    return stat, dof, float(chdtrc(dof, stat)), len(cells)


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


#: Draws per side of the statistical gate unless a run sets its own.
GOF_TRIALS = 100_000
#: Fewest draws per side the statistical gate accepts.
GOF_MIN_TRIALS = 10_000
#: Significance level of each setting's chi-square in the statistical gate.
GOF_ALPHA = 0.01


def duality_gof_test(
    params: VmpParams,
    points,
    trials: int,
    seed: int,
    corrupt_dual: bool = False,
) -> dict:
    """Two-sample chi-square between forward and dual samples.

    Forward and dual samplers use disjoint seed streams derived from
    ``seed``; optionally the dual side runs with the transposed boundary
    table (power check).  Report includes the statistic, dof, p-value and
    the total variation distance between the two empirical laws.
    """
    if trials < GOF_MIN_TRIALS:
        raise InvalidParameterError(f"GOF gate needs at least {GOF_MIN_TRIALS} trials per side")
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
        "alpha": GOF_ALPHA,
        "pass": bool(p_value >= GOF_ALPHA),
    }


# ---------------------------------------------------------------------------
# Frozen parameter suites
# ---------------------------------------------------------------------------

def _q2_asym(b: float, kappa: float) -> VmpParams:
    g = boundary_table_from(2, {(1, 2): (0.85, 0.15), (2, 1): (0.25, 0.75)})
    return simple_vmp(2, b, kappa, g, ColorDistribution(2, (0.3, 0.7)), ColorDistribution(2, (0.6, 0.4)))


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


def _q3_asym(b: float, kappa: float, style: str = "A") -> VmpParams:
    g = boundary_table_from(3, _Q3_TABLES[style])
    return simple_vmp(3, b, kappa, g, ColorDistribution(3, (0.25, 0.35, 0.4)), ColorDistribution(3, (0.5, 0.3, 0.2)))


def oracle_settings() -> list[dict]:
    """Enumerable instances for the exact forward-vs-dual equality check:
    q in {2,3}, t <= 2, at most two query points."""
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


def _gate_one(item, trials, seed, corrupt_dual):
    i, st = item
    rep = duality_gof_test(
        st["params"], st["points"], trials, derive_seed(seed, "gate-setting", i), corrupt_dual=corrupt_dual
    )
    rep["setting"] = st["name"]
    return rep


def run_duality_gate(
    trials: int,
    seed: int,
    corrupt_dual: bool = False,
    settings: list[dict] | None = None,
    workers: int = 1,
) -> list[dict]:
    """GOF reports for every gate setting, seeds derived per setting index."""
    from .parallel import parallel_map

    if settings is None:
        settings = gate_settings()
    worker = functools.partial(_gate_one, trials=trials, seed=seed, corrupt_dual=corrupt_dual)
    return parallel_map(worker, list(enumerate(settings)), workers)
