"""Diffusive-rescaling experiments: snapping, censuses, convergence probes.

Space contracts by eps and time by eps^2; a level-n model keeps
b_n / eps_n and kappa_n / eps_n^2 exactly equal to the continuum branching
and killing parameters.  Continuum color laws have no closed form, so
convergence is probed as a Cauchy property: consecutive-level estimates
must stop moving beyond Monte Carlo noise.  Slice colors at scale are
computed through the dual genealogy (bit-identical to a forward run with
the same seed, at a fraction of the cost).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coloring import BoundaryTable, ColorDistribution, uniform_boundary_table, uniform_colors
from .duality import (
    JointColorLaw,
    _encode_tuples,
    cone_window,
    dual_colors_genealogy,
    pooled_two_sample_chisquare,
)
from .errors import BudgetError, InvalidParameterError, WindowError
from .lattice_net import ArrowOutcome, Vertex, Window, _step_positions, reachable_positions
from .models import VmpParams, simple_vmp
from .parallel import parallel_map
from .rng import derive_seed, derive_seed_array


@dataclass(frozen=True)
class ScalingSchedule:
    """Per-level parameters with exact diffusive ratios.

    Level n has eps = eps_levels[n], branching b*eps and killing
    kappa*eps^2 (exact by construction, not approximated).  Noises
    (g, p, lam) are fixed across levels by default; per-level overrides are
    allowed.
    """

    eps_levels: tuple[float, ...]
    b: float
    kappa: float
    q: int
    g: BoundaryTable | None = None
    p: ColorDistribution | None = None
    lam: ColorDistribution | None = None
    g_levels: tuple[BoundaryTable, ...] | None = None
    p_levels: tuple[ColorDistribution, ...] | None = None

    def __post_init__(self):
        eps = self.eps_levels
        if not eps or any(e <= 0 for e in eps) or any(
            eps[i + 1] >= eps[i] for i in range(len(eps) - 1)
        ):
            raise InvalidParameterError("eps_levels must be positive and strictly decreasing")
        for e in eps:
            if self.b * e + self.kappa * e * e > 1:
                raise InvalidParameterError(f"b_n + kappa_n > 1 at eps={e}")

    @property
    def n_levels(self) -> int:
        return len(self.eps_levels)

    def level_params(self, n: int) -> VmpParams:
        e = self.eps_levels[n]
        g = self.g_levels[n] if self.g_levels else (self.g or uniform_boundary_table(self.q))
        p = self.p_levels[n] if self.p_levels else (self.p or uniform_colors(self.q))
        lam = self.lam or uniform_colors(self.q)
        return simple_vmp(self.q, self.b * e, self.kappa * e * e, g, p, lam)


def potts_style_schedule(
    q: int = 3,
    levels: tuple[int, ...] = (3, 4, 5, 6),
    lam: ColorDistribution | None = None,
) -> ScalingSchedule:
    """Dyadic schedule eps_n = 2^-n with uniform boundary/bulk noises and
    continuum parameters (q/2, q), the scaling anchors of the Potts chain
    under eps = e^-beta."""
    return ScalingSchedule(
        eps_levels=tuple(2.0 ** -n for n in levels),
        b=q / 2.0,
        kappa=float(q),
        q=q,
        lam=lam,
    )


def snap(point: tuple[float, float], eps: float) -> Vertex:
    """Nearest odd-parity vertex to (x/eps, t/eps^2), ties toward smaller
    coordinates."""
    x, t = point
    if t < 0:
        raise InvalidParameterError("continuum time must be non-negative")
    t_n = math.ceil(t / (eps * eps) - 0.5)
    xx = x / eps
    base = math.ceil(xx - 0.5)
    if (base + t_n) % 2 != 0:
        return Vertex(base, t_n)
    lo, hi = base - 1, base + 1
    d_lo, d_hi = abs(xx - lo), abs(xx - hi)
    return Vertex(lo if d_lo <= d_hi else hi, t_n)


@dataclass(frozen=True)
class RescaledPoint:
    """A continuum point with its snapped lattice vertex per schedule level.

    Snapped vertices satisfy |eps*x_n - x| <= eps and
    |eps^2*t_n - t| <= eps^2 with x_n + t_n odd.
    """

    continuum: tuple[float, float]
    eps_levels: tuple[float, ...]
    snapped: tuple[Vertex, ...] = ()

    def __post_init__(self):
        snapped = tuple(snap(self.continuum, e) for e in self.eps_levels)
        object.__setattr__(self, "snapped", snapped)
        x, t = self.continuum
        for e, v in zip(self.eps_levels, snapped):
            if abs(e * v.x - x) > e + 1e-12 or abs(e * e * v.t - t) > e * e + 1e-12:
                raise InvalidParameterError(f"snap error bound violated at eps={e}")

    def at_level(self, n: int) -> Vertex:
        return self.snapped[n]


# ---------------------------------------------------------------------------
# Slice censuses
# ---------------------------------------------------------------------------

def interface_census(
    slice_row: dict[int, int], x_lo: int, x_hi: int, eps: float | None = None
) -> tuple[list[int], list[float]]:
    """Boundary midpoints between adjacent same-parity sites of different
    color inside [x_lo, x_hi], plus interval lengths (rescaled by eps when
    given, else lattice units)."""
    xs = sorted(x for x in slice_row if x_lo <= x <= x_hi)
    boundaries = [x + 1 for x, nxt in zip(xs, xs[1:]) if slice_row[x] != slice_row[nxt]]
    scale = eps if eps is not None else 1.0
    lengths = [(b2 - b1) * scale for b1, b2 in zip(boundaries, boundaries[1:])]
    return boundaries, lengths


def max_colors_check(slice_row: dict[int, int], x_lo: int, x_hi: int) -> dict[int, int]:
    """Histogram of per-midpoint effective color multiplicity: 2 where the
    one-sided colors (left/right lattice neighbors) disagree, 1 elsewhere."""
    xs = sorted(x for x in slice_row if x_lo <= x <= x_hi)
    pairs = list(zip(xs, xs[1:]))
    two = sum(1 for a, b in pairs if slice_row[a] != slice_row[b])
    return {1: len(pairs) - two, 2: two}


def genealogy_slice(
    params: VmpParams, seed: int, xs: list[int], t: int, window: Window
) -> dict[int, int]:
    """Colors of the sites {(x, t) : x in xs} computed through the dual
    genealogy over one shared field; equals the forward slice of the same
    seed exactly."""
    pts = [(x, t) for x in xs]
    colors = dual_colors_genealogy(params, seed, pts, window)
    return dict(zip(xs, colors))


# ---------------------------------------------------------------------------
# Separation point census
# ---------------------------------------------------------------------------

def relevant_separation_points(
    net, s_time: int, t_time: int, x_lo: int, x_hi: int
) -> list[Vertex]:
    """Discrete (S,T)-relevant separation points inside the box.

    A branching vertex z at time t in (S, T), reachable by the net from
    the time-S level, counts when the reachable-position families grown
    from its two children stay disjoint at every time in (t, U), where U is
    the earlier of T and the first extinction of either family.  A first
    contact at a killing vertex ends both colliding walkers at that instant
    and therefore witnesses relevance; a contact at a live vertex
    disqualifies.  Exact set evolution, no sampling.
    """
    if net.direction != 1:
        raise InvalidParameterError("census needs a forward-oriented net")
    if not s_time < t_time:
        raise InvalidParameterError("need S < T")
    reach = t_time - s_time
    need = Window(x_lo - reach, x_hi + reach, s_time, t_time)
    w = net.window
    if not (w.x_min <= need.x_min and w.x_max >= need.x_max and w.t_min <= s_time and w.t_max >= t_time):
        raise WindowError(f"window {w} does not cover the census cone {need}")

    starts = {x for x in range(need.x_min, need.x_max + 1) if (x + s_time) % 2 == 1}
    occupied = reachable_positions(
        net, starts, s_time, t_time, x_bounds=(need.x_min, need.x_max)
    )

    out: list[Vertex] = []
    for t in range(s_time + 1, t_time):
        occ = occupied.get(t, set())
        for x in range(x_lo, x_hi + 1):
            if (x + t) % 2 != 1 or x not in occ:
                continue
            if net.outcome_at(x, t) is not ArrowOutcome.BOTH:
                continue
            if _families_separate(net, Vertex(x, t), t_time):
                out.append(Vertex(x, t))
    return sorted(out)


def _families_separate(net, z: Vertex, horizon: int) -> bool:
    left = {z.x - 1}
    right = {z.x + 1}
    u = z.t + 1
    while u < horizon:
        meet = left & right
        if meet:
            return any(net.outcome_at(x, u) is ArrowOutcome.NONE for x in meet)
        left = _step_positions(net, left, u)
        right = _step_positions(net, right, u)
        if not left or not right:
            return True
        u += 1
    return True


def separation_point_census(net, s_time: int, t_time: int, x_lo: int, x_hi: int) -> int:
    return len(relevant_separation_points(net, s_time, t_time, x_lo, x_hi))


# ---------------------------------------------------------------------------
# Cross-level experiments
# ---------------------------------------------------------------------------

def _bootstrap_tvd_ci(
    counts_a: np.ndarray,
    counts_b: np.ndarray,
    seed: int,
    n_boot: int = 500,
    level: float = 0.95,
) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    na, nb = counts_a.sum(), counts_b.sum()
    pa, pb = counts_a / na, counts_b / nb
    tvds = np.empty(n_boot)
    for i in range(n_boot):
        ra = rng.multinomial(na, pa) / na
        rb = rng.multinomial(nb, pb) / nb
        tvds[i] = 0.5 * np.abs(ra - rb).sum()
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(tvds, alpha)), float(np.quantile(tvds, 1.0 - alpha))


def _marginal_chunk(job, levels, seed, q, k):
    n, c0, c1 = job
    lv = levels[n]
    seeds = derive_seed_array(seed, c0, c1, "marginal", n)
    colors = np.array(
        [dual_colors_genealogy(lv["params"], int(s), lv["snapped"], lv["window"]) for s in seeds],
        dtype=np.uint8,
    )
    return np.bincount(_encode_tuples(colors, q), minlength=q ** k)


def _interface_chunk(job, levels, seed):
    n, c0, c1 = job
    lv = levels[n]
    seeds = derive_seed_array(seed, c0, c1, "interface", n)
    counts = []
    for s in seeds:
        row = genealogy_slice(lv["params"], int(s), lv["xs"], lv["t_n"], lv["window"])
        boundaries, _ = interface_census(row, lv["xs"][0], lv["xs"][-1])
        counts.append(len(boundaries))
    return counts


def marginal_convergence_experiment(
    schedule: ScalingSchedule,
    points: list[tuple[float, float]],
    trials: int,
    seed: int,
    workers: int = 1,
    budget_cap: int = 600_000,
    chunk: int = 500,
) -> dict:
    """Color-law estimates at snapped points per level, with consecutive-
    level total variation distances and bootstrap confidence intervals.

    Sampling goes through the dual genealogy (one shared field per trial).
    The per-level budget (box columns x box rows, growing like eps^-3 for a
    unit box) is guarded.
    """
    q = schedule.q
    k = len(points)
    rescaled = [RescaledPoint(tuple(pt), schedule.eps_levels) for pt in points]
    levels = []
    for n in range(schedule.n_levels):
        eps = schedule.eps_levels[n]
        params = schedule.level_params(n)
        snapped = [rp.at_level(n) for rp in rescaled]
        window = cone_window(snapped)
        x_extent = max(p[0] for p in points) - min(p[0] for p in points) + 1.0
        t_extent = max(p[1] for p in points)
        budget = (x_extent / eps) * max(t_extent / (eps * eps), 1.0)
        if budget > budget_cap:
            raise BudgetError(f"level {n}: budget {budget:.3g} exceeds cap {budget_cap}")
        levels.append({"eps": eps, "params": params, "snapped": snapped, "window": window})

    jobs = [
        (n, c0, min(c0 + chunk, trials))
        for n in range(schedule.n_levels)
        for c0 in range(0, trials, chunk)
    ]
    results = parallel_map(
        functools.partial(_marginal_chunk, levels=levels, seed=seed, q=q, k=k), jobs, workers
    )
    per_level_counts = [np.zeros(q ** k, dtype=np.int64) for _ in range(schedule.n_levels)]
    for (n, _, _), counts in zip(jobs, results):
        per_level_counts[n] += counts

    laws = [JointColorLaw(q, (c / trials).reshape((q,) * k)) for c in per_level_counts]
    tvds = []
    for n in range(schedule.n_levels - 1):
        ca, cb = per_level_counts[n], per_level_counts[n + 1]
        t_obs = 0.5 * float(np.abs(ca / trials - cb / trials).sum())
        lo, hi = _bootstrap_tvd_ci(ca, cb, derive_seed(seed, "bootstrap", n))
        tvds.append({"levels": (n, n + 1), "tvd": t_obs, "ci_low": lo, "ci_high": hi})

    non_increasing = all(
        tvds[i + 1]["ci_low"] <= tvds[i]["ci_high"] for i in range(len(tvds) - 1)
    )
    return {
        "eps_levels": list(schedule.eps_levels),
        "trials": trials,
        "counts": [c.tolist() for c in per_level_counts],
        "laws": [l_.probs.tolist() for l_ in laws],
        "tvds": tvds,
        "tvd_non_increasing_within_ci": bool(non_increasing),
    }


def interface_experiment(
    schedule: ScalingSchedule,
    box: tuple[float, float],
    t_rescaled: float,
    trials: int,
    seed: int,
    workers: int = 1,
    budget_cap: int = 600_000,
    chunk: int = 50,
    alpha: float = 0.01,
) -> dict:
    """Rescaled interface counts per level; chi-square compares the two
    finest levels' count distributions.

    Each trial colors one whole box slice through a shared-field dual
    genealogy and counts adjacent color changes.  The per-level lattice
    budget is checked against the (x-extent/eps)*(t-extent/eps^2) formula
    within a factor of two (per-parity storage halves it).
    """
    levels = []
    for n in range(schedule.n_levels):
        eps = schedule.eps_levels[n]
        params = schedule.level_params(n)
        t_n = max(1, math.ceil(t_rescaled / (eps * eps) - 0.5))
        x_lo = math.ceil(box[0] / eps)
        x_hi = math.floor(box[1] / eps)
        xs = [x for x in range(x_lo, x_hi + 1) if (x + t_n) % 2 == 1]
        if len(xs) < 2:
            raise InvalidParameterError(f"level {n}: box holds {len(xs)} sites, need >= 2")
        budget = ((box[1] - box[0]) / eps) * (t_rescaled / (eps * eps))
        if budget > budget_cap:
            raise BudgetError(f"level {n}: budget {budget:.3g} exceeds cap {budget_cap}")
        measured = len(xs) * t_n
        if not (0.5 * budget <= measured <= 2.0 * budget):
            raise BudgetError(
                f"level {n}: measured lattice {measured} not within 2x of formula {budget:.3g}"
            )
        window = Window(x_lo - t_n, x_hi + t_n, 0, t_n)
        levels.append({"eps": eps, "params": params, "t_n": t_n, "xs": xs, "window": window})

    jobs = [
        (n, c0, min(c0 + chunk, trials))
        for n in range(schedule.n_levels)
        for c0 in range(0, trials, chunk)
    ]
    results = parallel_map(
        functools.partial(_interface_chunk, levels=levels, seed=seed), jobs, workers
    )
    per_level: list[list[int]] = [[] for _ in range(schedule.n_levels)]
    for (n, c0, _), counts in zip(jobs, results):
        per_level[n].extend(counts)

    max_count = max(max(c) for c in per_level) + 1
    hists = [np.bincount(c, minlength=max_count) for c in per_level]
    stat, dof, p_value, cells = pooled_two_sample_chisquare(hists[-2], hists[-1])
    means = [float(np.mean(c)) for c in per_level]
    sems = [float(np.std(c, ddof=1) / math.sqrt(len(c))) for c in per_level]
    return {
        "eps_levels": list(schedule.eps_levels),
        "t_rescaled": t_rescaled,
        "trials": trials,
        "mean_counts": means,
        "sem_counts": sems,
        "histograms": [h.tolist() for h in hists],
        "finest_pair_chisquare": {
            "statistic": stat,
            "dof": dof,
            "p_value": p_value,
            "cells": cells,
            "alpha": alpha,
            "pass": bool(p_value >= alpha),
        },
    }


def coarsening_gate(
    trials_interface: int = 200,
    trials_marginal: int = 3000,
    seed: int = 0,
    workers: int = 1,
    levels: tuple[int, ...] = (3, 4, 5, 6),
) -> dict:
    """The desk-scale coarsening gate: three-color dyadic schedule, unit
    box at rescaled time 0.5; interface chi-square between the two finest
    levels plus non-increasing consecutive-level marginal TVDs.

    Not a reproduction of any continuum value; a Cauchy-style stability
    diagnostic only.
    """
    lam = ColorDistribution(3, (0.5, 0.3, 0.2))
    schedule = potts_style_schedule(3, levels, lam=lam)
    interface = interface_experiment(
        schedule, (0.0, 1.0), 0.5, trials_interface, derive_seed(seed, "iface"), workers
    )
    marginal = marginal_convergence_experiment(
        schedule, [(0.5, 0.5)], trials_marginal, derive_seed(seed, "marg"), workers
    )
    return {
        "interface": interface,
        "marginal": marginal,
        "pass": bool(
            interface["finest_pair_chisquare"]["pass"]
            and marginal["tvd_non_increasing_within_ci"]
        ),
    }
