"""Diffusive-rescaling experiments: snapping, censuses, convergence probes.

Space contracts by eps and time by eps^2; a level-n model keeps
b_n / eps_n and kappa_n / eps_n^2 exactly equal to the continuum branching
and killing parameters.  Continuum color laws have no closed form, so
convergence is probed as a Cauchy property: consecutive-level estimates
must stop moving beyond Monte Carlo noise.  Colors at scale come from the
batched dual sampler ``dual_colors_sweep``, which visits only the genealogy
of the query points, level by level, and is bit-identical to a forward run
with the same seed.

The cross-level experiments share one level driver, ``_run_levels``; each
is its query vertices, its budget formula and a chunk reducer.  One job is
one chunk of trials of every experiment it is given at every level, so a
job is one sweep of the deepest level's time steps: ``coarsening_gate``
runs both of its experiments in the same jobs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coloring import ColorDistribution, uniform_boundary_table, uniform_colors
from .duality import (  # perfbench's tracer also patches dual_colors_genealogy here
    JointColorLaw,
    _encode_tuples,
    dual_colors_genealogy,
    dual_colors_sweep,
    pooled_two_sample_chisquare,
)
from .errors import BudgetError, InvalidParameterError
from .lattice_net import Vertex
from .models import VmpParams, simple_vmp
from .parallel import parallel_map
from .rng import derive_seed, derive_seed_array


@dataclass(frozen=True)
class ScalingSchedule:
    """Per-level parameters with exact diffusive ratios.

    Level n has eps = eps_levels[n], branching b*eps and killing
    kappa*eps^2 (exact by construction, not approximated).  The boundary
    table is uniform; the noises p and lam are fixed across levels.
    """

    eps_levels: tuple[float, ...]
    b: float
    kappa: float
    q: int
    p: ColorDistribution | None = None
    lam: ColorDistribution | None = None

    def __post_init__(self):
        eps = self.eps_levels
        if not eps or not all(math.isfinite(e) and e > 0 for e in eps) or any(
            eps[i + 1] >= eps[i] for i in range(len(eps) - 1)
        ):
            raise InvalidParameterError("eps_levels must be finite, positive and strictly decreasing")
        for e in eps:
            if self.b * e + self.kappa * e * e > 1:
                raise InvalidParameterError(f"b_n + kappa_n > 1 at eps={e}")

    @property
    def n_levels(self) -> int:
        return len(self.eps_levels)

    def level_params(self, n: int) -> VmpParams:
        e = self.eps_levels[n]
        g = uniform_boundary_table(self.q)
        p = self.p or uniform_colors(self.q)
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


# ---------------------------------------------------------------------------
# Slice censuses
# ---------------------------------------------------------------------------

def interface_census(slice_row: dict[int, int], x_lo: int, x_hi: int) -> list[int]:
    """Boundary midpoints between adjacent same-parity sites of different
    color inside [x_lo, x_hi]."""
    xs = sorted(x for x in slice_row if x_lo <= x <= x_hi)
    return [x + 1 for x, nxt in zip(xs, xs[1:]) if slice_row[x] != slice_row[nxt]]


# ---------------------------------------------------------------------------
# Cross-level experiments
# ---------------------------------------------------------------------------

#: Cap on each level's lattice budget in the experiments below:
#: x-extent/eps columns times t-extent/eps^2 rows.
_BUDGET_CAP = 600_000
#: Fewest trials each experiment accepts: the interface experiment's
#: standard errors use ``ddof=1``.
_MARGINAL_MIN_TRIALS = 1
_INTERFACE_MIN_TRIALS = 2


def _check_trials(trials: int, least: int, name: str = "trials") -> None:
    if trials < least:
        raise InvalidParameterError(f"{name} must be at least {least}, got {trials}")


def _bootstrap_tvd_ci(counts_a: np.ndarray, counts_b: np.ndarray, seed: int) -> tuple[float, float]:
    """95% bootstrap interval of the TVD between two count vectors, 500 resamples."""
    rng = np.random.default_rng(seed)
    na, nb = counts_a.sum(), counts_b.sum()
    pa, pb = counts_a / na, counts_b / nb
    tvds = np.empty(500)
    for i in range(500):
        ra = rng.multinomial(na, pa) / na
        rb = rng.multinomial(nb, pb) / nb
        tvds[i] = 0.5 * np.abs(ra - rb).sum()
    alpha = (1.0 - 0.95) / 2.0  # 0.025000000000000022, not 0.025: it sets the quantiles
    return float(np.quantile(tvds, alpha)), float(np.quantile(tvds, 1.0 - alpha))


def _marginal_chunk(job, colors, levels, q, k):
    return np.bincount(_encode_tuples(colors, q), minlength=q ** k)


def _interface_chunk(job, rows, levels):
    xs = [v.x for v in levels[job[0]]["snapped"]]
    return [len(interface_census(dict(zip(xs, row.tolist())), xs[0], xs[-1])) for row in rows]


@dataclass(frozen=True)
class _Experiment:
    """One cross-level experiment for ``_run_levels``: level n queries the
    vertices ``snap_level(n)``, must have ``budget(eps_n)`` within the cap
    and reduces each job's colors with ``chunk``; trial i of level n draws
    the seed of index i in the stream ``(seed, stream, n)``."""

    snap_level: Callable[[int], list[Vertex]]
    budget: Callable[[float], float]
    chunk: Callable
    job_trials: int
    trials: int
    seed: int
    stream: str


def _levels_job(j, plans):
    """Job j: chunk j of every experiment at every level, in one genealogy
    sweep; per experiment, each level's ``chunk`` result (None past its last chunk)."""
    groups, owners = [], []
    for e, (chunk, levels, seed, stream, bounds) in enumerate(plans):
        if j < len(bounds):
            c0, c1 = bounds[j]
            for n, lv in enumerate(levels):
                groups.append((lv["params"], derive_seed_array(seed, c0, c1, stream, n), lv["snapped"], None))
                owners.append((e, n, c0, c1))
    out = [[None] * len(levels) for _, levels, *_ in plans]
    for (e, n, c0, c1), colors in zip(owners, dual_colors_sweep(groups)):
        chunk, levels = plans[e][:2]
        out[e][n] = chunk((n, c0, c1), colors, levels=levels)
    return out


def _run_levels(schedule, experiments: list[_Experiment], workers) -> list[list[list]]:
    """Per experiment, each level's ``chunk`` results in trial order.

    Snapping and the budget check come first for every level, so a bad
    point is a parameter error at any budget.  Job j holds trials
    [j * job_trials, (j + 1) * job_trials) of each experiment at every
    level, one ``dual_colors_sweep`` for all of them, and calls
    ``chunk((n, c0, c1), colors, levels=...)`` per experiment and level.
    """
    plans = []
    for exp in experiments:
        levels = []
        for n, eps in enumerate(schedule.eps_levels):
            snapped = exp.snap_level(n)
            cost = exp.budget(eps)
            if cost > _BUDGET_CAP:
                raise BudgetError(f"level {n}: budget {cost:.3g} exceeds cap {_BUDGET_CAP}")
            levels.append({"params": schedule.level_params(n), "snapped": snapped, "t_n": max(v.t for v in snapped)})
        bounds = [(c0, min(c0 + exp.job_trials, exp.trials)) for c0 in range(0, exp.trials, exp.job_trials)]
        plans.append((exp.chunk, levels, exp.seed, exp.stream, bounds))
    jobs = range(max(len(bounds) for *_, bounds in plans))
    results = parallel_map(functools.partial(_levels_job, plans=plans), jobs, workers)
    return [
        [[res[e][n] for res in results[: len(bounds)]] for n in range(len(levels))]
        for e, (_, levels, _, _, bounds) in enumerate(plans)
    ]


def _marginal(schedule: ScalingSchedule, points, trials: int, seed: int):
    """The marginal experiment as an ``_Experiment`` and the function that
    turns its level results into the report."""
    _check_trials(trials, _MARGINAL_MIN_TRIALS)
    if not points:
        raise InvalidParameterError("the marginal experiment needs at least one point")
    q = schedule.q
    k = len(points)
    x_extent = max(p[0] for p in points) - min(p[0] for p in points) + 1.0
    t_extent = max(p[1] for p in points)
    exp = _Experiment(
        lambda n: [snap(pt, schedule.eps_levels[n]) for pt in points],
        lambda eps: (x_extent / eps) * max(t_extent / (eps * eps), 1.0),
        functools.partial(_marginal_chunk, q=q, k=k),
        500,
        trials,
        seed,
        "marginal",
    )

    def report(chunks) -> dict:
        per_level_counts = [sum(c) for c in chunks]
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

    return exp, report


def marginal_convergence_experiment(
    schedule: ScalingSchedule,
    points: list[tuple[float, float]],
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Color-law estimates at snapped points per level, with consecutive-
    level total variation distances and bootstrap confidence intervals.

    Sampling goes through the dual genealogy (one shared field per trial).
    The per-level budget (box columns x box rows, growing like eps^-3 for a
    unit box) is guarded.
    """
    exp, report = _marginal(schedule, points, trials, seed)
    return report(_run_levels(schedule, [exp], workers)[0])


def _interface(schedule: ScalingSchedule, box: tuple[float, float], t_rescaled: float, trials: int, seed: int):
    """The interface experiment as an ``_Experiment`` and the function that
    turns its level results into the report."""
    _check_trials(trials, _INTERFACE_MIN_TRIALS)

    def slice_sites(n):
        eps = schedule.eps_levels[n]
        t_n = max(1, math.ceil(t_rescaled / (eps * eps) - 0.5))
        xs = range(math.ceil(box[0] / eps), math.floor(box[1] / eps) + 1)
        sites = [Vertex(x, t_n) for x in xs if (x + t_n) % 2 == 1]
        if len(sites) < 2:
            raise InvalidParameterError(f"level {n}: box holds {len(sites)} sites, need >= 2")
        return sites

    exp = _Experiment(
        slice_sites,
        lambda eps: ((box[1] - box[0]) / eps) * (t_rescaled / (eps * eps)),
        _interface_chunk,
        50,
        trials,
        seed,
        "interface",
    )

    def report(chunks) -> dict:
        per_level = [[c for chunk in level for c in chunk] for level in chunks]
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
                "alpha": 0.01,
                "pass": bool(p_value >= 0.01),
            },
        }

    return exp, report


def interface_experiment(
    schedule: ScalingSchedule,
    box: tuple[float, float],
    t_rescaled: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Rescaled interface counts per level; chi-square compares the two
    finest levels' count distributions.

    Each trial colors one whole box slice through a shared-field dual
    genealogy and counts adjacent color changes.  The per-level budget,
    (x-extent/eps) * (t-extent/eps^2), is guarded.  The standard errors
    need ``trials >= 2``.
    """
    exp, report = _interface(schedule, box, t_rescaled, trials, seed)
    return report(_run_levels(schedule, [exp], workers)[0])


def coarsening_gate(
    trials_interface: int = 200,
    trials_marginal: int = 3000,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """The desk-scale coarsening gate: three-color dyadic schedule, unit
    box at rescaled time 0.5; interface chi-square between the two finest
    levels plus non-increasing consecutive-level marginal TVDs.

    Not a reproduction of any continuum value; a Cauchy-style stability
    diagnostic only.
    """
    _check_trials(trials_interface, _INTERFACE_MIN_TRIALS, "trials_interface")
    _check_trials(trials_marginal, _MARGINAL_MIN_TRIALS, "trials_marginal")
    lam = ColorDistribution(3, (0.5, 0.3, 0.2))
    schedule = potts_style_schedule(3, (3, 4, 5, 6), lam=lam)
    iface_exp, iface_report = _interface(schedule, (0.0, 1.0), 0.5, trials_interface, derive_seed(seed, "iface"))
    marg_exp, marg_report = _marginal(schedule, [(0.5, 0.5)], trials_marginal, derive_seed(seed, "marg"))
    iface_chunks, marg_chunks = _run_levels(schedule, [iface_exp, marg_exp], workers)
    interface, marginal = iface_report(iface_chunks), marg_report(marg_chunks)
    return {
        "interface": interface,
        "marginal": marginal,
        "pass": bool(
            interface["finest_pair_chisquare"]["pass"]
            and marginal["tvd_non_increasing_within_ci"]
        ),
    }
