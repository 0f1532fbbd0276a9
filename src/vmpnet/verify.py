"""The full invariant/oracle gate suite.

Each gate returns a JSON-serializable report with a boolean "pass"; the
CLI's verify-all command runs them all and fails on any red gate.  All
randomness is derived from the master seed by gate name and trial index,
so reports are byte-identical across runs and worker counts.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .coloring import color_dag, uniform_boundary_table, uniform_colors
from .dualgraph import (
    RootedDag,
    build_dag,
    reduce_dag,
    relevant_points,
    relevant_points_bruteforce,
)
from .duality import (
    GATE_NEED,
    _q2_asym,
    _q3_asym,
    exact_dual_law,
    exact_forward_law,
    oracle_settings,
    run_duality_gate,
)
from .lattice_net import BACKWARD, KeyedNet, Vertex, Window
from .models import (
    lotka_volterra_decomposition,
    lotka_volterra_transition,
    nbv_remainder_order_fit,
    noisy_biased_voter_decomposition,
    noisy_biased_voter_transition,
    potts_detailed_balance_residual,
    potts_rates,
)
from .parallel import parallel_map
from .rng import derive_seed
from .scaling import coarsening_gate

BETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
Q_GRID = (2, 3, 4, 5, 6)


def gate_potts_simplex() -> dict:
    worst = 0.0
    for beta in BETA_GRID:
        for q in Q_GRID:
            w, b, kappa = potts_rates(beta, q)
            worst = max(worst, abs(w + b + kappa - 1.0))
    return {"name": "potts-simplex", "max_residual": worst, "tol": 1e-12, "pass": worst <= 1e-12}


def gate_potts_anchors() -> dict:
    details = []
    ok = True
    for q in Q_GRID:
        w, b, kappa = potts_rates(10.0, q)
        kill_err = abs(kappa * math.exp(20.0) - q)
        branch_err = abs(b * math.exp(10.0) - q / 2.0)
        good = kill_err <= 1e-6 * q and branch_err <= 1e-3 * q
        ok = ok and good
        details.append({"q": q, "kill_anchor_err": kill_err, "branch_anchor_err": branch_err})
    return {"name": "potts-scaling-anchors", "beta": 10.0, "details": details, "pass": ok}


def gate_detailed_balance() -> dict:
    worst = 0.0
    for q in Q_GRID:
        for beta in (0.5, 1.0, 3.0):
            worst = max(worst, potts_detailed_balance_residual(beta, q))
    return {"name": "detailed-balance", "max_residual": worst, "tol": 1e-10, "pass": worst <= 1e-10}


def gate_decompositions() -> dict:
    f_grid = np.linspace(0.0, 1.0, 65)
    lv_worst = 0.0
    for alpha in (0.0, 0.3, 0.7, 1.0):
        for eps in (0.0, 0.05, 0.2, 0.5, 1.0):
            d = lotka_volterra_decomposition(alpha, eps)
            for eta in (0, 1):
                for f1 in f_grid:
                    direct = lotka_volterra_transition(eta, float(f1), alpha, eps)
                    lv_worst = max(
                        lv_worst, float(np.abs(d.reconstructed(eta, float(f1)) - direct).max())
                    )
    nbv_worst = 0.0
    for alpha in (0.0, 0.3, 1.0):
        for eps in (2.0 ** -8, 2.0 ** -5, 2.0 ** -4):
            d = noisy_biased_voter_decomposition(alpha, 1.0, 1.0, eps)
            for f1 in f_grid:
                direct = noisy_biased_voter_transition(float(f1), alpha, d.b_eps, d.kappa_eps)
                nbv_worst = max(
                    nbv_worst, float(np.abs(d.reconstructed(float(f1)) - direct).max())
                )
    slope, _, _ = nbv_remainder_order_fit(0.3, 1.0, 1.0)
    ok = lv_worst <= 1e-12 and nbv_worst <= 1e-12 and slope >= 2.9
    return {
        "name": "decomposition-exactness",
        "lv_max_residual": lv_worst,
        "nbv_max_residual": nbv_worst,
        "nbv_remainder_slope": slope,
        "tol": 1e-12,
        "slope_floor": 2.9,
        "pass": ok,
    }


def gate_oracle_equality() -> dict:
    rows = []
    worst = 0.0
    for st in oracle_settings():
        lf = exact_forward_law(st["params"], st["points"])
        ld = exact_dual_law(st["params"], st["points"])
        tv = lf.tvd(ld)
        worst = max(worst, tv)
        rows.append({"setting": st["name"], "tvd": tv})
    return {
        "name": "duality-oracle-equality",
        "settings": rows,
        "max_tvd": worst,
        "tol": 1e-10,
        "pass": worst <= 1e-10,
    }


def gate_duality_statistics(trials: int, seed: int, workers: int = 1, alpha: float = 0.01) -> dict:
    honest = run_duality_gate(trials, derive_seed(seed, "gate-honest"), workers=workers, alpha=alpha)
    corrupt = run_duality_gate(
        trials, derive_seed(seed, "gate-corrupt"), corrupt_dual=True, workers=workers, alpha=alpha
    )
    n_pass = sum(1 for r in honest if r["pass"])
    n_fail_corrupt = sum(1 for r in corrupt if not r["pass"])
    ok = n_pass >= GATE_NEED and n_fail_corrupt >= GATE_NEED
    return {
        "name": "duality-statistical-gate",
        "trials": trials,
        "alpha": alpha,
        "honest_pass": n_pass,
        "corrupt_fail": n_fail_corrupt,
        "need": GATE_NEED,
        "honest": honest,
        "corrupt": corrupt,
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# Fuzzed-graph gates
# ---------------------------------------------------------------------------

_BK_GRID = [(0.1, 0.0), (0.1, 0.1), (0.25, 0.05), (0.25, 0.15), (0.4, 0.0), (0.4, 0.2), (0.55, 0.1)]


def _fuzz_coloring_inputs(q: int, style: int):
    if style == 0:
        return uniform_boundary_table(q), uniform_colors(q), uniform_colors(q)
    params = _q2_asym(0.3, 0.1) if q == 2 else _q3_asym(0.3, 0.1)
    return params.g, params.lam, params.p


def fuzz_dag(index: int, seed: int, t_lo: int = 2, t_hi: int = 8) -> tuple[RootedDag, int]:
    """Deterministic fuzzed genealogy: dag index -> (dag, q)."""
    rng = random.Random(derive_seed(seed, "fuzz-dag", index))
    b, kappa = _BK_GRID[index % len(_BK_GRID)]
    t = rng.randint(t_lo, t_hi)
    w = Window(-t - 1, t + 1, 0, t)
    net = KeyedNet(b, kappa, derive_seed(seed, "fuzz-net", index), w, direction=BACKWARD)
    rx = 0 if t % 2 == 1 else 1
    dag = build_dag(net, Vertex(rx, t), 0)
    return dag, (2 if index % 2 == 0 else 3)


def _reduction_chunk(bounds, seed):
    lo, hi = bounds
    mismatches = 0
    small_checked = 0
    oracle_mismatches = 0
    for i in range(lo, hi):
        dag, q = fuzz_dag(i, seed)
        g, lam, p = _fuzz_coloring_inputs(q, i % 2)
        red = reduce_dag(dag)
        full_colors = color_dag(dag, g, lam, p)
        red_colors = color_dag(red, g, lam, p)
        if full_colors[dag.root] != red_colors[dag.root]:
            mismatches += 1
        for graph in (dag, red):
            if len(graph.kinds) <= 12:
                small_checked += 1
                if relevant_points(graph) != relevant_points_bruteforce(graph):
                    oracle_mismatches += 1
    return mismatches, small_checked, oracle_mismatches


def gate_reduction(n_dags: int, seed: int, workers: int = 1, chunk: int = 500) -> dict:
    """Full-graph vs reduced-graph root colors on fuzzed dags, plus
    max-flow relevance vs the brute-force path-pair oracle on every small
    (<= 12 vertex) dag and its reduced version."""
    import functools

    jobs = [(lo, min(lo + chunk, n_dags)) for lo in range(0, n_dags, chunk)]
    results = parallel_map(functools.partial(_reduction_chunk, seed=seed), jobs, workers)
    mism = sum(r[0] for r in results)
    small = sum(r[1] for r in results)
    oracle_mism = sum(r[2] for r in results)
    ok = mism == 0 and oracle_mism == 0 and small >= 1000
    return {
        "name": "reduction-equivalence",
        "dags": n_dags,
        "root_color_mismatches": mism,
        "small_dags_checked": small,
        "relevance_oracle_mismatches": oracle_mism,
        "pass": ok,
    }


def random_topological_order(dag: RootedDag, rng: random.Random) -> list:
    """Random leaves-to-root order via Kahn's algorithm: a vertex becomes
    eligible once all its children are placed."""
    remaining_children = {v: len(set(dag.children.get(v, ()))) for v in dag.kinds}
    waiting_parents: dict = {v: [] for v in dag.kinds}
    for p_, cs in dag.children.items():
        for c in set(cs):
            waiting_parents[c].append(p_)
    ready = sorted(v for v, n in remaining_children.items() if n == 0)
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for p_ in waiting_parents[v]:
            remaining_children[p_] -= 1
            if remaining_children[p_] == 0:
                ready.append(p_)
    return order


def gate_order_independence(n_dags: int, n_pairs: int, seed: int) -> dict:
    order_mismatches = 0
    for i in range(n_dags):
        dag, q = fuzz_dag(i, derive_seed(seed, "order"))
        g, lam, p = _fuzz_coloring_inputs(q, i % 2)
        ref = color_dag(dag, g, lam, p)
        rng = random.Random(derive_seed(seed, "order-shuffle", i))
        for _ in range(10):
            alt = color_dag(dag, g, lam, p, order=random_topological_order(dag, rng))
            if alt != ref:
                order_mismatches += 1

    consistency_mismatches = 0
    checked = 0
    i = 0
    while checked < n_pairs:
        rng = random.Random(derive_seed(seed, "consistency", i))
        b, kappa = _BK_GRID[i % len(_BK_GRID)]
        t = rng.randint(3, 8)
        w = Window(-t - 1, t + 1, 0, t)
        net = KeyedNet(b, kappa, derive_seed(seed, "consistency-net", i), w, direction=BACKWARD)
        rx = 0 if t % 2 == 1 else 1
        outer = build_dag(net, Vertex(rx, t), 0)
        i += 1
        inner_candidates = sorted(v for v in outer.kinds if v != outer.root and v.t >= 1)
        if not inner_candidates:
            continue
        z_inner = inner_candidates[rng.randrange(len(inner_candidates))]
        inner = build_dag(net, z_inner, 0)
        q = 2 if i % 2 == 0 else 3
        g, lam, p = _fuzz_coloring_inputs(q, i % 2)
        if color_dag(outer, g, lam, p)[z_inner] != color_dag(inner, g, lam, p)[z_inner]:
            consistency_mismatches += 1
        checked += 1

    ok = order_mismatches == 0 and consistency_mismatches == 0
    return {
        "name": "order-independence-and-consistency",
        "dags": n_dags,
        "orders_per_dag": 10,
        "order_mismatches": order_mismatches,
        "consistency_pairs": checked,
        "consistency_mismatches": consistency_mismatches,
        "pass": ok,
    }


def gate_coarsening(seed: int, workers: int = 1, trials_interface: int = 200, trials_marginal: int = 3000) -> dict:
    rep = coarsening_gate(trials_interface, trials_marginal, seed, workers)
    rep["name"] = "coarsening-diagnostics"
    return rep


def run_all(seed: int, workers: int = 1, gof_trials: int = 100_000) -> dict:
    """Every gate, deterministic in (seed, sizes); worker count only
    parallelizes."""
    gates = [
        gate_potts_simplex(),
        gate_potts_anchors(),
        gate_detailed_balance(),
        gate_decompositions(),
        gate_oracle_equality(),
        gate_duality_statistics(gof_trials, derive_seed(seed, "gof"), workers),
        gate_reduction(10_000, derive_seed(seed, "reduction"), workers),
        gate_order_independence(1000, 1000, derive_seed(seed, "order-indep")),
        gate_coarsening(derive_seed(seed, "coarsen"), workers),
    ]
    return {"seed": seed, "gates": gates, "pass": all(g["pass"] for g in gates)}
