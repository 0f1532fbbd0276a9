import hashlib
import json
import math

import numpy as np
import pytest

from vmpnet.coloring import ColorDistribution
from vmpnet.dualgraph import build_dag, reduce_dag
from vmpnet.duality import cone_window, dual_colors_genealogy
from vmpnet.errors import BudgetError, InvalidParameterError
from vmpnet.lattice_net import KeyedNet, Vertex, Window
from vmpnet.models import potts_params, simulate
from vmpnet.rng import derive_seed
from vmpnet.scaling import (
    ScalingSchedule,
    coarsening_gate,
    interface_census,
    interface_experiment,
    marginal_convergence_experiment,
    potts_style_schedule,
    snap,
)


# ---------------------------------------------------------------------------
# Snapping
# ---------------------------------------------------------------------------

def test_snap_examples():
    assert snap((0.0, 0.0), 1.0) == Vertex(-1, 0)
    assert snap((0.5, 1.0), 0.5) == Vertex(1, 4)


def test_snap_error_bounds_and_convergence():
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = float(rng.uniform(-5, 5))
        t = float(rng.uniform(0, 5))
        eps = float(rng.choice([0.5, 0.25, 0.125, 0.0625]))
        v = snap((x, t), eps)
        assert (v.x + v.t) % 2 == 1
        assert v.t >= 0
        assert abs(eps * v.x - x) <= eps + 1e-12
        assert abs(eps * eps * v.t - t) <= eps * eps + 1e-12


def test_snap_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        snap((0.0, -1.0), 0.5)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_schedule_exact_ratios():
    sched = potts_style_schedule(3, (3, 4, 5, 6))
    for n, eps in enumerate(sched.eps_levels):
        params = sched.level_params(n)
        assert params.b / eps == sched.b
        assert params.kappa / (eps * eps) == sched.kappa
        assert params.b + params.kappa <= 1.0


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        ScalingSchedule((0.25, 0.5), 1.0, 1.0, 3)  # not decreasing
    with pytest.raises(InvalidParameterError):
        ScalingSchedule((0.9,), 1.5, 3.0, 3)  # b_n + kappa_n > 1


# ---------------------------------------------------------------------------
# Censuses
# ---------------------------------------------------------------------------

def test_interface_census_trivial():
    mono = {x: 2 for x in range(-9, 10, 2)}
    assert interface_census(mono, -9, 9) == []
    alternating = {x: 1 + ((x + 9) // 2) % 2 for x in range(-9, 10, 2)}
    assert interface_census(alternating, -9, 9) == list(range(-8, 9, 2))


def test_reduced_dag_census_stays_finite_across_levels():
    """The backward net from one point grows like t_n ~ eps^-2 per level,
    but its reduction to relevant separation points barely grows: the
    reduced graphs stay finite as eps -> 0."""
    sched = potts_style_schedule(3, (3, 4, 5, 6))
    full_means, reduced_means = [], []
    for n in range(3):
        params = sched.level_params(n)
        root = snap((0.5, 0.5), sched.eps_levels[n])
        win = cone_window([root])
        full, reduced = [], []
        for i in range(60):
            net = KeyedNet(params.b, params.kappa, derive_seed(7, "reduced-census", n, i), win)
            dag = build_dag(net, root)
            full.append(len(dag.kinds))
            reduced.append(len(reduce_dag(dag).kinds))
        full_means.append(np.mean(full))
        reduced_means.append(np.mean(reduced))
    assert all(b > 3 * a for a, b in zip(full_means, full_means[1:])), full_means
    assert reduced_means[2] < 1.5 * reduced_means[1], reduced_means


# ---------------------------------------------------------------------------
# Genealogy slices and experiments
# ---------------------------------------------------------------------------

def test_dual_slice_equals_forward_simulate():
    params = potts_params(1.2, 3)
    t = 6
    xs = [x for x in range(-5, 6) if (x + t) % 2 == 1]
    win = Window(-5 - t, 5 + t, 0, t)
    seeds = np.array([1, 2, 3], dtype=np.uint64)
    via_dual = dual_colors_genealogy(params, seeds, [(x, t) for x in xs], win)
    for seed, row in zip((1, 2, 3), via_dual):
        _, fxs, fcolors = simulate(params, -5 - t, 5 + t, t, seed).slices[t]
        via_forward = dict(zip(fxs.tolist(), fcolors.tolist()))
        assert dict(zip(xs, row.tolist())) == {x: via_forward[x] for x in xs}


def test_marginal_experiment_runs_and_reports():
    sched = potts_style_schedule(3, (2, 3, 4), lam=ColorDistribution(3, (0.5, 0.3, 0.2)))
    rep = marginal_convergence_experiment(sched, [(0.5, 0.5)], trials=400, seed=3)
    assert len(rep["laws"]) == 3
    assert len(rep["tvds"]) == 2
    for tv in rep["tvds"]:
        # percentile bootstrap: interval need not bracket the point estimate
        assert 0.0 <= tv["ci_low"] <= tv["ci_high"] <= 1.0
        assert 0.0 <= tv["tvd"] <= 1.0
    law0 = np.asarray(rep["laws"][0])
    assert abs(law0.sum() - 1.0) < 1e-9


def test_marginal_experiment_budget_guard():
    sched = potts_style_schedule(3, (3, 8))
    with pytest.raises(BudgetError):
        # level 8 needs 256 columns x 32768 rows = 8.39e6, past the 600k cap
        marginal_convergence_experiment(sched, [(0.5, 0.5)], trials=10, seed=0)


def test_marginal_pure_voter_marginal_is_lambda():
    lam = ColorDistribution(2, (0.7, 0.3))
    sched = ScalingSchedule((0.5, 0.25), 0.0, 0.0, 2, lam=lam)
    rep = marginal_convergence_experiment(sched, [(0.3, 0.4)], trials=4000, seed=9)
    for law in rep["laws"]:
        # one-point marginal of the pure voter stays at lambda at every level
        assert abs(law[0] - 0.7) <= 4 * math.sqrt(0.21 / 4000)


def test_marginal_killing_dominance():
    # kappa large, b = 0: marginal approaches the bulk law as t grows; the
    # exact survival factor is (1 - kappa_n)^(t lattice steps)
    lam = ColorDistribution(2, (1.0, 0.0))
    p = ColorDistribution(2, (0.0, 1.0))
    sched = ScalingSchedule((0.25,), 0.0, 4.0, 2, p=p, lam=lam)
    t_cont = 0.5
    rep = marginal_convergence_experiment(sched, [(0.1, t_cont)], trials=6000, seed=4)
    eps = 0.25
    kappa_n = 4.0 * eps * eps
    t_n = snap((0.1, t_cont), eps).t
    survival = (1.0 - kappa_n) ** t_n
    law = rep["laws"][0]
    assert abs(law[0] - survival) <= 4 * math.sqrt(survival * (1 - survival) / 6000)


def test_interface_experiment_small():
    sched = potts_style_schedule(3, (2, 3), lam=ColorDistribution(3, (0.5, 0.3, 0.2)))
    rep = interface_experiment(sched, (0.0, 1.0), 0.5, trials=60, seed=1)
    assert len(rep["mean_counts"]) == 2
    assert "finest_pair_chisquare" in rep
    assert rep["trials"] == 60


def test_interface_experiment_worker_invariance():
    sched = potts_style_schedule(3, (2, 3), lam=ColorDistribution(3, (0.5, 0.3, 0.2)))
    # 120 trials make three jobs of 50, 50 and 20 per level to reassemble
    a = interface_experiment(sched, (0.0, 1.0), 0.5, trials=120, seed=5, workers=1)
    b = interface_experiment(sched, (0.0, 1.0), 0.5, trials=120, seed=5, workers=3)
    assert a == b


def test_marginal_experiment_worker_invariance():
    sched = potts_style_schedule(2, (2, 3))
    # 1200 trials make three jobs of 500, 500 and 200 per level to reassemble
    a = marginal_convergence_experiment(sched, [(0.5, 0.25)], trials=1200, seed=8, workers=1)
    b = marginal_convergence_experiment(sched, [(0.5, 0.25)], trials=1200, seed=8, workers=4)
    assert a == b


def test_interface_experiment_short_time_is_within_budget():
    # t_n is 1 and 6 at the two levels: lattices of 5 and 48 sites against
    # the formula's 11.9 and 95.4, far below the cap
    rep = interface_experiment(potts_style_schedule(3, (3, 4)), (0.0, 1.0), 1.49 / 64, 20, 1)
    assert [sum(h) for h in rep["histograms"]] == [20, 20]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "run, digest",
    [
        (lambda w: interface_experiment(
            potts_style_schedule(3, (2, 3), lam=ColorDistribution(3, (0.5, 0.3, 0.2))),
            (0.0, 1.0), 0.5, 120, 5, workers=w,
        ), "66dbb1922490273f3693a8d6bf05c833466af09ebf7df92fd1ec0aa23720c118"),
        (lambda w: marginal_convergence_experiment(
            potts_style_schedule(2, (2, 3)), [(0.5, 0.25), (0.25, 0.5)], 1200, 8, workers=w,
        ), "88ff83086a35bfa82f81d24d04e1d0cdbd82d575ca8f2e5f3386fef8e098a4eb"),
        (lambda w: coarsening_gate(10, 120, 42, workers=w),
         "ce23a0fd03790a3af6358555a5230f4643e774ea3d498e2f164ff0c4cef283e5"),
    ],
    ids=["interface", "marginal", "coarsening"],
)
def test_experiment_golden_json(run, digest, workers):
    # digests of the reports written when each experiment had its own level loop
    doc = json.dumps(run(workers), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
