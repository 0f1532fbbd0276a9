import math

import numpy as np
import pytest

from vmpnet.coloring import ColorDistribution, uniform_boundary_table, uniform_colors
from vmpnet.duality import (
    JointColorLaw,
    cone_window,
    corrupted,
    dual_colors_genealogy,
    dual_colors_graph,
    dual_sample_many,
    duality_gof_test,
    exact_dual_law,
    exact_forward_law,
    forward_sample_many,
    gate_settings,
    oracle_settings,
    pooled_two_sample_chisquare,
    _q3_asym,
)
from vmpnet.errors import InvalidParameterError, ParityError, StateSpaceError
from vmpnet.models import VmpParams, forward_batch, potts_params, simple_vmp
from vmpnet.rng import derive_seed

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def test_time_zero_points_give_product_lambda():
    params = simple_vmp(3, 0.2, 0.1, lam=ColorDistribution(3, (0.5, 0.3, 0.2)))
    f = exact_forward_law(params, [(1, 0), (5, 0)])
    d = exact_dual_law(params, [(1, 0), (5, 0)])
    want = np.outer([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert np.allclose(f.probs, want, atol=1e-15)
    assert np.allclose(d.probs, want, atol=1e-15)


def test_kappa_one_gives_product_bulk():
    p = ColorDistribution(3, (0.1, 0.6, 0.3))
    params = VmpParams(3, 0.0, 0.0, 1.0, uniform_boundary_table(3), p, uniform_colors(3))
    f = exact_forward_law(params, [(1, 2), (3, 2)])
    d = exact_dual_law(params, [(1, 2), (3, 2)])
    want = np.outer(p.as_array(), p.as_array())
    assert np.allclose(f.probs, want, atol=1e-14)
    assert np.allclose(d.probs, want, atol=1e-14)


def test_pure_voter_one_step_is_lambda():
    params = simple_vmp(2, 0.0, 0.0, lam=ColorDistribution(2, (0.7, 0.3)))
    f = exact_forward_law(params, [(0, 1)])
    d = exact_dual_law(params, [(0, 1)])
    assert np.allclose(f.probs, [0.7, 0.3], atol=1e-15)
    assert f.tvd(d) <= 1e-15


def test_oracle_agreement_suite():
    # the central desk-scale duality check: two independent computations
    worst = 0.0
    for st in oracle_settings():
        tv = exact_forward_law(st["params"], st["points"]).tvd(
            exact_dual_law(st["params"], st["points"])
        )
        worst = max(worst, tv)
    assert worst <= 1e-10


def test_oracle_agreement_mixed_times():
    params = _q3_asym(0.3, 0.1, "B")
    f = exact_forward_law(params, [(0, 1), (1, 2)])
    d = exact_dual_law(params, [(0, 1), (1, 2)])
    assert f.tvd(d) <= 1e-10


def test_duplicate_query_points_lie_on_diagonal():
    params = potts_params(1.0, 2)
    law = exact_forward_law(params, [(1, 2), (1, 2)])
    assert law.probs[0, 1] == 0.0 and law.probs[1, 0] == 0.0
    one = exact_forward_law(params, [(1, 2)])
    assert np.allclose(np.diag(law.probs), one.probs)
    dlaw = exact_dual_law(params, [(1, 2), (1, 2)])
    assert dlaw.tvd(law) <= 1e-12


def test_exact_law_vs_large_monte_carlo():
    # q=2 Potts at beta=ln2, one point at t=2, cross-checked against 10^7
    # forward samples (4 sigma multinomial)
    params = potts_params(LN2, 2)
    law = exact_forward_law(params, [(1, 2)]).probs
    n = 10_000_000
    samples = forward_sample_many(params, [(1, 2)], 424242, n)
    counts = np.bincount(samples[:, 0].astype(int), minlength=3)[1:]
    for c in range(2):
        p = law[c]
        assert abs(counts[c] / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_forward_oracle_guards():
    params = potts_params(1.0, 3)
    with pytest.raises(StateSpaceError):
        exact_forward_law(params, [(1, 12)], max_states=1000)
    with pytest.raises(ParityError):
        exact_forward_law(params, [(0, 2)])
    with pytest.raises(InvalidParameterError):
        exact_forward_law(params, [(1, -2)])


def test_dual_oracle_config_cap():
    params = potts_params(1.0, 3)
    with pytest.raises(StateSpaceError):
        exact_dual_law(params, [(1, 4)], max_configs=100)


def test_dual_oracle_hybrid_mode_converges():
    params = potts_params(LN2, 3)
    exact = exact_dual_law(params, [(1, 2)])
    approx = exact_dual_law(params, [(1, 2)], hybrid_samples=4000, hybrid_seed=5)
    assert exact.tvd(approx) < 0.03


def test_joint_law_validation():
    with pytest.raises(InvalidParameterError):
        JointColorLaw(2, np.array([0.5, 0.6]))
    with pytest.raises(InvalidParameterError):
        JointColorLaw(2, np.array([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# Dual samplers
# ---------------------------------------------------------------------------

def test_genealogy_equals_graph_sampler():
    params = _q3_asym(0.3, 0.1, "A")
    pts = [(-1, 2), (1, 2)]
    win = cone_window(pts)
    for seed in range(300):
        assert dual_colors_genealogy(params, seed, pts, win) == dual_colors_graph(
            params, seed, pts, win
        )


def test_forward_dual_same_seed_coupling():
    # one uniform per vertex drives both constructions: identical colors
    params = potts_params(1.5, 3)
    pts = [(-1, 4), (1, 4), (3, 4)]
    win = cone_window(pts)
    seeds = np.arange(200, dtype=np.uint64)
    fwd = forward_batch(params, seeds, win.x_min, win.x_max, pts)
    for s in range(200):
        assert tuple(int(c) for c in fwd[s]) == dual_colors_genealogy(params, s, pts, win)


def test_dual_sampler_law_matches_exact():
    params = potts_params(1.5, 3)
    pts = [(1, 2)]
    n = 30_000
    samples = dual_sample_many(params, pts, 9, n)
    counts = np.bincount(samples[:, 0].astype(int), minlength=4)[1:]
    law = exact_dual_law(params, pts).probs
    for c in range(3):
        p = law[c]
        assert abs(counts[c] / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_immediate_killing_gives_iid_bulk():
    p = ColorDistribution(2, (0.2, 0.8))
    params = VmpParams(2, 0.0, 0.0, 1.0, uniform_boundary_table(2), p, uniform_colors(2))
    samples = dual_sample_many(params, [(1, 4), (3, 4)], 21, 20_000)
    counts = np.bincount(samples.ravel().astype(int), minlength=3)[1:]
    n = samples.size
    assert abs(counts[1] / n - 0.8) <= 4 * math.sqrt(0.8 * 0.2 / n)
    # joint independence: empirical correlation near zero
    a = (samples[:, 0] == 2).astype(float)
    b = (samples[:, 1] == 2).astype(float)
    assert abs(np.corrcoef(a, b)[0, 1]) <= 4 / math.sqrt(len(a))


def test_single_coalescing_step():
    # b = kappa = 0, t = 1: the color is a neighbor's lambda draw
    lam = ColorDistribution(2, (0.7, 0.3))
    params = simple_vmp(2, 0.0, 0.0, lam=lam)
    samples = dual_sample_many(params, [(0, 1)], 3, 20_000)
    n = len(samples)
    emp = (samples[:, 0] == 1).mean()
    assert abs(emp - 0.7) <= 4 * math.sqrt(0.21 / n)


# ---------------------------------------------------------------------------
# Chi-square gate
# ---------------------------------------------------------------------------

def test_pooling_rule():
    c1 = np.array([500, 3, 2, 495])
    c2 = np.array([480, 4, 1, 515])
    stat, dof, p, cells = pooled_two_sample_chisquare(c1, c2)
    assert cells == 3  # two rare cells pooled into one bucket
    assert dof == 2
    assert 0.0 <= p <= 1.0


def test_pooling_degenerate_single_cell():
    stat, dof, p, cells = pooled_two_sample_chisquare(np.array([1000, 0]), np.array([997, 3]))
    assert dof >= 0 and p > 0


def test_gof_null_pvalues_roughly_uniform():
    # same sampler on both sides: p-values spread over [0,1]
    params = potts_params(1.5, 3)
    pts = [(1, 2)]
    pvals = []
    for rep in range(60):
        a = forward_sample_many(params, pts, derive_seed(rep, "null-a"), 10_000)
        b = forward_sample_many(params, pts, derive_seed(rep, "null-b"), 10_000)
        ca = np.bincount(a[:, 0].astype(int), minlength=4)[1:]
        cb = np.bincount(b[:, 0].astype(int), minlength=4)[1:]
        _, _, p, _ = pooled_two_sample_chisquare(ca, cb)
        pvals.append(p)
    pvals = np.array(pvals)
    assert (pvals < 0.01).mean() <= 0.1
    assert (pvals > 0.5).mean() >= 0.25


def test_gof_passes_honest_and_fails_corrupted():
    st = gate_settings()[13]  # strongest corruption TVD
    rep = duality_gof_test(st["params"], st["points"], 20_000, derive_seed(1, "t"), corrupt_dual=False)
    assert rep["pass"]
    rep_bad = duality_gof_test(st["params"], st["points"], 20_000, derive_seed(1, "t"), corrupt_dual=True)
    assert not rep_bad["pass"]
    assert rep_bad["tvd"] > rep["tvd"]


def test_gof_requires_enough_trials():
    st = gate_settings()[0]
    with pytest.raises(InvalidParameterError):
        duality_gof_test(st["params"], st["points"], 5000, 1)


def test_corrupted_transposes_only_g():
    params = _q3_asym(0.3, 0.1, "A")
    bad = corrupted(params)
    assert bad.g.dist(1, 2) == params.g.dist(2, 1)
    assert bad.p == params.p and bad.lam == params.lam
    assert (bad.w, bad.b, bad.kappa) == (params.w, params.b, params.kappa)


def test_gate_settings_shape():
    settings = gate_settings()
    assert len(settings) == 20
    names = [s["name"] for s in settings]
    assert len(set(names)) == 20
    assert sum(1 for n in names if n.startswith("potts")) == 2


def test_monte_carlo_tvd_consistency_both_samplers():
    # empirical laws of both samplers within 3*sqrt(q^k / N) of the oracle
    params = _q3_asym(0.3, 0.1, "A")
    pts = [(-1, 2), (1, 2)]
    exact = exact_forward_law(params, pts)
    n = 40_000
    bound = 3 * math.sqrt(3 ** 2 / n)
    fwd = forward_sample_many(params, pts, derive_seed(77, "mc-f"), n)
    dual = dual_sample_many(params, pts, derive_seed(77, "mc-d"), n)
    for samples in (fwd, dual):
        counts = np.zeros((3, 3))
        for a, b in samples:
            counts[a - 1, b - 1] += 1
        emp = JointColorLaw(3, counts / n)
        assert emp.tvd(exact) <= bound
