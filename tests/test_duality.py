import hashlib
import math

import numpy as np
import pytest

from vmpnet.coloring import ColorDistribution, point_mass, uniform_boundary_table, uniform_colors
from vmpnet.duality import (
    JointColorLaw,
    cone_window,
    corrupted,
    dual_colors_genealogy,
    dual_colors_graph,
    dual_colors_sweep,
    dual_sample_many,
    duality_gof_test,
    exact_dual_law,
    exact_forward_law,
    forward_sample_many,
    gate_settings,
    oracle_settings,
    pooled_two_sample_chisquare,
    _merge_runs,
    _q2_asym,
    _q3_asym,
)
from vmpnet.errors import InvalidParameterError, ParityError, StateSpaceError, WindowError
from vmpnet.lattice_net import ArrowOutcome, Window, arrow_outcomes
from vmpnet import duality
from vmpnet.models import VmpParams, forward_batch, potts_params, simple_vmp
from vmpnet.rng import derive_seed, vertex_uniform

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
        exact_forward_law(params, [(1, 12)])  # 3^13 base states, past the 250k cap
    with pytest.raises(ParityError):
        exact_forward_law(params, [(0, 2)])
    with pytest.raises(InvalidParameterError):
        exact_forward_law(params, [(1, -2)])


def test_dual_oracle_config_cap():
    params = potts_params(1.0, 3)
    with pytest.raises(StateSpaceError):
        exact_dual_law(params, [(1, 4)])  # 4^10 configurations, past the 300k cap
    q2 = (uniform_boundary_table(2), uniform_colors(2), uniform_colors(2))
    with pytest.raises(StateSpaceError):
        # one configuration (every vertex killed), but a 2^53-state law
        exact_dual_law(VmpParams(2, 0.0, 0.0, 1.0, *q2), [(2 * i, 1) for i in range(53)])
    with pytest.raises(StateSpaceError):
        # one configuration (every vertex branches): 2^17 query states fit,
        # but the 18 leaves under them make a 2^18-state frontier
        exact_dual_law(VmpParams(2, 0.0, 1.0, 0.0, *q2), [(2 * i, 1) for i in range(17)])


#: SHA-256 of each oracle's ``probs.tobytes()``: forward, then dual (None
#: where the dual cone is past its configuration cap), recorded when each
#: oracle built its einsum subscripts from a letter alphabet.
_LAW_DIGESTS = {
    "potts-q2-ln2-t2": ("606e5166986dd9f186277d16e3d18bae3887a944a829487b59fd8672bbb20251",
                        "606e5166986dd9f186277d16e3d18bae3887a944a829487b59fd8672bbb20251"),
    "potts-q3-ln2-t2": ("ab5d3ff1118f719ee016c1422fcbb65eeaa08f19e62a86167ee12cdfe0fe32ad",
                        "dc6407e4a1b6bb1abcb3620f652aa6d26eb8a246f270d0c50513a4b24b75caa5"),
    "potts-q2-ln2-k2": ("1c2adaaf3d013dbb1d89c4e1f55bc686da8512bffba659a08aa86d48b2479acb",
                        "cf7b7a83f9664f23723830f8f88c00e63b40ae87f6c14555700e767098cd7542"),
    "potts-q3-b1.5-t1": ("6fef4dc74dfd6a38e984846126b31cf3d90892f2ea10d532e985b29ff270106d",
                         "ab5d3ff1118f719ee016c1422fcbb65eeaa08f19e62a86167ee12cdfe0fe32ad"),
    "q2-asym-t1": ("6d7b1018900623b0ef18552655c26a85bd902100de4b552e60705e70ee9b9d71",
                   "41c3534495fdb191b068b73a1be10b35c54451225a24d5ca4bea2265651425bb"),
    "q2-asym-t2": ("0a173f00366ff6d2b25bc59e905e7d1a5ca42c9e624e667b9e5314ecf78b8c8c",
                   "5afd982e3d9792ae81f1b51c058af9f5dea5cf8fbaf67e5ed7d5e30812f8ab63"),
    "q2-asym-k2-t2": ("2719a185989f51637c1ef2a2e509b049cd325ebd9a000b82a3dccb61d92ca000",
                      "f04b8abb422c837607aee18d651784e85d972ea83f73b50b78db055076b1aafb"),
    "q2-nokill-t2": ("0c325b2ee2249ed7d5fa2451e6805ef1e53a501d84f0c80dde18ee3c91a96d9e",
                     "3bd31f52b2ab5b38e9d31d16cb57c0d7c81c80360fe9106b70e2ecad58010f2d"),
    "q3-asym-t1": ("f2375912a27eff9361d4159a684533f2b4e0a5799555b19a8b9bcc534b356e04",
                   "c6e12c7b167c1aee27a40e95555b0ec29b6a897c1efb5228d591ac172fd5bb9a"),
    "q3-asym-t2": ("cac39f59b591b70cc18d49387208fbdd20e6ac52cb3a830fae36eab62e438ee5",
                   "11812b1d11b675ceff60c8873b934d21dd2f079a6b36ca07fc1fa32b340d2f70"),
    "q3-asym-k2-t1": ("e59ae0f883f3ffb6c8afd0548b2007f99e34755ce59a8cce0e70812013dad276",
                      "81f6cc3c5073f06204e76d3021c1e296fe63754a893286af1a2c17e7c3fc0b5b"),
    "q3-asym-k2-t2": ("13b52057f6c37c27f3a3c9da737a39992e9efe429dda284e687acf47fa3d4983",
                      "99d00658e9ad23449279c12f93bdffdbd2c2efcb35f7af9d7397614038074f3f"),
    "q2-heavykill-t2": ("f9e54ab063bacbf2e896b82975c0814eda21561193157de2aee83483f5a36b7c",
                        "c87517c105ca131ac1310cc8e2e6eb30d667851b7ee70b18ffdf54541e81d2be"),
    "q3-nowalk-mix-t2": ("0ede866aed21f0dc7f91be2f8c1b926d2eb395f5b1fb3f2bbad2fcdab04098e8",
                         "780830739c7f19248e4e52967a247c8e7c760887b6dc66ccff1f0591af68a403"),
    "dup-point": ("2faf07e023bdb85fc4462637133da366cebb88edec5eba733cb7d71f599f4f1e",
                  "742b161308a3b7f072f7eeb6c65f5293f03621f779bf441a86c862a10ecd85ff"),
    "mixed-times": ("989fec7805e6a63d2d62d0cfa37bd06890573f59926f157b9a8aec6a84a34c74",
                    "222debeb808c5088d639ec43b68106727b4d0acf67ab6713a26ce7f950ea1566"),
    "three-one-dup": ("70f08606ccb2aca4f1a1b49c96541d260db1f0a4106501a88be9150e5f394175",
                      "3581787fc03499fff007901b575bf804d0c9ed7412d2d5a3b776f198d8057d45"),
    "t3": ("892fa48d81b49f68b7b97a66d559b04d6dec3342095596e9b8656a572f55d2c7",
           "44d3690c35cf0bf9e09d5be5c298a55b7933bfd20c3d8158aa41cfdd041e6142"),
    "four-t6": ("40448dc4b1344c079613bc741713975fc3c2e1bb1eed07fd378a923f801288ba", None),
}


def test_exact_oracle_laws_golden():
    # the laws themselves, not only their TVD: a rewrite of either oracle
    # must give the same bytes on every instance
    instances = oracle_settings() + [
        {"name": "dup-point", "params": potts_params(1.0, 2), "points": [(1, 2), (1, 2)]},
        {"name": "mixed-times", "params": _q3_asym(0.3, 0.1, "B"), "points": [(0, 1), (1, 2)]},
        {"name": "three-one-dup", "params": _q3_asym(0.25, 0.1, "C"), "points": [(-1, 2), (1, 2), (-1, 2)]},
        {"name": "t3", "params": _q2_asym(0.3, 0.1), "points": [(0, 3)]},
        {"name": "four-t6", "params": _q3_asym(0.3, 0.1), "points": [(-3, 6), (-1, 6), (1, 6), (3, 6)]},
    ]
    assert sorted(st["name"] for st in instances) == sorted(_LAW_DIGESTS)
    for st in instances:
        want_f, want_d = _LAW_DIGESTS[st["name"]]
        law = exact_forward_law(st["params"], st["points"])
        assert hashlib.sha256(law.probs.tobytes()).hexdigest() == want_f, st["name"]
        if want_d is not None:
            law = exact_dual_law(st["params"], st["points"])
            assert hashlib.sha256(law.probs.tobytes()).hexdigest() == want_d, st["name"]


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
    seeds = np.arange(300, dtype=np.uint64)
    batch = dual_colors_genealogy(params, seeds, pts, win)
    assert batch.shape == (300, 2)
    for seed in range(300):
        assert tuple(int(c) for c in batch[seed]) == dual_colors_graph(params, seed, pts, win)
    row = dual_colors_genealogy(params, 17, pts, win)
    assert row.shape == (2,) and np.array_equal(row, batch[17])


def test_forward_dual_same_seed_coupling():
    # one uniform per vertex drives both constructions: identical colors
    params = potts_params(1.5, 3)
    pts = [(-1, 4), (1, 4), (3, 4)]
    win = cone_window(pts)
    seeds = np.arange(200, dtype=np.uint64)
    fwd = forward_batch(params, seeds, win.x_min, win.x_max, pts)
    assert np.array_equal(dual_colors_genealogy(params, seeds, pts, win), fwd)
    assert np.array_equal(dual_colors_genealogy(params, 123, pts, win), fwd[123])


def test_seed_array_shape_is_kept():
    params = potts_params(1.5, 3)
    pts = [(-1, 2), (1, 2)]
    seeds = np.arange(12, dtype=np.uint64).reshape(3, 4)
    grid = dual_colors_genealogy(params, seeds, pts)
    assert grid.shape == (3, 4, 2)
    assert np.array_equal(grid.reshape(12, 2), dual_colors_genealogy(params, seeds.ravel(), pts))
    assert dual_colors_genealogy(params, seeds[:0, 0], pts).shape == (0, 2)


def test_window_error_on_exactly_the_graph_seeds():
    params = _q3_asym(0.35, 0.05, "A")
    pts = [(-1, 4), (1, 4)]
    win = Window(-3, 3, 0, 4)  # narrower than the dependence cone
    escaped, kept = [], []
    for seed in range(300):
        try:
            dual_colors_graph(params, seed, pts, win)
        except WindowError:
            escaped.append(seed)
            with pytest.raises(WindowError):
                dual_colors_genealogy(params, seed, pts, win)
        else:
            kept.append(seed)
    assert escaped and kept
    with pytest.raises(WindowError):
        dual_colors_genealogy(params, np.arange(300, dtype=np.uint64), pts, win)
    batch = dual_colors_genealogy(params, np.array(kept, dtype=np.uint64), pts, win)
    assert [tuple(int(c) for c in r) for r in batch] == [
        dual_colors_graph(params, s, pts, win) for s in kept
    ]
    with pytest.raises(WindowError):
        dual_colors_genealogy(params, 0, [(5, 0)], win)  # a query point outside
    potts = potts_params(1.0, 3)
    for window, query in ((Window(-5, 5, 0, 1), (1, 2)), (Window(-5, 5, 1, 3), (0, 3))):
        # a query above the window's top; a window that starts above t = 0
        with pytest.raises(WindowError):
            dual_colors_graph(potts, 3, [query], window)
        with pytest.raises(WindowError):
            dual_colors_genealogy(potts, 3, [query], window)


@pytest.mark.parametrize(
    "points",
    [
        [(1, 2), (1, 2), (-1, 2)],  # duplicate query points
        [(1, 0), (3, 0)],  # query points at t = 0
        [(1, 0), (0, 3), (2, 1), (0, 3)],  # mixed query times
    ],
    ids=["duplicates", "time-zero", "mixed-times"],
)
def test_genealogy_edge_cases_equal_forward(points):
    params = _q3_asym(0.3, 0.1, "B")
    win = cone_window(points)
    seeds = np.arange(400, dtype=np.uint64)
    fwd = forward_batch(params, seeds, win.x_min, win.x_max, points)
    dual = dual_colors_genealogy(params, seeds, points, win)
    assert np.array_equal(dual, fwd)
    for s in range(0, 400, 40):
        assert tuple(int(c) for c in dual[s]) == dual_colors_graph(params, s, points, win)


@pytest.mark.parametrize(
    "params, points",
    [
        (_q3_asym(1.0, 0.0, "A"), [(0, 3), (2, 3), (1, 2)]),  # b = 1: the frontier fills the cone
        (_q2_asym(0.6, 0.4), [(0, 3), (2, 3), (1, 4)]),  # b + kappa = 1: no walks
    ],
    ids=["all-branch", "branch-kill"],
)
def test_genealogy_corner_rates_equal_forward_and_graph(params, points):
    assert params.w == 0.0
    win = cone_window(points)
    seeds = np.arange(300, dtype=np.uint64)
    dual = dual_colors_genealogy(params, seeds, points, win)
    assert np.array_equal(dual, forward_batch(params, seeds, win.x_min, win.x_max, points))
    for s in range(0, 300, 30):
        assert tuple(int(c) for c in dual[s]) == dual_colors_graph(params, s, points, win)


def _sweep_groups():
    """Groups with different b and kappa, windows, query times and seed shapes,
    one of them empty."""
    return [
        (_q3_asym(0.3, 0.1, "A"), np.arange(200, dtype=np.uint64), [(-1, 2), (1, 2)], None),
        (_q3_asym(0.35, 0.05, "B"), np.arange(50, 150, dtype=np.uint64).reshape(10, 10),
         [(1, 0), (0, 3), (2, 1), (0, 3)], Window(-8, 9, 0, 5)),
        (potts_params(1.5, 3), np.arange(0, dtype=np.uint64), [(0, 5)], None),
        (_q3_asym(1.0, 0.0, "C"), np.arange(7, dtype=np.uint64), [(0, 3), (2, 3), (1, 2)], None),
        (simple_vmp(3, 0.0, 0.2), 11, [(3, 6), (-1, 4)], Window(-20, 20, 0, 9)),
    ]


@pytest.mark.parametrize("int64_keys", [False, True], ids=["int32-keys", "int64-keys"])
def test_sweep_equals_one_call_per_group(monkeypatch, int64_keys):
    groups = _sweep_groups()
    alone = [dual_colors_genealogy(*group) for group in groups]
    if int64_keys:  # the key space no longer fits int32
        monkeypatch.setattr(duality, "_INT32_KEYS", 10)
    swept = dual_colors_sweep(groups)
    assert len(swept) == len(groups)
    for one, many in zip(alone, swept):
        assert one.dtype == many.dtype and one.shape == many.shape
        assert one.tobytes() == many.tobytes()
    assert swept[2].shape == (0, 1)
    assert swept[4].shape == (2,)


def test_sweep_window_error_is_per_group():
    params = _q3_asym(0.35, 0.05, "A")
    pts = [(-1, 4), (1, 4)]
    narrow = Window(-3, 3, 0, 4)
    escaped = [s for s in range(300) if _escapes(params, s, pts, narrow)]
    kept = np.array([s for s in range(300) if s not in escaped], dtype=np.uint64)
    wide = (params, np.arange(300, dtype=np.uint64), pts, Window(-40, 40, 0, 4))
    with pytest.raises(WindowError, match=r"escaped window Window\(x_min=-3"):
        dual_colors_sweep([wide, (params, np.array(escaped[:1], dtype=np.uint64), pts, narrow)])
    with pytest.raises(WindowError):
        dual_colors_sweep([(params, np.array(escaped[:1], dtype=np.uint64), pts, narrow), wide])
    swept = dual_colors_sweep([wide, (params, kept, pts, narrow)])
    assert np.array_equal(swept[1], swept[0][kept.astype(np.intp)])


def _escapes(params, seed, pts, win) -> bool:
    try:
        dual_colors_graph(params, seed, pts, win)
    except WindowError:
        return True
    return False


def test_sweep_groups_must_share_q():
    with pytest.raises(InvalidParameterError):
        dual_colors_sweep([(potts_params(1.5, 3), 1, [(0, 1)], None), (potts_params(LN2, 2), 1, [(0, 1)], None)])


@pytest.mark.parametrize(
    "runs",
    [
        [[], []],
        [[3, 5, 9]],
        [[], [2, 4]],
        [[1, 4, 7], [1, 4, 7]],  # runs that coincide
        [[0, 2, 4], [1, 2, 3, 4, 5]],
        [[6, 8], [0, 1], [1, 8, 9]],  # a level's keys and two query runs
    ],
)
def test_merge_runs_equals_unique(runs):
    arrays = [np.array(r, dtype=np.int64) for r in runs]
    merged = _merge_runs(*arrays)
    assert merged.dtype == np.int64
    assert np.array_equal(merged, np.unique(np.concatenate(arrays)))


def test_merge_runs_equals_unique_on_random_runs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        runs = [np.unique(rng.integers(0, 40, size=rng.integers(0, 30))) for _ in range(rng.integers(1, 4))]
        assert np.array_equal(_merge_runs(*runs), np.unique(np.concatenate(runs)))


def test_kappa_one_kills_every_frontier():
    p = ColorDistribution(3, (0.1, 0.6, 0.3))
    params = VmpParams(3, 0.0, 0.0, 1.0, uniform_boundary_table(3), p, uniform_colors(3))
    pts = [(1, 4), (3, 4), (2, 1)]
    win = Window(1, 3, 0, 4)  # no genealogy leaves its query point
    seeds = np.arange(300, dtype=np.uint64)
    dual = dual_colors_genealogy(params, seeds, pts, win)
    wide = cone_window(pts)
    assert np.array_equal(dual, forward_batch(params, seeds, wide.x_min, wide.x_max, pts))
    for s in range(0, 300, 30):
        assert tuple(int(c) for c in dual[s]) == dual_colors_graph(params, s, pts, win)


def test_kill_precedes_walk_when_w_rounds_up():
    # VmpParams lets w exceed 1 - b - kappa by up to 1e-12; a uniform in
    # [1 - kappa, w) is a kill for the forward chain, the net and the dual
    seed = next(s for s in range(100) if vertex_uniform(s, 0, 1) >= 0.5)
    u = vertex_uniform(seed, 0, 1)
    kappa = 1.0 - u  # exact, and 1 - kappa == u
    params = VmpParams(2, u + 5e-13, 0.0, kappa, uniform_boundary_table(2), point_mass(2, 2), point_mass(2, 1))
    assert arrow_outcomes(np.array([u]), params.w, kappa)[0] == ArrowOutcome.NONE
    win = cone_window([(0, 1)])
    assert forward_batch(params, np.array([seed], dtype=np.uint64), win.x_min, win.x_max, [(0, 1)])[0, 0] == 2
    assert dual_colors_graph(params, seed, [(0, 1)]) == (2,)
    assert dual_colors_genealogy(params, seed, [(0, 1)]).tolist() == [2]


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


def test_pooled_pvalue_equals_chi2_sf():
    from scipy.special import chdtrc
    from scipy.stats import chi2

    rng = np.random.default_rng(11)
    dofs = set()
    for cells in range(2, 80):
        c1 = rng.integers(10, 400, size=cells)
        c2 = rng.poisson(c1 * rng.uniform(0.8, 1.25))
        stat, dof, p, _ = pooled_two_sample_chisquare(c1, c2)
        dofs.add(dof)
        assert p == float(chi2.sf(stat, dof))
    assert len(dofs) > 50
    for dof in range(1, 200):
        for stat in (0.0, 0.5 * dof, dof, 3.0 * dof, 1e6):
            assert chdtrc(dof, stat) == chi2.sf(stat, dof)


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
