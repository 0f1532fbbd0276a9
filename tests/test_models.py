import hashlib
import math

import numpy as np
import pytest

from vmpnet.coloring import point_mass, uniform_boundary_table, uniform_colors
from vmpnet.duality import _q3_asym
from vmpnet.errors import InvalidParameterError, WindowError
from vmpnet.models import (
    GeneralVmpSpec,
    VmpParams,
    forward_batch,
    lotka_volterra_decomposition,
    lotka_volterra_transition,
    nbv_remainder_order_fit,
    noisy_biased_voter_decomposition,
    noisy_biased_voter_transition,
    potts_detailed_balance_residual,
    potts_params,
    potts_rates,
    simple_vmp,
    simulate,
    transition_distribution,
)
from vmpnet.rng import derive_seed_array

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Potts chain
# ---------------------------------------------------------------------------

def test_potts_rates_ln2_q3():
    w, b, kappa = potts_rates(LN2, 3)
    assert abs(w - 0.4) < 1e-14
    assert abs(b - 0.1) < 1e-14
    assert abs(kappa - 0.5) < 1e-14


def test_potts_simplex_identity():
    for beta in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for q in range(2, 7):
            w, b, kappa = potts_rates(beta, q)
            assert abs(w + b + kappa - 1.0) <= 1e-12


def test_potts_low_temperature_anchors():
    for q in range(2, 7):
        _, b, kappa = potts_rates(10.0, q)
        assert abs(kappa * math.exp(20.0) - q) <= 1e-6 * q
        assert abs(b * math.exp(10.0) - q / 2.0) <= 1e-3 * q


def test_potts_kill_anchor_monotone_with_bound():
    for q in (2, 4, 6):
        prev = 0.0
        for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
            _, _, kappa = potts_rates(beta, q)
            val = kappa * math.exp(2 * beta)
            assert val > prev
            assert abs(val - q) <= q * (q - 1) * math.exp(-2 * beta)
            prev = val


def test_potts_branch_anchor_bound():
    for q in (2, 4, 6):
        for beta in (2.0, 4.0, 8.0):
            _, b, _ = potts_rates(beta, q)
            assert abs(b * math.exp(beta) - q / 2.0) <= 10.0 * q * q * math.exp(-beta)


def test_potts_rejects_bad_beta():
    with pytest.raises(InvalidParameterError):
        potts_rates(0.0, 3)
    with pytest.raises(InvalidParameterError):
        potts_rates(-1.0, 3)


def test_detailed_balance_small_residual():
    assert potts_detailed_balance_residual(1.0, 2) <= 1e-10
    assert potts_detailed_balance_residual(3.0, 5) <= 1e-10
    for q in range(2, 7):
        for beta in (0.5, 1.0, 3.0):
            assert potts_detailed_balance_residual(beta, q) <= 1e-10


# ---------------------------------------------------------------------------
# Transition distribution
# ---------------------------------------------------------------------------

def test_transition_equal_neighbors_mass():
    params = potts_params(LN2, 3)
    d = transition_distribution(params, 2, 2)
    assert d.weights[1] >= params.w + params.b - 1e-15


def test_transition_pure_walk():
    params = simple_vmp(3, 0.0, 0.0)
    d = transition_distribution(params, 1, 3)
    assert np.allclose(d.as_array(), [0.5, 0.0, 0.5])


def test_transition_potts_values():
    # beta = ln 2, q = 3: w = 0.4, b = 0.1, kappa = 0.5; neighbors 1, 2
    params = potts_params(LN2, 3)
    d = transition_distribution(params, 1, 2)
    # walk: 0.2 each on colors 1,2; branch: uniform -> 1/30 each; kill: 1/6 each
    expected = np.array([0.2 + 0.1 / 3 + 0.5 / 3, 0.2 + 0.1 / 3 + 0.5 / 3, 0.1 / 3 + 0.5 / 3])
    assert np.allclose(d.as_array(), expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Forward dynamics
# ---------------------------------------------------------------------------

def test_step_pure_walk_preserves_unanimity():
    params = simple_vmp(3, 0.0, 0.0)
    row = {x: 2 for x in range(-7, 8, 2)}
    out = simulate(params, -7, 7, 1, 1, initial=row).slice_at(1)
    assert set(out.values()) == {2}
    assert sorted(out) == list(range(-6, 7, 2))


def test_step_kappa_one_resamples_from_bulk():
    params = VmpParams(3, 0.0, 0.0, 1.0, uniform_boundary_table(3), point_mass(3, 2), uniform_colors(3))
    row = {x: 1 for x in range(-7, 8, 2)}
    out = simulate(params, -7, 7, 1, 1, initial=row).slice_at(1)
    assert set(out.values()) == {2}


def test_step_window_underflow():
    params = simple_vmp(2, 0.0, 0.0)
    with pytest.raises(WindowError):
        simulate(params, 1, 1, 1, 1, initial={1: 1})
    with pytest.raises(WindowError):
        simulate(params, 0, 3, 5, seed=1)
    with pytest.raises(WindowError):
        simulate(params, -3, 3, 1, 1, initial={-3: 1, 1: 1, 3: 1})


@pytest.mark.parametrize(
    "params, x_lo, x_hi, steps, seed, extra, digest",
    [
        (potts_params(1.5, 3), -40, 40, 12, 7, {},
         "a4eb4a43f02b52e8e30258c3427e733e4f6137d052ff1eabe7240f940152430b"),
        (_q3_asym(0.3, 0.1), -60, 60, 30, 11, {},
         "2a982dfdda6bd7ffc7fe2ed8e79f741e56f4ce058f8e482f7f7a58267bd88b56"),
        (_q3_asym(0.3, 0.1), -20, 20, 8, 4,
         {"initial": {x: 1 + (x // 2) % 3 for x in range(-20, 21, 2)}, "parity": "even"},
         "acf7c207cbed22955ebf4d9ee78e5dde0eafc476b4b9a9336dc7736a87432e03"),
    ],
)
def test_simulate_golden_csv(params, x_lo, x_hi, steps, seed, extra, digest):
    # digests of the CSVs written by the former per-site scalar chain
    field = simulate(params, x_lo, x_hi, steps, seed, **extra)
    assert hashlib.sha256(field.to_csv().encode()).hexdigest() == digest
    assert {type(v) for _, row in field.slices for v in (*row, *row.values())} == {int}


def test_simulate_deterministic():
    params = potts_params(1.0, 3)
    a = simulate(params, -9, 9, 4, 777)
    b = simulate(params, -9, 9, 4, 777)
    assert a.slices == b.slices
    assert a.parity == "odd"


def test_simulate_matches_forward_batch():
    params = potts_params(LN2, 3)
    for seed in (5, 6, 7):
        field = simulate(params, -9, 9, 4, seed)
        rec = [(1, 4), (-1, 2), (3, 0), (0, 3)]
        got = forward_batch(params, np.array([seed], dtype=np.uint64), -9, 9, rec)
        for j, (x, t) in enumerate(rec):
            assert field.slice_at(t)[x] == int(got[0, j])


def test_one_step_law_matches_transition_distribution():
    # frequency of the middle site color after one step, conditioned by
    # construction: neighbors pinned by a point-mass initial condition
    params = potts_params(LN2, 3)
    lam = point_mass(3, 1)
    pinned = VmpParams(3, params.w, params.b, params.kappa, params.g, params.p, lam)
    n = 10 ** 5
    seeds = derive_seed_array(12, 0, n, "onestep")
    out = forward_batch(pinned, seeds, -3, 3, [(0, 1)])
    counts = np.bincount(out[:, 0].astype(int), minlength=4)[1:]
    expected = transition_distribution(params, 1, 1).as_array()
    for c in range(3):
        p = expected[c]
        bound = 4 * math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts[c] / n - p) <= bound


def test_sublattice_independence():
    params = potts_params(1.0, 3)
    base_even = {x: 1 + (x // 2) % 3 for x in range(-10, 11, 2)}
    noise_odd_a = {x: 1 for x in range(-9, 10, 2)}
    noise_odd_b = {x: 3 for x in range(-9, 10, 2)}
    fa = simulate(params, -10, 10, 3, 4, initial={**base_even, **noise_odd_a}, parity="even")
    fb = simulate(params, -10, 10, 3, 4, initial={**base_even, **noise_odd_b}, parity="even")
    assert fa.slices == fb.slices


def test_colorfield_csv():
    params = simple_vmp(2, 0.1, 0.0)
    field = simulate(params, -5, 5, 1, 3)
    csv = field.to_csv()
    assert csv.splitlines()[0] == "t,x,color"
    assert len(csv.splitlines()) == 1 + 6 + 5


# ---------------------------------------------------------------------------
# Lotka-Volterra
# ---------------------------------------------------------------------------

def test_lv_transition_examples():
    # eps=0: pure death-replacement
    assert np.allclose(lotka_volterra_transition(0, 0.25, 0.8, 0.0), [1 - 0.8 * 0.25, 0.8 * 0.25])
    # alpha=0: nothing dies
    assert np.allclose(lotka_volterra_transition(0, 0.9, 0.0, 0.3), [1.0, 0.0])
    assert np.allclose(lotka_volterra_transition(1, 0.9, 0.0, 0.3), [0.0, 1.0])
    # worked value
    assert abs(lotka_volterra_transition(0, 0.5, 1.0, 0.1)[1] - 0.475) < 1e-15


def test_lv_reconstruction_exact_on_grid():
    worst = 0.0
    for alpha in (0.0, 0.25, 0.6, 1.0):
        for eps in (0.0, 0.1, 0.5, 1.0):
            d = lotka_volterra_decomposition(alpha, eps)
            for eta in (0, 1):
                for f1 in np.linspace(0, 1, 101):
                    got = d.reconstructed(eta, float(f1))
                    want = lotka_volterra_transition(eta, float(f1), alpha, eps)
                    worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12


def test_lv_eps_zero_degenerates_to_voter_part():
    d = lotka_volterra_decomposition(0.5, 0.0)
    for eta in (0, 1):
        for f1 in (0.0, 0.5, 1.0):
            assert np.allclose(d.reconstructed(eta, f1), d.voter_part(eta, f1))


def test_lv_boundary_weights():
    d = lotka_volterra_decomposition(0.7, 0.1)
    table = d.g_table()
    # from state 0 with one disagreeing kernel pick: flip weight alpha/2
    assert table[(1, 2, 1)].weights == (1 - 0.35, 0.35)
    assert table[(1, 1, 2)].weights == (1 - 0.35, 0.35)
    assert table[(1, 2, 2)].weights == (1.0, 0.0)
    assert table[(2, 1, 2)].weights == (0.35, 1 - 0.35)


def test_lv_general_spec_matches_on_neighbor_configs():
    d = lotka_volterra_decomposition(0.7, 0.15)
    spec = d.as_general_spec()
    for cl in (1, 2):
        for cm in (1, 2):
            for cr in (1, 2):
                local = {-1: cl, 0: cm, 1: cr}
                f1 = 0.5 * (cl == 2) + 0.5 * (cr == 2)
                want = lotka_volterra_transition(cm - 1, f1, 0.7, 0.15)
                assert np.abs(spec.transition_distribution(local) - want).max() <= 1e-15


def test_general_spec_validation():
    with pytest.raises(InvalidParameterError):
        GeneralVmpSpec(
            q=2,
            w=1.0,
            b=0.0,
            kappa=0.0,
            kernel={1: 1.0},  # nonzero mean
            n_neighbors=1,
            neighbor_law={(1,): 1.0},
            g={(1,): point_mass(2, 1), (2,): point_mass(2, 2)},
            p=uniform_colors(2),
        )


# ---------------------------------------------------------------------------
# Noisy biased voter
# ---------------------------------------------------------------------------

def test_nbv_transition_examples():
    assert np.allclose(noisy_biased_voter_transition(0.3, 0.5, 0.0, 0.0), [0.3, 0.7])
    assert np.allclose(noisy_biased_voter_transition(1.0, 0.5, 0.2, 0.0), [1.0, 0.0])
    got = noisy_biased_voter_transition(0.5, 0.3, 0.1, 0.01)
    assert abs(got[0] - 0.557 / 1.06) < 1e-15


def test_nbv_reconstruction_exact():
    for alpha in (0.0, 0.3, 1.0):
        for eps in (2.0 ** -8, 2.0 ** -5, 2.0 ** -4):
            d = noisy_biased_voter_decomposition(alpha, 1.0, 1.0, eps)
            for f1 in np.linspace(0, 1, 101):
                want = noisy_biased_voter_transition(float(f1), alpha, d.b_eps, d.kappa_eps)
                assert np.abs(d.reconstructed(float(f1)) - want).max() <= 1e-12


def test_nbv_remainder_closed_forms_at_unanimity():
    d = noisy_biased_voter_decomposition(0.3, 1.0, 1.0, 2.0 ** -5)
    b_, k_ = d.b_eps, d.kappa_eps
    r1 = 0.3 * k_ * (b_ + k_) / (1 + b_ + k_)
    r0 = -0.7 * k_ * k_ / (1 + k_)
    assert abs(d.remainder(1.0) - r1) <= 1e-15
    assert abs(d.remainder(0.0) - r0) <= 1e-18
    # both vanish at cubic or higher order in eps, never exactly
    assert abs(d.remainder(1.0)) <= 2 * d.eps ** 3
    assert abs(d.remainder(0.0)) <= d.eps ** 4


def test_nbv_remainder_cubic_order():
    slope, eps_grid, max_r = nbv_remainder_order_fit(0.3, 1.0, 1.0)
    assert slope >= 2.9
    assert np.all(max_r > 0)
    assert eps_grid[0] == 2.0 ** -8


def test_nbv_boundary_matches_table_expectation():
    d = noisy_biased_voter_decomposition(0.4, 1.0, 1.0, 2.0 ** -5)
    table = d.g_table()
    for f1 in (0.0, 0.3, 0.5, 0.8, 1.0):
        acc = np.zeros(2)
        for c1 in (1, 2):
            for c2 in (1, 2):
                for c3 in (1, 2):
                    pr = math.prod(f1 if c == 1 else 1 - f1 for c in (c1, c2, c3))
                    acc += pr * table[(c1, c2, c3)].as_array()
        assert np.abs(acc - d.boundary_part(f1)).max() <= 1e-14


def test_nbv_eps_too_large_rejected():
    with pytest.raises(InvalidParameterError):
        noisy_biased_voter_decomposition(0.3, 1.0, 1.0, 0.7)  # w_eps < 0


def test_vmp_params_validation():
    with pytest.raises(InvalidParameterError):
        VmpParams(3, 0.5, 0.5, 0.5, uniform_boundary_table(3), uniform_colors(3), uniform_colors(3))
    with pytest.raises(InvalidParameterError):
        VmpParams(3, 0.9, 0.1, 0.0, uniform_boundary_table(2), uniform_colors(3), uniform_colors(3))


def test_one_step_disagreeing_neighbors_law():
    # pinned neighbors (1, 2): middle-site law equals transition_distribution
    params = potts_params(LN2, 3)
    expected = transition_distribution(params, 1, 2).as_array()
    n = 10 ** 5
    counts = np.zeros(3)
    row = {-1: 1, 1: 2}
    for seed in range(n):
        out = simulate(params, -1, 1, 1, seed, initial=row).slice_at(1)
        counts[out[0] - 1] += 1
    for c in range(3):
        p = expected[c]
        assert abs(counts[c] / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_general_spec_voter_correction_reproduces_nbv():
    d = noisy_biased_voter_decomposition(0.3, 1.0, 1.0, 2.0 ** -5)
    base = d.as_general_spec()

    def correction(local):
        f1 = sum(0.5 for y in (-1, 1) if local[y] == 1)
        r_over_w = d.remainder(f1) / d.w_eps
        return np.array([r_over_w, -r_over_w])

    spec = GeneralVmpSpec(
        q=2, w=base.w, b=base.b, kappa=base.kappa, kernel=base.kernel,
        n_neighbors=3, neighbor_law=base.neighbor_law, g=base.g, p=base.p,
        voter_correction=correction,
    )
    for cl in (1, 2):
        for cr in (1, 2):
            local = {-1: cl, 0: 1, 1: cr}
            f1 = sum(0.5 for c in (cl, cr) if c == 1)
            want = noisy_biased_voter_transition(f1, 0.3, d.b_eps, d.kappa_eps)
            got = spec.transition_distribution(local)
            assert np.abs(got - want).max() <= 1e-14
