import math
from pathlib import Path

import numpy as np
import pytest

from vmpnet.errors import InvalidParameterError
from vmpnet.lattice_net import (
    BACKWARD,
    FORWARD,
    ArrowField,
    ArrowOutcome,
    KeyedNet,
    Window,
    arrow_outcomes,
    outcome_from_uniform,
    reachable_positions,
    sample_arrow_field,
)

FIXTURES = Path(__file__).parent / "fixtures"

NOMINAL = {
    ArrowOutcome.LEFT_ONLY: 0.425,
    ArrowOutcome.RIGHT_ONLY: 0.425,
    ArrowOutcome.BOTH: 0.1,
    ArrowOutcome.NONE: 0.05,
}


def test_outcome_frequencies_within_four_sigma():
    field = sample_arrow_field(Window(0, 1999, 0, 199), 0.1, 0.05, 31415)
    outs = list(field.outcomes().values())
    n = len(outs)
    assert n >= 10 ** 5
    for outcome, p in NOMINAL.items():
        emp = sum(1 for o in outs if o is outcome) / n
        assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / n), outcome


def test_branch_fraction_binomial_concentration():
    # one million vertices, branching probability 0.1
    field = sample_arrow_field(Window(0, 1999, 0, 999), 0.1, 0.05, 7)
    outs = field.outcomes()
    n = len(outs)
    assert n >= 10 ** 6
    emp = sum(1 for o in outs.values() if o is ArrowOutcome.BOTH) / n
    assert abs(emp - 0.1) < 4 * math.sqrt(0.1 * 0.9 / n)


def test_adjacent_independence():
    field = sample_arrow_field(Window(0, 1999, 0, 199), 0.15, 0.05, 99)
    pairs_x = []
    for t in range(0, 200):
        cols = list(field.window.columns(t))
        ind = [1.0 if field.outcome_at(x, t) is ArrowOutcome.BOTH else 0.0 for x in cols]
        pairs_x.extend(zip(ind, ind[1:]))
    a = np.array([p[0] for p in pairs_x])
    b = np.array([p[1] for p in pairs_x])
    n = len(a)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / math.sqrt(n)


def test_determinism_and_window_enlargement():
    f1 = sample_arrow_field(Window(-6, 6, 0, 5), 0.2, 0.1, 1234)
    f2 = sample_arrow_field(Window(-6, 6, 0, 5), 0.2, 0.1, 1234)
    assert np.array_equal(f1._grid, f2._grid)
    big = sample_arrow_field(Window(-10, 10, 0, 8), 0.2, 0.1, 1234)
    for v in f1.window.vertices():
        assert f1.outcome_at(v.x, v.t) == big.outcome_at(v.x, v.t)


def test_lazy_net_matches_materialized():
    w = Window(-8, 8, 0, 6)
    field = sample_arrow_field(w, 0.25, 0.1, 5)
    lazy = KeyedNet(0.25, 0.1, 5, w, direction=FORWARD)
    for v in w.vertices():
        assert field.outcome_at(v.x, v.t) == lazy.outcome_at(v.x, v.t)


def test_degenerate_probabilities():
    w = Window(-6, 6, 0, 5)
    only_walk = set(sample_arrow_field(w, 0.0, 0.0, 3).outcomes().values())
    assert only_walk <= {ArrowOutcome.LEFT_ONLY, ArrowOutcome.RIGHT_ONLY}
    assert set(sample_arrow_field(w, 1.0, 0.0, 3).outcomes().values()) == {ArrowOutcome.BOTH}
    assert set(sample_arrow_field(w, 0.0, 1.0, 3).outcomes().values()) == {ArrowOutcome.NONE}


def test_threshold_conventions():
    # b = kappa = 0.25: thresholds 0.25, 0.5, 0.75 are exact dyadics
    assert outcome_from_uniform(0.0, 0.25, 0.25) is ArrowOutcome.LEFT_ONLY
    assert outcome_from_uniform(0.24, 0.25, 0.25) is ArrowOutcome.LEFT_ONLY
    assert outcome_from_uniform(0.25, 0.25, 0.25) is ArrowOutcome.RIGHT_ONLY
    assert outcome_from_uniform(0.5, 0.25, 0.25) is ArrowOutcome.BOTH
    assert outcome_from_uniform(0.75, 0.25, 0.25) is ArrowOutcome.NONE


def test_vector_outcomes_equal_scalar_thresholds():
    rng = np.random.default_rng(5)
    for b, kappa in ((0.25, 0.25), (0.1, 0.05), (0.0, 0.3), (0.4, 0.0), (0.0, 1.0), (1.0, 0.0)):
        w = 1.0 - b - kappa
        u = np.concatenate([rng.random(2000), [0.0, 0.5 * w, w, 1.0 - kappa, math.nextafter(1.0, 0.0)]])
        u = u[u < 1.0]
        assert arrow_outcomes(u, w, kappa).tolist() == [int(outcome_from_uniform(v, b, kappa)) for v in u]


def test_invalid_probabilities_rejected():
    w = Window(0, 4, 0, 2)
    for b, kappa in [(-0.1, 0.0), (0.0, -0.1), (0.6, 0.5), (float("nan"), 0.1)]:
        with pytest.raises(InvalidParameterError):
            sample_arrow_field(w, b, kappa, 1)


def test_text_round_trip():
    f = sample_arrow_field(Window(-7, 6, 0, 5), 0.3, 0.05, 2024)
    g = ArrowField.from_text(f.to_text())
    assert g.window == f.window and g.b == f.b and g.kappa == f.kappa and g.seed == f.seed
    assert np.array_equal(g._grid, f._grid)
    text = (FIXTURES / "branching_demo_field.txt").read_text()
    bf = ArrowField.from_text(text)
    assert bf.direction == BACKWARD and bf.to_text() == text


def test_reachable_positions_with_killing():
    w = Window(-20, 20, 0, 10)
    net = KeyedNet(0.0, 1.0, 3, w, direction=FORWARD)  # killed immediately
    occ = reachable_positions(net, {1, 3}, 0, 10)
    assert occ[0] == {1, 3}
    assert occ[1] == set()
    net2 = KeyedNet(1.0, 0.0, 3, w, direction=FORWARD)  # full binary spread
    occ2 = reachable_positions(net2, {1}, 0, 5)
    assert occ2[5] == {-4, -2, 0, 2, 4, 6}
