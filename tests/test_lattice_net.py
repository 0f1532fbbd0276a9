import math
from pathlib import Path

import numpy as np
import pytest

from vmpnet.dualgraph import build_dag
from vmpnet.errors import InvalidParameterError
from vmpnet.lattice_net import (
    ArrowField,
    ArrowOutcome,
    KeyedNet,
    Vertex,
    Window,
    arrow_outcomes,
    outcome_from_uniform,
)
from vmpnet.rng import BELOW_ONE, vertex_uniform, vertex_uniform_grid

FIXTURES = Path(__file__).parent / "fixtures"

NOMINAL = {
    ArrowOutcome.LEFT_ONLY: 0.425,
    ArrowOutcome.RIGHT_ONLY: 0.425,
    ArrowOutcome.BOTH: 0.1,
    ArrowOutcome.NONE: 0.05,
}


def kernel_net(window, b, kappa, seed):
    """(xs, ts, outcome codes) of every odd vertex of ``window``, row by row,
    through the samplers' kernel ``arrow_outcomes(vertex_uniform_grid(...))``."""
    rows = range(window.t_min, window.t_max + 1)
    xs = np.concatenate([np.array(window.columns(t), dtype=np.int64) for t in rows])
    ts = np.concatenate([np.full(len(window.columns(t)), t, dtype=np.int64) for t in rows])
    u = vertex_uniform_grid(np.uint64(seed), xs, ts)
    return xs, ts, arrow_outcomes(u, 1.0 - b - kappa, kappa)


def test_outcome_frequencies_within_four_sigma():
    _, _, outs = kernel_net(Window(0, 1999, 0, 199), 0.1, 0.05, 31415)
    n = len(outs)
    assert n >= 10 ** 5
    for outcome, p in NOMINAL.items():
        emp = np.count_nonzero(outs == outcome) / n
        assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / n), outcome


def test_branch_fraction_binomial_concentration():
    # one million vertices, branching probability 0.1
    _, _, outs = kernel_net(Window(0, 1999, 0, 999), 0.1, 0.05, 7)
    n = len(outs)
    assert n >= 10 ** 6
    emp = np.count_nonzero(outs == ArrowOutcome.BOTH) / n
    assert abs(emp - 0.1) < 4 * math.sqrt(0.1 * 0.9 / n)


def test_adjacent_independence():
    _, ts, outs = kernel_net(Window(0, 1999, 0, 199), 0.15, 0.05, 99)
    ind = (outs == ArrowOutcome.BOTH).astype(float)
    same_row = ts[1:] == ts[:-1]
    a, b = ind[:-1][same_row], ind[1:][same_row]
    n = len(a)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / math.sqrt(n)


def test_determinism_and_window_enlargement():
    small = kernel_net(Window(-6, 6, 0, 5), 0.2, 0.1, 1234)
    again = kernel_net(Window(-6, 6, 0, 5), 0.2, 0.1, 1234)
    assert all(np.array_equal(p, q) for p, q in zip(small, again))
    xs, ts, outs = kernel_net(Window(-10, 10, 0, 8), 0.2, 0.1, 1234)
    big = dict(zip(zip(xs.tolist(), ts.tolist()), outs.tolist()))
    for x, t, o in zip(*(a.tolist() for a in small)):
        assert big[x, t] == o


def test_keyed_net_matches_kernel():
    w = Window(-8, 8, 0, 6)
    lazy = KeyedNet(0.25, 0.1, 5, w)
    for x, t, o in zip(*(a.tolist() for a in kernel_net(w, 0.25, 0.1, 5))):
        assert lazy.outcome_at(x, t) == o


def test_degenerate_probabilities():
    w = Window(-6, 6, 0, 5)
    only_walk = set(kernel_net(w, 0.0, 0.0, 3)[2].tolist())
    assert only_walk <= {ArrowOutcome.LEFT_ONLY, ArrowOutcome.RIGHT_ONLY}
    assert set(kernel_net(w, 1.0, 0.0, 3)[2].tolist()) == {ArrowOutcome.BOTH}
    assert set(kernel_net(w, 0.0, 1.0, 3)[2].tolist()) == {ArrowOutcome.NONE}


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
            KeyedNet(b, kappa, 1, w)


def test_fixture_parses():
    field = ArrowField.from_text((FIXTURES / "branching_demo_field.txt").read_text())
    assert (field.window, field.b, field.kappa, field.seed) == (Window(-4, 4, 0, 4), 0.2, 0.1, 999)
    L, R, B, N = ArrowOutcome
    pinned = {(1, 4): B, (0, 3): R, (2, 3): L, (1, 2): B, (0, 1): N, (2, 1): R, (3, 0): L}
    for (x, t), outcome in pinned.items():
        assert field.outcome_at(x, t) is outcome
        assert field.uniform_at(x, t) == vertex_uniform(999, x, t)
    # seed 999 draws N at (1, 2) and R at (0, 1): the rescaled uniforms clamp
    uniforms = build_dag(field, Vertex(1, 4)).uniforms
    assert uniforms[Vertex(1, 2)] == BELOW_ONE and uniforms[Vertex(0, 1)] == 0.0
