import math
import random
from pathlib import Path

import numpy as np
import pytest

from vmpnet.coloring import (
    BoundaryTable,
    ColorDistribution,
    boundary_table_from,
    color_dag,
    color_from_uniform,
    point_mass,
    uniform_boundary_table,
    uniform_colors,
)
from vmpnet.dualgraph import DagKind, build_dag, dag_from_json, reduce_dag
from vmpnet.errors import InvalidParameterError
from vmpnet.lattice_net import KeyedNet, Vertex, Window
from vmpnet.rng import vertex_uniform

FIXTURES = Path(__file__).parent / "fixtures"


def brute_cdf_color(u, weights):
    acc = 0.0
    for i, w in enumerate(weights, start=1):
        if acc <= u < acc + w:
            return i
        acc += w
    return len(weights)


# ---------------------------------------------------------------------------
# ColorDistribution / inverse CDF
# ---------------------------------------------------------------------------

def test_color_from_uniform_examples():
    d = ColorDistribution(3, (0.2, 0.3, 0.5))
    assert color_from_uniform(0.0, d) == 1
    assert color_from_uniform(0.99, uniform_colors(3)) == 3
    # 0.5 sits in [cum(2), cum(3)) = [0.5, 1.0)
    assert color_from_uniform(0.5, d) == 3


def test_color_from_uniform_matches_brute_cdf():
    rng = random.Random(11)
    for _ in range(3000):
        q = rng.choice([2, 3, 5])
        raw = [rng.random() for _ in range(q)]
        weights = tuple(w / sum(raw) for w in raw)
        d = ColorDistribution(q, weights)
        u = rng.random()
        assert color_from_uniform(u, d) == brute_cdf_color(u, weights)


def test_color_from_uniform_rejects_bad_uniform():
    d = uniform_colors(2)
    for u in (-0.01, 1.0, 1.5):
        with pytest.raises(InvalidParameterError):
            color_from_uniform(u, d)


def test_distribution_validation():
    with pytest.raises(InvalidParameterError):
        ColorDistribution(3, (0.5, 0.5))  # wrong length
    with pytest.raises(InvalidParameterError):
        ColorDistribution(2, (0.6, 0.5))  # sums over 1
    with pytest.raises(InvalidParameterError):
        ColorDistribution(2, (-0.1, 1.1))
    with pytest.raises(InvalidParameterError):
        ColorDistribution(1, (1.0,))  # q >= 2


def test_boundary_table_diagonal_enforced():
    with pytest.raises(InvalidParameterError):
        BoundaryTable(2, [[uniform_colors(2), uniform_colors(2)], [uniform_colors(2), point_mass(2, 2)]])
    tab = uniform_boundary_table(3)
    assert tab.dist(2, 2).weights == (0.0, 1.0, 0.0)
    flipped = tab.transposed()
    assert flipped.dist(1, 2) == tab.dist(2, 1)


def test_uniform_boundary_table_equals_explicit_uniform_rows():
    for q in (2, 3, 7):
        rows = {(k, l): [1.0 / q] * q for k in range(1, q + 1) for l in range(1, q + 1) if k != l}
        assert uniform_boundary_table(q) == boundary_table_from(q, rows)


# ---------------------------------------------------------------------------
# Leaf coloring
# ---------------------------------------------------------------------------

def _demo_dag():
    return dag_from_json((FIXTURES / "branching_demo_dag.json").read_text())


def test_color_dag_horizon_leaf_follows_lam():
    dag = _demo_dag()
    assert set(dag.leaves()) == {Vertex(3, 0), Vertex(0, 1)}
    colors = color_dag(dag, uniform_boundary_table(3), point_mass(3, 2), uniform_colors(3))
    assert colors[Vertex(3, 0)] == 2  # horizon leaf follows lam


def test_color_dag_killing_leaf_uses_bulk():
    dag = _demo_dag()
    g = uniform_boundary_table(3)
    # killing leaf uniform 0.8 -> uniform bulk on 3 colors gives color 3
    assert color_dag(dag, g, uniform_colors(3), uniform_colors(3))[Vertex(0, 1)] == 3
    assert color_dag(dag, g, uniform_colors(3), point_mass(3, 1))[Vertex(0, 1)] == 1
    # single killing-leaf root, bulk uniform on 3, uniform 0.5 -> color 2
    root = Vertex(1, 2)
    from vmpnet.dualgraph import RootedDag

    single = RootedDag(root, {root: DagKind.KILLING_LEAF}, {root: ()}, {root: 0.5})
    assert color_dag(single, g, uniform_colors(3), uniform_colors(3))[root] == 2


def test_fixture_hand_coloring():
    dag = _demo_dag()
    g, lam, p = uniform_boundary_table(3), uniform_colors(3), uniform_colors(3)
    colors = color_dag(dag, g, lam, p)
    assert colors[Vertex(3, 0)] == 2
    assert colors[Vertex(0, 1)] == 3
    assert colors[Vertex(2, 1)] == 2
    assert colors[Vertex(1, 2)] == 1  # g[3,2] at u=0.1, uniform off-diagonal
    assert colors[Vertex(0, 3)] == 1 and colors[Vertex(2, 3)] == 1
    assert colors[Vertex(1, 4)] == 1
    red = reduce_dag(dag)
    red_colors = color_dag(red, g, lam, p)
    assert {v: red_colors[v] for v in red.kinds} == {v: colors[v] for v in red.kinds}


def test_unanimity_propagates():
    net = KeyedNet(0.45, 0.0, 123, Window(-9, 9, 0, 7))
    dag = build_dag(net, Vertex(0, 7))
    lam = point_mass(3, 2)
    colors = color_dag(dag, uniform_boundary_table(3), lam, uniform_colors(3))
    assert set(colors.values()) == {2}


def test_coloring_is_total():
    net = KeyedNet(0.3, 0.15, 55, Window(-10, 10, 0, 8))
    dag = build_dag(net, Vertex(1, 8))
    colors = color_dag(dag, uniform_boundary_table(2), uniform_colors(2), uniform_colors(2))
    assert set(colors) == dag.vertices
    assert all(c in (1, 2) for c in colors.values())


def test_order_must_be_topological():
    dag = _demo_dag()
    bad = sorted(dag.kinds, key=lambda v: -v.t)  # root first
    with pytest.raises(InvalidParameterError):
        color_dag(dag, uniform_boundary_table(3), uniform_colors(3), uniform_colors(3), order=bad)


def test_leaf_law_matches_lam():
    # empirical color frequencies of horizon leaves against lam, 4 sigma
    lam = ColorDistribution(3, (0.5, 0.3, 0.2))
    counts = np.zeros(3)
    n = 10 ** 5
    for i in range(n):
        u = vertex_uniform(999, i, 0)
        counts[color_from_uniform(u, lam) - 1] += 1
    for c in range(3):
        p = lam.weights[c]
        assert abs(counts[c] / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_reduction_equivalence_fuzz():
    rng = random.Random(9)
    for trial in range(500):
        t = rng.randint(2, 8)
        net = KeyedNet(
            rng.choice([0.15, 0.3, 0.45]),
            rng.choice([0.0, 0.1, 0.2]),
            500_000 + trial,
            Window(-t - 1, t + 1, 0, t),
        )
        dag = build_dag(net, Vertex(0 if t % 2 else 1, t))
        q = rng.choice([2, 3])
        g = uniform_boundary_table(q)
        lam = uniform_colors(q)
        p = uniform_colors(q)
        full = color_dag(dag, g, lam, p)
        red = reduce_dag(dag)
        red_colors = color_dag(red, g, lam, p)
        assert all(red_colors[v] == full[v] for v in red.kinds)


def test_asymmetric_table_left_right_order():
    # two-leaf branch: left child color 1, right child color 2 -> g[1,2]
    root = Vertex(0, 1)
    left, right = Vertex(-1, 0), Vertex(1, 0)
    from vmpnet.dualgraph import RootedDag

    dag = RootedDag(
        root,
        {root: DagKind.ROOT, left: DagKind.TIME_ZERO_LEAF, right: DagKind.TIME_ZERO_LEAF},
        {root: (left, right), left: (), right: ()},
        {root: 0.0, left: 0.0, right: 0.999},
    )
    lam = ColorDistribution(2, (0.5, 0.5))
    g = boundary_table_from(2, {(1, 2): (0.0, 1.0), (2, 1): (1.0, 0.0)})
    colors = color_dag(dag, g, lam, uniform_colors(2))
    assert colors[left] == 1 and colors[right] == 2
    # u=0.0 drawn from g[1,2] = point mass at 2
    assert colors[root] == 2
