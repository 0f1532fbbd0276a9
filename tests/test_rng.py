import itertools

import numpy as np

from vmpnet.rng import (
    BELOW_ONE,
    derive_seed,
    derive_seed_array,
    mix64,
    rescale_uniform,
    vertex_uniform,
    vertex_uniform_grid,
)


def test_scalar_vector_identical():
    xs = np.arange(-40, 41, dtype=np.int64)
    ts = np.arange(0, 30, dtype=np.int64)
    grid = vertex_uniform_grid(987654321, xs[:, None], ts[None, :])
    for (i, x), (j, t) in itertools.product(enumerate(xs), enumerate(ts)):
        assert grid[i, j] == vertex_uniform(987654321, int(x), int(t))


def test_grid_broadcasts_like_scalar():
    # 0-d inputs, ``ts`` wider than ``seed ^ xs``, negative x and a large t
    # all go through the grid's in-place mixing
    assert vertex_uniform_grid(np.uint64(7), np.int64(-3), np.int64(2**40)) == vertex_uniform(7, -3, 2**40)
    seeds = np.array([11, 2**63 + 5], dtype=np.uint64)
    ts = np.array([0, 1, 2**40], dtype=np.int64)
    grid = vertex_uniform_grid(seeds[:, None, None], np.int64(-5), ts[None, None, :])
    assert grid.shape == (2, 1, 3)
    for (i, s), (j, t) in itertools.product(enumerate(seeds), enumerate(ts)):
        assert grid[i, 0, j] == vertex_uniform(int(s), -5, int(t))
    wide = vertex_uniform_grid(3, np.array([-2, 4]), ts[:, None])
    assert wide.shape == (3, 2)
    for (j, t), (i, x) in itertools.product(enumerate(ts), enumerate((-2, 4))):
        assert wide[j, i] == vertex_uniform(3, x, int(t))


def test_uniform_range_and_mean():
    xs = np.arange(0, 4000, dtype=np.int64)
    u = vertex_uniform_grid(5, xs, np.int64(7))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.03


def test_vertex_uniform_pure():
    assert vertex_uniform(1, -3, 5) == vertex_uniform(1, -3, 5)
    assert vertex_uniform(1, -3, 5) != vertex_uniform(2, -3, 5)
    assert vertex_uniform(1, -3, 5) != vertex_uniform(1, 3, 5)
    assert vertex_uniform(1, 5, 3) != vertex_uniform(1, 3, 5)


def test_derive_seed_streams_distinct():
    seen = {derive_seed(9, "a", i) for i in range(5000)}
    seen |= {derive_seed(9, "b", i) for i in range(5000)}
    assert len(seen) == 10000


def test_derive_seed_array_chunk_independent():
    whole = derive_seed_array(4, 0, 100, "stream")
    parts = np.concatenate([derive_seed_array(4, 0, 37, "stream"), derive_seed_array(4, 37, 100, "stream")])
    assert np.array_equal(whole, parts)


def test_mix64_bijective_sample():
    outs = {mix64(i * 0x9E3779B97F4A7C15) for i in range(10000)}
    assert len(outs) == 10000


def test_rescale_uniform_clamps():
    assert rescale_uniform(0.25, 0.25, 0.5) == 0.0
    assert 0.0 <= rescale_uniform(0.7499999999, 0.25, 0.5) < 1.0
    v = rescale_uniform(0.75 - 1e-18, 0.25, 0.5)
    assert v <= BELOW_ONE < 1.0
