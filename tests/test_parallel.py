import concurrent.futures

import pytest

from vmpnet.parallel import parallel_map


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, forks nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, items, want", [(100_000, 3, 3), (4, 10, 4), (2, 2, 2)])
def test_pool_never_exceeds_the_items(monkeypatch, workers, items, want):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    assert parallel_map(abs, list(range(-items, 0)), workers) == list(range(items, 0, -1))
    assert _RecordingPool.sizes == [want]


def test_one_worker_or_one_item_runs_in_process(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    assert parallel_map(abs, [-1, -2], 1) == [1, 2]
    assert parallel_map(abs, [-5], 8) == [5]
    assert _RecordingPool.sizes == []
