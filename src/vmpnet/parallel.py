"""Deterministic work distribution over independent trials.

Results are keyed by item index and reassembled in input order, and every
random stream is derived from (master seed, item index), never from worker
identity, so output is byte-identical for any worker count.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    # the pool forks all max_workers processes on its first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
