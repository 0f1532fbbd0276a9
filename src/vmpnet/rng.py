"""Deterministic counter-based randomness keyed by space-time vertex.

Every random quantity in this package is a pure function of a 64-bit seed
and an integer lattice coordinate pair (x, t).  This makes sampled objects
reproducible bit-for-bit, lets forward dynamics and dual genealogies share
one randomness source, and keeps results independent of evaluation order
and worker count.
"""

from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_X_LANE = 0xC2B2AE3D27D4EB4F
_T_LANE = 0xD6E8FEB86659FD93
_INV_2_53 = 2.0 ** -53
_X_LANE_U, _T_LANE_U, _MIX_1, _MIX_2 = map(np.uint64, (_X_LANE, _T_LANE, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))

#: Largest double strictly below 1.0; used to clamp rescaled uniforms.
BELOW_ONE = math.nextafter(1.0, 0.0)


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective mixing function."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return h


def derive_seed(master: int, *tokens: int | str) -> int:
    """Derive an independent 64-bit seed stream from a master seed.

    Tokens may be integers (trial indices, level numbers) or short strings
    naming the stream ("forward", "dual", "bootstrap").  Never uses Python's
    salted ``hash``.
    """
    h = mix64(master ^ _GOLDEN)
    for tok in tokens:
        if isinstance(tok, str):
            h = mix64(h ^ _fnv1a(tok.encode("utf-8")))
        else:
            h = mix64(h ^ (int(tok) & _M64))
    return h


def vertex_uniform(seed: int, x: int, t: int) -> float:
    """The uniform in [0, 1) attached to lattice vertex (x, t).

    Pure function of (seed, x, t): enlarging a window or changing the
    traversal order never changes a vertex's draw.
    """
    h = seed & _M64
    h = mix64(h ^ ((x & _M64) * _X_LANE & _M64))
    h = mix64(h ^ ((t & _M64) * _T_LANE & _M64))
    return (h >> 11) * _INV_2_53


def _as_u64(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64, copy=False)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False).view(np.uint64)
    raise TypeError(f"expected integer scalar/array, got dtype {arr.dtype}")


def vertex_uniform_grid(seed, xs, ts) -> np.ndarray:
    """Vectorized ``vertex_uniform`` over broadcastable integer arrays.

    ``seed`` may be a scalar or an array (e.g. one seed per trial row).
    Bit-identical to the scalar version.
    """
    s, xu, tu = _as_u64(seed), _as_u64(xs), _as_u64(ts)
    # one buffer of the full shape (``ts`` may be widest); a 0-d one, unlike a scalar, updates in place
    h = np.multiply(xu, _X_LANE_U, out=np.empty(np.broadcast(s, xu, tu).shape, np.uint64))
    for lane in (s, tu * _T_LANE_U):
        h ^= lane
        _mix64_vec(h)
    return np.right_shift(h, _S11, out=h) * _INV_2_53


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place; returns ``z``."""
    for shift, mul in ((_S30, _MIX_1), (_S27, _MIX_2)):
        z ^= z >> shift
        z *= mul
    return np.bitwise_xor(z, z >> _S31, out=z)


def rescale_uniform(u: float, lo: float, width: float) -> float:
    """Map u in [lo, lo+width) to a conditional uniform in [0, 1)."""
    v = (u - lo) / width
    if v < 0.0:
        return 0.0
    return v if v < 1.0 else BELOW_ONE


def derive_seed_array(master: int, lo: int, hi: int, *tokens: int | str) -> np.ndarray:
    """Seeds for trial indices [lo, hi): a pure function of (master, tokens,
    index), so chunked and whole-range evaluation agree element-wise."""
    base = np.uint64(derive_seed(master, *tokens))
    idx = np.arange(lo, hi, dtype=np.uint64)
    return _mix64_vec(base ^ ((idx + np.uint64(1)) * np.uint64(_GOLDEN)))
