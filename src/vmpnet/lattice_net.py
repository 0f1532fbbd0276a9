"""Oriented percolation net with branching and killing on the odd sublattice.

Vertices live on Z^2_odd = {(x, t) : x + t odd}.  Each vertex independently
draws one of four arrow outcomes: a single arrow to its left or right
time-neighbor (probability (1-b-kappa)/2 each), both arrows (branching,
probability b), or no arrow at all (killing, probability kappa).  Arrows
point from (x, t) to (x +- 1, t - 1): this is the backward net that color
genealogies follow.

All randomness is keyed per vertex (see :mod:`vmpnet.rng`), so a net is a
deterministic function of (seed, b, kappa) and the forward chain can share
its randomness source.  One vector kernel, ``arrow_outcomes``, classifies
the uniforms for the batched samplers; ``KeyedNet`` is the per-vertex view
of the same net, and ``ArrowField`` a net whose outcomes a text fixture
pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, ParityError, WindowError
from .rng import vertex_uniform


class Vertex(NamedTuple):
    x: int
    t: int


class ArrowOutcome(IntEnum):
    LEFT_ONLY = 0
    RIGHT_ONLY = 1
    BOTH = 2
    NONE = 3


#: ``ArrowOutcome`` as the uint8 codes the vector kernels use.
LEFT_CODE, RIGHT_CODE, BOTH_CODE, NONE_CODE = (np.uint8(o) for o in ArrowOutcome)

_OUTCOME_CHARS = "LRBN"
_CHAR_TO_OUTCOME = {c: ArrowOutcome(i) for i, c in enumerate(_OUTCOME_CHARS)}


def is_odd_vertex(x: int, t: int) -> bool:
    return (x + t) % 2 == 1


@dataclass(frozen=True)
class Window:
    """Inclusive space-time rectangle [x_min, x_max] x [t_min, t_max]."""

    x_min: int
    x_max: int
    t_min: int
    t_max: int

    def __post_init__(self):
        if self.x_min > self.x_max or self.t_min > self.t_max:
            raise WindowError(f"empty window {self}")

    def contains(self, x: int, t: int) -> bool:
        return self.x_min <= x <= self.x_max and self.t_min <= t <= self.t_max

    def columns(self, t: int) -> range:
        """Odd-sublattice x coordinates of the row at time t."""
        first = self.x_min + ((self.x_min + t + 1) % 2)
        return range(first, self.x_max + 1, 2)


def validate_probabilities(b: float, kappa: float) -> None:
    if not (isinstance(b, (int, float)) and isinstance(kappa, (int, float))):
        raise InvalidParameterError("b and kappa must be numbers")
    if math.isnan(b) or math.isnan(kappa) or b < 0 or kappa < 0:
        raise InvalidParameterError(f"b={b}, kappa={kappa} must be non-negative")
    if b + kappa > 1:
        raise InvalidParameterError(f"b + kappa = {b + kappa} exceeds 1")


def outcome_from_uniform(u: float, b: float, kappa: float) -> ArrowOutcome:
    """Fixed half-open thresholds: L on [0, w/2), R on [w/2, w), B on [w, 1-kappa),
    N on [1-kappa, 1), where w = 1 - b - kappa."""
    w = 1.0 - b - kappa
    if u < 0.5 * w:
        return ArrowOutcome.LEFT_ONLY
    if u < w:
        return ArrowOutcome.RIGHT_ONLY
    if u < 1.0 - kappa:
        return ArrowOutcome.BOTH
    return ArrowOutcome.NONE


def arrow_outcomes(u, w: float, kappa: float) -> np.ndarray:
    """``ArrowOutcome`` codes (uint8) of uniforms u: N on [1-kappa, 1) first,
    then B on [w, 1-kappa), R on [w/2, w) and L below.  This is the forward
    chain's precedence; it matters only where w rounds above 1 - b - kappa."""
    u = np.asarray(u)
    walk = np.where(u < 0.5 * w, LEFT_CODE, RIGHT_CODE)
    return np.where(u < 1.0 - kappa, np.where(u < w, walk, BOTH_CODE), NONE_CODE)


class KeyedNet:
    """A sampled net: the outcome of each vertex is computed on demand from
    its keyed uniform, so no window is ever materialized and enlarging the
    window keeps every outcome."""

    def __init__(self, b: float, kappa: float, seed: int, window: Window):
        validate_probabilities(b, kappa)
        self.b = float(b)
        self.kappa = float(kappa)
        self.seed = int(seed)
        self.window = window

    def outcome_at(self, x: int, t: int) -> ArrowOutcome:
        if not is_odd_vertex(x, t):
            raise ParityError(f"vertex ({x},{t}) is not on the odd sublattice")
        if not self.window.contains(x, t):
            raise WindowError(f"vertex ({x},{t}) outside window {self.window}")
        return outcome_from_uniform(vertex_uniform(self.seed, x, t), self.b, self.kappa)

    def uniform_at(self, x: int, t: int) -> float:
        return vertex_uniform(self.seed, x, t)


class ArrowField(KeyedNet):
    """A net whose outcomes are pinned by a text fixture, not drawn.

    Its uniforms stay keyed by the seed of the header.  Where a pinned
    outcome disagrees with the seed's, the coloring uniform that
    ``dualgraph.build_dag`` rescales into the outcome's interval is
    clamped to an end of [0, 1): the demo fixture gives 0.9999999999999999
    at (1, 2) and 0.0 at (0, 1).
    """

    def outcome_at(self, x: int, t: int) -> ArrowOutcome:
        if not is_odd_vertex(x, t):
            raise ParityError(f"vertex ({x},{t}) is not on the odd sublattice")
        if not self.window.contains(x, t):
            raise WindowError(f"vertex ({x},{t}) outside window {self.window}")
        row = t - self.window.t_min
        return ArrowOutcome(int(self._grid[row, (x - self.window.columns(t).start) // 2]))

    @classmethod
    def from_text(cls, text: str) -> "ArrowField":
        """Parse ``window x_min x_max t_min t_max b kappa seed backward``
        and one row of L/R/B/N per time, t_min first; malformed text raises
        InvalidParameterError."""
        lines = text.strip("\n").split("\n")
        head = lines[0].split()
        if len(head) != 9 or head[0] != "window" or head[8] != "backward":
            raise InvalidParameterError(f"bad field header: {lines[0]!r}")
        try:
            x_min, x_max, t_min, t_max, seed = (int(v) for v in head[1:5] + head[7:8])
            b, kappa = float(head[5]), float(head[6])
        except ValueError:
            raise InvalidParameterError(f"bad field header numbers: {lines[0]!r}") from None
        if x_min > x_max or t_min > t_max:
            raise InvalidParameterError(f"empty window in field header: {lines[0]!r}")
        window = Window(x_min, x_max, t_min, t_max)
        rows = lines[1:]
        if len(rows) != t_max - t_min + 1:
            raise InvalidParameterError(f"expected {t_max - t_min + 1} body rows, got {len(rows)}")
        widths = [len(window.columns(t)) for t in range(t_min, t_max + 1)]
        for r, (line, n) in enumerate(zip(rows, widths)):
            if len(line) != n:
                raise InvalidParameterError(f"row {r}: expected {n} outcome chars, got {len(line)}")
            if not set(line) <= _CHAR_TO_OUTCOME.keys():
                raise InvalidParameterError(f"row {r}: outcome chars must be among {_OUTCOME_CHARS!r}")
        grid = np.zeros((len(rows), max(widths)), dtype=np.uint8)
        for r, line in enumerate(rows):
            grid[r, : len(line)] = [int(_CHAR_TO_OUTCOME[c]) for c in line]
        net = cls(b, kappa, seed, window)
        net._grid = grid
        return net

