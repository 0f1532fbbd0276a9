"""Oriented percolation net with branching and killing on the odd sublattice.

Vertices live on Z^2_odd = {(x, t) : x + t odd}.  Each vertex independently
draws one of four arrow outcomes: a single arrow to its left or right
time-neighbor (probability (1-b-kappa)/2 each), both arrows (branching,
probability b), or no arrow at all (killing, probability kappa).  Arrows
point from (x, t) to (x +- 1, t + direction); direction +1 is the forward
net, direction -1 the backward net used for color genealogies.

All randomness is keyed per vertex (see :mod:`vmpnet.rng`), so a field is a
deterministic function of (seed, window, b, kappa) and the forward and
backward constructions can share one randomness source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidParameterError, ParityError, WindowError
from .rng import vertex_uniform, vertex_uniform_grid

FORWARD = 1
BACKWARD = -1


class Vertex(NamedTuple):
    x: int
    t: int


class ArrowOutcome(IntEnum):
    LEFT_ONLY = 0
    RIGHT_ONLY = 1
    BOTH = 2
    NONE = 3


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

    def vertices(self) -> Iterator[Vertex]:
        for t in range(self.t_min, self.t_max + 1):
            for x in self.columns(t):
                yield Vertex(x, t)

    @property
    def n_vertices(self) -> int:
        return sum(len(self.columns(t)) for t in range(self.t_min, self.t_max + 1))


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


@dataclass
class ArrowField:
    """Arrow outcomes for every odd vertex of a window.

    ``direction`` tells how outcomes are read: vertex (x, t) sends its
    arrows to (x - 1, t + direction) and/or (x + 1, t + direction).
    ``time_reflect``, when set, records that the field is a reflection
    about (t_min + t_max) / 2: the vertex at (x, t) then carries the keyed
    uniform of its pre-image (x, time_reflect - t), so outcomes and
    uniforms stay consistent after reflection.
    """

    window: Window
    b: float
    kappa: float
    seed: int
    direction: int = FORWARD
    _grid: np.ndarray = field(default=None, repr=False)  # uint8 (rows, cols)
    time_reflect: int | None = None

    def __post_init__(self):
        validate_probabilities(self.b, self.kappa)
        if self.direction not in (FORWARD, BACKWARD):
            raise InvalidParameterError(f"direction must be +1 or -1, got {self.direction}")
        if self._grid is None:
            raise InvalidParameterError("ArrowField requires a materialized grid; use sample_arrow_field")

    # -- indexing ----------------------------------------------------------
    def _index(self, x: int, t: int) -> tuple[int, int]:
        if not is_odd_vertex(x, t):
            raise ParityError(f"vertex ({x},{t}) is not on the odd sublattice")
        if not self.window.contains(x, t):
            raise WindowError(f"vertex ({x},{t}) outside window {self.window}")
        first = self.window.columns(t).start
        return t - self.window.t_min, (x - first) // 2

    def outcome_at(self, x: int, t: int) -> ArrowOutcome:
        r, c = self._index(x, t)
        return ArrowOutcome(int(self._grid[r, c]))

    def uniform_at(self, x: int, t: int) -> float:
        self._index(x, t)  # parity/window validation
        t_src = t if self.time_reflect is None else self.time_reflect - t
        return vertex_uniform(self.seed, x, t_src)

    def children(self, v: Vertex) -> tuple[Vertex, ...]:
        out = self.outcome_at(v.x, v.t)
        td = v.t + self.direction
        if out is ArrowOutcome.LEFT_ONLY:
            return (Vertex(v.x - 1, td),)
        if out is ArrowOutcome.RIGHT_ONLY:
            return (Vertex(v.x + 1, td),)
        if out is ArrowOutcome.BOTH:
            return (Vertex(v.x - 1, td), Vertex(v.x + 1, td))
        return ()

    def outcomes(self) -> dict[Vertex, ArrowOutcome]:
        return {v: self.outcome_at(v.x, v.t) for v in self.window.vertices()}

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        w = self.window
        header = f"window {w.x_min} {w.x_max} {w.t_min} {w.t_max} {self.b!r} {self.kappa!r} {self.seed}"
        if self.direction == BACKWARD:
            header += " backward"
        if self.time_reflect is not None:
            header += f" reflect {self.time_reflect}"
        rows = []
        for t in range(w.t_min, w.t_max + 1):
            r = t - w.t_min
            n = len(w.columns(t))
            rows.append("".join(_OUTCOME_CHARS[int(o)] for o in self._grid[r, :n]))
        return header + "\n" + "\n".join(rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ArrowField":
        lines = text.strip("\n").split("\n")
        head = lines[0].split()
        if head[0] != "window" or len(head) < 8:
            raise InvalidParameterError(f"bad field header: {lines[0]!r}")
        x_min, x_max, t_min, t_max = (int(v) for v in head[1:5])
        b, kappa = float(head[5]), float(head[6])
        seed = int(head[7])
        extra = head[8:]
        direction = FORWARD
        time_reflect = None
        if extra and extra[0] == "backward":
            direction = BACKWARD
            extra = extra[1:]
        if len(extra) == 2 and extra[0] == "reflect":
            time_reflect = int(extra[1])
            extra = extra[2:]
        if extra:
            raise InvalidParameterError(f"bad field header tokens: {lines[0]!r}")
        window = Window(x_min, x_max, t_min, t_max)
        n_rows = t_max - t_min + 1
        if len(lines) - 1 != n_rows:
            raise InvalidParameterError(f"expected {n_rows} body rows, got {len(lines) - 1}")
        width = max(len(window.columns(t)) for t in range(t_min, t_max + 1))
        grid = np.zeros((n_rows, width), dtype=np.uint8)
        for r, line in enumerate(lines[1:]):
            n = len(window.columns(t_min + r))
            if len(line) != n:
                raise InvalidParameterError(f"row {r}: expected {n} outcome chars, got {len(line)}")
            grid[r, :n] = [int(_CHAR_TO_OUTCOME[c]) for c in line]
        return cls(window, b, kappa, seed, direction, grid, time_reflect)


def sample_arrow_field(
    window: Window, b: float, kappa: float, seed: int, direction: int = FORWARD
) -> ArrowField:
    """Sample an arrow field; deterministic in (seed, window, b, kappa).

    The uniform for vertex (x, t) depends only on (seed, x, t), so enlarging
    the window reproduces the outcomes of the smaller one.
    """
    validate_probabilities(b, kappa)
    n_rows = window.t_max - window.t_min + 1
    width = max(len(window.columns(t)) for t in range(window.t_min, window.t_max + 1))
    grid = np.zeros((n_rows, width), dtype=np.uint8)
    w = 1.0 - b - kappa
    for t in range(window.t_min, window.t_max + 1):
        cols = window.columns(t)
        xs = np.arange(cols.start, window.x_max + 1, 2, dtype=np.int64)
        u = vertex_uniform_grid(np.uint64(seed), xs, np.int64(t))
        out = np.full(xs.shape, int(ArrowOutcome.NONE), dtype=np.uint8)
        out[u < 1.0 - kappa] = int(ArrowOutcome.BOTH)
        out[u < w] = int(ArrowOutcome.RIGHT_ONLY)
        out[u < 0.5 * w] = int(ArrowOutcome.LEFT_ONLY)
        grid[t - window.t_min, : len(xs)] = out
    return ArrowField(window, b, kappa, seed, direction, grid)


class KeyedNet:
    """Lazy view of a sampled net: outcomes computed per vertex on demand.

    Same outcomes as :func:`sample_arrow_field` with equal (seed, b, kappa);
    used where materializing a large window would be wasteful.
    """

    def __init__(self, b: float, kappa: float, seed: int, window: Window, direction: int = BACKWARD):
        validate_probabilities(b, kappa)
        self.b = float(b)
        self.kappa = float(kappa)
        self.seed = int(seed)
        self.window = window
        self.direction = direction

    def outcome_at(self, x: int, t: int) -> ArrowOutcome:
        if not is_odd_vertex(x, t):
            raise ParityError(f"vertex ({x},{t}) is not on the odd sublattice")
        if not self.window.contains(x, t):
            raise WindowError(f"vertex ({x},{t}) outside window {self.window}")
        return outcome_from_uniform(vertex_uniform(self.seed, x, t), self.b, self.kappa)

    def uniform_at(self, x: int, t: int) -> float:
        return vertex_uniform(self.seed, x, t)


@dataclass(frozen=True)
class LatticePath:
    """A traced path: x positions at consecutive times from ``start``.

    ``terminal`` is "killed" (ending at ``killed_at``, an arrowless vertex)
    or "horizon" (alive at the window's last row in trace direction).
    """

    start: Vertex
    positions: tuple[int, ...]
    terminal: str
    killed_at: Vertex | None = None

    def __post_init__(self):
        if self.terminal not in ("killed", "horizon"):
            raise InvalidParameterError(f"bad terminal {self.terminal!r}")

    def vertices(self, direction: int) -> list[Vertex]:
        return [Vertex(x, self.start.t + i * direction) for i, x in enumerate(self.positions)]


LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"


def trace_extremal_path(field: ArrowField, start: Vertex, side: str) -> LatticePath:
    """Follow arrows from ``start`` until killed or reaching the horizon.

    At a branching vertex the leftmost trace takes the left arrow and the
    rightmost the right arrow.  Raises WindowError if the trace would step
    outside the window sideways.
    """
    if side not in (LEFTMOST, RIGHTMOST):
        raise InvalidParameterError(f"side must be {LEFTMOST!r} or {RIGHTMOST!r}")
    horizon = field.window.t_max if field.direction == FORWARD else field.window.t_min
    x, t = start
    positions = [x]
    while True:
        out = field.outcome_at(x, t)  # validates parity and window
        if out is ArrowOutcome.NONE:
            return LatticePath(start, tuple(positions), "killed", Vertex(x, t))
        if t == horizon:
            return LatticePath(start, tuple(positions), "horizon")
        if out is ArrowOutcome.LEFT_ONLY:
            x = x - 1
        elif out is ArrowOutcome.RIGHT_ONLY:
            x = x + 1
        else:
            x = x - 1 if side == LEFTMOST else x + 1
        t += field.direction
        if not (field.window.x_min <= x <= field.window.x_max):
            raise WindowError(f"path escaped window sideways at ({x},{t}); widen the window")
        positions.append(x)


def backward_field(f: ArrowField) -> ArrowField:
    """Time-reflect a field about its window's temporal midpoint.

    Reflection maps (x, t) to (x, t_min + t_max - t), keeps each outcome's
    left/right label, flips the arrow direction and carries each vertex's
    keyed uniform along (see ArrowField.time_reflect).  Requires
    t_min + t_max even so the odd sublattice maps to itself.  Involution.
    """
    w = f.window
    total = w.t_min + w.t_max
    if total % 2 != 0:
        raise ParityError(
            f"window times sum to odd ({w.t_min}+{w.t_max}); reflection would flip sublattice parity"
        )
    grid = f._grid[::-1].copy()
    reflect = None if f.time_reflect == total else total
    return ArrowField(w, f.b, f.kappa, f.seed, -f.direction, grid, reflect)


def _step_positions(net, positions: set[int], u: int) -> set[int]:
    """Positions reached one step past time u along the arrows at u."""
    nxt: set[int] = set()
    for x in positions:
        out = net.outcome_at(x, u)
        if out is ArrowOutcome.LEFT_ONLY or out is ArrowOutcome.BOTH:
            nxt.add(x - 1)
        if out is ArrowOutcome.RIGHT_ONLY or out is ArrowOutcome.BOTH:
            nxt.add(x + 1)
    return nxt


def reachable_positions(
    net, starts: set[int], t_from: int, t_to: int, x_bounds: tuple[int, int] | None = None
) -> dict[int, set[int]]:
    """Branching-coalescing point set with killing, evolved exactly.

    ``starts`` are x positions at time ``t_from``; returns, for each time u
    in [t_from, t_to], the set of positions occupied by live walkers at u.
    Walkers at an arrowless vertex appear at their killing time and are
    then removed.  ``net`` is an ArrowField or KeyedNet; evolution follows
    its direction.  ``x_bounds`` drops walkers that leave [lo, hi]; callers
    use it to clip to a dependence cone that escaped walkers cannot
    re-enter in time.
    """
    d = net.direction
    occupied: dict[int, set[int]] = {t_from: set(starts)}
    current = set(starts)
    u = t_from
    while u != t_to and current:
        nxt = _step_positions(net, current, u)
        if x_bounds is not None:
            nxt = {x for x in nxt if x_bounds[0] <= x <= x_bounds[1]}
        u += d
        occupied[u] = nxt
        current = nxt
    return occupied
