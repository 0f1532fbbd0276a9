"""Leaf pre-coloring and sequential leaf-to-root coloring of genealogy DAGs.

Colors are 1-based integers in {1..q}, q <= 255.  Every draw is an inverse
CDF lookup with half-open intervals: color i is returned when the uniform
falls in [cum(i-1), cum(i)).  Horizon leaves draw from the initial marginal
``lam``, killing leaves from the bulk distribution ``p``, and a vertex whose
two children carry different colors k != l draws from the boundary
distribution ``g[k, l]`` (left child first, matching the forward model's
(left neighbor, right neighbor) indexing).  Everything else copies its
child's color, so the final coloring does not depend on the processing
order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .dualgraph import DagKind, RootedDag, topological_order
from .lattice_net import Vertex

MAX_COLORS = 255
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ColorDistribution:
    """A probability vector over colors {1..q}."""

    q: int
    weights: tuple[float, ...]

    def __post_init__(self):
        _check_q(self.q)
        if len(self.weights) != self.q:
            raise InvalidParameterError(f"expected {self.q} weights, got {len(self.weights)}")
        if any(w < 0 or not np.isfinite(w) for w in self.weights):
            raise InvalidParameterError(f"weights must be finite and non-negative: {self.weights}")
        if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
            raise InvalidParameterError(f"weights sum to {sum(self.weights)!r}, not 1")
        object.__setattr__(self, "_cum", tuple(accumulate(self.weights)))

    @property
    def cum(self) -> tuple[float, ...]:
        return self._cum

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


def _check_q(q: int) -> None:
    if not (2 <= q <= MAX_COLORS):
        raise InvalidParameterError(f"q must be in [2, {MAX_COLORS}], got {q}")


def uniform_colors(q: int) -> ColorDistribution:
    _check_q(q)
    return ColorDistribution(q, (1.0 / q,) * q)


def point_mass(q: int, color: int) -> ColorDistribution:
    _check_q(q)
    if not 1 <= color <= q:
        raise InvalidParameterError(f"color {color} not in 1..{q}")
    return ColorDistribution(q, tuple(1.0 if i == color - 1 else 0.0 for i in range(q)))


def color_from_uniform(u: float, d: ColorDistribution) -> int:
    """The unique color i with cum(i-1) <= u < cum(i); cum(0) = 0.

    Floating shortfall in the final cumulative assigns the leftover sliver
    to color q.
    """
    if not 0.0 <= u < 1.0:
        raise InvalidParameterError(f"uniform {u!r} outside [0, 1)")
    return min(bisect_right(d.cum, u) + 1, d.q)


class BoundaryTable:
    """The q x q table of boundary distributions g[k, l], diagonal point masses."""

    def __init__(self, q: int, entries: Sequence[Sequence[ColorDistribution]]):
        _check_q(q)
        if len(entries) != q or any(len(row) != q for row in entries):
            raise InvalidParameterError(f"entries must form a {q}x{q} table")
        for i in range(q):
            d = entries[i][i]
            if d.weights[i] != 1.0:
                raise InvalidParameterError(f"diagonal entry g[{i+1},{i+1}] must be the point mass at {i+1}")
        if any(d.q != q for row in entries for d in row):
            raise InvalidParameterError("all entries must share the table's q")
        self.q = q
        self.entries = tuple(tuple(row) for row in entries)
        self._weights = np.array(
            [[entries[k][l].weights for l in range(q)] for k in range(q)], dtype=np.float64
        )
        self._cum = np.cumsum(self._weights, axis=2)

    def dist(self, k: int, l: int) -> ColorDistribution:
        return self.entries[k - 1][l - 1]

    def cum_array(self) -> np.ndarray:
        return self._cum

    def transposed(self) -> "BoundaryTable":
        """Swap g[k, l] and g[l, k]; diagonal untouched."""
        q = self.q
        return BoundaryTable(q, [[self.entries[l][k] for l in range(q)] for k in range(q)])

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundaryTable) and self.entries == other.entries

    def branch_tensor(self) -> np.ndarray:
        """(q, q, q) conditional law of a two-child vertex given child colors:
        a point mass on the common color when they agree, g[k, l] otherwise."""
        return self._weights  # diagonal entries are the required point masses


def uniform_boundary_table(q: int) -> BoundaryTable:
    """Uniform off-diagonal boundary noise; diagonal point masses.  The
    q^2 - q off-diagonal entries share one distribution."""
    uniform = uniform_colors(q)
    masses = [point_mass(q, k) for k in range(1, q + 1)]
    return BoundaryTable(q, [[masses[k] if k == l else uniform for l in range(q)] for k in range(q)])


def boundary_table_from(q: int, offdiag: dict[tuple[int, int], Sequence[float]]) -> BoundaryTable:
    """Build a table from explicit off-diagonal rows (colors 1-based)."""
    rows = []
    for k in range(1, q + 1):
        row = []
        for l in range(1, q + 1):
            if k == l:
                row.append(point_mass(q, k))
            elif (k, l) not in offdiag:
                raise InvalidParameterError(f"boundary table is missing the off-diagonal pair g[{k},{l}]")
            else:
                row.append(ColorDistribution(q, tuple(float(w) for w in offdiag[(k, l)])))
        rows.append(row)
    return BoundaryTable(q, rows)


# ---------------------------------------------------------------------------
# DAG coloring
# ---------------------------------------------------------------------------

DagColoring = dict[Vertex, int]


def color_dag(
    dag: RootedDag,
    g: BoundaryTable,
    lam: ColorDistribution,
    p: ColorDistribution,
    order: Iterable[Vertex] | None = None,
) -> DagColoring:
    """Total coloring of the graph, processed from the leaves up.

    A vertex with one child, two children of equal color, or a repeated
    child copies the child color; disagreeing children (k, l) trigger an
    inverse CDF draw from g[k, l] with the vertex's uniform.  The result is
    independent of the chosen topological order.
    """
    if not (g.q == lam.q == p.q):
        raise InvalidParameterError("g, lam, p must share the same q")
    verts = list(order) if order is not None else topological_order(dag)
    if set(verts) != dag.vertices:
        raise InvalidParameterError("order must enumerate exactly the dag's vertices")
    colors: DagColoring = {}
    for v in verts:
        kind = dag.kinds[v]
        if kind is DagKind.TIME_ZERO_LEAF:
            colors[v] = color_from_uniform(dag.uniforms[v], lam)
            continue
        if kind is DagKind.KILLING_LEAF:
            colors[v] = color_from_uniform(dag.uniforms[v], p)
            continue
        kids = dag.children[v]
        try:
            kid_colors = [colors[c] for c in kids]
        except KeyError as exc:
            raise InvalidParameterError(f"order colors {v} before its child {exc}") from None
        if len(kids) == 1 or kid_colors[0] == kid_colors[1]:
            colors[v] = kid_colors[0]
        else:
            colors[v] = color_from_uniform(dag.uniforms[v], g.dist(kid_colors[0], kid_colors[1]))
    return colors
