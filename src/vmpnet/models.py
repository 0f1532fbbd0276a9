"""Forward voter-model-perturbation dynamics and closed-form model families.

A simple VMP updates every site of one space-time sublattice at each step:
with probability w the site copies a uniformly chosen nearest neighbor
(walk), with probability b it draws from the boundary table g indexed by
its two neighbors' colors (branch), and with probability kappa it resamples
from the bulk distribution p (kill).  One uniform per space-time vertex
drives both the move choice and the color choice through a nested inverse
CDF in move-major order [walk-left | walk-right | branch | kill]; the move
thresholds coincide with the arrow-outcome thresholds of the percolation
net, so a forward run and the dual genealogy built from the same seed
produce identical colors.

The module also carries exact algebra for three families: the q-color
stochastic Potts chain (with detailed-balance verification of its rates),
the symmetric symbiotic Lotka-Volterra model, and the noisy biased voter
model, each with its exact walk/branch/kill decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coloring import (
    BoundaryTable,
    ColorDistribution,
    point_mass,
    uniform_boundary_table,
    uniform_colors,
)
from .errors import InvalidParameterError, WindowError
from .rng import BELOW_ONE, vertex_uniform_grid

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class VmpParams:
    """Characteristic data of a simple (nearest-neighbor) VMP level."""

    q: int
    w: float
    b: float
    kappa: float
    g: BoundaryTable
    p: ColorDistribution
    lam: ColorDistribution

    def __post_init__(self):
        if min(self.w, self.b, self.kappa) < 0:
            raise InvalidParameterError("w, b, kappa must be non-negative")
        if abs(self.w + self.b + self.kappa - 1.0) > _SUM_TOL:
            raise InvalidParameterError(
                f"w + b + kappa = {self.w + self.b + self.kappa!r} must equal 1"
            )
        if not (self.g.q == self.p.q == self.lam.q == self.q):
            raise InvalidParameterError("g, p, lam must all have the declared q")


def simple_vmp(
    q: int,
    b: float,
    kappa: float,
    g: BoundaryTable | None = None,
    p: ColorDistribution | None = None,
    lam: ColorDistribution | None = None,
) -> VmpParams:
    """Convenience constructor: w = 1 - b - kappa, uniform defaults."""
    return VmpParams(
        q,
        1.0 - b - kappa,
        b,
        kappa,
        g if g is not None else uniform_boundary_table(q),
        p if p is not None else uniform_colors(q),
        lam if lam is not None else uniform_colors(q),
    )


def transition_distribution(params: VmpParams, left: int, right: int) -> ColorDistribution:
    """One-site law given neighbor colors: w*(d_left+d_right)/2 + b*g[left,right] + kappa*p."""
    q = params.q
    if not (1 <= left <= q and 1 <= right <= q):
        raise InvalidParameterError(f"colors must lie in 1..{q}")
    weights = np.zeros(q)
    weights[left - 1] += 0.5 * params.w
    weights[right - 1] += 0.5 * params.w
    weights += params.b * params.g.dist(left, right).as_array()
    weights += params.kappa * params.p.as_array()
    return ColorDistribution(q, tuple(weights))


# ---------------------------------------------------------------------------
# Forward simulation
# ---------------------------------------------------------------------------

@dataclass
class ColorField:
    """Colors on one parity sublattice: a list of (time, {x: color}) slices."""

    parity: str  # "odd" or "even": parity of x + t for all stored sites
    slices: list[tuple[int, dict[int, int]]] = field(default_factory=list)

    def __post_init__(self):
        if self.parity not in ("odd", "even"):
            raise InvalidParameterError("parity must be 'odd' or 'even'")
        want = 1 if self.parity == "odd" else 0
        for t, row in self.slices:
            for x in row:
                if (x + t) % 2 != want:
                    raise InvalidParameterError(f"site ({x},{t}) violates {self.parity} parity")

    def slice_at(self, t: int) -> dict[int, int]:
        for s, row in self.slices:
            if s == t:
                return row
        raise KeyError(t)

    def to_csv(self) -> str:
        lines = ["t,x,color"]
        for t, row in self.slices:
            for x in sorted(row):
                lines.append(f"{t},{x},{row[x]}")
        return "\n".join(lines) + "\n"


def simulate(
    params: VmpParams,
    x_lo: int,
    x_hi: int,
    steps: int,
    seed: int,
    initial: dict[int, int] | None = None,
    parity: str = "odd",
) -> ColorField:
    """The forward chain from a product(lam) base on [x_lo, x_hi], every
    slice recorded.

    Deterministic in ``seed``.  The base must be wide enough for the
    requested number of steps (shrinks by one site per side per step).
    ``initial`` overrides the seeded product draw; extra sites of the wrong
    parity are ignored.
    """
    want = 1 if parity == "odd" else 0
    xs = [x for x in range(x_lo, x_hi + 1) if x % 2 == want]
    if len(xs) <= steps:
        raise WindowError(
            f"base [{x_lo},{x_hi}] has {len(xs)} sites; too narrow for {steps} steps"
        )
    colors = None
    if initial is not None:
        if not all(x in initial for x in xs):
            raise WindowError("explicit initial slice does not cover the base")
        colors = np.array([[initial[x] for x in xs]], dtype=np.uint8)
    seeds = np.array([seed % (1 << 64)], dtype=np.uint64)
    rows = _forward_rows(params, seeds, np.array(xs, dtype=np.int64), colors, steps)
    slices = [(t, dict(zip(xs_t.tolist(), colors_t[0].tolist()))) for t, xs_t, colors_t in rows]
    return ColorField(parity, slices)


def _invcdf_rows(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Vectorized inverse CDF; ``cum`` broadcasts against u's shape + (q,)."""
    q = cum.shape[-1]
    return (u[..., None] >= cum[..., : q - 1]).sum(axis=-1).astype(np.uint8) + 1


def _forward_rows(params: VmpParams, seeds: np.ndarray, xs: np.ndarray, colors, steps: int):
    """Yield (t, xs_t, colors_t) for t = 0..steps, one row of colors per seed.

    Each slice covers the midpoints of the previous one.  ``colors`` of
    None draws the base from lam, keyed per site at t = 0.
    """
    if colors is None:
        u = vertex_uniform_grid(seeds[:, None], xs[None, :], np.int64(0))
        colors = _invcdf_rows(u, np.asarray(params.lam.cum))
    p_cum = np.asarray(params.p.cum)
    g_cum = params.g.cum_array()
    w, b, kappa = params.w, params.b, params.kappa
    yield 0, xs, colors
    for t in range(1, steps + 1):
        xs_new = xs[:-1] + 1
        left = colors[:, :-1]
        right = colors[:, 1:]
        u = vertex_uniform_grid(seeds[:, None], xs_new[None, :], np.int64(t))
        new = np.where(u < 0.5 * w, left, right).astype(np.uint8)
        if b > 0:
            mask = (u >= w) & (u < 1.0 - kappa)
            if mask.any():
                ub = np.minimum((u - w) / b, BELOW_ONE)
                cum = g_cum[left.astype(np.intp) - 1, right.astype(np.intp) - 1]
                new = np.where(mask, _invcdf_rows(ub, cum), new)
        if kappa > 0:
            mask = u >= 1.0 - kappa
            if mask.any():
                uk = np.minimum((u - (1.0 - kappa)) / kappa, BELOW_ONE)
                new = np.where(mask, _invcdf_rows(uk, p_cum), new)
        xs, colors = xs_new, new
        yield t, xs, colors


def forward_batch(
    params: VmpParams,
    seeds: np.ndarray,
    x_lo: int,
    x_hi: int,
    record: list[tuple[int, int]],
) -> np.ndarray:
    """Many independent forward runs at once, one seed per trial row.

    Returns an int array (len(seeds), len(record)) of colors at the
    requested (x, t) sites.  Bit-identical to per-trial ``simulate``.
    """
    t_max = max(t for _, t in record)
    xs = np.arange(x_lo + (x_lo + 1) % 2, x_hi + 1, 2, dtype=np.int64)
    for rx, rt in record:
        if (rx + rt) % 2 != 1:
            raise InvalidParameterError(f"record site ({rx},{rt}) not on odd sublattice")
        if not (x_lo + rt <= rx <= x_hi - rt):
            raise WindowError(f"record site ({rx},{rt}) outside the shrinking cone")
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.zeros((seeds.shape[0], len(record)), dtype=np.uint8)
    for t, xs_now, colors_now in _forward_rows(params, seeds, xs, None, t_max):
        for j, (rx, rt) in enumerate(record):
            if rt == t:
                col = int(np.searchsorted(xs_now, rx))
                out[:, j] = colors_now[:, col]
    return out


# ---------------------------------------------------------------------------
# Potts chain
# ---------------------------------------------------------------------------

def potts_rates(beta: float, q: int) -> tuple[float, float, float]:
    """Walk/branch/kill weights of the q-color Potts chain at inverse
    temperature beta; they sum to one identically."""
    if not beta > 0:
        raise InvalidParameterError(f"beta must be positive, got {beta}")
    if q < 2:
        raise InvalidParameterError("q must be at least 2")
    a = math.expm1(beta)  # e^beta - 1
    e2 = math.exp(2 * beta)
    w = 2 * a / (q + 2 * a)
    b = a * a * q / (((e2 - 1) + q) * (q + 2 * a))
    kappa = q / (e2 + (q - 1))
    return w, b, kappa


def potts_params(beta: float, q: int) -> VmpParams:
    """The Potts chain as a VMP: uniform bulk, initial and off-diagonal
    boundary distributions."""
    w, b, kappa = potts_rates(beta, q)
    return VmpParams(
        q, w, b, kappa, uniform_boundary_table(q), uniform_colors(q), uniform_colors(q)
    )


def potts_detailed_balance_residual(beta: float, q: int) -> float:
    """Max over neighbor/initial/final color tuples of
    |rate(i->f)/rate(f->i) - exp(-beta * dH)| for the continuous-time rates.

    The energy counts color boundaries with the two neighbors; rates use
    the walk/branch/kill weights with uniform bulk noise and a boundary
    move that aligns to equal neighbors and is uniform otherwise.
    """
    w, b, kappa = potts_rates(beta, q)

    def rate(c_left: int, c_right: int, target: int) -> float:
        r = kappa / q
        r += w * (0.5 * (target == c_left) + 0.5 * (target == c_right))
        if c_left == c_right:
            r += b * (target == c_left)
        else:
            r += b / q
        return r

    worst = 0.0
    for c_left in range(1, q + 1):
        for c_right in range(1, q + 1):
            for c_i in range(1, q + 1):
                for c_f in range(1, q + 1):
                    if c_i == c_f:
                        continue
                    dh = ((c_f != c_left) - (c_i != c_left)) + ((c_f != c_right) - (c_i != c_right))
                    ratio = rate(c_left, c_right, c_f) / rate(c_left, c_right, c_i)
                    worst = max(worst, abs(ratio - math.exp(-beta * dh)))
    return worst


# ---------------------------------------------------------------------------
# General (non-nearest-neighbor) decomposition data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralVmpSpec:
    """Pointwise-evaluable walk/branch/kill decomposition with a general
    walk kernel and an N-neighbor boundary rule.

    ``kernel`` maps displacement to weight (zero mean); ``neighbor_law``
    maps N-tuples of displacements to weight; ``g`` maps N-tuples of colors
    to the boundary color distribution, with g[c,...,c] a point mass at c.
    ``voter_correction``, when given, maps a local configuration to an
    additive adjustment of the voter part (how level-dependent corrections
    such as the biased-voter remainder enter); it must sum to zero over
    colors.  Used for transition evaluation and decomposition checks only.
    """

    q: int
    w: float
    b: float
    kappa: float
    kernel: dict[int, float]
    n_neighbors: int
    neighbor_law: dict[tuple[int, ...], float]
    g: dict[tuple[int, ...], ColorDistribution]
    p: ColorDistribution
    voter_correction: object = None  # callable local -> np.ndarray, or None

    def __post_init__(self):
        if abs(sum(self.kernel.values()) - 1.0) > _SUM_TOL:
            raise InvalidParameterError("walk kernel weights must sum to 1")
        if abs(sum(y * k for y, k in self.kernel.items())) > _SUM_TOL:
            raise InvalidParameterError("walk kernel must have zero mean")
        if abs(sum(self.neighbor_law.values()) - 1.0) > _SUM_TOL:
            raise InvalidParameterError("neighbor law must sum to 1")
        if any(len(t) != self.n_neighbors for t in self.neighbor_law):
            raise InvalidParameterError("neighbor tuples must have length N")
        for c in range(1, self.q + 1):
            d = self.g[(c,) * self.n_neighbors]
            if d.weights[c - 1] != 1.0:
                raise InvalidParameterError(f"g[{(c,)*self.n_neighbors}] must be the point mass at {c}")

    def voter_distribution(self, local: dict[int, int]) -> np.ndarray:
        out = np.zeros(self.q)
        for y, k in self.kernel.items():
            out[local[y] - 1] += k
        if self.voter_correction is not None:
            adj = np.asarray(self.voter_correction(local), dtype=np.float64)
            if abs(adj.sum()) > _SUM_TOL:
                raise InvalidParameterError("voter correction must sum to zero over colors")
            out = out + adj
        return out

    def boundary_distribution(self, local: dict[int, int]) -> np.ndarray:
        out = np.zeros(self.q)
        for offsets, weight in self.neighbor_law.items():
            colors = tuple(local[y] for y in offsets)
            out += weight * self.g[colors].as_array()
        return out

    def transition_distribution(self, local: dict[int, int]) -> np.ndarray:
        return (
            self.w * self.voter_distribution(local)
            + self.b * self.boundary_distribution(local)
            + self.kappa * self.p.as_array()
        )


_NN_KERNEL = {-1: 0.5, 1: 0.5}


# ---------------------------------------------------------------------------
# Lotka-Volterra (symmetric symbiotic case)
# ---------------------------------------------------------------------------

def lotka_volterra_transition(eta_x: int, f1: float, alpha: float, eps: float) -> np.ndarray:
    """Exact two-step death-then-replacement law; returns [P(0), P(1)].

    The particle dies with probability alpha * (1 - eps * f_opposite) and,
    if it dies, adopts a kernel-chosen neighbor's type (type 1 with local
    density f1).
    """
    for name, v in (("alpha", alpha), ("eps", eps), ("f1", f1)):
        if not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name}={v} outside [0, 1]")
    if eta_x not in (0, 1):
        raise InvalidParameterError(f"eta_x must be 0 or 1, got {eta_x}")
    if eta_x == 0:
        death = alpha * (1.0 - eps * f1)
        p1 = death * f1
        return np.array([1.0 - p1, p1])
    death = alpha * (1.0 - eps * (1.0 - f1))
    p0 = death * (1.0 - f1)
    return np.array([p0, 1.0 - p0])


@dataclass(frozen=True)
class LvDecomposition:
    """(1 - eps) * biased-voter part + eps * boundary part, exactly."""

    alpha: float
    eps: float

    def voter_part(self, eta_x: int, f1: float) -> np.ndarray:
        stay = np.array([1.0 - eta_x, float(eta_x)])
        vote = np.array([1.0 - f1, f1])
        return (1.0 - self.alpha) * stay + self.alpha * vote

    def boundary_part(self, eta_x: int, f1: float) -> np.ndarray:
        flip = self.alpha * (1.0 - f1) * f1
        if eta_x == 0:
            return np.array([1.0 - flip, flip])
        return np.array([flip, 1.0 - flip])

    def reconstructed(self, eta_x: int, f1: float) -> np.ndarray:
        return (1.0 - self.eps) * self.voter_part(eta_x, f1) + self.eps * self.boundary_part(
            eta_x, f1
        )

    def g_table(self) -> dict[tuple[int, int, int], ColorDistribution]:
        """Boundary rule over color triples (site, two kernel picks); states
        {0,1} are encoded as colors {1,2}."""
        a = self.alpha
        flip0 = ColorDistribution(2, (1.0 - 0.5 * a, 0.5 * a))  # from state 0 toward 1
        flip1 = ColorDistribution(2, (0.5 * a, 1.0 - 0.5 * a))  # from state 1 toward 0
        table: dict[tuple[int, int, int], ColorDistribution] = {}
        for c2 in (1, 2):
            for c3 in (1, 2):
                table[(1, c2, c3)] = flip0 if (c2, c3) in ((2, 1), (1, 2)) else point_mass(2, 1)
                table[(2, c2, c3)] = flip1 if (c2, c3) in ((2, 1), (1, 2)) else point_mass(2, 2)
        return table

    def as_general_spec(self) -> GeneralVmpSpec:
        # The voter part is lazy: stay put unless the death clock rings.
        lazy_kernel = {0: 1.0 - self.alpha, -1: 0.5 * self.alpha, 1: 0.5 * self.alpha}
        neighbor_law = {
            (0, y2, y3): _NN_KERNEL[y2] * _NN_KERNEL[y3] for y2 in (-1, 1) for y3 in (-1, 1)
        }
        return GeneralVmpSpec(
            q=2,
            w=1.0 - self.eps,
            b=self.eps,
            kappa=0.0,
            kernel=lazy_kernel,
            n_neighbors=3,
            neighbor_law=neighbor_law,
            g=self.g_table(),
            p=uniform_colors(2),  # unused: no bulk noise in this model
        )


def lotka_volterra_decomposition(alpha: float, eps: float) -> LvDecomposition:
    for name, v in (("alpha", alpha), ("eps", eps)):
        if not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name}={v} outside [0, 1]")
    return LvDecomposition(alpha, eps)


# ---------------------------------------------------------------------------
# Noisy biased voter model
# ---------------------------------------------------------------------------

def noisy_biased_voter_transition(
    f1: float, alpha: float, b_eps: float, kappa_eps: float
) -> np.ndarray:
    """Returns [P(1), P(2)]: normalized biased-voter probabilities with bias
    1 + b_eps toward color 1 and bulk noise of weight kappa_eps."""
    if not 0.0 <= f1 <= 1.0 or not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError("f1 and alpha must lie in [0, 1]")
    if b_eps < 0 or kappa_eps < 0:
        raise InvalidParameterError("b_eps and kappa_eps must be non-negative")
    f2 = 1.0 - f1
    z = 1.0 + b_eps * f1 + kappa_eps
    p1 = ((1.0 + b_eps) * f1 + (1.0 - alpha) * kappa_eps) / z
    p2 = (f2 + alpha * kappa_eps) / z
    return np.array([p1, p2])


@dataclass(frozen=True)
class NbvDecomposition:
    """w_eps * voter + b_eps * boundary + kappa_eps * bulk with an exact
    remainder folded into the voter part."""

    alpha: float
    b: float
    kappa: float
    eps: float

    @property
    def b_eps(self) -> float:
        return self.eps * self.b

    @property
    def kappa_eps(self) -> float:
        return self.eps * self.eps * self.kappa

    @property
    def w_eps(self) -> float:
        return 1.0 - self.b_eps - self.kappa_eps

    def boundary_part(self, f1: float) -> np.ndarray:
        f2 = 1.0 - f1
        b1 = f1 ** 3 + 3 * f1 * f1 * f2 * (1.0 - self.b_eps / 3.0) + 3 * f2 * f2 * f1 * (2.0 / 3.0)
        b2 = f2 ** 3 + 3 * f2 * f2 * f1 * (1.0 / 3.0) + 3 * f1 * f1 * f2 * (self.b_eps / 3.0)
        return np.array([b1, b2])

    def bulk_part(self) -> np.ndarray:
        return np.array([1.0 - self.alpha, self.alpha])

    def remainder(self, f1: float) -> float:
        """r_eps(f1), defined by subtraction from the exact transition."""
        p1 = noisy_biased_voter_transition(f1, self.alpha, self.b_eps, self.kappa_eps)[0]
        return (
            p1
            - self.w_eps * f1
            - self.b_eps * self.boundary_part(f1)[0]
            - self.kappa_eps * (1.0 - self.alpha)
        )

    @property
    def simplex_defect_bound(self) -> float:
        """How far the exact voter adjustment may leave the simplex.

        With the boundary table forced to align at unanimity and a fixed
        bulk distribution, the exact remainder pushes the voter part out of
        the simplex by alpha*kappa_eps*(b_eps+kappa_eps)/((1+b_eps+kappa_eps)*w_eps)
        at f1 = 1 and by (1-alpha)*kappa_eps^2/((1+kappa_eps)*w_eps) at
        f1 = 0.  Violations beyond these structural amounts mean eps is
        genuinely too large.
        """
        b_, k_, a_ = self.b_eps, self.kappa_eps, self.alpha
        at_one = a_ * k_ * (b_ + k_) / ((1.0 + b_ + k_) * self.w_eps)
        at_zero = (1.0 - a_) * k_ * k_ / ((1.0 + k_) * self.w_eps)
        return max(at_one, at_zero) + 1e-12

    def voter_part(self, f1: float) -> np.ndarray:
        r_over_w = self.remainder(f1) / self.w_eps
        v = np.array([f1 + r_over_w, 1.0 - f1 - r_over_w])
        if v.min() < -self.simplex_defect_bound:
            raise InvalidParameterError(
                f"eps={self.eps} too large: adjusted voter part {v} leaves the simplex "
                f"beyond the structural unanimity defect {self.simplex_defect_bound:.3e}"
            )
        return v

    def reconstructed(self, f1: float) -> np.ndarray:
        return (
            self.w_eps * self.voter_part(f1)
            + self.b_eps * self.boundary_part(f1)
            + self.kappa_eps * self.bulk_part()
        )

    def g_table(self) -> dict[tuple[int, int, int], ColorDistribution]:
        strong = ColorDistribution(2, (2.0 / 3.0, 1.0 / 3.0))
        weak = ColorDistribution(2, (1.0 - self.b_eps / 3.0, self.b_eps / 3.0))
        table: dict[tuple[int, int, int], ColorDistribution] = {
            (1, 1, 1): point_mass(2, 1),
            (2, 2, 2): point_mass(2, 2),
        }
        for key in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
            table[key] = strong
        for key in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            table[key] = weak
        return table

    def as_general_spec(self) -> GeneralVmpSpec:
        neighbor_law = {
            (y1, y2, y3): 0.125 for y1 in (-1, 1) for y2 in (-1, 1) for y3 in (-1, 1)
        }
        return GeneralVmpSpec(
            q=2,
            w=self.w_eps,
            b=self.b_eps,
            kappa=self.kappa_eps,
            kernel=dict(_NN_KERNEL),
            n_neighbors=3,
            neighbor_law=neighbor_law,
            g=self.g_table(),
            p=ColorDistribution(2, (1.0 - self.alpha, self.alpha)),
        )


def noisy_biased_voter_decomposition(
    alpha: float, b: float, kappa: float, eps: float
) -> NbvDecomposition:
    if not 0.0 <= alpha <= 1.0 or b < 0 or kappa < 0 or not 0.0 < eps:
        raise InvalidParameterError("need alpha in [0,1], b, kappa >= 0, eps > 0")
    d = NbvDecomposition(alpha, b, kappa, eps)
    if d.w_eps <= 0:
        raise InvalidParameterError(f"eps={eps} too large: w_eps = {d.w_eps}")
    for f1 in np.linspace(0.0, 1.0, 33):
        d.voter_part(float(f1))  # raises if any part leaves the simplex
    return d


def nbv_remainder_order_fit(
    alpha: float, b: float, kappa: float, eps_grid: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-log slope of max_f1 |r_eps| against eps (expected close to 3)."""
    if eps_grid is None:
        eps_grid = 2.0 ** np.arange(-8.0, -3.5, 0.5)
    f1_grid = np.linspace(0.0, 1.0, 65)
    max_r = np.array(
        [
            max(abs(noisy_biased_voter_decomposition(alpha, b, kappa, float(e)).remainder(float(f))) for f in f1_grid)
            for e in eps_grid
        ]
    )
    slope = float(np.polyfit(np.log(eps_grid), np.log(max_r), 1)[0])
    return slope, np.asarray(eps_grid), max_r
