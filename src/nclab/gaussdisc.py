"""Common-noise discretization: bins, conditional means, truncated Gaussians.

Per time step the Brownian increment (variance delta) is classified into
2N + 2 bins: interior bins (j/N, (j+1)/N] for j = -N..N-1 of fixed width 1/N
on [-1, 1], and two tails (-inf, -1] and (1, inf) with indices -N-1 and N.
``bin_boundaries`` states the bins and ``bin_of`` reads an increment's bin
off their right edges.  The discrete noise replaces the increment by its
conditional mean omega_j within the bin; a full path of bin indices then
determines the piecewise value of the discretized Brownian motion and its
probability, which ``control._bin_tree`` tabulates for every path prefix.

Tail quantities are written through the scaled complementary error function
(erfcx), so conditional means never overflow regardless of how deep the
truncation sits; probabilities below 1e-300 are rejected as unresolvable at
double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrixcore import NumericalError, eigh, hermitize, operator_norm
from .randmat import RngStream, sample_gue_tuple

__all__ = [
    "TimeGrid", "NoiseTable",
    "bin_boundaries", "bin_of", "bin_probability", "bin_conditional_mean",
    "bin_conditional_absdev", "noise_table",
    "truncated_gaussian_mean", "truncated_gaussian_variance",
    "bridge_bound_check",
    "normal_cdf", "normal_pdf", "erfcx",
]

_SQRT2 = math.sqrt(2.0)


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    """Phi(x) through erfc; absolute accuracy around 1e-15."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _upper_tail(x):
    """P(Z > x) = Phi(-x), accurate in the far tail."""
    return 0.5 * math.erfc(x / _SQRT2)


# Below this argument erfcx is exp(x^2) erfc(x) (erfc has not underflowed);
# from it on, the continued fraction converges within _ERFCX_TERMS terms.
_ERFCX_SPLIT = 26.0
_ERFCX_TERMS = 24
_DEKKER = 134217729.0                                # 2^27 + 1
_EXP_MAX = math.log(np.finfo(float).max)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x) of a float.

    exp(x^2) is taken as exp(hi) exp(lo), with x^2 = hi + lo split exactly
    (Dekker), so the square's rounding does not grow into the exponential;
    from ``_ERFCX_SPLIT`` on, where erfc nears underflow, the Laplace continued
    fraction 1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))) is used.
    Overflows to inf for x below about -26.6."""
    x = float(x)
    if x >= _ERFCX_SPLIT:
        f = x
        for k in range(_ERFCX_TERMS, 0, -1):
            f = x + 0.5 * k / f
        return 1.0 / (math.sqrt(math.pi) * f)
    hi = x * x
    if hi > _EXP_MAX:
        return math.inf
    c = _DEKKER * x
    xh = c - (c - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
    return math.exp(hi) * math.exp(lo) * math.erfc(x)


def _hazard(z):
    """Mills hazard phi(z)/P(Z > z) = sqrt(2/pi)/erfcx(z/sqrt(2)); never overflows."""
    return math.sqrt(2.0 / math.pi) / erfcx(z / _SQRT2)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = t0 + i (T - t0)/K."""

    t0: float
    T: float
    K: int

    def __post_init__(self):
        if self.T <= self.t0:
            raise ValueError(f"need T > t0, got [{self.t0}, {self.T}]")
        if self.K < 1:
            raise ValueError("K must be >= 1")

    @property
    def delta(self):
        return (self.T - self.t0) / self.K

    @property
    def times(self):
        return tuple(self.t0 + i * self.delta for i in range(self.K + 1))


def bin_indices(N):
    """The index set [N] = {-N-1, ..., N} in increasing order."""
    return list(range(-N - 1, N + 1))


def bin_boundaries(N, j):
    """The interval of bin j: interior (j/N, (j+1)/N], tails beyond +-1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if j == -N - 1:
        return (-math.inf, -1.0)
    if j == N:
        return (1.0, math.inf)
    if -N <= j <= N - 1:
        return (j / N, (j + 1) / N)
    raise ValueError(f"bin index {j} out of range for N={N}")


def bin_of(values, N):
    """Bin index of each raw increment value, shaped as ``values``: the first
    bin whose right edge (``bin_boundaries``) is >= the value."""
    right = [bin_boundaries(N, j)[1] for j in bin_indices(N)]
    return np.searchsorted(right, values) - (N + 1)


def bin_probability(j, delta, N):
    """P(increment in bin j) for an N(0, delta) increment.

    Bins away from the origin are computed through the upper tail, which
    stays accurate where Phi differences would cancel in double precision.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = bin_boundaries(N, j)
    sd = math.sqrt(delta)
    if a >= 0.0:
        hi = 0.0 if b == math.inf else _upper_tail(b / sd)
        return max(_upper_tail(a / sd) - hi, 0.0)
    if b <= 0.0:
        lo = 0.0 if a == -math.inf else _upper_tail(-a / sd)
        return max(_upper_tail(-b / sd) - lo, 0.0)
    return max(normal_cdf(b / sd) - normal_cdf(a / sd), 0.0)


def bin_conditional_mean(j, delta, N):
    """omega_j = E[increment | bin j], the truncated-Gaussian mean.

    Interior bins use the two-sided Mills formula
    sqrt(delta) (phi(alpha) - phi(beta)) / (Phi(beta) - Phi(alpha)); tails use
    the hazard through erfcx.  |omega| <= 2 is enforced for delta <= 1
    (interior bins additionally satisfy |omega| <= 1).
    """
    p = bin_probability(j, delta, N)
    if p < 1e-300:
        raise ValueError(
            f"bin {j} has vanishing probability at delta={delta}; "
            "increment too small for tail bins at float precision")
    a, b = bin_boundaries(N, j)
    sd = math.sqrt(delta)
    if a == -math.inf:
        omega = -sd * _hazard(-b / sd)
    elif b == math.inf:
        omega = sd * _hazard(a / sd)
    else:
        num = normal_pdf(a / sd) - normal_pdf(b / sd)
        omega = sd * num / p
    if delta <= 1.0:
        if abs(omega) > 2.0 + 1e-12:
            raise NumericalError(f"|omega| = {abs(omega):.6f} > 2 at delta={delta}")
        if -N <= j <= N - 1 and abs(omega) > 1.0 + 1e-12:
            raise NumericalError(f"interior |omega| = {abs(omega):.6f} > 1")
    return omega


def bin_conditional_absdev(j, delta, N):
    """E[|increment - omega_j| | bin j] by adaptive quadrature.

    Checked against the oscillation bound: at most 1/N on interior bins and
    sqrt(delta) on the tails.
    """
    from .nclaw import adaptive_simpson

    p = bin_probability(j, delta, N)
    omega = bin_conditional_mean(j, delta, N)
    a, b = bin_boundaries(N, j)
    sd = math.sqrt(delta)
    lo = max(a, omega - 42.0 * sd)
    hi = min(b, omega + 42.0 * sd)

    def integrand(x):
        return abs(x - omega) * normal_pdf(x / sd) / sd

    # panels pinned at the |.| kink and at sd-scaled offsets keep the
    # adaptive rule from skipping a peak much narrower than the bin
    knots = {lo, hi}
    for k in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        for side in (omega - k * sd, omega + k * sd):
            if lo < side < hi:
                knots.add(side)
    points = sorted(knots)
    value = sum(adaptive_simpson(integrand, u, v, tol=1e-13)
                for u, v in zip(points, points[1:]))
    value /= p
    interior = -N <= j <= N - 1
    bound = (1.0 / N) if interior else math.sqrt(delta)
    if value > bound + 1e-9:
        raise NumericalError(
            f"conditional absolute deviation {value:.6g} exceeds bound {bound:.6g}")
    return value


@dataclass(frozen=True)
class NoiseTable:
    """Per-bin probability and conditional mean for one time step.

    Increments are identically distributed, so one table serves all steps.
    ``omega_in_range`` records whether |omega| <= 2 held (guaranteed for
    delta <= 1, reported otherwise).
    """

    N: int
    delta: float
    probs: np.ndarray    # indexed by position in bin_indices(N)
    omegas: np.ndarray
    omega_in_range: bool

    @property
    def indices(self):
        return bin_indices(self.N)

    def index_of(self, j):
        return j + self.N + 1

    def prob(self, j):
        return float(self.probs[self.index_of(j)])

    def omega(self, j):
        return float(self.omegas[self.index_of(j)])


@lru_cache(maxsize=64)
def noise_table(N, delta) -> NoiseTable:
    """Build and validate the per-step table for (N, delta)."""
    js = bin_indices(N)
    probs = np.array([bin_probability(j, delta, N) for j in js])
    omegas = np.array([bin_conditional_mean(j, delta, N) for j in js])
    if abs(probs.sum() - 1.0) > 1e-12:
        raise NumericalError(f"bin probabilities sum to {probs.sum():.15f}")
    if abs(float(probs @ omegas)) > 1e-12:
        raise NumericalError("conditional means do not average to zero")
    in_range = bool(np.all(np.abs(omegas) <= 2.0 + 1e-12))
    return NoiseTable(N=N, delta=float(delta), probs=probs, omegas=omegas,
                      omega_in_range=in_range)


def truncated_gaussian_mean(z):
    """E[Z | Z >= z] for standard normal Z; <= 2z for z >= 1."""
    if not math.isfinite(z):
        raise ValueError("threshold must be finite")
    mean = _hazard(z)
    if z >= 1.0 and mean > 2.0 * z + 1e-12:
        raise NumericalError(f"conditional mean {mean:.6f} exceeds 2z at z={z}")
    return mean


def truncated_gaussian_variance(z):
    """Var(Z | Z >= z) = 1 + z h(z) - h(z)^2, h the Mills hazard; <= 1 for z >= 0."""
    if not math.isfinite(z):
        raise ValueError("threshold must be finite")
    h = _hazard(z)
    var = 1.0 + z * h - h * h
    if z >= 0.0 and var > 1.0 + 1e-12:
        raise NumericalError(f"conditional variance {var:.6f} > 1 at z={z}")
    return var


def bridge_bound_check(a, b, c, samples, rng, n=None):
    """Monte Carlo check of the Brownian-bridge conditional bound.

    Scalar case (``n`` is None): partitions the conditioning value
    x = W_c - W_a into 25 quantile cells and verifies per cell

        E[|W_b - W_a| | x]  <=  ((b-a)/(c-a)) E[|x|] + sqrt((c-b)(b-a)/(c-a)).

    Matrix case (``n`` given): same decomposition for the GUE path, with the
    fluctuation term replaced by 3 sqrt(b-a) (from E||GUE|| <= 3 at desk n).
    Returns True when at least 99% of cells satisfy the bound.
    """
    if not (0 <= a <= b <= c) or not a < c:
        raise ValueError(f"need 0 <= a <= b <= c with a < c, got ({a}, {b}, {c})")
    if b == a or b == c:
        return True  # left side 0, or conditional expectation equals |x| exactly
    theta = (b - a) / (c - a)
    sigma2 = (c - b) * (b - a) / (c - a)
    gen = rng.generator() if isinstance(rng, RngStream) else rng

    if n is None:
        x = gen.standard_normal(samples) * math.sqrt(c - a)
        mid = theta * x + gen.standard_normal(samples) * math.sqrt(sigma2)
        order = np.argsort(x)
        cell_ids = np.array_split(order, 25)
        passed = 0
        for cell in cell_ids:
            lhs = np.mean(np.abs(mid[cell]))
            rhs = theta * np.mean(np.abs(x[cell])) + math.sqrt(sigma2)
            passed += lhs <= rhs + 1e-12
        return passed >= 0.99 * len(cell_ids)

    outer = max(samples // 40, 1)
    inner = 40
    passed = 0
    for _ in range(outer):
        delta_mat = sample_gue_tuple(n, 1, gen, scale=math.sqrt(c - a))
        norm_delta = operator_norm(delta_mat[0])
        xi = sample_gue_tuple(n, inner, gen, scale=math.sqrt(sigma2))
        # theta * delta_mat + xi, hermitized after the product and the sum
        mid = hermitize(hermitize(theta * delta_mat) + xi)
        w, _ = eigh(mid)
        lhs = float(np.mean(np.max(np.abs(w), axis=-1)))
        rhs = theta * norm_delta + 3.0 * math.sqrt(b - a)
        passed += lhs <= rhs + 1e-12
    return passed >= 0.99 * outer
