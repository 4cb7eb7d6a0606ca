"""References for the paper's own steps that several test modules read and
no program runs (a reference one test module alone reads lives in it), and
the JSON writers of a problem that the tests build inline problems with."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from nclab import randmat
from nclab.gaussdisc import TimeGrid, bin_boundaries, bin_indices
from nclab.laplacian import CylindricalFunction, format_outer
from nclab.matrixcore import _frechet, _spectral_calculus, eigh, hermitize
from nclab.nclaw import adaptive_simpson
from nclab.ncpoly import NCPolynomial, _tuple_data, _word_matrix, format_polynomial
from nclab.randmat import RngStream


def star(p):
    """Word reversal with conjugated coefficients."""
    return NCPolynomial(
        p.d, {w[::-1]: np.conj(c) for w, c in p.terms.items()})


def sharp(tensor, x, c):
    """(a (x) b) # C = a C b extended linearly; x supplies the letters."""
    data = _tuple_data(x, tensor.d)
    c = np.asarray(c, dtype=complex)
    n = data.shape[-1]
    if c.shape[-2:] != (n, n):
        raise ValueError(f"sharp operand has shape {c.shape}, expected (..., {n}, {n})")
    cache = {}
    out = None
    for (w1, w2), coeff in tensor.terms.items():
        a = _word_matrix(w1, data, cache)
        b = _word_matrix(w2, data, cache)
        term = coeff * (a @ c @ b)
        out = term if out is None else out + term
    if out is None:
        shape = np.broadcast_shapes(data.shape[:-3], c.shape[:-2]) + (n, n)
        out = np.zeros(shape, dtype=complex)
    return out



def scalar_function_derivative(a, f, fprime):
    """Frechet derivative of the functional calculus at A, as a linear map.

    Returns ``apply(E)`` computing D f(A)[E] via the divided-difference
    (Daleckii-Krein) multiplier in the eigenbasis:

        D f(A)[E] = Q ( f[w_a, w_b] o (Q* E Q) ) Q*,

    where f[x, y] = (f(x) - f(y))/(x - y) off the diagonal and f'(x) on it.
    The map is self-adjoint for the real tr_n pairing, so it also transports
    gradients of downstream costs back through f.  Over a stack A, ``apply``
    maps each E through its own A.  This is the per-matrix reference for the
    batched clip and arctan pullbacks of ``control``'s gradients.
    """
    w, q = eigh(a)
    _, mult = _spectral_calculus(w, q, f, fprime)
    return lambda e: hermitize(_frechet(q, mult, e))


def operator_norm(a):
    """Largest absolute eigenvalue of a Hermitian matrix (or of a stack)."""
    w, _ = eigh(a)
    return float(np.max(np.abs(w)))



@dataclass
class NCLaw:
    """Truncated moment functional of a d-tuple: word -> complex moment.

    The rate-function candidate reads its target's moments through
    :meth:`moment` (the Laplace principle's phi(target) term)."""

    d: int
    max_degree: int
    moments: dict

    def __post_init__(self):
        unit = self.moments.get((), None)
        if unit is None or abs(unit - 1.0) > 1e-9:
            raise ValueError("law must assign moment 1 to the empty word")
        for word in self.moments:
            if len(word) > self.max_degree:
                raise ValueError(f"stored word {word} exceeds degree {self.max_degree}")

    def moment(self, word):
        word = tuple(word)
        if word not in self.moments:
            raise KeyError(f"moment of {word} not stored (degree {self.max_degree})")
        return self.moments[word]


@lru_cache(maxsize=None)
def semicircle_arctan_moment(m):
    """int arctan(x)^m (1/2pi) sqrt(4 - x^2) dx over [-2, 2], to 1e-10: the
    moments of the Laplace principle's target law,
    :func:`semicircle_arctan_law`."""
    if m < 0:
        raise ValueError("moment order must be >= 0")
    if m % 2 == 1:
        return 0.0  # odd integrand against an even density

    def integrand(x):
        return math.atan(x) ** m * math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)

    return adaptive_simpson(integrand, -2.0, 2.0, 1e-10)


def semicircle_arctan_law(max_degree) -> NCLaw:
    """The d=1 reference law: moments of arctan(S) for semicircular S, the
    target law at which the tests' rate-function candidate evaluates the
    Laplace principle's rate function."""
    moments = {(): 1.0 + 0.0j}
    for deg in range(1, max_degree + 1):
        moments[(1,) * deg] = complex(semicircle_arctan_moment(deg))
    return NCLaw(d=1, max_degree=max_degree, moments=moments)



def brownian_increments(time_grid, rng):
    """Independent N(0, dt) increments over the grid; empty grid gives []."""
    grid = [float(t) for t in time_grid]
    if len(grid) <= 1:
        return np.zeros(0)
    diffs = np.diff(grid)
    if np.any(diffs <= 0):
        raise ValueError("time grid must be strictly increasing")
    gen = randmat._as_generator(rng)
    return gen.standard_normal(len(diffs)) * np.sqrt(diffs)


def bin_of(values, N):
    """Bin index of each raw increment value, shaped as ``values``: the first
    bin whose right edge (``bin_boundaries``) is >= the value."""
    right = [bin_boundaries(N, j)[1] for j in bin_indices(N)]
    return np.searchsorted(right, values) - (N + 1)


def prefix_index(policy, indices):
    """Row index of a bin prefix (j_1..j_i) in the step-i tables."""
    if policy.collapse_bins:
        return 0
    return int(np.ravel_multi_index(np.add(indices, policy.N + 1),
                                    (policy.branching(),) * len(indices)))


@dataclass
class PathData:
    """One sampled trajectory of the continuous dynamics."""

    times: list
    states: np.ndarray          # (steps + 1, d, n, n), at each grid time
    controls: np.ndarray        # (steps, d, n, n), applied on each interval
    w0_increments: np.ndarray
    gue_increments: np.ndarray  # (steps, d, n, n)
    cost: float


def euler_maruyama(problem, feedback_policy, steps, rng) -> PathData:
    """Explicit Euler with exact Gaussian/GUE increments from
    ``rng.child("em")``.

    ``feedback_policy`` is a callable (t, X) -> alpha on (d, n, n) arrays,
    hermitized once per step, or None for the zero control.  A step adds
    drift, common noise and GUE noise in that order; the drift is piecewise
    constant, so linear dynamics are integrated exactly given the increments.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not isinstance(rng, RngStream):
        raise TypeError("euler_maruyama requires an RngStream")
    gen_stream = rng.child("em")
    grid = TimeGrid(problem.t0, problem.T, steps)
    times = list(grid.times)
    dw0 = brownian_increments(times, gen_stream.child("w0"))
    gue = randmat.gue_increments(problem.n, problem.d, times, gen_stream.child("gue"))

    h = grid.delta
    eye = np.eye(problem.n)
    states = np.empty((steps + 1,) + problem.x0.shape, dtype=complex)
    controls = np.zeros((steps,) + problem.x0.shape, dtype=complex)
    states[0] = problem.x0
    for i in range(steps):
        x = states[i]
        if feedback_policy is not None:
            controls[i] = hermitize(feedback_policy(times[i], x))
        x = x + h * controls[i]
        if problem.beta_c:
            x = x + problem.beta_c * dw0[i] * eye
        if problem.beta_f:
            x = x + problem.beta_f * gue[i]
        states[i + 1] = x
    total = float(np.sum(problem.cost.lagrangian(states[:-1], controls) * h)
                  + np.real(problem.cost.terminal.eval(states[-1])))
    return PathData(times=times, states=states, controls=controls,
                    w0_increments=dw0, gue_increments=gue, cost=total)



def cylindrical_to_json(u):
    return json.dumps({
        "outer": format_outer(u.outer),
        "inners": [format_polynomial(phi) for phi in u.inners],
    })


def cost_to_json(cost):
    def encode(expr):
        if expr is None:
            return None
        if isinstance(expr, CylindricalFunction):
            return json.loads(cylindrical_to_json(expr))
        raise TypeError("only cylindrical cost expressions serialize")

    return json.dumps({
        "l0": encode(cost.l0),
        "quad_coef": cost.quad_coef,
        "terminal": encode(cost.terminal),
        "lip_const": cost.lip_const,
        "convexity_declared": cost.convexity_declared,
        "c1": cost.c1,
    })


def problem_to_json(problem):
    return json.dumps({
        "n": problem.n, "d": problem.d,
        "x0_re": np.real(problem.x0).tolist(),
        "x0_im": np.imag(problem.x0).tolist(),
        "beta_c": problem.beta_c, "beta_f": problem.beta_f,
        "t0": problem.t0, "T": problem.T,
        "cost": json.loads(cost_to_json(problem.cost)),
    })
