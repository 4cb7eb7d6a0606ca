"""Matrix stochastic control: discrete policies, costs, optimization, oracles.

The discretized problem lives on a bin tree: at step i the common noise has
been classified into one of (2N+2)^i bin prefixes J, each carrying an exact
probability and a deterministic noise value (sum of conditional means),
while the GUE noise stays Monte Carlo.  States follow

    X_{i,J} = x0 + sum_{i'<=i} alpha_{i',J} delta
                 + beta_C 1 W0_{i,J} + beta_F (W_hat_{t_i} - W_hat_{t_0}),

controls are tables over (step, bin prefix) of either constant Hermitian
tuples or polynomial nodes in (x0, GUE increments), clipped in operator norm
at R and gated by the increment-norm indicator at level M.  The optimizer is
sample-average approximation over polynomial nodes with first-order descent
and exact (cyclic-derivative) gradients; expectation over the common noise
is exact, over the GUE empirical.  ``zero_policy`` builds polynomial
nodes; const nodes come from ``coarsen_control`` and are evaluated, not
optimized.

The engine sweeps the tree in coefficient space.  A polynomial control is
alpha_{s,J,k} = sum_w c_{J,k,w} f_{s,w} with real coefficients and Hermitian,
gated, scaled word features f, so with the Gram matrices
G_s = Re tr(f_w f_v) one gets ||alpha||_F^2 = c^T G_s c and
<alpha, f_v> = (G_s c)_v.  That small product gives the c ||alpha||^2
Lagrangian term of a level, one contraction
(c/n) <G_s, sum_J p_J c_J c_J^T> per sample, and its gradient
2 c delta p_J / n sum_s G_s c_J.  The clip's pre-screen is the triangle
bound ||alpha||_op <= sum_w |c_w| rho_{s,w}, with rho_{s,w} >= ||f_{s,w}||_op
computed once per sample set without an eigensolve: no slot of the set can
exceed R when sum_w |c_{J,k,w}| max_s rho_{s,w} <= R for every (J, k), and
only where that fails is the bound tested per slot.  Each rho_{s,w} is
within a factor n^(1/8) of the operator norm the clip acts on.  States are
real combinations of the per-sample basis b = [f; 1; x0; increments], so the
tree expands on the (B_i, d, V) coefficients,

    C_i = expand(C_{i-1}) + [delta c_i | beta_C dW0_{i,J} | beta_F e_{i,k}],

and the states of a level, C_i @ b, are made only where a cost reads them.
The controls are materialised only at clip suspects
(slots the pre-screen flags), where the clipped slots' states and gradients
are corrected; where l0 reads them or ``_forward`` keeps every level's
states (``keep_states``, set when l0's gradient needs them); and for const
steps, as a broadcast view whose sample-independent drift is added to the
states.

A sample set (the optimizer's ``scale``, ``train`` and ``val`` sets, or
``discrete_cost``'s samples) is drawn in one ``randmat.sample_gue`` call,
one stream address per sample, into its R distinct rows r: the identity,
the letters and the symmetrized longer words (R = 1 + d(1+K) at degree 1).
Basis column v is row m(v) times a per-sample factor a_{s,v}: gate over
feature scale for a feature, else 1.  So one GEMM over the rows gives the
basis Gram H_s = Re tr(b_v b_w) = a_v a_w Re tr(r_m(v) r_m(w)), (S, V, V),
and traces t_s = tr b_v; a step's feature Gram G_s is a block of H_s.  A
set is held as its rows and H_s; the basis itself (V ~ 2R columns at degree
1) is never formed.  Where the engine needs columns of it, it goes through
the lift A_s = (a_{s,v} [m(v) = r])_{v,r}, (S, V, R): states are
(C_i @ A_s) @ r_s, materialised controls (c @ A_s) @ r_s, and a state
adjoint is paired with the features as (adj @ r_s^T) @ A_s^T, each a GEMM
over the R rows.  A sweep that makes no state covers the whole set.  Where
states are made the set is swept in slices of ``CHUNK`` samples, which
bounds the (CHUNK, B, d, n, n) state arrays.

Terminal costs affine in tr_n X_k and tr_n X_k X_l stay in coefficient
space.  A terminal whose ``trace_quadratic()`` is not None (a cylindrical
cost with an outer of degree <= 1 over inners of degree <= 2, such as
``trace_power(d, 2, coef)``: the LQ terminal and the Laplace-principle psi)
reads the leaves only through tr_n X_k = C_k . t_s / n and
tr_n X_k X_l = C_k^T H_s C_l / n, so its value needs no n x n array, and its
gradient is a coefficient adjoint (B, d, V), summed over children up the
tree; a poly step's parameter gradient is that adjoint's feature columns
times delta plus the c||alpha||^2 term.  Where this does not apply exactly
the leaf states are made and the terminal reads them, with the state
adjoint paired with the features through the lift: a terminal without
that form (the quartic cost, a nonlinear outer), l0 set (every level's
states), and a const step or a slot the clip binds (their drift and fixes
are not in the basis span).

Cost expressions share one protocol on (..., d, n, n) batches: ``eval``
(real values), ``value_and_grad`` (values and tr_n gradients), the letter
count ``d`` and ``trace_quadratic()`` (the form above, or None).
``CylindricalFunction`` and ``ArctanComposedTerminal`` have all four;
``ScalarTraceCost`` is value-only, an l0 for ``CostSpec.lagrangian``, and
has no form either.

Also here: the LQ Riccati references (continuous closed form, ODE
re-derivation, and the exact discrete dynamic-programming optimum), the
truncation inequality check and Euler-Maruyama's ``PathData``, both on
(steps, d, n, n) arrays, and the exponential-functional machinery
(variational formula for -(1/n^2) log E exp(-n^2 psi) and the rate-function
candidate).  ``_clip_batch`` is the package's one operator-norm clip.
Only tests call the ODE re-derivation, Euler-Maruyama with
``coarsen_control``, ``policy_control_budget`` and the rate-function
candidate: they check the paper's own steps (the Riccati oracle, the
discretization step, the a-priori energy bound, the Laplace principle).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import ncpoly, randmat
from .gaussdisc import TimeGrid, noise_table
from .laplacian import CylindricalFunction, trace_power
from .matrixcore import (NumericalError, _frechet, _norm_bound_from_square,
                         _spectral_calculus, apply_scalar_function,
                         assert_hermitian, eigh, hermitize, operator_norm,
                         operator_norm_bound)
# nothing here calls sample_gue_tuple: perfbench/tracer.py wraps it by name
from .randmat import RngStream, sample_gue_tuple

__all__ = [
    "CostSpec", "ControlProblem", "DiscretePolicy", "PolicyStep",
    "OptimizerConfig", "OptimizeResult", "OptimizeError",
    "PathData", "discrete_cost", "optimize_discrete_value",
    "lq_reference", "lq_reference_ode", "lq_discrete_oracle",
    "coarsen_control", "truncation_inequality_check",
    "euler_maruyama", "boue_dupuis_lhs", "boue_dupuis_rhs",
    "rate_function_candidate", "policy_control_budget",
    "ArctanComposedTerminal", "ScalarTraceCost",
]

PATH_GUARD = 10 ** 6  # maximum number of enumerated bin paths
CHUNK = 16  # samples per sweep that makes states


class OptimizeError(NumericalError):
    """Raised when the descent loop cannot make progress."""


# ---------------------------------------------------------------------------
# cost specifications
# ---------------------------------------------------------------------------


class ScalarTraceCost:
    """Cost sum_k tr_n h(Z_k) over the letters of a tuple, h a scalar function.

    Used for Assumption-C style Lagrangians tau(h(X)) + tau(h(alpha)) with h
    1-Lipschitz smooth; evaluation goes through the eigenvalues, so it is not
    differentiable machinery for the optimizer (``eval`` only).
    """

    def __init__(self, h):
        self.h = h

    def eval(self, data):
        data = np.asarray(data, dtype=complex)
        lead = data.shape[:-3]
        try:
            w = np.linalg.eigvalsh(data)                 # (..., letters, n)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"trace-cost eigensolver failed: {exc}") from exc
        out = np.mean(self.h(w), axis=-1).sum(axis=-1)
        return out if lead else float(out)

    def trace_quadratic(self):
        return None


@dataclass
class CostSpec:
    """Lagrangian L = L0(X, alpha) + c ||alpha||^2 and terminal cost g.

    ``l0`` is a cost expression (see the module docstring) over the joint
    2d-tuple (letters 1..d = state, d+1..2d = control) or None; the optimizer
    also reads its gradient.  ``terminal``, required, is one over d letters.
    ``lip_const`` (kappa), ``c1`` and ``convexity_declared`` are instance
    metadata used by the truncation inequality and the a-priori bound checks.
    """

    l0: object          # cost expression over 2d letters, or None
    quad_coef: float
    terminal: object    # cost expression over d letters
    lip_const: float = 1.0
    convexity_declared: bool = False
    c1: float | None = None

    def __post_init__(self):
        if self.quad_coef < 0:
            raise ValueError("quad_coef must be >= 0")
        if self.terminal is None:
            raise ValueError("a terminal cost expression is required")

    def lagrangian(self, x_data, a_data):
        """L(X, alpha) on batched (..., d, n, n) pairs."""
        val = 0.0
        if self.l0 is not None:
            joint = np.concatenate([x_data, a_data], axis=-3)
            val = val + np.real(self.l0.eval(joint))
        if self.quad_coef:
            n = a_data.shape[-1]
            sq = np.einsum("...kij,...kji->...", a_data, a_data).real / n
            val = val + self.quad_coef * sq
        return val

    # -- serialization --------------------------------------------------------

    def to_json(self):
        def encode(expr):
            if expr is None:
                return None
            if isinstance(expr, CylindricalFunction):
                return json.loads(expr.to_json())
            raise TypeError("only cylindrical cost expressions serialize")

        return json.dumps({
            "l0": encode(self.l0),
            "quad_coef": self.quad_coef,
            "terminal": encode(self.terminal),
            "lip_const": self.lip_const,
            "convexity_declared": self.convexity_declared,
            "c1": self.c1,
        })

    @classmethod
    def from_json(cls, text, d):
        doc = json.loads(text)

        def decode(node, letters):
            if node is None:
                return None
            return CylindricalFunction.from_json(json.dumps(node), letters)

        return cls(l0=decode(doc["l0"], 2 * d),
                   quad_coef=doc["quad_coef"],
                   terminal=decode(doc["terminal"], d),
                   lip_const=doc.get("lip_const", 1.0),
                   convexity_declared=doc.get("convexity_declared", False),
                   c1=doc.get("c1"))


class ArctanComposedTerminal:
    """Terminal cost sign * U(arctan(X)) with exact functional-calculus pullback.

    The gradient chains the cylindrical gradient at arctan(X) through the
    divided-difference derivative of arctan, which is self-adjoint for the
    tr_n pairing; each call makes one batched eigensolve.
    """

    def __init__(self, cyl: CylindricalFunction, sign):
        self.cyl = cyl
        self.sign = float(sign)

    @property
    def d(self):
        return self.cyl.d

    def eval(self, data):
        y = apply_scalar_function(data, "arctan")
        return self.sign * np.real(self.cyl.eval(y))

    def trace_quadratic(self):
        return None

    def value_and_grad(self, data):
        w, q = eigh(data)
        y, mult = _spectral_calculus(w, q, "arctan", lambda t: 1.0 / (1.0 + t * t))
        value, gy = self.cyl.value_and_grad(hermitize(y))
        return (self.sign * np.real(value),
                self.sign * hermitize(_frechet(q, mult, gy)))


@dataclass
class ControlProblem:
    """Initial tuple, noise strengths, horizon and cost of one instance.

    ``n`` and ``d`` are integers >= 1.  ``x0`` is a (d, n, n) array of
    Hermitian matrices: it must pass ``assert_hermitian`` at 1e-10, and it
    is stored hermitized, so exactly Hermitian, and read-only.
    """

    n: int
    d: int
    x0: np.ndarray
    beta_c: float
    beta_f: float
    t0: float
    T: float
    cost: CostSpec

    def __post_init__(self):
        if self.T <= self.t0:
            raise ValueError("need T > t0")
        for name in ("n", "d"):
            size = getattr(self, name)
            if (isinstance(size, bool) or not isinstance(size, numbers.Integral)
                    or size < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
        x0 = np.array(self.x0, dtype=complex)
        if x0.shape != (self.d, self.n, self.n):
            raise ValueError(f"x0 has shape {x0.shape}, expected (d, n, n) = "
                             f"{(self.d, self.n, self.n)}")
        try:
            x0 = hermitize(assert_hermitian(x0, tol=1e-10))
        except ValueError as exc:
            raise ValueError(f"x0: {exc}") from None
        x0.setflags(write=False)
        self.x0 = x0
        if self.beta_c < 0 or self.beta_f < 0:
            raise ValueError("noise strengths must be >= 0")

    def grid(self, K):
        return TimeGrid(self.t0, self.T, K)

    def to_json(self):
        return json.dumps({
            "n": self.n, "d": self.d,
            "x0_re": np.real(self.x0).tolist(),
            "x0_im": np.imag(self.x0).tolist(),
            "beta_c": self.beta_c, "beta_f": self.beta_f,
            "t0": self.t0, "T": self.T,
            "cost": json.loads(self.cost.to_json()),
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        real, imag = np.array(doc["x0_re"]), np.array(doc["x0_im"])
        if (real.dtype.kind not in "iuf" or imag.dtype.kind not in "iuf"
                or real.shape != imag.shape):
            raise ValueError("x0_re and x0_im must be number arrays of one "
                             "shape")
        x0 = real + 1j * imag
        cost = CostSpec.from_json(json.dumps(doc["cost"]), doc["d"])
        return cls(n=doc["n"], d=doc["d"], x0=x0, beta_c=doc["beta_c"],
                   beta_f=doc["beta_f"], t0=doc["t0"], T=doc["T"], cost=cost)


# ---------------------------------------------------------------------------
# discrete policies
# ---------------------------------------------------------------------------


@dataclass
class PolicyStep:
    """Control table for one time step: one node per bin prefix.

    ``kind`` is 'const' (values: (B, d, n, n) Hermitian) or 'poly'
    (coeffs: (B, d, W) real on the scaled word features listed in ``words``;
    letters are global indices over (x0 components, per-step increments)).
    """

    kind: str
    values: np.ndarray | None = None
    words: list | None = None
    coeffs: np.ndarray | None = None


@dataclass
class DiscretePolicy:
    """Bin-path-adapted control table with operator-norm cap R and gate M.

    ``collapse_bins`` marks a policy built for beta_C = 0, where every bin
    prefix shares one node.  ``include_current_increment`` records the
    adaptedness convention: True lets the node at step i read the GUE
    increment over its own interval (t_{i-1}, t_i], matching the sigma-algebra
    the discrete dynamics are measured against; False is the strictly adapted
    variant used by the variational (Boue-Dupuis) routines.
    """

    K: int
    N: int
    R: float
    gate_level: float
    d: int
    n: int
    steps: list
    collapse_bins: bool = False
    include_current_increment: bool = True
    feature_scales: np.ndarray | None = None
    fallback_cells: list = field(default_factory=list)

    def branching(self):
        return 1 if self.collapse_bins else 2 * self.N + 2

    def prefix_index(self, indices):
        """Row index of a bin prefix (j_1..j_i) in the step-i tables."""
        if self.collapse_bins:
            return 0
        b = 2 * self.N + 2
        idx = 0
        for j in indices:
            idx = idx * b + (j + self.N + 1)
        return idx


def zero_policy(problem, K, N, R, degree, include_current_increment):
    """The all-zero table of polynomial nodes of the given degree for the
    discretization, gated at ``default_gate_level``."""
    collapse = problem.beta_c == 0.0
    b = 1 if collapse else 2 * N + 2
    check_path_guard(b, K)
    d = problem.d
    steps = []
    for i in range(1, K + 1):
        words = _step_words(d, K, i, degree, include_current_increment)
        steps.append(PolicyStep(kind="poly", words=words,
                                coeffs=np.zeros((b ** i, d, len(words)))))
    return DiscretePolicy(K=K, N=N, R=R, gate_level=default_gate_level(problem),
                          d=d, n=problem.n, steps=steps, collapse_bins=collapse,
                          include_current_increment=include_current_increment)


def default_gate_level(problem):
    """M >= 3 sqrt(T - t0) and >= the initial condition's operator norm."""
    base = 3.0 * math.sqrt(problem.T - problem.t0)
    return max(base, operator_norm(problem.x0) + 1e-9)


def check_path_guard(branching, K):
    if branching ** K > PATH_GUARD:
        raise ValueError(
            f"bin-path count {branching}^{K} exceeds the {PATH_GUARD} guard")


def _step_words(d, K, step, degree, include_current):
    """Feature words available to the node at ``step`` (global letter indices).

    Letters 1..d are the x0 components; letters d*j+1..d*j+d the step-j GUE
    increment.  The node may read increments up to and including the current
    step (include_current=True) or only up to the previous one (strictly
    adapted).
    """
    last = step if include_current else step - 1
    letters = list(range(1, d + 1))
    for j in range(1, last + 1):
        letters.extend(range(d * j + 1, d * j + d + 1))
    words = [()]
    frontier = [()]
    for _ in range(degree):
        frontier = [w + (l,) for w in frontier for l in letters]
        words.extend(frontier)
    return words


# ---------------------------------------------------------------------------
# the bin-tree / GUE-batch engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BinTree:
    """Per-step exact common-noise data: probabilities and noise partial sums."""

    probs: tuple     # step i -> (B_i,) probabilities of bin prefixes
    noise: tuple     # step i -> (B_i,) values W0_{i,J}


@functools.lru_cache(maxsize=8)
def _bin_tree(K, N, delta, collapse):
    """The ``_BinTree`` of K steps over the (N, delta) noise table, one node
    per step when ``collapse``.  Memoized, so its arrays are read-only."""
    if collapse:
        probs, noise = [np.ones(1)] * K, [np.zeros(1)] * K
    else:
        table = noise_table(N, delta)
        omegas, branch = table.omegas.copy(), table.probs.copy()
        probs, noise = [branch], [omegas]
        for _ in range(1, K):
            # the previous step's vectors times the one-step table
            probs.append(np.kron(probs[-1], branch))
            noise.append(np.kron(noise[-1], np.ones_like(omegas))
                         + np.kron(np.ones(len(probs[-2])), omegas))
    for a in (*probs, *noise):
        a.setflags(write=False)
    return _BinTree(probs=tuple(probs), noise=tuple(noise))


def _sample_letters(problem, K, sample_indices, rng: RngStream, tag, out):
    """Letters (S, d(1+K), n, n) of the given samples, written into ``out``:
    x0's components, then each step's GUE increments, sample s drawn from
    ``rng.child(tag, s)``.  One ``sample_gue`` call covers the samples'
    streams, and each path is scaled as ``gue_increments`` does.  Every
    letter is exactly Hermitian: GUE draws are, a real scale keeps them so,
    and ``ControlProblem`` stores x0 hermitized."""
    n, d, times = problem.n, problem.d, problem.grid(K).times
    draws = randmat.sample_gue(n, (rng, tag, sample_indices), (K, d))
    out[:, :d] = problem.x0
    np.multiply(np.sqrt(np.diff(times))[:, None, None, None], draws,
                out=out[:, d:].reshape(len(draws), K, d, n, n))
    return out


# Relative margin of the eigensolve-free norm screens: far above the rounding
# of ``operator_norm_bound`` and of the eigensolvers at any n the lab runs.
_NORM_MARGIN = 1e-10


def _norm_suspects(norms, level):
    """Mask of the slots whose norm (or norm bound), widened by
    ``_NORM_MARGIN``, exceeds level; a non-finite one stays a suspect."""
    return ~(norms * (1.0 + _NORM_MARGIN) <= level)


def _gate_indicator(letters, d, K, level, squares):
    """1 when every increment's operator norm is <= level, per sample.

    Only the increments that ``operator_norm_bound`` cannot clear go to
    ``eigvalsh``, which decides them as the eigensolve alone would.  The
    bound reads the increments' ``squares``, (S, K d, n, n)."""
    bound = _norm_bound_from_square(squares)                 # (S, K d)
    samples, slots = np.nonzero(_norm_suspects(bound, level))
    gate = np.ones(len(letters))
    if len(samples):
        try:
            w = np.linalg.eigvalsh(letters[samples, d + slots])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"gate eigensolver failed: {exc}") from exc
        gate[samples[np.max(np.abs(w), axis=-1) > level]] = 0.0
    return gate


def _word_features(letters, words):
    """Word evaluations, (S, W, n, n), Hermitian-symmetrized; the empty word
    and the letters are exactly Hermitian (see ``_sample_letters``)."""
    S, _, n, _ = letters.shape
    out = np.empty((S, len(words), n, n), dtype=complex)
    cache = {}
    for k, word in enumerate(words):
        out[:, k] = hermitize(ncpoly._word_matrix(word, letters, cache))
    return out


def _distinct_rows(problem, policy, rng, tag, sample_indices):
    """A sample set's distinct rows (S, R, n, n), the identity, the letters
    and the symmetrized global words of length >= 2 (a word and its reversal
    share a row), and the row of each global word, (W,)."""
    d, K, n = problem.d, policy.K, problem.n
    words = _global_words(problem, policy)
    first = 1 + d * (1 + K)                  # the first longer word's row
    row = {(l,) if l else (): l for l in range(first)}
    for w in words:
        row.setdefault(min(w, w[::-1]), len(row))
    rows = np.empty((len(sample_indices), len(row), n, n), dtype=complex)
    rows[:, 0] = np.eye(n)
    letters = _sample_letters(problem, K, sample_indices, rng, tag,
                              out=rows[:, 1:first])
    if len(row) > first:
        rows[:, first:] = _word_features(letters, list(row)[first:])
    return rows, np.array([row[min(w, w[::-1])] for w in words], dtype=int)


def _row_radius(rows, d, squares):
    """Bounds rho_{s,r} >= ||r_{s,r}||_op on the distinct rows, (S, R): 1
    for the identity, else (sum lambda^8)^(1/8) = ||(r^2)^2||_F^(1/4), x0's
    once for the set and the increments' from the gate's ``squares``."""
    S = len(rows)
    x0 = rows[:1, 1:d + 1]                   # the same in every sample
    long = rows[:, 1 + d + squares.shape[1]:]
    bounds = [np.ones((S, 1)), operator_norm_bound(x0 @ x0).repeat(S, 0),
              operator_norm_bound(squares), operator_norm_bound(long @ long)]
    return np.sqrt(np.concatenate(bounds, axis=1))


@dataclass
class _ClipRecords:
    """Backward data of the slots where the clip is active.

    ``idx`` are flat slot indices; ``mult`` holds the divided-difference
    multipliers of phi_R and ``q`` the eigenvectors, (m, n, n) each, in the
    order of ``idx``.
    """

    idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    mult: np.ndarray | None = None
    q: np.ndarray | None = None

    def __len__(self):
        return len(self.idx)


def _clip_batch(alpha, R):
    """Apply the operator-norm clip entrywise over (..., n, n) Hermitian slots.

    Returns the clipped array and the records of the slots where the clip
    was active, indexed flat over the leading axes; elsewhere the clip is
    the identity, and with no active slot ``alpha`` itself comes back.
    ``operator_norm_bound``, widened by ``_NORM_MARGIN``, screens the slots
    without an eigensolve; ``eigh`` runs only on the slots it cannot clear
    and decides activity exactly as an ``eigh`` of every slot would.
    """
    n = alpha.shape[-1]
    flat = alpha.reshape((-1, n, n))
    suspects = np.flatnonzero(_norm_suspects(operator_norm_bound(flat), R))
    if len(suspects) == 0:
        return alpha, _ClipRecords()
    try:
        w, q = np.linalg.eigh(flat[suspects])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"clip eigensolver failed: {exc}") from exc
    active = np.max(np.abs(w), axis=-1) > R
    if not active.any():
        return alpha, _ClipRecords()
    suspects, w, q = suspects[active], w[active], q[active]
    clipped, mult = _spectral_calculus(
        w, q, ("clip", R), lambda t: (np.abs(t) < R).astype(float))
    flat = flat.copy()
    flat[suspects] = clipped
    return flat.reshape(alpha.shape), _ClipRecords(suspects, mult, q)


def _pullback_clip(grad, records):
    """The clip's derivative applied to the gradients (m, n, n) at the
    records' slots, in one batched product; it is self-adjoint for the tr_n
    pairing, so it carries gradients back through the clip."""
    return _frechet(records.q, records.mult, grad)


def _clip_suspects(radius, coeffs, R):
    """Flat indices over (S, B d) of the slots of a poly step whose control
    alpha = sum_w c_w f_{s,w} may exceed R in operator norm, by the triangle
    bound sum_w |c_w| rho_{s,w} on the features' radius bounds (S, W).  One
    set-wide check over max_s rho_{s,w} clears every slot first when it can."""
    reach = np.abs(coeffs).T                                  # (W, B d)
    if not _norm_suspects(np.max(radius.max(axis=0) @ reach), R):
        return np.zeros(0, dtype=int)
    return np.flatnonzero(_norm_suspects(radius @ reach, R))


@dataclass
class _ConstControls:
    """A const step's controls over a sample set.

    ``values`` are the clipped (B, d, n, n) node values, ``clip`` the
    records of the clip over their (B, d) slots, and ``samples`` the size
    of the set.
    """

    values: np.ndarray
    clip: _ClipRecords
    samples: int

    @property
    def alpha(self):
        """The (S, B, d, n, n) controls, a broadcast view of ``values``."""
        return np.broadcast_to(self.values, (self.samples,) + self.values.shape)

    def energy(self, probs):
        """sum_J p_J sum_k tr(alpha_{J,k}^2), the same for every sample, (S,)."""
        sq = np.einsum("bkij,bkji->b", self.values, self.values).real
        return np.full(self.samples, sq @ probs)


@dataclass
class _PolyControls:
    """A poly step's controls over a sample set, in coefficient space.

    ``coeffs`` are the step's (B, d, W) coefficients and ``gram`` the Gram
    matrices Re tr(f_w f_v) of its gated features, (S, W, W).  ``clip``
    indexes the clipped slots flat over (S, B, d); ``raw`` and ``new`` are
    the controls there before and after the clip.  ``alpha`` is the
    (S, B, d, n, n) controls if they were materialised, else None.
    """

    coeffs: np.ndarray
    gram: np.ndarray
    clip: _ClipRecords = field(default_factory=_ClipRecords)
    raw: np.ndarray | None = None
    new: np.ndarray | None = None
    alpha: np.ndarray | None = None

    def energy(self, probs):
        """sum_J p_J sum_k tr(alpha_{s,J,k}^2) per sample, (S,): one
        contraction <G_s, sum_{J,k} p_J c_{J,k} c_{J,k}^T> as if nothing were
        clipped, plus tr(new^2) - tr(raw^2) at the clipped slots."""
        B, d, W = self.coeffs.shape
        flat = self.coeffs.reshape(B * d, W)
        rows = np.repeat(probs, d)
        second = (rows[:, None] * flat).T @ flat                 # (W, W)
        out = self.gram.reshape(len(self.gram), -1) @ second.reshape(-1)
        if len(self.clip):
            s_idx, j_idx = np.divmod(self.clip.idx, B * d)
            change = (np.einsum("mij,mji->m", self.new, self.new)
                      - np.einsum("mij,mji->m", self.raw, self.raw)).real
            out += np.bincount(s_idx, rows[j_idx] * change, minlength=len(out))
        return out

    def energy_grad(self, probs):
        """The derivative of ``energy`` summed over the samples in the
        coefficients, (B, d, W): 2 p_J sum_s G_s c_J, as if nothing were
        clipped."""
        return 2.0 * probs[:, None, None] * (self.coeffs @ self.gram.sum(axis=0))


def _sample_rows(s_idx, S):
    """(s, rows) for every sample s owning rows of the sorted index s_idx."""
    bounds = np.searchsorted(s_idx, np.arange(S + 1))
    return [(s, slice(lo, hi)) for s, (lo, hi)
            in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]


def _realize_controls(policy, step_index, batch, suspects, materialise):
    """One step's controls over a sample set with the clip applied
    (``_ConstControls`` or ``_PolyControls``).  A poly step's feature Gram
    G_s is a block of the basis Gram (see the module docstring).  Its
    controls are materialised from the rows through the ``_lift`` at the
    ``suspects``, the slots its ``_clip_screen`` entry flags by the triangle
    bound, which are clipped, and with ``materialise`` at every slot."""
    st = policy.steps[step_index]
    R = policy.R
    S = len(batch.gram)
    if st.kind == "const":
        values, records = _clip_batch(st.values, R)
        return _ConstControls(values=values, clip=records, samples=S)
    n = policy.n
    B, d, W = st.coeffs.shape
    coeffs = st.coeffs.reshape(B * d, W)
    cols = batch.word_index[step_index]
    ctrl = _PolyControls(coeffs=st.coeffs,
                         gram=batch.gram[:, cols[:, None], cols])
    if materialise or len(suspects):
        lift = _lift(batch, cols)                            # (S, W, R)
    if materialise:
        ctrl.alpha = ((coeffs @ lift) @ batch.rows).view(complex).reshape(
            S, B, d, n, n)
    if len(suspects):
        s_idx, j_idx = np.divmod(suspects, B * d)
        raw = np.empty((len(suspects), 2 * n * n))
        for s, rows in _sample_rows(s_idx, S):
            raw[rows] = (coeffs[j_idx[rows]] @ lift[s]) @ batch.rows[s]
        raw = raw.view(complex).reshape(-1, n, n)
        new, records = _clip_batch(raw, R)
        if records:
            active = records.idx
            ctrl.raw, ctrl.new = raw[active], new[active]
            ctrl.clip = replace(records, idx=suspects[active])
            if ctrl.alpha is not None:
                ctrl.alpha.reshape(-1, n, n)[ctrl.clip.idx] = ctrl.new
    return ctrl


def _level_states(coef, batch, drift, fixes, n):
    """States of one level from its coefficients (B, d, V) on the basis:
    the coefficients through the ``_lift``, then one real GEMM per sample
    over the rows' float views, plus the const steps' drift and the clip's
    fixes, each broadcast over the descendants of its node."""
    S = len(batch.rows)
    B, d, _ = coef.shape
    x = (coef.reshape(B * d, -1) @ _lift(batch, slice(None))) @ batch.rows
    x = x.view(complex).reshape(S, B, d, n, n)
    if drift is not None:
        x += drift
    for width, idx, shift in fixes:
        s, node, k = np.unravel_index(idx, (S, width, d))
        x.reshape(S, width, -1, d, n, n)[s, node, :, k] += shift[:, None]
    return x


@dataclass
class _Sweep:
    """What a tree sweep leaves besides states and Lagrangians.

    ``controls`` are each level's controls and ``coef`` the last level's
    coefficients (B_K, d, V) on the basis.  ``form`` is the terminal's
    ``trace_quadratic()`` when the sweep left the leaves in coefficient
    space (they are then exactly ``coef`` on the basis), else None.
    """

    controls: list
    coef: np.ndarray
    form: object = None


def _forward(problem, policy, tree, batch, keep_states, screen):
    """Sweep the bin tree for one set of samples; ``screen`` is the set's
    ``_clip_screen``.

    Returns ``(states, lagrangians, sweep)``: the (S, B_i, d, n, n) states
    of every level with ``keep_states``, else of the last level only, or
    none when the terminal is read in coefficient space; the running
    Lagrangian of each level summed over its nodes with their
    probabilities, (S,) per level; and a ``_Sweep``.  Poly controls are
    materialised where l0 reads them or with ``keep_states``.  A terminal
    with a ``trace_quadratic()`` form reads no state when nothing else does
    (no l0, no ``keep_states``) and the leaves are in the basis span (no
    const step, no clipped slot in the set).
    """
    n, d, K = problem.n, problem.d, policy.K
    S = len(batch.gram)
    delta = (problem.T - problem.t0) / K
    branch = policy.branching()
    l0, quad = problem.cost.l0, problem.cost.quad_coef
    materialise = keep_states or l0 is not None
    W = batch.width
    coef = np.zeros((1, d, batch.gram.shape[-1]))
    coef[0, :, W + 1:W + 1 + d] = np.eye(d)              # x0
    drift, fixes = None, []
    states, lagrangians, controls = [], [], []
    for i in range(1, K + 1):
        st = policy.steps[i - 1]
        probs = tree.probs[i - 1]
        ctrl = _realize_controls(policy, i - 1, batch, screen[i - 1],
                                 materialise)
        coef = np.repeat(coef, branch, axis=0)
        coef[..., W] = problem.beta_c * tree.noise[i - 1][:, None]
        coef[..., W + 1 + d * i:W + 1 + d * (i + 1)] = problem.beta_f * np.eye(d)
        if drift is not None:
            drift = np.repeat(drift, branch, axis=0)
        if st.kind == "const":
            step = delta * ctrl.values
            drift = step if drift is None else drift + step
        else:
            coef[..., batch.word_index[i - 1]] += delta * st.coeffs
            if len(ctrl.clip):
                fixes.append((coef.shape[0], ctrl.clip.idx,
                              delta * (ctrl.new - ctrl.raw)))
        lval = (quad / n) * ctrl.energy(probs) if quad else np.zeros(S)
        if materialise:
            x = _level_states(coef, batch, drift, fixes, n)
            if keep_states:
                states.append(x)
            if l0 is not None:
                joint = np.concatenate([x, ctrl.alpha], axis=-3)
                lval = lval + np.real(l0.eval(joint)) @ probs
        lagrangians.append(lval)
        controls.append(ctrl)
    sweep = _Sweep(controls=controls, coef=coef)
    if not materialise and drift is None and not fixes:
        sweep.form = problem.cost.terminal.trace_quadratic()
    if not keep_states and sweep.form is None:
        states.append(x if materialise
                      else _level_states(coef, batch, drift, fixes, n))
    return states, lagrangians, sweep


def _quadratic_terminal(form, coef, batch, probs, n, want_grad):
    """Probability-weighted terminal cost per sample, (S,), of leaves X = coef
    on the basis, for a terminal with the ``trace_quadratic()`` form; with
    ``want_grad`` also its derivative in ``coef`` summed over the samples,
    (B, d, V), else None.

    With the basis Gram H_s and traces t_s, tr_n X_k X_l = C_k^T H_s C_l / n
    and tr_n X_k = C_k . t_s / n, so no n x n array is formed.  The form is
    affine in those, so it is summed over the leaves first: its value needs
    only sum_b p_b C_b and sum_b p_b C_b C_b^T, and its gradient sum_s H_s.
    """
    B, d, V = coef.shape
    qc = form.quad @ coef                                    # (B, d, V)
    pc = probs[:, None, None] * coef
    mean = (form.lin @ pc.sum(axis=0)) @ batch.traces.T      # (S,)
    second = pc.reshape(B * d, V).T @ qc.reshape(B * d, V)   # (V, V)
    values = (form.const * probs.sum()
              + (mean + np.einsum("svw,vw->s", batch.gram, second)) / n)
    if not want_grad:
        return values, None
    adj = (np.multiply.outer(form.lin, batch.traces.sum(axis=0))
           + 2.0 * qc @ batch.gram.sum(axis=0)) * (probs[:, None, None] / n)
    return values, adj


def _chunk_cost(problem, policy, tree, batch, states, sweep, lagrangians,
                want_grad):
    """Per-sample discretized cost over the swept samples, (S,), and with
    ``want_grad`` the terminal gradient (else None): at the last level's
    states, or in coefficient space (see ``_quadratic_terminal``) when the
    sweep left the leaves there."""
    delta = (problem.T - problem.t0) / policy.K
    if sweep.form is not None:
        leaf, ggrad = _quadratic_terminal(sweep.form, sweep.coef, batch,
                                          tree.probs[-1], problem.n, want_grad)
    else:
        terminal = problem.cost.terminal
        if want_grad:
            gvals, ggrad = terminal.value_and_grad(states[-1])
        else:
            gvals, ggrad = terminal.eval(states[-1]), None
        leaf = np.real(gvals) @ tree.probs[-1]
    total = np.zeros(len(leaf))
    for lvals in lagrangians:
        total += delta * lvals
    total += leaf
    return total, ggrad


def _step_gradient(ctrl, adj, probs, delta, quad, batch, cols):
    """Parameter gradient of one poly step from ``adj`` = (d cost / d alpha)
    / delta without the c||alpha||^2 term, (S, B, d, n, n), before the clip.

    ``adj`` is paired with the step's gated features, the set's basis
    columns ``cols``, through the rows and the ``_lift``, and the
    c||alpha||^2 term is ``energy_grad``; both assume an unclipped control,
    so the clipped slots add their difference to the pullback through the
    clip.
    """
    S, B, d, n = adj.shape[0], adj.shape[1], adj.shape[2], adj.shape[-1]
    rows_t = np.swapaxes(batch.rows, 1, 2)                  # (S, 2 n n, R)
    lift_t = np.swapaxes(_lift(batch, cols), 1, 2)          # (S, R, W)
    g = delta * ((adj.reshape(S, B * d, -1).view(float) @ rows_t)
                 @ lift_t).sum(axis=0)
    g += quad * delta * ctrl.energy_grad(probs).reshape(B * d, -1)
    records = ctrl.clip
    if len(records):
        s_idx, j_idx = np.divmod(records.idx, B * d)
        qr = 2.0 * quad * delta * np.repeat(probs, d)[j_idx][:, None, None]
        full = delta * adj.reshape(-1, n, n)[records.idx] + qr * ctrl.new
        fix = _pullback_clip(full, records) - full + qr * (ctrl.new - ctrl.raw)
        fix = fix.reshape(len(records), -1).view(float)
        for s, rows in _sample_rows(s_idx, S):
            g[j_idx[rows]] += (fix[rows] @ rows_t[s]) @ lift_t[s]
    return g.reshape(B, d, -1) / n


def _chunk_gradients(problem, policy, tree, batch, states, sweep, gterm):
    """Per-step parameter gradients of the summed (not yet averaged) cost.

    ``gterm`` is the terminal gradient at the last level's states, whose
    adjoint lam runs up the tree as the child sum; ``states`` are read only
    by l0.  When the sweep left the leaves in coefficient space, ``gterm``
    is the cost's derivative in the leaf coefficients, and that adjoint is
    summed up the tree instead: a step's feature columns are its gradient.
    """
    K, d, n = policy.K, policy.d, policy.n
    delta = (problem.T - problem.t0) / K
    branch = policy.branching()
    l0, quad = problem.cost.l0, problem.cost.quad_coef
    controls = sweep.controls
    grads = [None] * K
    lam = None
    for i in range(K, 0, -1):
        ctrl = controls[i - 1]
        probs = tree.probs[i - 1]
        if sweep.form is not None:                   # (B_i, d, V)
            lam = gterm if lam is None else lam.reshape(
                -1, branch, d, lam.shape[-1]).sum(axis=1)
            grads[i - 1] = (delta * lam[..., batch.word_index[i - 1]]
                            + (quad * delta / n) * ctrl.energy_grad(probs))
            continue
        p = probs[None, :, None, None, None]
        if lam is None:
            lam = p * gterm
        else:
            lam = lam.reshape(lam.shape[0], -1, branch, d, n, n).sum(axis=2)
        adj = lam
        if l0 is not None:
            _, gj = l0.value_and_grad(np.concatenate([states[i - 1], ctrl.alpha],
                                                     axis=-3))
            lam = lam + delta * p * gj[..., :d, :, :]
            adj = lam + p * gj[..., d:, :, :]
        grads[i - 1] = _step_gradient(ctrl, adj, probs, delta, quad, batch,
                                      batch.word_index[i - 1])
    return grads


@dataclass
class _Batch:
    """A sample set's frozen data, on which the optimizer evaluates many
    policies: its distinct rows as float views (S, R, 2 n n), and the basis
    [f; 1; x0; increments], the ``width`` features first, whose column v is
    row ``index[v]`` times ``factor[s, v]`` (see the module docstring).  The
    basis is held only as its Gram matrices H_s = Re tr(b_v b_w),
    (S, V, V), traces tr b_v, (S, V), and ``radius``, (S, width), the clip
    pre-screen's bounds rho_{s,w} >= ||f_{s,w}||_op; ``_lift`` maps its
    columns to the rows.  ``word_index`` lists each step's feature columns
    (None for a const step)."""

    rows: np.ndarray
    index: np.ndarray
    factor: np.ndarray
    gram: np.ndarray
    traces: np.ndarray
    width: int
    word_index: list
    radius: np.ndarray

    def slices(self, size):
        """The set as consecutive batches of ``size`` samples (views)."""
        for lo in range(0, len(self.gram), size):
            rows = slice(lo, lo + size)
            yield replace(self, rows=self.rows[rows], factor=self.factor[rows],
                          gram=self.gram[rows], traces=self.traces[rows],
                          radius=self.radius[rows])


def _lift(batch, cols):
    """The map (S, C, R) from the basis columns ``cols`` (an index array or
    a slice) to the rows: column v is row ``index[v]`` times
    ``factor[s, v]``."""
    R = batch.rows.shape[1]
    return batch.factor[:, cols, None] * (batch.index[cols, None] == np.arange(R))


def _prepare_batch(problem, policy, rng, tag, sample_indices):
    """The ``_Batch`` of a sample set; the increments' squares serve both
    the gate and the rows' radii."""
    K, d = policy.K, problem.d
    rows, row_of = _distinct_rows(problem, policy, rng, tag, sample_indices)
    S, R, n, _ = rows.shape
    letters = rows[:, 1:1 + d * (1 + K)]
    squares = letters[:, d:] @ letters[:, d:]
    gate = _gate_indicator(letters, d, K, policy.gate_level, squares)
    width = len(row_of)
    index = np.concatenate([row_of, np.arange(1 + d * (1 + K))])
    factor = np.ones((S, len(index)))
    factor[:, :width] = gate[:, None] / (1.0 if policy.feature_scales is None
                                         else policy.feature_scales)
    pos = {w: k for k, w in enumerate(_global_words(problem, policy))}
    flat = rows.reshape(S, R, -1).view(float)
    # the rows are Hermitian: Re tr(r_a r_b) is the dot product of float views
    gram = flat @ np.swapaxes(flat, 1, 2)
    traces = flat[..., ::2 * (n + 1)].sum(axis=-1)        # Re of the diagonal
    return _Batch(
        rows=flat, index=index, factor=factor,
        gram=gram[:, index[:, None], index] * factor[..., None] * factor[:, None],
        traces=traces[:, index] * factor, width=width,
        word_index=[None if st.kind == "const" else
                    np.array([pos[w] for w in st.words], dtype=int)
                    for st in policy.steps],
        radius=factor[:, :width] * _row_radius(rows, d, squares)[:, row_of])


def _global_words(problem, policy):
    """The last step's feature words at the policy's largest degree (at
    least 1); every step's words are among them."""
    degree = max([len(w) for st in policy.steps if st.kind == "poly"
                  for w in st.words] + [1])
    return _step_words(problem.d, policy.K, policy.K, degree,
                       policy.include_current_increment)


def _feature_scales(problem, policy, rng, tag, sample_indices):
    """RMS tr_n-norms of the global word features over a batch
    (preconditioner), from their rows' Gram diagonal: tr_n f^2 = H_rr / n."""
    rows, row_of = _distinct_rows(problem, policy, rng, tag, sample_indices)
    flat = rows.reshape(rows.shape[:2] + (-1,)).view(float)
    sq = np.einsum("srx,srx->sr", flat, flat)[:, row_of] / problem.n
    return np.sqrt(np.maximum(sq.mean(axis=0), 1e-12))


def _clip_screen(policy, batch):
    """Each step's ``_clip_suspects`` over the set: the flat (S, B d) slot
    indices of a poly step, None for a const step."""
    return [None if st.kind == "const" else _clip_suspects(
        batch.radius[:, c], st.coeffs.reshape(-1, st.coeffs.shape[-1]),
        policy.R) for st, c in zip(policy.steps, batch.word_index)]


def _screen_rows(policy, screen, rows):
    """The ``screen`` entries of the samples in slice ``rows``, indexed
    within it."""
    out = []
    for st, suspects in zip(policy.steps, screen):
        if suspects is not None:
            slots = st.coeffs[..., 0].size
            lo = rows.start * slots
            cut = np.searchsorted(suspects, (lo, rows.stop * slots))
            suspects = suspects[cut[0]:cut[1]] - lo
        out.append(suspects)
    return out


def _sweeps_without_states(problem, policy, screen):
    """True when a sweep of the whole set makes no state: the terminal has
    a ``trace_quadratic()`` form, there is no l0 and no const step, and the
    set's clip ``screen`` flags no slot of any step, so no clip can bind."""
    cost = problem.cost
    return (cost.l0 is None and cost.terminal.trace_quadratic() is not None
            and all(s is not None and len(s) == 0 for s in screen))


def _evaluate_prepared(problem, policy, batch, want_grads=False):
    """Cost mean/stderr over a prepared sample set; optionally parameter grads.

    The clip is screened once over the set.  A set that
    ``_sweeps_without_states`` is swept at once.  Otherwise it is swept in
    slices of ``CHUNK`` samples, which bounds the state arrays; a slice
    keeps only the last level's states, or none, unless l0 needs every
    level's for its gradient.
    """
    K, S = policy.K, len(batch.gram)
    tree = _bin_tree(K, policy.N, (problem.T - problem.t0) / K,
                     policy.collapse_bins)
    keep_states = want_grads and problem.cost.l0 is not None
    screen = _clip_screen(policy, batch)
    chunk = S if _sweeps_without_states(problem, policy, screen) else CHUNK
    per_sample = []
    grads = None
    for lo, part in zip(range(0, S, chunk), batch.slices(chunk)):
        states, lagrangians, sweep = _forward(
            problem, policy, tree, part, keep_states,
            _screen_rows(policy, screen, slice(lo, lo + chunk)))
        costs, gterm = _chunk_cost(problem, policy, tree, part, states, sweep,
                                   lagrangians, want_grads)
        per_sample.append(costs)
        if want_grads:
            g = _chunk_gradients(problem, policy, tree, part, states, sweep,
                                 gterm)
            grads = g if grads is None else [a + b for a, b in zip(grads, g)]
        del states, sweep
    costs = np.concatenate(per_sample)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(len(costs))) if len(costs) > 1 else 0.0
    if want_grads:
        grads = [g / len(costs) for g in grads]
    return mean, stderr, grads


# ---------------------------------------------------------------------------
# public cost / optimization ops
# ---------------------------------------------------------------------------


def discrete_cost(problem, policy, mc_samples, rng):
    """Monte Carlo estimate (value, stderr) of the discretized cost.

    Common-noise expectation is exact over bin paths; the GUE expectation is
    a sample average over ``mc_samples`` draws from ``rng``.  Where states
    are made, ``CHUNK`` samples are swept at a time.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    check_path_guard(policy.branching(), policy.K)
    batch = _prepare_batch(problem, policy, rng, "cost", range(mc_samples))
    mean, stderr, _ = _evaluate_prepared(problem, policy, batch)
    return mean, stderr


@dataclass
class OptimizerConfig:
    """Sample-average-approximation parameters: the sample sets, the descent
    iterations, the polynomial nodes' degree, and the iteration log's file."""

    train_samples: int = 64
    val_samples: int = 256
    max_iters: int = 200
    degree: int = 1
    log_path: str | None = None


@dataclass
class OptimizeResult:
    value: float
    stderr: float
    policy: DiscretePolicy
    zero_value: float
    train_value: float
    iterations: int
    improved: bool


def optimize_discrete_value(problem, K, N, R, opt_config, rng,
                            include_current_increment=True):
    """Minimize the discretized cost over the polynomial policy table.

    Descent with momentum 0.9 and exact cyclic-derivative gradients on a
    frozen GUE batch, from step 0.5: an improving step grows it by 1.1, a
    failed one halves it and drops the momentum, and it ends below 1e-7.
    The gate is at ``default_gate_level``, and ``include_current_increment``
    is the nodes' adaptedness (see ``DiscretePolicy``).  The returned value
    re-evaluates the winner (best found vs the zero policy) on a fresh
    validation batch, so it never exceeds the zero-policy cost beyond
    rounding.
    """
    if not problem.cost.convexity_declared:
        raise ValueError("optimize_discrete_value requires convexity_declared")
    policy = zero_policy(problem, K, N, R, opt_config.degree,
                         include_current_increment)
    policy.feature_scales = _feature_scales(
        problem, policy, rng, "scale",
        list(range(min(opt_config.train_samples, 32))))

    log_rows = []
    train = _prepare_batch(problem, policy, rng, "train",
                           range(opt_config.train_samples))
    cost, _, grads = _evaluate_prepared(problem, policy, train,
                                        want_grads=True)
    if not math.isfinite(cost):
        raise OptimizeError("initial objective is not finite")
    best_policy, best_cost = policy, cost
    eta = 0.5
    velocity = [np.zeros_like(g) for g in grads]
    iters = 0
    while iters < opt_config.max_iters and eta >= 1e-7:
        iters += 1
        velocity = [0.9 * v - eta * g for v, g in zip(velocity, grads)]
        trial = _policy_step(best_policy, [-v for v in velocity], 1.0)
        trial_cost, _, trial_grads = _evaluate_prepared(
            problem, trial, train, want_grads=True)
        if not math.isfinite(trial_cost):
            raise OptimizeError(f"objective diverged at iteration {iters}")
        gnorm = max(float(np.max(np.abs(g))) for g in grads)
        log_rows.append((iters, best_cost, eta, gnorm))
        if trial_cost < best_cost - 1e-14:
            best_policy, best_cost, grads = trial, trial_cost, trial_grads
            eta *= 1.1
        else:
            velocity = [np.zeros_like(g) for g in grads]
            eta *= 0.5
    if opt_config.log_path:
        with open(opt_config.log_path, "w", encoding="utf-8") as fh:
            fh.write("iter,batch_cost,step_size,max_grad_norm\n")
            for row in log_rows:
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r}\n")

    zero = policy
    val = _prepare_batch(problem, best_policy, rng, "val",
                         range(opt_config.val_samples))
    zero_val, zero_se, _ = _evaluate_prepared(problem, zero, val)
    best_val, best_se, _ = _evaluate_prepared(problem, best_policy, val)
    if best_val <= zero_val:
        value, stderr, winner, improved = best_val, best_se, best_policy, True
    else:
        value, stderr, winner, improved = zero_val, zero_se, zero, False
    return OptimizeResult(value=value, stderr=stderr, policy=winner,
                          zero_value=zero_val, train_value=best_cost,
                          iterations=iters, improved=improved)


def _policy_step(policy, grads, eta):
    """One descent step on all poly node coefficients; the clip acts where
    the controls are realised."""
    return replace(policy, steps=[
        PolicyStep(kind="poly", words=st.words, coeffs=st.coeffs - eta * g)
        for st, g in zip(policy.steps, grads)])


def _fro_norm(m):
    return float(np.sqrt(np.sum(np.abs(m) ** 2)))


def policy_control_budget(problem, policy, samples, rng):
    """sum_i sum_J P(O_{i,J}) E ||alpha_{i,J}||^2 delta for the a-priori bound.

    It is the Lagrangian part of the cost at c = 1, with no l0 and a zero
    terminal, so the engine evaluates it on the ``budget`` sample set.
    """
    budget = replace(problem, cost=CostSpec(
        l0=None, quad_coef=1.0, terminal=trace_power(problem.d, 2, 0.0)))
    batch = _prepare_batch(budget, policy, rng, "budget", range(samples))
    return _evaluate_prepared(budget, policy, batch)[0]


# ---------------------------------------------------------------------------
# LQ oracles
# ---------------------------------------------------------------------------


def _is_lq_template(cost: CostSpec, d):
    """True when L = 0.5 ||alpha||^2 and g = sum_j tr_n x_j^2 exactly."""
    if cost.l0 is not None:
        if not isinstance(cost.l0, CylindricalFunction) or cost.l0.outer.terms:
            return False
    if abs(cost.quad_coef - 0.5) > 1e-12:
        return False
    form = cost.terminal.trace_quadratic()
    return form is not None and form == trace_power(d, 2).trace_quadratic()


def lq_reference(problem: ControlProblem):
    """Closed-form continuous value for L = 0.5||alpha||^2, g = ||X||^2.

    p(t) = 1/(1 + 2(T - t)) gives p(t0) ||x0||^2 plus the noise integral
    ((beta_C^2 + beta_F^2) d / 2) ln(1 + 2(T - t0)).  Raises on any cost that
    is not exactly the LQ template.  ``lq_reference_ode`` re-derives the same
    number from the Riccati ODE without the closed form.
    """
    if not _is_lq_template(problem.cost, problem.d):
        raise ValueError("cost does not match the LQ template")
    horizon = problem.T - problem.t0
    p0 = 1.0 / (1.0 + 2.0 * horizon)
    x0_sq = _x0_norm_sq(problem)
    noise = (problem.beta_c ** 2 + problem.beta_f ** 2) * problem.d / 2.0
    return p0 * x0_sq + noise * math.log(1.0 + 2.0 * horizon)


def lq_reference_ode(problem: ControlProblem):
    """Riccati ODE oracle: solve dp/dt = 2 p^2 (p(T)=1) and
    dr/dt = -(beta_C^2 + beta_F^2) d p (r(T)=0) backward with 200,000 RK4
    steps."""
    if not _is_lq_template(problem.cost, problem.d):
        raise ValueError("cost does not match the LQ template")
    steps = 200_000
    sigma2 = (problem.beta_c ** 2 + problem.beta_f ** 2) * problem.d
    h = (problem.T - problem.t0) / steps
    half, sixth = 0.5 * h, h / 6.0
    p, r = 1.0, 0.0  # at t = T, integrating backward
    for _ in range(steps):
        # the RK4 step of (p, r) per component, with the vector form's
        # operations in its order; the slopes are (2 p^2, -sigma2 p)
        p2 = p - half * (2.0 * p * p)
        p3 = p - half * (2.0 * p2 * p2)
        p4 = p - h * (2.0 * p3 * p3)
        r -= sixth * (-sigma2 * p + 2 * (-sigma2 * p2)
                      + 2 * (-sigma2 * p3) + -sigma2 * p4)
        p -= sixth * (2.0 * p * p + 2 * (2.0 * p2 * p2)
                      + 2 * (2.0 * p3 * p3) + 2.0 * p4 * p4)
    return p * _x0_norm_sq(problem) + r


def _x0_norm_sq(problem):
    """<x0, x0> = Sum_j tr_n(x0_j x0_j), real for the Hermitian x0."""
    val = np.einsum("kij,kji->", problem.x0, problem.x0) / problem.n
    return float(val.real)


def lq_discrete_oracle(K, N, horizon, beta_c, beta_f, x0_norm_sq=0.0,
                       terminal_coef=1.0, peek_bin=True, peek_gue=True):
    """Exact optimum of the discretized one-letter LQ problem, L = 0.5
    ||alpha||^2, by dynamic programming.

    The Riccati recursion q_{i-1} = q_i c/(c + q_i delta), c = 0.5, is exact
    for the quadratic cost; each step's noise variance (binned common noise
    E[omega^2], GUE delta) enters with coefficient q_{i-1} when
    the policy class sees that step's noise before acting and q_i when it is
    strictly adapted.
    """
    delta = horizon / K
    table = noise_table(N, delta)
    v_bin = float(table.probs @ table.omegas ** 2)
    qs = [0.0] * (K + 1)
    qs[K] = terminal_coef
    for i in range(K, 0, -1):
        qs[i - 1] = qs[i] * 0.5 / (0.5 + qs[i] * delta)
    value = qs[0] * x0_norm_sq
    for i in range(1, K + 1):
        value += beta_c ** 2 * v_bin * (qs[i - 1] if peek_bin else qs[i])
        value += beta_f ** 2 * delta * (qs[i - 1] if peek_gue else qs[i])
    return value


# ---------------------------------------------------------------------------
# continuous-time simulation, coarsening, truncation
# ---------------------------------------------------------------------------


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
    dw0 = randmat.brownian_increments(times, gen_stream.child("w0"))
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


def _bin_of(value, N):
    """Bin index of a raw increment value (interior width 1/N, tails at +-1)."""
    if value <= -1.0:
        return -N - 1
    if value > 1.0:
        return N
    j = math.ceil(value * N) - 1
    return min(max(j, -N), N - 1)


def coarsen_control(fine_samples, grid: TimeGrid, N) -> DiscretePolicy:
    """Conditional-mean coarsening of sampled fine controls onto the bin tree.

    Node (i, J) averages, over the samples whose first i coarse increments
    fall in the bins of J, the time average of the control over
    (t_{i-1}, t_i].  Empty cells fall back to the step's global mean and are
    recorded in ``fallback_cells``.  The clip level R is 1 above the largest
    node's Frobenius norm, so the clip never binds.
    """
    if not fine_samples:
        raise ValueError("need at least one fine sample")
    K = grid.K
    fine_steps, d, n, _ = fine_samples[0].controls.shape
    if fine_steps % K:
        raise ValueError("fine grid must refine the coarse grid")
    if any(len(path.controls) != fine_steps for path in fine_samples):
        raise ValueError("fine samples live on different grids")
    per = fine_steps // K
    branch = 2 * N + 2

    # per sample: coarse bin path and per-coarse-step time-averaged control
    S = len(fine_samples)
    coarse_w0 = np.array([path.w0_increments for path in fine_samples]).reshape(
        S, K, per).sum(axis=2)
    sample_bins = [tuple(_bin_of(float(v), N) for v in row) for row in coarse_w0]
    sample_avgs = np.array([path.controls for path in fine_samples]).reshape(
        S, K, per, d, n, n).mean(axis=2)

    steps, fallbacks = [], []
    for i in range(1, K + 1):
        paths = branch ** i
        values = np.zeros((paths, d, n, n), dtype=complex)
        global_mean = sample_avgs[:, i - 1].mean(axis=0)
        cells = {}
        for bins, avgs in zip(sample_bins, sample_avgs):
            cells.setdefault(bins[:i], []).append(avgs[i - 1])
        for b in range(paths):
            prefix = _prefix_from_index(b, i, N)
            bucket = cells.get(prefix)
            if bucket:
                values[b] = np.mean(bucket, axis=0)
            else:
                values[b] = global_mean
                fallbacks.append((i, prefix))
        steps.append(PolicyStep(kind="const", values=hermitize(values)))

    R = max(max(_fro_norm(v) for v in st.values.reshape(-1, n, n))
            for st in steps) + 1.0
    return DiscretePolicy(K=K, N=N, R=R, gate_level=math.inf, d=d, n=n,
                          steps=steps, collapse_bins=False,
                          include_current_increment=True,
                          fallback_cells=fallbacks)


def _prefix_from_index(b, i, N):
    branch = 2 * N + 2
    digits = []
    for _ in range(i):
        digits.append(b % branch)
        b //= branch
    return tuple(dig - N - 1 for dig in reversed(digits))


def truncation_inequality_check(cost: CostSpec, times, y_states, controls, R):
    """Check the operator-norm truncation penalty bound along one path.

    With phi_R the clip, verifies

        int L(Y_t + int phi_R(alpha), phi_R(alpha_t)) dt
          <= int L(Y_t + int alpha, alpha_t) dt
             + (1 + T) kappa / R * int ||alpha_t||^2 dt

    by left Riemann sums on the given grid, each added left to right.
    ``y_states`` are (steps + 1, d, n, n), one per grid time, and
    ``controls`` (steps, d, n, n), one per interval; one ``_clip_batch``
    call clips them all.  Returns a Python bool.
    """
    steps = len(controls)
    if len(times) != steps + 1:
        raise ValueError("need len(times) == len(controls) + 1")
    h = np.diff(np.asarray(times, dtype=float))
    alpha = np.stack([_clip_batch(controls, R)[0], controls])  # lhs, rhs
    integral = np.zeros_like(alpha)  # sum_{j<i} alpha_j h_j at each step i
    np.cumsum(alpha[:, :-1] * h[:-1, None, None, None], axis=1,
              out=integral[:, 1:])
    lagrangian = cost.lagrangian(y_states[:steps] + integral, alpha)
    lhs, rhs = (sum(side) for side in
                (np.broadcast_to(lagrangian, (2, steps)) * h).tolist())
    n = controls.shape[-1]
    energy = np.einsum("skij,skji->s", controls, controls).real / n
    horizon = float(times[-1]) - float(times[0])
    penalty = (1.0 + horizon) * cost.lip_const / R * sum((energy * h).tolist())
    return lhs <= rhs + penalty + 1e-9


# ---------------------------------------------------------------------------
# exponential functionals (variational formula and rate-function candidate)
# ---------------------------------------------------------------------------


def boue_dupuis_lhs(psi, n, mc_samples, rng):
    """-(1/n^2) log E exp(-n^2 psi(W_hat_1)) by max-shifted log-sum-exp.

    Sample s is drawn from ``rng.child("bdlhs", s)``, all of them in one
    ``sample_gue`` call giving one (mc_samples, psi.d, n, n) batch, and psi
    is evaluated on it once.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    draws = randmat.sample_gue(n, (rng, "bdlhs", range(mc_samples)), (psi.d,))
    exponents = -float(n * n) * np.real(psi.eval(draws))
    m = float(np.max(exponents))
    if not math.isfinite(m):
        raise NumericalError("all exponents underflowed")
    log_mean = m + math.log(float(np.mean(np.exp(exponents - m))))
    return -(log_mean) / float(n * n)


def boue_dupuis_rhs(psi, n, time_steps, opt_config, rng):
    """Variational side: minimize E[ (1/2) int ||alpha||^2 + psi(W_1 + int alpha) ].

    Discretized on a uniform grid with strictly adapted polynomial policies
    (the control over (t_{i-1}, t_i] reads increments of steps < i only),
    which keeps the discrete value an upper bound of the continuous one;
    the controls are clipped at R = 16.
    """
    d = psi.d
    cost = CostSpec(l0=None, quad_coef=0.5, terminal=psi,
                    convexity_declared=True)
    problem = ControlProblem(n=n, d=d, x0=np.zeros((d, n, n)),
                             beta_c=0.0, beta_f=1.0, t0=0.0, T=1.0, cost=cost)
    return optimize_discrete_value(problem, time_steps, 1, 16.0, opt_config,
                                   rng, include_current_increment=False)


def cylindrical_on_law(u: CylindricalFunction, law):
    """Evaluate a cylindrical expression on a law's stored moments."""
    traces = []
    for phi in u.inners:
        val = 0.0 + 0.0j
        for word, coeff in phi.terms.items():
            val += coeff * law.moment(word)
        if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
            raise ValueError("law gives a non-real trace for a self-adjoint inner")
        traces.append(val.real)
    return float(u.outer(np.array(traces)))


def rate_function_candidate(target_law, test_family, n, opt_config, rng,
                            time_steps):
    """Lower bound of the rate-function supremum over the given test family.

    For each phi, adds phi(target) to the variational value of the terminal
    -phi(arctan(.)); the reported number is explicitly the maximum over the
    family only.
    """
    if not test_family:
        raise ValueError("test family must be non-empty")
    best = -math.inf
    for k, phi in enumerate(test_family):
        target_val = cylindrical_on_law(phi, target_law)
        terminal = ArctanComposedTerminal(phi, sign=-1.0)
        bd = boue_dupuis_rhs(terminal, n, time_steps, opt_config,
                             rng.child("rate", k))
        best = max(best, target_val + bd.value)
    return best
