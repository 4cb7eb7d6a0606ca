import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import hermitian_batch, random_hermitian
from nclab import control as ctl
from nclab import randmat as rm
from nclab.gaussdisc import (TimeGrid, bin_boundaries, bin_indices, bin_of,
                             noise_table)
from nclab.harness import lq_problem, quartic_problem
from nclab.laplacian import CylindricalFunction, MultiPoly, trace_power
from nclab.matrixcore import (NumericalError, apply_scalar_function, hermitize,
                              operator_norm_bound, scalar_function_derivative)
from nclab.ncpoly import NCPolynomial
from nclab.randmat import gue_increments

LQ_CONTINUOUS = 0.625 * math.log(3.0)
BD_ORACLE = 0.5 * math.log(2.0)


def identity(d, n):
    """x0 = (I, ..., I), d copies of the n x n identity."""
    return np.broadcast_to(np.eye(n), (d, n, n))


def small_cfg(**kw):
    base = dict(train_samples=24, val_samples=96, max_iters=150)
    base.update(kw)
    return ctl.OptimizerConfig(**base)


def quadratic_psi(coef=0.5):
    outer = MultiPoly(1, {(1,): coef})
    return CylindricalFunction(outer=outer,
                               inners=[NCPolynomial(1, {(1, 1): 1.0})])


def zero_policy(problem, K, N, R, degree=1):
    """The optimizer's all-zero table: polynomial nodes of ``degree`` that
    read their own step's increment."""
    return ctl.zero_policy(problem, K, N, R, degree, True)


def sample_letters(problem, K, sample_indices, rng, tag):
    """``_sample_letters`` into a fresh (S, d(1+K), n, n) array."""
    out = np.empty((len(sample_indices), problem.d * (1 + K), problem.n,
                    problem.n), dtype=complex)
    return ctl._sample_letters(problem, K, sample_indices, rng, tag, out)


def gate_indicator(letters, d, level):
    """``_gate_indicator`` on the Frobenius norms of the letters'
    increments."""
    return ctl._gate_indicator(letters, d, level,
                               np.linalg.norm(letters[:, d:], axis=(-2, -1)))


def forward(problem, policy, tree, batch, keep_states=False):
    """``_forward`` with the set's own clip screen."""
    return ctl._forward(problem, policy, tree, batch, keep_states,
                        ctl._clip_screen(policy, batch))


def sliced_forwards(problem, policy, tree, batch, size):
    """(slice, ``_forward`` of it) for the set in slices of ``size``
    samples, each swept with its share of the set's clip screen."""
    screen = ctl._clip_screen(policy, batch)
    return [(part, ctl._forward(problem, policy, tree, part, False, share))
            for part, share in ctl._slices(policy, batch, screen, size)]


# -- every level's states of one sample ------------------------------------------------


def one_sample_states(problem, policy, rng):
    """Each level's (B_i, d, n, n) states of a one-sample set, from a sweep
    that keeps every level's states."""
    tree = ctl._bin_tree(policy.K, policy.N, (problem.T - problem.t0) / policy.K,
                         policy.collapse_bins)
    batch = ctl._prepare_batch(problem, policy, rng, "path", [0])
    states, _, _ = forward(problem, policy, tree, batch, keep_states=True)
    return [x[0] for x in states]


def test_simulate_zero_policy_tracks_common_noise(stream):
    problem = lq_problem(4, beta_c=1.0, beta_f=0.0)
    policy = zero_policy(problem, K=2, N=1, R=4.0)
    states = one_sample_states(problem, policy, stream.child("gue"))
    table = noise_table(1, problem.grid(2).delta)
    for j1 in table.indices:
        for j2 in table.indices:
            got = states[1][policy.prefix_index((j1, j2)), 0]
            want = (table.omega(j1) + table.omega(j2)) * np.eye(4)
            assert np.allclose(got, want, atol=1e-12)


def test_simulate_constant_node_shift(stream):
    """A node that reads only the empty word and x0, alpha = c_0 1 + c_1 x0
    on unit feature scales, shifts the state by delta alpha."""
    n, d = 3, 1
    a = random_hermitian(n, stream.child("a").generator(), scale=0.5)
    problem = lq_problem(n, beta_c=0.0, beta_f=0.0, x0=a[None])
    policy = zero_policy(problem, K=1, N=1, R=8.0)
    policy.steps[0][0, 0, :2] = (0.7, -0.4)
    states = one_sample_states(problem, policy, stream.child("gue2"))
    assert np.allclose(states[0][policy.prefix_index((0,)), 0],
                       a + 0.7 * np.eye(n) - 0.4 * a, atol=1e-12)


def test_simulate_states_bin_independent_without_common_noise(stream):
    problem = lq_problem(4, beta_c=0.0, beta_f=1.0)
    # zero poly steps on the non-collapsed tree of N = 1 with beta_c = 0
    policy = zero_policy(replace(problem, beta_c=1.0), K=2, N=1, R=4.0)
    assert not policy.collapse_bins
    assert [t.shape[0] for t in policy.steps] == [4, 16]
    states = one_sample_states(problem, policy, stream.child("gue3"))
    ref = states[1][policy.prefix_index((0, 0))]
    for j1 in (-2, -1, 0, 1):
        assert np.allclose(states[1][policy.prefix_index((j1, 1))], ref,
                           atol=1e-12)


# -- the bin-tree engine ------------------------------------------------------------


def random_poly_policy(problem, K, N, R, gen, gate_level=1.0):
    """Degree-1 polynomial policy with Gaussian coefficients; the low gate
    level rejects some samples."""
    policy = replace(zero_policy(problem, K=K, N=N, R=R),
                     gate_level=gate_level)
    for table in policy.steps:
        table[...] = gen.normal(size=table.shape)
    return policy


def control_slots(part, sweep):
    """The number of (sample, node, letter) control slots of a sweep."""
    return sum(len(part.gram) * c.coeffs[..., 0].size for c in sweep.controls)


def batch_inputs(problem, policy, rng, tag, sample_indices):
    """The engine's batch of the samples and, drawn again from the same
    stream, the letters, gate and global word features it is built from,
    with each step's columns among those features found by word: step i
    reads the words through its own increment, or through step i - 1's
    when strictly adapted."""
    batch = ctl._prepare_batch(problem, policy, rng, tag, sample_indices)
    letters = sample_letters(problem, policy.K, sample_indices, rng, tag)
    gate = gate_indicator(letters, problem.d, policy.gate_level)
    words = ctl._global_words(problem, policy)
    features = ctl._word_features(letters, words)
    word_index = [[words.index(w) for w in ctl._words_through(
        problem.d, policy.last_readable_step(i), policy.degree)]
        for i in range(1, policy.K + 1)]
    return batch, (letters, gate, features, word_index)


def test_forward_matches_naive_tree(stream):
    gen = stream.child("naive").generator()
    n, d, K, N = 3, 2, 3, 1
    problem = lq_problem(n, d=d, beta_c=0.7, beta_f=0.9,
                         x0=hermitian_batch(gen, (d,), n, 0.3))
    policy = random_poly_policy(problem, K, N, 1e6, gen)
    batch, (letters, gate, features, word_index) = batch_inputs(
        problem, policy, stream.child("naive-batch"), "t", list(range(5)))
    assert 0 < gate.sum() < len(gate)
    delta = (problem.T - problem.t0) / K
    tree = ctl._bin_tree(K, N, delta, policy.collapse_bins)
    states, _, sweep = forward(problem, policy, tree, batch,
                               keep_states=True)
    alphas = [c.alpha for c in sweep.controls]
    # X_{i,J} = x0 + delta sum_{i'<=i} alpha_{i',J_{:i'}} + beta_C W0_{i,J} 1
    #           + beta_F (increments up to step i); no clip at this R
    want_alphas = [np.einsum("blw,swij->sblij", st,
                             features[:, idx] * gate[:, None, None, None])
                   for st, idx in zip(policy.steps, word_index)]
    for alpha, want in zip(alphas, want_alphas):
        assert np.max(np.abs(alpha - want)) <= 1e-13
    branch = 2 * N + 2
    for i in range(1, K + 1):
        gue = letters[:, d:d * (i + 1)].reshape(-1, i, d, n, n).sum(axis=1)
        for b in range(branch ** i):
            want = (problem.x0[None] + problem.beta_f * gue
                    + problem.beta_c * tree.noise[i - 1][b] * np.eye(n))
            for ip in range(1, i + 1):
                want = want + delta * want_alphas[ip - 1][:, b // branch ** (i - ip)]
            assert np.max(np.abs(states[i - 1][:, b] - want)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("beta_c", [0.5, 0.0])
@pytest.mark.parametrize("clip", ["binding", "none"])
def test_evaluate_gradient_matches_finite_differences(stream, d, beta_c, clip,
                                                      monkeypatch):
    """Exact gradients against central differences of the cost, at d = 1
    and at d = 2, where mixing up the letters of the flat (B d, W)
    coefficients would show: with the clip binding at R = 2 (the state
    path, in slices), and with no clip at R = 1e6, where the whole set is
    swept in coefficient space and the terminal's adjoint and
    ``energy_grad`` give the whole gradient."""
    gen = stream.child("fd", beta_c).generator()
    n, K, N = 3, 3, 1
    R = 2.0 if clip == "binding" else 1e6
    problem = lq_problem(n, d=d, beta_c=beta_c,
                         x0=hermitian_batch(gen, (d,), n, 0.3))
    policy = random_poly_policy(problem, K, N, R, gen)
    assert policy.collapse_bins == (beta_c == 0.0)
    batch = ctl._prepare_batch(problem, policy, stream.child("fd-batch"),
                               "t", range(6))
    tree = ctl._bin_tree(K, N, 1.0 / K, policy.collapse_bins)
    slots = clipped = 0
    for part, (_, _, sweep) in sliced_forwards(problem, policy, tree, batch, 4):
        slots += control_slots(part, sweep)
        clipped += sum(len(c.clip) for c in sweep.controls)
        # the sweep never materialises these controls
        assert all(c.alpha is None for c in sweep.controls)
    letters = sample_letters(problem, K, range(6), stream.child("fd-batch"),
                             "t")
    rejected = int(np.sum(gate_indicator(letters, d, policy.gate_level)
                          == 0))
    assert rejected > 0
    assert ctl._sweeps_without_states(problem, policy, ctl._clip_screen(
        policy, batch)) == (clip == "none")
    assert (0 < clipped < slots) if clip == "binding" else clipped == 0

    # the gradient pass corrects exactly the clipped slots, in one batched
    # pullback per step and slice of 4 samples
    pulled = []
    pullback = ctl._pullback_clip

    def counting_pullback(grad, records):
        pulled.append(len(records))
        return pullback(grad, records)

    monkeypatch.setattr(ctl, "CHUNK", 4)
    with monkeypatch.context() as patch:
        patch.setattr(ctl, "_pullback_clip", counting_pullback)
        _, _, grads = ctl._evaluate_prepared(problem, policy, batch,
                                             want_grads=True)
    assert sum(pulled) == clipped and len(pulled) <= K * 2
    eps = 1e-6
    for _ in range(3):
        dirs = [gen.normal(size=st.shape) for st in policy.steps]

        def shifted(sign):
            moved = ctl._policy_step(policy, dirs, -sign * eps)
            return ctl._evaluate_prepared(problem, moved, batch)[0]

        fd = (shifted(1.0) - shifted(-1.0)) / (2.0 * eps)
        analytic = sum(float(np.sum(g * v)) for g, v in zip(grads, dirs))
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-9)


def materialised_reference(problem, policy, inputs):
    """Per-sample costs and mean parameter gradients of one chunk, given by
    its letters, gate, features and word index, with every control
    materialised and clipped matrix by matrix, the adjoint run on
    (S, B, d, n, n) arrays.  A step may also be a (B, d, n, n) table of
    node values, the same for every sample (``coarsen_control``'s); it
    reads no feature, and its gradient is left None."""
    letters, gate, features, word_index = inputs
    n, d, K, R = problem.n, problem.d, policy.K, policy.R
    S = len(letters)
    delta = (problem.T - problem.t0) / K
    branch = policy.branching()
    tree = ctl._bin_tree(K, policy.N, delta, policy.collapse_bins)
    cost = problem.cost
    clip = ("clip", R)
    dclip = lambda t: (np.abs(t) < R).astype(float)

    def over_r(a):
        return np.max(np.abs(np.linalg.eigvalsh(a))) > R

    x = np.broadcast_to(problem.x0, (S, 1, d, n, n))
    prev_noise = np.zeros(1)
    states, raws, alphas, feats = [], [], [], []
    total = np.zeros(S)
    for i, st in enumerate(policy.steps, start=1):
        if st.ndim == 4:                                 # node values
            f = None
            raw = np.broadcast_to(st, (S,) + st.shape)
        else:
            f = features[:, word_index[i - 1]] * gate[:, None, None, None]
            raw = np.einsum("bkw,swij->sbkij", st, f)
        alpha = raw.copy()
        for slot in np.ndindex(raw.shape[:3]):
            if over_r(raw[slot]):
                alpha[slot] = apply_scalar_function(raw[slot], clip)
        dw0 = tree.noise[i - 1] - np.repeat(prev_noise, branch)
        prev_noise = tree.noise[i - 1]
        x = (np.repeat(x, branch, axis=1) + delta * alpha
             + problem.beta_c * dw0[None, :, None, None, None] * np.eye(n)
             + problem.beta_f * letters[:, None, d * i:d * (i + 1)])
        total += delta * (cost.lagrangian(x, alpha) @ tree.probs[i - 1])
        states.append(x)
        raws.append(raw)
        alphas.append(alpha)
        feats.append(f)
    total += cost.terminal.eval(x) @ tree.probs[-1]

    grads = [None] * K
    lam = tree.probs[-1][None, :, None, None, None] * cost.terminal.gradient(x)
    for i in range(K, 0, -1):
        p = tree.probs[i - 1][None, :, None, None, None]
        if i < K:
            lam = lam.reshape(S, -1, branch, d, n, n).sum(axis=2)
        galpha = 2.0 * cost.quad_coef * p * alphas[i - 1]
        if cost.l0 is not None:
            gj = cost.l0.gradient(np.concatenate([states[i - 1], alphas[i - 1]],
                                                 axis=-3))
            lam = lam + delta * p * gj[..., :d, :, :]
            galpha = galpha + p * gj[..., d:, :, :]
        if feats[i - 1] is None:
            continue
        galpha = delta * (galpha + lam)
        raw = raws[i - 1]
        for slot in np.ndindex(raw.shape[:3]):
            if over_r(raw[slot]):
                pull = scalar_function_derivative(raw[slot], clip, dclip)
                galpha[slot] = pull(galpha[slot])
        grads[i - 1] = np.einsum("sbkij,swji->bkw", galpha,
                                 feats[i - 1]).real / n / S
    return total, grads


def mixed_l0(d):
    """l0 = 0.3 tr_n(x_1 a_1 + a_1 x_1)/2 + 0.1 (tr_n a_1^2)^2 on the joint
    2d-tuple, a_1 = letter d + 1."""
    a = d + 1
    inners = [NCPolynomial(2 * d, {(1, a): 0.5, (a, 1): 0.5}),
              NCPolynomial(2 * d, {(a, a): 1.0})]
    return CylindricalFunction(outer=MultiPoly(2, {(1, 0): 0.3, (0, 2): 0.1}),
                               inners=inners)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("beta_c", [0.0, 0.7])
@pytest.mark.parametrize("with_l0", [False, True])
def test_sweep_matches_materialised_reference(stream, monkeypatch, d, beta_c,
                                              with_l0):
    gen = stream.child("sweep", d, int(10 * beta_c), with_l0).generator()
    n, K, N = 3, 3, 1
    problem = lq_problem(n, d=d, beta_c=beta_c, beta_f=0.9,
                         x0=hermitian_batch(gen, (d,), n, 0.3))
    if with_l0:
        problem.cost.l0 = mixed_l0(d)
    policy = random_poly_policy(problem, K, N, 1.5, gen, gate_level=0.9)
    batch, inputs = batch_inputs(problem, policy, stream.child("sweep-batch"),
                                 "t", list(range(6)))
    gate = inputs[1]
    assert 0 < gate.sum() < len(gate)
    tree = ctl._bin_tree(K, N, 1.0 / K, policy.collapse_bins)
    _, _, sweep = forward(problem, policy, tree, batch)
    clipped = sum(len(c.clip) for c in sweep.controls)
    assert 0 < clipped < control_slots(batch, sweep)

    monkeypatch.setattr(ctl, "CHUNK", 6)
    value, _, grads = ctl._evaluate_prepared(problem, policy, batch,
                                             want_grads=True)
    plain, _, _ = ctl._evaluate_prepared(problem, policy, batch)
    want_costs, want_grads = materialised_reference(problem, policy, inputs)
    want_value = float(want_costs.mean())
    assert value == plain
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    scale = max(np.max(np.abs(g)) for g in want_grads)
    for got, want in zip(grads, want_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


class StatePathTerminal:
    """A cost expression that hides its trace_quadratic form, so the engine
    evaluates it on the leaf states."""

    def __init__(self, expr):
        self.expr = expr
        self.d = expr.d

    def eval(self, data):
        return self.expr.eval(data)

    def value_and_grad(self, data):
        return self.expr.value_and_grad(data)

    def trace_quadratic(self):
        return None


def mixed_quadratic(d, outer_terms):
    """Inners 0.5 tr(X_1 X_d + X_d X_1) + 0.2 tr X_1 - 0.1 and
    tr X_d^2 + 0.5 tr X_1^2 (a cross term for d = 2) under the given outer."""
    inners = [NCPolynomial(d, {(1, d): 0.5, (d, 1): 0.5, (1,): 0.2, (): -0.1}),
              NCPolynomial(d, {(d, d): 1.0, (1, 1): 0.5})]
    return CylindricalFunction(outer=MultiPoly(2, outer_terms), inners=inners)


QUADRATIC_TERMINALS = {
    "trace_power": lambda d: trace_power(d, 2, coef=1.3),
    "linear_outer": lambda d: mixed_quadratic(
        d, {(0, 0): 0.25, (1, 0): 0.7, (0, 1): -0.4}),
    "nonlinear_outer": lambda d: mixed_quadratic(
        d, {(1, 0): 0.3, (0, 1): -0.2, (1, 1): 0.1, (2, 0): 0.4}),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("beta_c", [0.0, 0.7])
@pytest.mark.parametrize("terminal", sorted(QUADRATIC_TERMINALS))
def test_coefficient_terminal_matches_state_path(stream, monkeypatch, d, beta_c,
                                                 terminal):
    gen = stream.child("coef-terminal", d, int(10 * beta_c), terminal).generator()
    n, K, N = 3, 3, 1
    problem = lq_problem(n, d=d, beta_c=beta_c, beta_f=0.9,
                         x0=hermitian_batch(gen, (d,), n, 0.3))
    problem.cost.terminal = QUADRATIC_TERMINALS[terminal](d)
    # a nonlinear outer has no affine form: both problems make states
    coefficient = terminal != "nonlinear_outer"
    assert (problem.cost.terminal.trace_quadratic() is not None) == coefficient
    states_problem = replace(problem, cost=replace(
        problem.cost, terminal=StatePathTerminal(problem.cost.terminal)))
    policy = random_poly_policy(problem, K, N, 1e6, gen, gate_level=0.9)
    batch = ctl._prepare_batch(problem, policy, stream.child("coef-batch"),
                               "t", range(7))
    letters = sample_letters(problem, K, range(7),
                             stream.child("coef-batch"), "t")
    assert 0 < gate_indicator(letters, d, policy.gate_level).sum() < 7
    tree = ctl._bin_tree(K, N, 1.0 / K, policy.collapse_bins)
    costs = {}
    for prob in (problem, states_problem):
        on_coefficients = coefficient and prob is problem
        costs[prob is problem] = []
        for part, (states, lagrangians, sweep) in sliced_forwards(
                prob, policy, tree, batch, 4):
            assert (states == []) == on_coefficients
            assert (sweep.form is not None) == on_coefficients
            costs[prob is problem].append(ctl._chunk_cost(
                prob, policy, tree, part, states, sweep, lagrangians, False)[0])
    for got, want in zip(costs[True], costs[False]):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    monkeypatch.setattr(ctl, "CHUNK", 4)
    mean, stderr, grads = ctl._evaluate_prepared(problem, policy, batch, True)
    plain = ctl._evaluate_prepared(problem, policy, batch)
    want = ctl._evaluate_prepared(states_problem, policy, batch, True)
    assert plain[:2] == (mean, stderr)
    assert mean == pytest.approx(want[0], rel=1e-12)
    assert stderr == pytest.approx(want[1], rel=1e-12)
    scale = max(np.max(np.abs(g)) for g in want[2])
    for got, g in zip(grads, want[2]):
        assert np.max(np.abs(got - g)) <= 1e-12 * scale


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("beta_c", [0.0, 0.7])
def test_whole_set_sweep_matches_chunked_sweeps(stream, monkeypatch, d, beta_c):
    """On the coefficient path one sweep covers the set; it agrees with the
    set swept slice by slice, the costs concatenated and gradients summed."""
    gen = stream.child("whole-set", d, int(10 * beta_c)).generator()
    n, K, N, S = 3, 3, 1, 7
    problem = lq_problem(n, d=d, beta_c=beta_c, beta_f=0.9,
                         x0=hermitian_batch(gen, (d,), n, 0.3))
    policy = random_poly_policy(problem, K, N, 1e6, gen, gate_level=0.9)
    batch = ctl._prepare_batch(problem, policy, stream.child("whole-batch"),
                               "t", range(S))
    assert ctl._sweeps_without_states(problem, policy,
                                      ctl._clip_screen(policy, batch))
    monkeypatch.setattr(ctl, "CHUNK", 2)
    mean, stderr, grads = ctl._evaluate_prepared(problem, policy, batch,
                                                 want_grads=True)
    tree = ctl._bin_tree(K, N, 1.0 / K, policy.collapse_bins)
    costs, sums = [], None
    for part, (states, lagrangians, sweep) in sliced_forwards(
            problem, policy, tree, batch, 3):
        cost, gterm = ctl._chunk_cost(problem, policy, tree, part, states,
                                      sweep, lagrangians, want_grad=True)
        g = ctl._chunk_gradients(problem, policy, tree, part, states, sweep,
                                 gterm)
        costs.append(cost)
        sums = g if sums is None else [a + b for a, b in zip(sums, g)]
    costs = np.concatenate(costs)
    assert mean == pytest.approx(costs.mean(), rel=1e-12)
    assert stderr == pytest.approx(costs.std(ddof=1) / math.sqrt(S), rel=1e-12)
    scale = max(np.max(np.abs(g)) for g in sums) / S
    for got, want in zip(grads, sums):
        assert np.max(np.abs(got - want / S)) <= 1e-12 * scale


@pytest.mark.parametrize("make, coefficient_path", [(lq_problem, True),
                                                    (quartic_problem, False)])
def test_policy_coefficients_are_the_same_policy_at_every_n(
        stream, make, coefficient_path):
    """A poly policy is its coefficient tables: built at n = 4 or at n = 8
    and given the same coefficients, it has the same value and gradients on
    the n = 8 problem, on the coefficient path (LQ) and on the state path
    (quartic)."""
    gen = stream.child("n-free", coefficient_path).generator()
    problem = make(8)
    small, large = (ctl.zero_policy(make(n), 3, 1, 8.0, 1, True)
                    for n in (4, 8))
    for a, b in zip(small.steps, large.steps):
        a[...] = b[...] = 0.3 * gen.normal(size=a.shape)
    results = []
    for policy in (small, large):
        batch = ctl._prepare_batch(problem, policy, stream.child("n-free-set"),
                                   "t", range(20))
        assert ctl._sweeps_without_states(problem, policy, ctl._clip_screen(
            policy, batch)) == coefficient_path
        results.append(ctl._evaluate_prepared(problem, policy, batch,
                                              want_grads=True))
    (value, stderr, grads), want = results
    assert (value, stderr) == want[:2]
    assert all(np.array_equal(g, w) for g, w in zip(grads, want[2]))
    assert any(np.any(g != 0.0) for g in grads)


def test_lq_solve_sweeps_once_per_evaluation(stream, monkeypatch):
    calls = {"evaluate": 0, "forward": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ctl, "_evaluate_prepared",
                        counted("evaluate", ctl._evaluate_prepared))
    monkeypatch.setattr(ctl, "_forward", counted("forward", ctl._forward))
    # both sets are larger than a state-path slice of ``CHUNK`` samples
    cfg = small_cfg(train_samples=20, val_samples=18, max_iters=4)
    ctl.optimize_discrete_value(lq_problem(4, beta_c=0.5), 2, 1, 8.0, cfg,
                                stream.child("once"))
    assert calls["evaluate"] == 4 + 1 + 2 and calls["forward"] == calls["evaluate"]


@settings(max_examples=80, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), samples=hst.integers(1, 4),
       width=hst.integers(1, 5), n=hst.integers(1, 6),
       R=hst.sampled_from([0.5, 2.0]), target=hst.floats(0.9, 1.1))
def test_clip_screen_never_clears_a_slot_above_R(seed, samples, width, n, R,
                                                 target):
    """Coefficients scaled so the largest control sits near R in operator
    norm; some features are gated to zero and some are the identity, where
    the triangle bound meets the norm."""
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(samples, width, n, n)) \
        + 1j * gen.normal(size=(samples, width, n, n))
    feats = z + np.swapaxes(z, -1, -2).conj()
    feats[:, gen.random(width) < 0.3] = np.eye(n)
    feats[gen.random((samples, width)) < 0.2] = 0.0     # gated-off features
    coeffs = gen.normal(size=(6, width))

    def norms(c):                       # exact operator norms, flat (S, 6)
        alpha = np.einsum("jw,swab->sjab", c, feats)
        return np.max(np.abs(np.linalg.eigvalsh(alpha)), axis=-1).ravel()

    top = norms(coeffs).max()
    if top == 0.0:
        return
    coeffs *= target * R / top
    cleared = np.ones(samples * 6, dtype=bool)
    cleared[ctl._clip_suspects(screen_batch(feats), coeffs, R)] = False
    assert not np.any(cleared & (norms(coeffs) > R))


def screen_batch(feats):
    """A stand-in ``_Batch`` of the features (S, W, n, n) with what
    ``_clip_suspects`` reads: the Frobenius stage's ``top`` and the tight
    radius."""
    radius = np.sqrt(operator_norm_bound(feats @ feats))
    return ctl._Batch(rows=feats, index=None, factor=None, gram=None,
                      traces=None, width=feats.shape[1],
                      top=np.linalg.norm(feats, axis=(-2, -1)).max(axis=0),
                      radius=lambda: (radius, radius.max(axis=0)))


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(1, 5),
       d=hst.integers(1, 2), degree=hst.integers(1, 2),
       gate_level=hst.sampled_from([1.0, 3.0]), scaled=hst.booleans())
def test_prepared_radius_bounds_every_feature_norm(seed, n, d, degree,
                                                   gate_level, scaled):
    """Both stages of the clip screen bound every gated and scaled
    feature's operator norm, within the screens' margin: the Frobenius
    ``top`` its maximum over the set, and the tight radius rho_{s,w} >=
    ||f_{s,w}||_op each one, with x0's computed once per set."""
    gen = np.random.default_rng(seed)
    problem = lq_problem(n, d=d, x0=hermitian_batch(gen, (d,), n, 0.3))
    policy = replace(zero_policy(problem, K=2, N=1, R=8.0, degree=degree),
                     gate_level=gate_level)
    W = len(ctl._global_words(problem, policy))
    if scaled:
        policy.feature_scales = gen.uniform(0.3, 3.0, size=W)
    batch = ctl._prepare_batch(problem, policy, rm.RngStream(seed), "t",
                               range(4))
    feats = (ctl._lift(batch, slice(None)) @ batch.rows)[:, :W].view(
        complex).reshape(4, W, n, n)
    norms = np.max(np.abs(np.linalg.eigvalsh(feats)), axis=-1)
    radius, top = batch.radius()
    assert batch.width == W and radius.shape == norms.shape
    assert np.all(radius * (1.0 + ctl._NORM_MARGIN) >= norms)
    assert np.array_equal(top, radius.max(axis=0))
    assert np.all(batch.top * (1.0 + ctl._NORM_MARGIN) >= top)


def test_identity_radius_is_its_inverse_scale_and_gated_samples_zero(stream):
    n, d, K, S = 3, 2, 3, 8
    problem = lq_problem(n, d=d)
    policy = replace(zero_policy(problem, K=K, N=1, R=8.0), gate_level=1.0)
    words = ctl._global_words(problem, policy)
    policy.feature_scales = np.linspace(0.5, 2.0, len(words))
    batch = ctl._prepare_batch(problem, policy, stream.child("radius"), "t",
                               range(S))
    letters = sample_letters(problem, K, range(S), stream.child("radius"),
                             "t")
    gate = gate_indicator(letters, d, policy.gate_level)
    assert words[0] == () and 0 < gate.sum() < S
    kept = gate == 1.0
    radius, _ = batch.radius()
    assert np.all(radius[kept, 0] == 1.0 / policy.feature_scales[0])
    assert np.all(radius[~kept] == 0.0)
    assert batch.top[0] == 1.0 / policy.feature_scales[0]


@pytest.mark.parametrize("degree", [1, 2])
def test_distinct_rows_match_the_concatenated_basis(stream, degree):
    """The batch read off the distinct rows agrees with the basis built as
    [gated, scaled features; 1; x0; increments] and its float-view Gram, to
    1e-13 relative, and a rejected sample's feature entries are exactly 0."""
    gen = stream.child("rows", degree).generator()
    n, d, K, S = 3, 2, 2, 7
    problem = lq_problem(n, d=d, x0=hermitian_batch(gen, (d,), n, 0.3))
    policy = replace(zero_policy(problem, K=K, N=1, R=8.0, degree=degree),
                     gate_level=1.0)
    words = ctl._global_words(problem, policy)
    W = len(words)
    policy.feature_scales = gen.uniform(0.3, 3.0, size=W)
    batch = ctl._prepare_batch(problem, policy, stream.child("rows-batch"),
                               "t", range(S))
    letters = sample_letters(problem, K, range(S),
                             stream.child("rows-batch"), "t")
    gate = gate_indicator(letters, d, policy.gate_level)
    kept = gate == 1.0
    assert 0 < kept.sum() < S
    feats = ctl._word_features(letters, words) / policy.feature_scales[
        :, None, None] * gate[:, None, None, None]
    eye = np.broadcast_to(np.eye(n, dtype=complex), (S, 1, n, n))
    basis = np.concatenate([feats, eye, letters], axis=1).reshape(
        S, W + 1 + len(letters[0]), -1).view(float)
    gram = basis @ np.swapaxes(basis, 1, 2)
    norms = np.sqrt(np.einsum("svv->sv", gram))          # ||b_v||_F
    radius = np.sqrt(operator_norm_bound(feats @ feats))
    radius[:, 0] = gate / policy.feature_scales[0]       # exact for 1
    top = norms[:, :W].copy()
    top[:, 0] = radius[:, 0]
    top = top.max(axis=0)
    lifted = ctl._lift(batch, slice(None)) @ batch.rows
    assert batch.width == W and lifted.shape == basis.shape
    assert np.all(np.abs(batch.gram - gram)
                  <= 1e-13 * norms[:, :, None] * norms[:, None, :])
    assert np.all(np.abs(batch.traces - basis[..., ::2 * (n + 1)].sum(-1))
                  <= 1e-13 * math.sqrt(n) * norms)
    assert np.all(np.abs(batch.radius()[0] - radius) <= 1e-13 * radius)
    assert np.all(np.abs(batch.top - top) <= 1e-13 * top)
    assert np.all(np.linalg.norm(lifted - basis, axis=-1) <= 1e-13 * norms)
    for got in (lifted[~kept, :W], batch.gram[~kept, :W],
                batch.gram[~kept, :, :W], batch.traces[~kept, :W],
                batch.radius()[0][~kept]):
        assert np.all(got == 0.0)


def criterion_6_solve(max_iters):
    """Criterion 6's LQ solve at n = 8 (K = 4, N = 2, R = 8), at its sample
    sizes and stream, stopped after ``max_iters`` iterations."""
    from nclab import acceptance, harness

    train, val = harness.scaled_samples(8, 48, 192)
    cfg = ctl.OptimizerConfig(train_samples=train, val_samples=val,
                              max_iters=max_iters)
    return ctl.optimize_discrete_value(harness.lq_problem(8), 4, 2, 8.0, cfg,
                                       acceptance._stream(6).child(8))


def test_clip_screen_runs_once_per_step_and_evaluation(monkeypatch):
    """Criterion 6's n = 8 solve at 20 iterations evaluates 23 times (the
    start, 20 trials and two validations), each screening its K = 4 steps
    once."""
    calls = {"screen": 0, "evaluate": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ctl, "_clip_suspects",
                        counted("screen", ctl._clip_suspects))
    monkeypatch.setattr(ctl, "_evaluate_prepared",
                        counted("evaluate", ctl._evaluate_prepared))
    criterion_6_solve(20)
    assert calls == {"screen": 92, "evaluate": 23}


@pytest.mark.parametrize("n", [32, 64])
def test_lq_solve_at_large_n_never_reaches_the_clip(monkeypatch, n):
    """Criterion 6's shape at n = 32 and 64: the controls stay far below
    R = 8 in operator norm, so the triangle-bound screen clears every slot
    and no clip eigensolve runs.  The screen's Frobenius stage, which
    loosens like sqrt(n), cannot clear these sets, so the tight radius is
    built, once for each of the train and validation sets; at n = 64 the
    gate's ||L^2||_F^(1/2) in place of that radius would also send slots to
    the clip."""
    calls, clip = [], ctl._clip_batch
    built, row_radius = [], ctl._row_radius

    def counted(alpha, R):
        calls.append(alpha.shape)
        return clip(alpha, R)

    monkeypatch.setattr(ctl, "_clip_batch", counted)
    monkeypatch.setattr(ctl, "_row_radius",
                        lambda *args: built.append(1) or row_radius(*args))
    cfg = small_cfg(train_samples=12, val_samples=12, max_iters=60)
    ctl.optimize_discrete_value(lq_problem(n), 4, 2, 8.0, cfg,
                                rm.RngStream(3).child(n))
    assert calls == [] and len(built) == 2


def test_frobenius_stage_clears_criterion_6_without_squares(monkeypatch):
    """Criterion 6's n = 8 solve: the rows' Frobenius norms clear every
    increment at the gate and every step at the clip screen, so no matrix
    is squared and no tight radius is built.  The gate's and the clip's
    eigensolves lie behind ``operator_norm_bound``, so none runs either."""
    calls = []

    def never(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(ctl, "operator_norm_bound", never("bound"))
    monkeypatch.setattr(ctl, "_row_radius", never("radius"))
    criterion_6_solve(5)
    assert calls == []


def test_tight_radius_is_built_once_per_set(stream, monkeypatch):
    """With the clip binding, every evaluation falls back to the tight
    radius; the set builds it once and screens once, and each ``CHUNK``
    slice gets its own samples' share of the screen."""
    gen = stream.child("tight").generator()
    problem = lq_problem(3, beta_c=0.5, x0=hermitian_batch(gen, (1,), 3, 0.3))
    policy = random_poly_policy(problem, 2, 1, 0.5, gen)
    built, row_radius = [], ctl._row_radius
    monkeypatch.setattr(ctl, "_row_radius",
                        lambda *args: built.append(1) or row_radius(*args))
    monkeypatch.setattr(ctl, "CHUNK", 4)
    batch = ctl._prepare_batch(problem, policy, stream.child("tight-batch"),
                               "t", range(10))
    assert built == []
    for want_grads in (True, False, True):
        ctl._evaluate_prepared(problem, policy, batch, want_grads=want_grads)
    radius, _ = batch.radius()
    assert len(built) == 1 and len(radius) == 10
    screen = ctl._clip_screen(policy, batch)
    parts = list(ctl._slices(policy, batch, screen, 4))
    assert [len(part.rows) for part, _ in parts] == [4, 4, 2]
    for k, (flat, table) in enumerate(zip(screen, policy.steps)):
        width = table.shape[0] * table.shape[1]
        assert len(flat) and len(flat) < 10 * width
        joined = []
        for lo, (part, share) in zip(range(0, 10, 4), parts):
            assert np.all((share[k] >= 0) & (share[k] < len(part.rows) * width))
            joined.append(share[k] + lo * width)
        assert np.array_equal(np.concatenate(joined), flat)
    assert len(built) == 1


def test_bin_tree_is_memoized_and_read_only():
    tree = ctl._bin_tree(3, 2, 0.25, False)
    assert ctl._bin_tree(3, 2, 0.25, False) is tree
    table = noise_table(2, 0.25)
    assert np.allclose(tree.probs[1], np.kron(table.probs, table.probs),
                       rtol=0, atol=1e-15)
    assert np.allclose(tree.noise[1],
                       np.add.outer(table.omegas, table.omegas).ravel(),
                       rtol=0, atol=1e-15)
    for a in (*tree.probs, *tree.noise):
        assert not a.flags.writeable


def count_samples(monkeypatch, name):
    """Record the number of samples of the ``_Batch`` argument of every call
    of the engine function ``name``."""
    calls = []
    original = getattr(ctl, name)

    def counted(*args):
        batch, = (a for a in args if isinstance(a, ctl._Batch))
        calls.append(len(batch.rows))
        return original(*args)

    monkeypatch.setattr(ctl, name, counted)
    return calls


@pytest.mark.parametrize("trigger", ["binding_clip", "l0", "quartic"])
def test_state_path_fallbacks(stream, monkeypatch, trigger):
    gen = stream.child("fallback", trigger).generator()
    n, K, N = 3, 2, 1
    make = quartic_problem if trigger == "quartic" else lq_problem
    problem = make(n, beta_c=0.5, x0=hermitian_batch(gen, (1,), n, 0.3))
    R = 0.5 if trigger == "binding_clip" else 1e6
    policy = random_poly_policy(problem, K, N, R, gen)
    if trigger == "l0":
        problem.cost.l0 = mixed_l0(1)
    batch = ctl._prepare_batch(problem, policy, stream.child("fallback-batch"),
                               "t", range(6))
    tree = ctl._bin_tree(K, N, 1.0 / K, policy.collapse_bins)
    calls = count_samples(monkeypatch, "_level_states")
    states, _, sweep = forward(problem, policy, tree, batch)
    assert sweep.form is None and len(states) == 1 and calls
    if trigger == "binding_clip":
        assert any(len(c.clip) for c in sweep.controls)
    # an evaluation sweeps the states of at most ``CHUNK`` samples at a time
    # and screens the clip once per step, over the whole set
    del calls[:]
    screens = []
    screen = ctl._clip_suspects
    monkeypatch.setattr(ctl, "_clip_suspects",
                        lambda *args: screens.append(1) or screen(*args))
    monkeypatch.setattr(ctl, "CHUNK", 4)
    ctl._evaluate_prepared(problem, policy, batch, want_grads=True)
    assert calls and max(calls) == 4 and min(calls) == 2
    assert len(screens) == K


@pytest.mark.parametrize("make, reads_states", [(lq_problem, False),
                                                (quartic_problem, True),
                                                (criterion_6_solve, False)])
def test_optimizer_reads_states_only_off_the_quadratic_path(
        stream, monkeypatch, make, reads_states):
    """An LQ solve, criterion 6's at n = 8 among them, reads its sample sets
    through the basis Gram alone: it makes no state and builds no lift."""
    calls = count_samples(monkeypatch, "_level_states")
    lifts = count_samples(monkeypatch, "_lift")
    if make is criterion_6_solve:
        criterion_6_solve(5)
    else:
        cfg = small_cfg(train_samples=8, val_samples=8, max_iters=5)
        ctl.optimize_discrete_value(make(4, beta_c=0.5), 2, 1, 8.0, cfg,
                                    stream.child("reads", reads_states))
    assert bool(calls) == bool(lifts) == reads_states


def test_const_clip_matches_per_matrix_clip(stream):
    """``_clip_batch`` on (B, d, n, n) arrays of node values, one per step
    of a K = 2, N = 1 tree, matches the clip matrix by matrix."""
    gen = stream.child("const-clip").generator()
    n, d, R = 3, 2, 1.2
    tables = [random_batch(gen, (4 ** i, d), n) for i in (1, 2)]
    grads = [np.zeros_like(t) for t in tables]
    grads[0] = random_batch(gen, grads[0].shape[:2], n, scale=0.4)

    def per_matrix(values, prescreen):
        out = values.copy()
        for slot in np.ndindex(values.shape[:2]):
            if not prescreen or np.linalg.norm(values[slot]) > R:
                out[slot] = apply_scalar_function(values[slot], ("clip", R))
        return out

    changed = 0
    for table, g in zip(tables, grads):
        stepped, _ = ctl._clip_batch(table - 0.5 * g, R)
        clipped, _ = ctl._clip_batch(table, R)
        want1 = per_matrix(table - 0.5 * g, prescreen=True)
        want2 = per_matrix(table, prescreen=False)
        assert np.max(np.abs(stepped - want1)) <= 1e-12
        assert np.max(np.abs(clipped - want2)) <= 1e-12
        changed += int(np.sum(np.abs(want2 - table) > 1e-6))
    assert changed > 0


def test_gate_matches_per_matrix_norms(stream):
    gen = stream.child("gate").generator()
    n, d, K = 3, 2, 3
    letters = np.stack([np.stack([random_hermitian(n, gen, scale=0.5)
                                  for _ in range(d * (K + 1))])
                        for _ in range(8)])
    gate = gate_indicator(letters, d, 1.5)
    for s in range(len(letters)):
        norms = [np.max(np.abs(np.linalg.eigvalsh(m)))
                 for m in letters[s, d:]]
        assert gate[s] == (0.0 if max(norms) > 1.5 else 1.0)
    assert 0 < gate.sum() < len(gate)


def hermitian_slots(seed, n, m, kind, scale):
    """m Hermitian n x n slots of one shape of spectrum: GUE-like, rank one
    (where the norm bound is tight) or diagonal."""
    gen = np.random.default_rng(seed)
    if kind == "rank1":
        v = gen.normal(size=(m, n)) + 1j * gen.normal(size=(m, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        lam = gen.choice([-1.0, 1.0], size=m) * gen.uniform(0.5, 1.5, size=m)
        slots = lam[:, None, None] * v[:, :, None] * v[:, None, :].conj()
    elif kind == "diag":
        slots = np.zeros((m, n, n), dtype=complex)
        slots[:, np.arange(n), np.arange(n)] = gen.normal(size=(m, n))
    else:
        z = gen.normal(size=(m, n, n)) + 1j * gen.normal(size=(m, n, n))
        slots = (z + np.swapaxes(z, 1, 2).conj()) / (2.0 * np.sqrt(2.0 * n))
    return np.ascontiguousarray(scale * slots)


def gate_by_eigensolve(letters, d, K, level):
    """The gate with an eigensolve of every increment (the reference)."""
    w = np.linalg.eigvalsh(letters[:, d:d * (K + 1)])
    return np.where(np.max(np.abs(w), axis=(1, 2)) > level, 0.0, 1.0)


def clip_by_eigensolve(alpha, R):
    """The clip with ``eigh`` on every slot (the reference)."""
    n = alpha.shape[-1]
    flat = alpha.reshape((-1, n, n))
    suspects = np.arange(len(flat))
    w, q = np.linalg.eigh(flat)
    active = np.max(np.abs(w), axis=-1) > R
    if not active.any():
        return alpha, None
    suspects, w, q = suspects[active], w[active], q[active]
    clipped, mult = ctl._spectral_calculus(
        w, q, ("clip", R), lambda t: (np.abs(t) < R).astype(float))
    flat = flat.copy()
    flat[suspects] = clipped
    return flat.reshape(alpha.shape), (suspects, mult, q)


@settings(max_examples=120, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(1, 64),
       m=hst.integers(1, 4), kind=hst.sampled_from(["gue", "rank1", "diag"]),
       scale=hst.floats(0.2, 4.0),
       level=hst.sampled_from(["clip", "gate", "edge"]),
       nudge=hst.integers(-10, 10))
@example(seed=0, n=4, m=4, kind="gue", scale=0.2, level="gate", nudge=0)
@example(seed=0, n=64, m=4, kind="gue", scale=1.0, level="gate", nudge=0)
@example(seed=1, n=4, m=4, kind="gue", scale=4.0, level="gate", nudge=0)
def test_norm_screens_match_eigensolve_only(seed, n, m, kind, scale, level,
                                            nudge):
    """The gate, the clip screen and the clip decide as an eigensolve of
    every slot does, at R = 0.5 (where the clip binds), at the gate level 3
    and within 1e-12 of a slot's exact norm.  The screens' Frobenius stage
    clears every slot of small GUE slots at n = 4 and none at n = 64 or
    when scaled up; where it cannot, each later stage sees exactly the
    slots it would see without it."""
    slots = hermitian_slots(seed, n, 2 * m, kind, scale)
    norms = np.max(np.abs(np.linalg.eigvalsh(slots)), axis=-1)
    if level == "edge":
        R = float(norms[seed % len(norms)]) * (1.0 + nudge * 1e-13)
    else:
        R = 0.5 if level == "clip" else 3.0
    if R <= 0.0:
        return
    feats = slots.reshape(2, m, n, n)
    letters = np.concatenate([np.zeros((2, 1, n, n), dtype=complex), feats],
                             axis=1)
    frobenius = ctl._norm_suspects(np.linalg.norm(feats, axis=(-2, -1)), R)
    quartic = ctl._norm_suspects(operator_norm_bound(feats), R)
    with mock.patch.object(ctl, "operator_norm_bound",
                           wraps=operator_norm_bound) as bound, \
            mock.patch.object(np.linalg, "eigvalsh",
                              wraps=np.linalg.eigvalsh) as eig:
        gate = gate_indicator(letters, 1, R)
    assert np.array_equal(gate, gate_by_eigensolve(letters, 1, m, R))
    assert [len(c.args[0]) for c in bound.call_args_list] == (
        [frobenius.sum()] if frobenius.any() else [])
    assert [len(c.args[0]) for c in eig.call_args_list] == (
        [quartic.sum()] if quartic.any() else [])
    # the clip screen with each slot as one control: the tight stage alone
    # flags the same slots, and none it clears is above R
    batch = screen_batch(feats)
    radius, top = batch.radius()
    tight_only = (np.flatnonzero(ctl._norm_suspects(radius, R))
                  if ctl._norm_suspects(top.max(), R) else [])
    suspects = ctl._clip_suspects(batch, np.eye(m), R)
    assert np.array_equal(suspects, tight_only)
    assert set(np.flatnonzero(norms > R)) <= set(suspects)
    alpha = slots.reshape(2, m, n, n)
    got, records = ctl._clip_batch(alpha, R)
    want, want_records = clip_by_eigensolve(alpha, R)
    if want_records is None:
        assert got is alpha and len(records) == 0
    else:
        assert got.tobytes() == want.tobytes()
        for a, b in zip((records.idx, records.mult, records.q), want_records):
            assert a.tobytes() == b.tobytes()


def test_word_features_match_explicit_products(stream):
    gen = stream.child("features").generator()
    n, d, K, S = 3, 2, 2, 4
    letters = np.stack([np.stack([random_hermitian(n, gen, scale=0.5)
                                  for _ in range(d * (K + 1))])
                        for _ in range(S)])
    words = ctl._words_through(d, K, 2)
    assert words[0] == () and max(len(w) for w in words) == 2
    feats = ctl._word_features(letters, words)
    for s in range(S):
        for k, word in enumerate(words):
            want = np.eye(n, dtype=complex)
            for letter in word:
                want = want @ letters[s, letter - 1]
            want = 0.5 * (want + want.conj().T)
            assert np.max(np.abs(feats[s, k] - want)) <= 1e-14


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("include_current", [True, False])
def test_step_words_are_leading_words_of_the_basis(degree, include_current):
    """Each step's words, listed as their letters become available, are the
    leading words of ``_global_words``, one coefficient each; at degree 1
    they are the empty word, x0's letters and then each readable step's
    increment letters."""
    d, K = 2, 3
    problem = lq_problem(2, d=d)
    policy = ctl.zero_policy(problem, K, 1, 8.0, degree, include_current)
    words = ctl._global_words(problem, policy)
    assert len(set(words)) == len(words)
    for i, st in enumerate(policy.steps, start=1):
        last = i if include_current else i - 1
        assert policy.last_readable_step(i) == last
        letters = range(1, d * (1 + last) + 1)
        step_words = ctl._words_through(d, last, degree)
        assert st.shape[-1] == len(step_words)
        assert step_words == words[:len(step_words)]
        assert {l for w in step_words for l in w} == set(letters)
        assert len(step_words) == sum(len(letters) ** k
                                      for k in range(degree + 1))
        if degree == 1:
            assert step_words == ((),) + tuple((l,) for l in letters)


def test_prepare_batch_refuses_words_that_do_not_lead_the_basis(stream):
    """A hand-built poly step whose coefficient count is not its word count
    at the policy's degree would read the wrong columns: a step of a lower
    degree than the policy's, or a strictly adapted step as wide as one
    that reads its own increment, is refused."""
    problem = lq_problem(2, d=1)
    for include, wrong in ((True, 1), (False, 2)):
        policy = ctl.zero_policy(problem, 2, 1, 8.0, 2, include)
        other = ctl.zero_policy(problem, 2, 1, 8.0, wrong, True).steps[1]
        assert other.shape != policy.steps[1].shape
        bad = replace(policy, steps=[policy.steps[0], other])
        with pytest.raises(ValueError, match="one coefficient per word it reads"):
            ctl._prepare_batch(problem, bad, stream, "t", range(2))
        ctl._prepare_batch(problem, policy, stream, "t", range(2))


def test_engine_eigensolver_failure_is_numerical(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    # increments above the gate level, which the norm bound cannot clear
    letters = np.full((2, 3, 2, 2), 5.0 + 0j)
    with pytest.raises(NumericalError):
        gate_indicator(letters, 1, 1.0)
    with pytest.raises(NumericalError):
        ctl._clip_batch(np.full((2, 1, 2, 2), 5.0 + 0j), 1.0)


def test_scalar_trace_cost_matches_per_matrix_loop(stream):
    gen = stream.child("stc").generator()
    h = lambda t: np.sqrt(t * t + 1.0)
    data = np.stack([np.stack([random_hermitian(3, gen) for _ in range(4)])
                     for _ in range(5)]).reshape(5, 4, 3, 3)
    got = ctl.ScalarTraceCost(h).eval(data)
    for s in range(len(data)):
        want = sum(float(np.mean(h(np.linalg.eigvalsh(data[s, k]))))
                   for k in range(4))
        assert got[s] == pytest.approx(want, rel=1e-14)
    assert isinstance(ctl.ScalarTraceCost(h).eval(data[0]), float)


def test_scalar_trace_cost_eigensolver_failure_is_numerical(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError):
        ctl.ScalarTraceCost(np.abs).eval(np.zeros((2, 1, 2, 2), dtype=complex))



# -- the cost-expression protocol -------------------------------------------------


def cross_term_cylindrical():
    """0.3 tr X1X2 - 0.2 tr X2^2 + 0.1 (tr X1X2)(tr X2^2) + 0.4 (tr X1X2)^2
    over two letters."""
    inners = [NCPolynomial(2, {(1, 2): 0.5, (2, 1): 0.5}),
              NCPolynomial(2, {(2, 2): 1.0})]
    outer = MultiPoly(2, {(1, 0): 0.3, (0, 1): -0.2, (1, 1): 0.1, (2, 0): 0.4})
    return CylindricalFunction(outer=outer, inners=inners)


COST_EXPRESSIONS = {
    "trace_power": lambda: trace_power(2, 2),
    "cross_term": cross_term_cylindrical,
    "arctan_plus": lambda: ctl.ArctanComposedTerminal(cross_term_cylindrical(), 1.0),
    "arctan_minus": lambda: ctl.ArctanComposedTerminal(cross_term_cylindrical(), -1.0),
    "scalar_trace": lambda: ctl.ScalarTraceCost(lambda t: np.sqrt(t * t + 1.0)),
}


def random_batch(gen, shape, n, scale=0.6):
    return np.stack([random_hermitian(n, gen, scale=scale)
                     for _ in range(math.prod(shape))]).reshape(shape + (n, n))


@pytest.mark.parametrize("name", sorted(COST_EXPRESSIONS))
def test_cost_expression_protocol(stream, name):
    expr = COST_EXPRESSIONS[name]()
    assert (expr.trace_quadratic() is None) == (name != "trace_power")
    gen = stream.child("protocol", name).generator()
    n = 3
    data = random_batch(gen, (3, 2, 2), n)
    values = expr.eval(data)
    per_element = np.array([float(expr.eval(data[idx]))
                            for idx in np.ndindex(3, 2)]).reshape(3, 2)
    assert np.array_equal(values, per_element)
    if name == "scalar_trace":
        assert not hasattr(expr, "value_and_grad")  # value-only by design
        return
    assert expr.d == 2
    value, grad = expr.value_and_grad(data)
    assert np.array_equal(value, values)
    assert grad.shape == data.shape
    direction = random_batch(gen, (3, 2, 2), n, scale=1.0)
    h = 1e-5
    fd = (expr.eval(data + h * direction) - expr.eval(data - h * direction)) / (2 * h)
    analytic = np.einsum("sbkij,sbkji->sb", grad, direction).real / n
    assert np.max(np.abs(fd - analytic)) <= 1e-8 * (1.0 + np.max(np.abs(analytic)))


def arctan_loop_reference(term, data):
    """The value and gradient of sign * U(arctan(X)), matrix by matrix."""
    flat = data.reshape((-1,) + data.shape[-3:])
    y = np.empty_like(flat)
    for slot in np.ndindex(flat.shape[:2]):
        y[slot] = apply_scalar_function(flat[slot], "arctan")
    y = y.reshape(data.shape)
    value = term.sign * np.real(term.cyl.eval(y))
    gy = np.asarray(term.cyl.gradient(y)).reshape(flat.shape)
    grad = np.empty_like(gy)
    for slot in np.ndindex(flat.shape[:2]):
        pull = scalar_function_derivative(flat[slot], "arctan",
                                          lambda t: 1.0 / (1.0 + t * t))
        grad[slot] = pull(gy[slot])
    return value, term.sign * grad.reshape(data.shape)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("lead", [(), (4, 3)])
def test_arctan_terminal_matches_per_matrix_loop(stream, d, lead):
    gen = stream.child("arctan", d, len(lead)).generator()
    cyl = (cross_term_cylindrical() if d == 2 else
           CylindricalFunction(outer=MultiPoly(2, {(1, 0): 0.2, (1, 1): -0.3}),
                               inners=[NCPolynomial(1, {(1,): 1.0}),
                                       NCPolynomial(1, {(1, 1): 1.0})]))
    term = ctl.ArctanComposedTerminal(cyl, -1.0)
    data = random_batch(gen, lead + (d,), 4, scale=1.5)
    value, grad = term.value_and_grad(data)
    want_value, want_grad = arctan_loop_reference(term, data)
    assert np.shape(value) == lead and grad.shape == data.shape
    assert np.max(np.abs(value - want_value)) <= 1e-12 * np.max(np.abs(want_value))
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_arctan_terminal_one_eigensolve_per_gradient(stream, monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    term = ctl.ArctanComposedTerminal(cross_term_cylindrical(), 1.0)
    data = random_batch(stream.child("arctan-count").generator(), (5, 3, 2), 3)
    term.value_and_grad(data)
    assert calls == [data.shape]


# -- discrete_cost -----------------------------------------------------------------


def test_zero_policy_zero_terminal_cost(stream):
    cost = ctl.CostSpec(l0=None, quad_coef=0.5,
                        terminal=CylindricalFunction(
                            outer=MultiPoly(1, {(0,): 0.0}),
                            inners=[NCPolynomial(1, {(1,): 1.0})]),
                        convexity_declared=True)
    problem = ctl.ControlProblem(n=4, d=1, x0=np.zeros((1, 4, 4)),
                                 beta_c=0.5, beta_f=1.0, t0=0.0, T=1.0,
                                 cost=cost)
    policy = zero_policy(problem, K=2, N=1, R=4.0)
    value, stderr = ctl.discrete_cost(problem, policy, 20, stream.child("c0"))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_zero_policy_gue_variance(stream):
    problem = lq_problem(8, beta_c=0.0, beta_f=1.0)
    policy = zero_policy(problem, K=1, N=1, R=4.0)
    value, stderr = ctl.discrete_cost(problem, policy, 400, stream.child("c1"))
    assert abs(value - 1.0) <= 3.0 * stderr + 1e-3


def test_any_policy_cost_dominates_dp_oracle(stream):
    """The zero policy and a random policy of small coefficients cost no
    less than the DP optimum, within 3 stderr."""
    problem = lq_problem(6, beta_c=0.5, beta_f=1.0)
    oracle = ctl.lq_discrete_oracle(2, 1, 1.0, 0.5, 1.0)
    gen = stream.child("rand").generator()
    for kind in ("zero", "random"):
        policy = zero_policy(problem, K=2, N=1, R=4.0)
        if kind == "random":
            for table in policy.steps:
                table[...] = 0.2 * gen.normal(size=table.shape)
        value, stderr = ctl.discrete_cost(problem, policy, 200,
                                          stream.child("c2", kind))
        assert value >= oracle - 3.0 * stderr - 1e-9


def test_path_guard_rejected(stream):
    problem = lq_problem(4, beta_c=0.5)
    with pytest.raises(ValueError):
        zero_policy(problem, K=8, N=16, R=4.0)
    with pytest.raises(ValueError):
        ctl.optimize_discrete_value(problem, 8, 16, 4.0, small_cfg(),
                                    stream.child("guard"))


# -- optimize_discrete_value ----------------------------------------------------------


def test_optimize_deterministic_lq(stream):
    problem = lq_problem(4, beta_c=0.0, beta_f=0.0,
                         x0=identity(1, 4))
    cfg = ctl.OptimizerConfig(train_samples=4, val_samples=4, max_iters=300)
    res = ctl.optimize_discrete_value(problem, 4, 1, 8.0, cfg,
                                      stream.child("det"))
    assert res.value == pytest.approx(1.0 / 3.0, abs=0.02)
    assert res.value <= res.zero_value + 1e-9


def test_optimize_zero_horizon_limit(stream):
    problem = lq_problem(4, beta_c=0.5, beta_f=1.0, T=1e-3,
                         x0=identity(1, 4))
    res = ctl.optimize_discrete_value(problem, 1, 1, 8.0, small_cfg(),
                                      stream.child("zh"))
    assert res.value == pytest.approx(1.0, abs=0.02)  # g(x0) = 1


def test_optimize_converges_to_discrete_dp(stream):
    problem = lq_problem(6, beta_c=0.5, beta_f=1.0)
    cfg = small_cfg(train_samples=48, val_samples=256, max_iters=250)
    res = ctl.optimize_discrete_value(problem, 2, 1, 8.0, cfg,
                                      stream.child("dp"))
    oracle = ctl.lq_discrete_oracle(2, 1, 1.0, 0.5, 1.0)
    assert res.value == pytest.approx(oracle, rel=0.02)
    assert res.improved


def test_optimize_requires_convexity_flag(stream):
    problem = lq_problem(4)
    problem.cost.convexity_declared = False
    with pytest.raises(ValueError):
        ctl.optimize_discrete_value(problem, 2, 1, 4.0, small_cfg(),
                                    stream.child("cvx"))


def test_optimize_writes_iteration_log(tmp_path, stream):
    problem = lq_problem(4, beta_c=0.0, beta_f=0.0,
                         x0=identity(1, 4))
    log = tmp_path / "iters.csv"
    cfg = ctl.OptimizerConfig(train_samples=2, val_samples=2, max_iters=20,
                              log_path=str(log))
    ctl.optimize_discrete_value(problem, 2, 1, 8.0, cfg, stream.child("log"))
    lines = log.read_text().splitlines()
    assert lines[0] == "iter,batch_cost,step_size,max_grad_norm"
    assert len(lines) > 1


def test_zero_policy_value_bound(stream):
    # V <= (C1 + ||x0|| + (bc + bf) sqrt(T)) (T + 1) on an optimized instance
    problem = lq_problem(6, beta_c=0.5, beta_f=1.0)
    res = ctl.optimize_discrete_value(problem, 2, 1, 8.0, small_cfg(),
                                      stream.child("bound"))
    c1 = problem.cost.c1
    cap = (c1 + np.linalg.norm(problem.x0) / math.sqrt(problem.n)
           + (problem.beta_c + problem.beta_f)) * 2.0
    assert res.value <= cap


# Paper claim: the a-priori energy bound on an optimized policy's controls.
def test_a_priori_control_budget(stream):
    problem = lq_problem(6, beta_c=0.5, beta_f=1.0)
    res = ctl.optimize_discrete_value(problem, 2, 1, 8.0, small_cfg(),
                                      stream.child("budget"))
    budget = ctl.policy_control_budget(problem, res.policy, 64,
                                       stream.child("budget-eval"))
    c1, eps = problem.cost.c1, 0.05
    assert budget <= c1 * (eps + 2.0 * c1 + res.value)


# -- LQ oracles -------------------------------------------------------------------
# Paper claim: the LQ value solves the Riccati equation (ODE against closed form).


def test_lq_reference_values():
    assert ctl.lq_reference(lq_problem(4, beta_c=0.0, beta_f=0.0)) == 0.0
    for d in (1, 2, 3):  # g(x0) = <I, I> = d
        tiny = lq_problem(4, d=d, T=1e-12, x0=identity(d, 4))
        assert ctl.lq_reference(tiny) == pytest.approx(float(d), abs=1e-9)
    assert ctl.lq_reference(lq_problem(8)) == pytest.approx(LQ_CONTINUOUS,
                                                            abs=1e-12)


def test_lq_reference_matches_ode():
    for problem in (lq_problem(4), lq_problem(4, beta_c=0.2, beta_f=0.7, T=2.0),
                    lq_problem(4, x0=identity(1, 4))):
        assert ctl.lq_reference_ode(problem) == pytest.approx(
            ctl.lq_reference(problem), abs=1e-9)


def test_lq_reference_rejects_other_costs():
    for d in (1, 2):
        lq = lq_problem(4, d=d)
        assert ctl.lq_reference(lq) > 0.0
        scaled = replace(lq, cost=replace(lq.cost,
                                          terminal=trace_power(d, 2, coef=2.0)))
        for problem in (quartic_problem(4, d=d), scaled):
            with pytest.raises(ValueError):
                ctl.lq_reference(problem)


def test_lq_template_compares_trace_quadratic_forms():
    lq = lq_problem(4)
    hand_built = replace(lq, cost=replace(lq.cost, terminal=quadratic_psi(1.0)))
    assert ctl.lq_reference(hand_built) == ctl.lq_reference(lq)
    # forms compare by value: sum_j X_j^2 as one inner is the LQ terminal
    lq2 = lq_problem(4, d=2)
    one_inner = CylindricalFunction(
        outer=MultiPoly(1, {(1,): 1.0}),
        inners=[NCPolynomial(2, {(1, 1): 1.0, (2, 2): 1.0})])
    assert ctl.lq_reference(replace(lq2, cost=replace(
        lq2.cost, terminal=one_inner))) == ctl.lq_reference(lq2)
    for terminal in (trace_power(1, 2, coef=2.0), trace_power(1, 4),
                     ctl.ArctanComposedTerminal(trace_power(1, 2), 1.0)):
        other = replace(lq, cost=replace(lq.cost, terminal=terminal))
        for oracle in (ctl.lq_reference, ctl.lq_reference_ode):
            with pytest.raises(ValueError):
                oracle(other)


def test_lq_discrete_oracle_limits():
    # deterministic case reproduces the continuous Riccati exactly
    assert ctl.lq_discrete_oracle(4, 1, 1.0, 0.0, 0.0, x0_norm_sq=1.0) \
        == pytest.approx(1.0 / 3.0, abs=1e-12)
    # fine discretization converges to the continuous value from both sides
    peek = ctl.lq_discrete_oracle(64, 512, 1.0, 0.5, 1.0)
    strict = ctl.lq_discrete_oracle(64, 512, 1.0, 0.5, 1.0,
                                    peek_bin=False, peek_gue=False)
    assert peek <= LQ_CONTINUOUS <= strict
    assert strict - peek <= 0.03


# -- coarsening -------------------------------------------------------------------
# Paper claim: coarsening onto the bin tree, the discretization step (Jensen bound).


def coarsen_control(fine_samples, grid, N):
    """Conditional-mean coarsening of sampled fine controls onto the bin
    tree: each step's (B_i, d, n, n) node table, and the fallback cells.

    Node (i, J) averages, over the samples whose first i coarse increments
    fall in the bins of J, the time average of the control over
    (t_{i-1}, t_i].  An empty cell falls back to the step's global mean and
    is listed as (i, J)."""
    K = grid.K
    fine_steps, d, n, _ = fine_samples[0].controls.shape
    assert fine_steps % K == 0
    assert all(len(path.controls) == fine_steps for path in fine_samples)
    per = fine_steps // K
    branch = ctl.tree_branching(N, False)
    # per sample: coarse bin path and per-coarse-step time-averaged control
    S = len(fine_samples)
    coarse_w0 = np.array([path.w0_increments for path in fine_samples]).reshape(
        S, K, per).sum(axis=2)
    digits = bin_of(coarse_w0, N) + N + 1                       # (S, K)
    sample_avgs = np.array([path.controls for path in fine_samples]).reshape(
        S, K, per, d, n, n).mean(axis=2)
    tables, fallbacks = [], []
    for i in range(1, K + 1):
        shape = (branch,) * i
        node = np.ravel_multi_index(tuple(digits[:, :i].T), shape)
        counts = np.bincount(node, minlength=branch ** i)
        values = np.zeros((branch ** i, d, n, n), dtype=complex)
        np.add.at(values, node, sample_avgs[:, i - 1])
        filled = counts > 0
        values[filled] /= counts[filled, None, None, None]
        empty = np.flatnonzero(~filled)
        values[empty] = sample_avgs[:, i - 1].mean(axis=0)
        prefixes = np.transpose(np.unravel_index(empty, shape)) - (N + 1)
        fallbacks += [(i, tuple(prefix)) for prefix in prefixes.tolist()]
        tables.append(hermitize(values))
    return tables, fallbacks


def test_coarsen_constant_control(stream):
    problem = lq_problem(3, beta_c=1.0, beta_f=0.5)
    a = random_hermitian(3, stream.child("cc").generator(), 0.5)[None]
    samples = [ctl.euler_maruyama(problem, lambda t, x: a, 4,
                                  stream.child("em", k)) for k in range(12)]
    grid = TimeGrid(0.0, 1.0, 2)
    tables, _ = coarsen_control(samples, grid, N=1)
    for table in tables:
        for b in range(table.shape[0]):
            assert np.allclose(table[b], a, atol=1e-10)


def test_coarsen_sign_policy_conditional_mean(stream):
    # control = sign of the first coarse increment times the identity
    problem = lq_problem(2, beta_c=1.0, beta_f=0.0)
    samples = []
    for k in range(600):
        child = stream.child("sign", k)
        path = ctl.euler_maruyama(problem, None, 2, child)
        s = 1.0 if path.w0_increments[0] > 0 else -1.0
        controls = np.broadcast_to(s * np.eye(2, dtype=complex), (2, 1, 2, 2))
        samples.append(replace(path, controls=controls, cost=0.0))
    grid = TimeGrid(0.0, 1.0, 2)
    tables, _ = coarsen_control(samples, grid, N=1)
    policy = zero_policy(problem, K=2, N=1, R=8.0)
    table = noise_table(1, 0.5)
    for j in table.indices:
        b = policy.prefix_index((j,))
        sign = 1.0 if j >= 0 else -1.0
        got = float(np.real(tables[0][b, 0, 0, 0]))
        assert got == pytest.approx(sign, abs=0.1)


def test_coarsen_jensen_inequality(stream):
    """Convex cost: the coarsened policy's discrete cost, from the
    materialised reference on the engine's cost samples, is at most the
    mean fine-path cost plus a tolerance.  R is 1 above the largest node's
    Frobenius norm, so the clip never binds."""
    problem = lq_problem(4, beta_c=1.0, beta_f=0.5)
    gain = -0.8
    feedback = lambda t, x: gain * x
    samples = [ctl.euler_maruyama(problem, feedback, 8, stream.child("jen", k))
               for k in range(300)]
    fine_mean = float(np.mean([p.cost for p in samples]))
    grid = TimeGrid(0.0, 1.0, 2)
    tables, _ = coarsen_control(samples, grid, N=1)
    R = max(np.linalg.norm(t, axis=(-2, -1)).max() for t in tables) + 1.0
    policy = replace(zero_policy(problem, K=2, N=1, R=8.0), R=R, steps=tables)
    letters = sample_letters(problem, 2, range(300), stream.child("jenc"),
                             "cost")
    costs, _ = materialised_reference(problem, policy,
                                      (letters, None, None, None))
    coarse = costs.mean()
    stderr = costs.std(ddof=1) / math.sqrt(len(costs))
    assert coarse <= fine_mean + 0.1 + 3 * stderr


def test_coarsen_flags_empty_cells(stream):
    problem = lq_problem(2, beta_c=1.0, beta_f=0.0)
    samples = [ctl.euler_maruyama(problem, None, 2, stream.child("few", k))
               for k in range(2)]
    _, fallbacks = coarsen_control(samples, TimeGrid(0.0, 1.0, 2), N=1)
    assert fallbacks  # 2 samples cannot cover 4 + 16 cells


def bin_containing(value, N):
    """The bin j whose interval ``bin_boundaries(N, j)`` = (a, b] holds value."""
    return next(j for j in bin_indices(N)
                if bin_boundaries(N, j)[0] < value <= bin_boundaries(N, j)[1])


def test_coarsen_averages_per_coarse_step_and_bin_path(stream):
    # a fine grid of 3 steps per coarse step: each node is the mean, over the
    # samples on its bin prefix, of their controls' time averages; node b of
    # step i is prefix_index's C-order prefix, bins read off bin_boundaries
    problem = lq_problem(2, beta_c=1.0, beta_f=0.0)
    gen = stream.child("avg").generator()
    samples = []
    for k in range(40):
        path = ctl.euler_maruyama(problem, None, 6, stream.child("avg", k))
        controls = np.stack([random_hermitian(2, gen)[None] for _ in range(6)])
        samples.append(replace(path, controls=controls))
    tables, fallbacks = coarsen_control(samples, TimeGrid(0.0, 1.0, 2), N=1)
    policy = zero_policy(problem, K=2, N=1, R=8.0)
    avgs = np.array([p.controls for p in samples]).reshape(40, 2, 3, 1, 2, 2)
    avgs = avgs.mean(axis=2)
    bins = [tuple(bin_containing(sum(p.w0_increments[3 * i:3 * i + 3]), 1)
                  for i in range(2)) for p in samples]
    for i, table in enumerate(tables, start=1):
        for b, value in enumerate(table):
            prefix = tuple(int(j) - 2 for j in np.unravel_index(b, (4,) * i))
            assert policy.prefix_index(prefix) == b
            cell = [avgs[s, i - 1] for s in range(40) if bins[s][:i] == prefix]
            want = np.mean(cell, axis=0) if cell else avgs[:, i - 1].mean(axis=0)
            assert np.allclose(value, want, atol=1e-12)
            assert (not cell) == ((i, prefix) in fallbacks)


# -- clipping and the truncation inequality --------------------------------------------


def test_clip_policy_within_r_unchanged(stream):
    a = random_hermitian(3, stream.child("clip").generator(), scale=0.1)
    for i in (1, 2):
        table = np.broadcast_to(a, (4 ** i, 1, 3, 3))
        clipped, records = ctl._clip_batch(table, 4.0)
        assert clipped is table and len(records) == 0


def test_clip_policy_reduces_norm():
    table = np.broadcast_to(5.0 * np.eye(3, dtype=complex), (4, 1, 3, 3))
    clipped, _ = ctl._clip_batch(table, 2.0)
    assert np.allclose(clipped, 2.0 * np.eye(3))


def test_truncation_inequality_scalar_closed_form():
    # n = 1, alpha = 2R constant: both sides computable by hand
    r = 1.5
    kappa = 1.0
    smooth = lambda x: np.sqrt(x * x + 1.0)
    cost = ctl.CostSpec(l0=ctl.ScalarTraceCost(lambda x: kappa * smooth(x)),
                        quad_coef=0.3, terminal=trace_power(1, 2),
                        lip_const=kappa)
    times = [0.0, 0.5, 1.0]
    y = np.zeros((3, 1, 1, 1), complex)
    alphas = np.full((2, 1, 1, 1), 2 * r, complex)
    assert ctl.truncation_inequality_check(cost, times, y, alphas, r) is True


def truncation_check_per_step(cost, times, y_states, controls, R):
    """The truncation check as a loop over the steps: each control clipped
    by the functional calculus, the running integrals accumulated step by
    step."""
    raw_int = np.zeros_like(controls[0])
    clip_int = np.zeros_like(controls[0])
    lhs = rhs = budget = 0.0
    n = controls.shape[-1]
    for i, alpha in enumerate(controls):
        h = times[i + 1] - times[i]
        clipped = apply_scalar_function(alpha, ("clip", R))
        lhs += float(cost.lagrangian(y_states[i] + clip_int, clipped)) * h
        rhs += float(cost.lagrangian(y_states[i] + raw_int, alpha)) * h
        budget += float(np.einsum("kij,kji->", alpha, alpha).real) / n * h
        raw_int = raw_int + h * alpha
        clip_int = clip_int + h * clipped
    penalty = (1.0 + (times[-1] - times[0])) * cost.lip_const / R * budget
    return lhs <= rhs + penalty + 1e-9


def test_truncation_inequality_random_instances(stream):
    """The array check gives the per-step loop's verdict, as a Python bool,
    on random instances where some controls clip.  Odd instances declare
    their Lipschitz constant, so the inequality holds; even ones reward
    large controls and declare almost none, so clipping can break it."""
    gen = stream.child("trunc").generator()
    smooth = lambda x: np.sqrt(x * x + 1.0)
    verdicts, clipped = [], 0
    for i in range(100):
        n = int(gen.integers(1, 7))
        d = int(gen.integers(1, 3))
        kappa = float(gen.uniform(0.2, 3.0)) * (1 if i % 2 else -1)
        cost = ctl.CostSpec(
            l0=ctl.ScalarTraceCost(lambda x, k=kappa: k * smooth(x)),
            quad_coef=float(gen.uniform(0.0, 1.0)) if i % 2 else 0.0,
            terminal=trace_power(d, 2), lip_const=kappa if i % 2 else 0.01)
        steps = int(gen.integers(1, 6))
        times = list(np.linspace(0, float(gen.uniform(0.5, 2.0)), steps + 1))
        y = rm.sample_gue(n, gen, (steps + 1, d))
        alphas = np.array([float(gen.uniform(0.3, 3.0))
                           * rm.sample_gue(n, gen, (d,)) for _ in range(steps)])
        R = float(gen.uniform(0.5, 4.0))
        clipped += int(np.any(np.abs(np.linalg.eigvalsh(alphas)) > R))
        got = ctl.truncation_inequality_check(cost, times, y, alphas, R)
        assert type(got) is bool
        assert got == truncation_check_per_step(cost, times, y, alphas, R)
        verdicts.append(got)
    assert clipped >= 50
    assert all(verdicts[1::2])  # kappa declared: the inequality holds
    assert set(verdicts[::2]) == {True, False}


# -- Euler-Maruyama ----------------------------------------------------------------


def test_euler_common_noise_only_exact(stream):
    problem = lq_problem(4, beta_c=1.0, beta_f=0.0)
    path = ctl.euler_maruyama(problem, None, 8, stream.child("em1"))
    total = float(np.sum(path.w0_increments))
    assert np.allclose(path.states[-1, 0], total * np.eye(4), atol=1e-12)


def test_euler_constant_drift_exact(stream):
    n = 3
    problem = lq_problem(n, beta_c=0.0, beta_f=0.0)
    a = random_hermitian(n, stream.child("em2").generator(), 0.5)[None]
    for steps in (2, 4, 8):
        path = ctl.euler_maruyama(problem, lambda t, x: a, steps,
                                  stream.child("em3", steps))
        assert np.allclose(path.states[-1], a, atol=1e-12)
        assert np.array_equal(path.controls, np.broadcast_to(a, (steps, 1, n, n)))


def test_euler_pathwise_reconstruction(stream):
    # states equal x0 + A t + noise sums exactly for piecewise-constant drift
    problem = lq_problem(3, beta_c=0.7, beta_f=0.9)
    a = random_hermitian(3, stream.child("em4").generator(), 0.3)[None]
    path = ctl.euler_maruyama(problem, lambda t, x: a, 6, stream.child("em5"))
    assert path.states.shape == (7, 1, 3, 3)
    assert path.controls.shape == (6, 1, 3, 3)
    recon = problem.x0.copy()
    h = path.times[1] - path.times[0]
    for i in range(6):
        recon = recon + h * a \
            + 0.7 * path.w0_increments[i] * np.eye(3) \
            + 0.9 * path.gue_increments[i]
        assert np.allclose(path.states[i + 1], recon, atol=1e-12)
    running = sum(float(problem.cost.lagrangian(x, a)) * h for x in path.states[:-1])
    assert path.cost == pytest.approx(
        running + float(problem.cost.terminal.eval(path.states[-1])), rel=1e-12)


# -- Boue-Dupuis -------------------------------------------------------------------


def test_bd_lhs_constant_psi(stream):
    const = CylindricalFunction(outer=MultiPoly(1, {(0,): 0.7}),
                                inners=[NCPolynomial(1, {(1,): 1.0})])
    val = ctl.boue_dupuis_lhs(const, 4, 50, stream.child("bd0"))
    assert val == pytest.approx(0.7, abs=1e-12)


def test_bd_lhs_nonnegative_psi(stream):
    val = ctl.boue_dupuis_lhs(quadratic_psi(0.5), 4, 200, stream.child("bd1"))
    assert val >= 0.0


def test_bd_lhs_equals_per_sample_draws(stream):
    n, d, samples = 4, 2, 200
    psi = trace_power(d, 2, 0.5)
    rng = stream.child("bdstack")
    got = ctl.boue_dupuis_lhs(psi, n, samples, rng)
    draws = []
    for s in range(samples):
        gen = rng.child("bdlhs", s).generator()
        draws.append([rm.sample_gue(n, gen) for _ in range(d)])
    exponents = -float(n * n) * np.real(psi.eval(np.array(draws)))
    m = float(np.max(exponents))
    want = -(m + math.log(float(np.mean(np.exp(exponents - m))))) / (n * n)
    assert got == want


def test_sample_letters_equal_per_sample_paths(stream):
    problem = lq_problem(3, d=2, x0=identity(2, 3))
    K, indices = 3, [4, 0, 7]
    got = sample_letters(problem, K, indices, stream, "lt")
    want = np.zeros((len(indices), 2 * (1 + K), 3, 3), dtype=complex)
    want[:, :2] = problem.x0
    for row, s in enumerate(indices):
        increments = gue_increments(3, 2, problem.grid(K).times,
                                    stream.child("lt", s))
        want[row, 2:] = increments.reshape(2 * K, 3, 3)
    assert np.array_equal(got, want)


def test_engine_draws_resolve_through_randmat(stream, monkeypatch):
    # the benchmark tracer patches only randmat's names, so the engine must
    # look its samplers up there at call time
    from nclab import gaussdisc as gd

    calls = []
    for name in ("gue_increments", "sample_gue", "brownian_increments"):
        original = getattr(rm, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(rm, name, wrapper)
    problem = lq_problem(3, d=2, x0=identity(2, 3))
    sample_letters(problem, 2, [0, 1], stream, "lt")
    assert calls == ["sample_gue"]
    del calls[:]
    ctl.boue_dupuis_lhs(trace_power(2, 2), 3, 4, stream.child("bd"))
    assert calls == ["sample_gue"]
    del calls[:]
    ctl.euler_maruyama(problem, None, 2, stream.child("em"))
    assert calls.count("gue_increments") == 1
    assert calls.count("brownian_increments") == 1
    del calls[:]
    gd.bridge_bound_check(0.0, 0.5, 1.0, 80, stream.child("bridge"), n=3)
    assert calls.count("sample_gue") >= 2


def test_bd_lhs_gaussian_oracle(stream):
    val = ctl.boue_dupuis_lhs(quadratic_psi(0.5), 8, 10_000, stream.child("bd2"))
    assert val == pytest.approx(BD_ORACLE, abs=0.02)


def test_bd_rhs_zero_psi(stream):
    zero = CylindricalFunction(outer=MultiPoly(1, {(0,): 0.0}),
                               inners=[NCPolynomial(1, {(1,): 1.0})])
    res = ctl.boue_dupuis_rhs(zero, 4, 4, small_cfg(max_iters=30),
                              stream.child("bd3"))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.zero_value == pytest.approx(0.0, abs=1e-12)


def test_bd_rhs_matches_strict_riccati(stream):
    cfg = small_cfg(train_samples=48, val_samples=512, max_iters=300)
    res = ctl.boue_dupuis_rhs(quadratic_psi(0.5), 8, 8, cfg, stream.child("bd4"))
    oracle = ctl.lq_discrete_oracle(8, 1, 1.0, 0.0, 1.0, terminal_coef=0.5,
                                    peek_gue=False)
    assert oracle == pytest.approx(0.36268592518592513, abs=1e-12)
    assert res.value == pytest.approx(oracle, rel=0.015)
    # and the variational value dominates the exponential-moment side
    lhs = ctl.boue_dupuis_lhs(quadratic_psi(0.5), 8, 4000, stream.child("bd5"))
    assert res.value >= lhs - 3.0 * res.stderr


# -- rate function ------------------------------------------------------------------
# Paper claim: the Laplace principle, the rate function as a supremum over tests.


def test_rate_function_candidate_constant_family(stream):
    const = CylindricalFunction(outer=MultiPoly(1, {(0,): 0.9}),
                                inners=[NCPolynomial(1, {(1,): 1.0})])
    from nclab.nclaw import semicircle_arctan_law
    val = ctl.rate_function_candidate(semicircle_arctan_law(4), [const], 4,
                                      small_cfg(max_iters=30),
                                      stream.child("rate0"), time_steps=2)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_rate_function_candidate_requires_family(stream):
    from nclab.nclaw import semicircle_arctan_law
    with pytest.raises(ValueError):
        ctl.rate_function_candidate(semicircle_arctan_law(4), [], 4,
                                    small_cfg(), stream.child("rate1"), 2)


def test_rate_function_semicircle_near_zero(stream):
    # linear trace functionals: the semicircle is the LDP minimizer
    from nclab.nclaw import semicircle_arctan_law
    phi = CylindricalFunction(outer=MultiPoly(1, {(1,): 0.2}),
                              inners=[NCPolynomial(1, {(1,): 1.0})])
    cfg = small_cfg(train_samples=32, val_samples=128, max_iters=120)
    val = ctl.rate_function_candidate(semicircle_arctan_law(4), [phi], 8, cfg,
                                      stream.child("rate2"), time_steps=4)
    assert abs(val) <= 0.05


# -- serialization ------------------------------------------------------------------


def test_problem_json_round_trip():
    problem = lq_problem(4, beta_c=0.3, beta_f=0.9,
                         x0=identity(1, 4))
    back = ctl.ControlProblem.from_json(problem.to_json())
    assert back.n == 4 and back.beta_c == 0.3
    assert np.array_equal(back.x0, problem.x0)
    assert ctl.lq_reference(back) == pytest.approx(ctl.lq_reference(problem))


def test_problem_x0_is_read_only_exactly_hermitian_and_round_trips(gen):
    x0 = hermitian_batch(gen, (2,), 3, 0.3)
    x0[1, 0, 2] += 1e-12  # drift inside the 1e-10 tolerance
    problem = lq_problem(3, d=2, x0=x0)
    assert not problem.x0.flags.writeable
    with pytest.raises(ValueError):
        problem.x0[0, 0, 0] = 5.0
    assert np.array_equal(problem.x0, np.conj(np.swapaxes(problem.x0, -1, -2)))
    assert np.max(np.abs(problem.x0 - x0)) <= 1e-12
    x0[0, 0, 0] = 5.0  # the problem holds its own copy
    assert problem.x0[0, 0, 0] != 5.0
    back = ctl.ControlProblem.from_json(problem.to_json())
    assert np.array_equal(back.x0, problem.x0)
    assert not back.x0.flags.writeable


def test_optimized_value_monotone_in_clip_level(stream):
    # larger feasible set cannot hurt: tight clip forces a worse value
    problem = lq_problem(4, beta_c=0.0, beta_f=0.0,
                         x0=identity(1, 4))
    cfg = ctl.OptimizerConfig(train_samples=4, val_samples=4, max_iters=200)
    wide = ctl.optimize_discrete_value(problem, 4, 1, 8.0, cfg,
                                       stream.child("R1"))
    tight = ctl.optimize_discrete_value(problem, 4, 1, 0.15, cfg,
                                        stream.child("R2"))
    assert wide.value <= tight.value + 1e-6
    assert tight.value > wide.value + 0.01  # the cap visibly binds here
