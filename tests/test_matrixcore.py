import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import hermitian_batch, random_hermitian
from nclab import matrixcore as mc
from nclab.control import _clip_batch
from references import operator_norm, scalar_function_derivative


def test_basis_element_n1():
    assert np.allclose(mc.basis_element(1, 1, 1), [[1.0]])


def test_basis_element_offdiagonal_n2():
    assert np.allclose(mc.basis_element(2, 1, 2), [[0, 1], [1, 0]])


def test_basis_antisymmetric_is_hermitian():
    e = mc.basis_element(3, 3, 1)
    assert np.allclose(e, e.conj().T)


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_orthonormality(n):
    els = [mc.basis_element(n, i, j)
           for i in range(1, n + 1) for j in range(1, n + 1)]
    gram = np.array([[np.trace(a @ b) / n for b in els] for a in els])
    assert np.max(np.abs(gram - np.eye(n * n))) <= 1e-12


def test_basis_index_out_of_range():
    with pytest.raises(ValueError):
        mc.basis_element(2, 0, 1)
    with pytest.raises(ValueError):
        mc.basis_element(2, 1, 3)


def test_basis_diagonal_trace():
    # tr_n(sqrt(n) e1 e1^T) = 1/sqrt(n); n = 4 gives 1/2
    assert np.trace(mc.basis_element(4, 1, 1)) / 4 == pytest.approx(0.5)


def l1_norm(x):
    """Sum_j tr_n |X_j| of a Hermitian (..., n, n) stack via functional
    calculus with the absolute value: the norm of the truncation lemma's
    ||phi_R(A) - A||_1 <= ||A||_2^2 / R."""
    w, _ = mc.eigh(x)
    return float(np.sum(np.abs(w))) / w.shape[-1]


def test_l1_norm_diagonal():
    x = np.diag([3.0, -4.0]).astype(complex)[None]
    assert l1_norm(x) == pytest.approx(3.5)


def test_eigh_diagonal_sorting():
    w, _ = mc.eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eigh_pauli_x():
    w, _ = mc.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0])


def test_eigh_reconstruction_random(gen):
    a = random_hermitian(16, gen)
    w, q = mc.eigh(a)
    assert np.linalg.norm(a - (q * w) @ q.conj().T) <= 1e-10 * (1 + np.linalg.norm(a))
    assert np.max(np.abs(q.conj().T @ q - np.eye(16))) <= 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        mc.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_identity_polynomial(gen):
    a = random_hermitian(6, gen)
    assert np.max(np.abs(mc.apply_scalar_function(a, lambda x: x) - a)) <= 1e-10


def test_apply_clip():
    a = np.diag([0.5, -2.0]).astype(complex)
    assert np.allclose(mc.apply_scalar_function(a, mc.clip_function(1.0)),
                       np.diag([0.5, -1.0]))


def test_apply_arctan_identity():
    out = mc.apply_scalar_function(np.eye(3, dtype=complex), np.arctan)
    assert np.allclose(out, (math.pi / 4) * np.eye(3))


def test_functional_calculus_composition(gen):
    a = random_hermitian(8, gen)
    f = np.polynomial.Polynomial([0.0, 0.5, 0.25])          # 0.5 x + 0.25 x^2
    g = np.polynomial.Polynomial([1.0, -1.0, 0.0, 0.125])   # 1 - x + x^3/8
    lhs = mc.apply_scalar_function(mc.apply_scalar_function(a, f), g)
    rhs = mc.apply_scalar_function(a, g(f))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_trace_cyclicity(gen):
    a, b, c = (random_hermitian(7, gen) for _ in range(3))
    t1 = np.trace(mc.hermitize(a @ b @ c + (a @ b @ c).conj().T)) / 7
    t2 = np.trace(mc.hermitize(b @ c @ a + (b @ c @ a).conj().T)) / 7
    assert t1 == pytest.approx(t2, abs=1e-10)


def test_operator_norm_examples():
    assert operator_norm(np.eye(4, dtype=complex)) == pytest.approx(1.0)
    assert operator_norm(mc.basis_element(2, 1, 2)) == pytest.approx(1.0)


def test_clip_bounds_operator_norm(gen):
    for _ in range(5):
        a = random_hermitian(6, gen, scale=3.0)
        clipped = mc.apply_scalar_function(a, mc.clip_function(2.0))
        assert operator_norm(clipped) <= 2.0 + 1e-12


# Paper claim: the truncation lemma, ||phi_R(A) - A||_1 <= ||A||_2^2 / R,
# for the package's one clip.
def test_clip_l1_inequality(gen):
    for r in (0.5, 1.0, 3.0):
        x = np.stack([random_hermitian(8, gen, scale=1.5) for _ in range(10)])
        clipped, records = _clip_batch(x[:, None], r)
        assert len(records) == 10  # the clip binds on every matrix
        for a, c in zip(x, clipped[:, 0]):
            gap = l1_norm((a - c)[None])
            assert gap <= np.sum(np.abs(a) ** 2) / 8 / r + 1e-12


# Paper claim: the Daleckii-Krein derivative of the functional calculus, the
# per-matrix reference against which test_control's brute-force gradients
# check the batched clip and arctan pullbacks.
def test_scalar_function_derivative_matches_fd(gen):
    a = random_hermitian(6, gen)
    e = random_hermitian(6, gen, scale=0.5)
    pull = scalar_function_derivative(a, np.arctan, lambda t: 1.0 / (1.0 + t * t))
    analytic = pull(e)
    h = 1e-6
    fd = (mc.apply_scalar_function(a + h * e, np.arctan)
          - mc.apply_scalar_function(a - h * e, np.arctan)) / (2 * h)
    assert np.max(np.abs(analytic - fd)) <= 1e-6


def test_spectral_calculus_is_batch_native(gen):
    a = hermitian_batch(gen, (3, 2), 4)
    e = hermitian_batch(gen, (3, 2), 4, scale=0.5)
    darctan = lambda t: 1.0 / (1.0 + t * t)
    w, q = mc.eigh(a)
    fa = mc.apply_scalar_function(a, np.arctan)
    clipped = mc.apply_scalar_function(a, mc.clip_function(1.0))
    pulled = scalar_function_derivative(a, np.arctan, darctan)(e)
    for idx in np.ndindex(3, 2):
        w1, q1 = mc.eigh(a[idx])
        assert np.array_equal(w[idx], w1) and np.array_equal(q[idx], q1)
        assert np.max(np.abs(
            fa[idx] - mc.apply_scalar_function(a[idx], np.arctan))) <= 1e-14
        assert np.max(np.abs(clipped[idx] - mc.apply_scalar_function(
            a[idx], mc.clip_function(1.0)))) <= 1e-14
        one = scalar_function_derivative(a[idx], np.arctan, darctan)(e[idx])
        assert np.max(np.abs(pulled[idx] - one)) <= 1e-14
    assert operator_norm(a) == max(operator_norm(m) for m in a.reshape(-1, 4, 4))


def test_batched_eigh_rejects_one_non_hermitian_element(gen):
    a = hermitian_batch(gen, (4,), 3)
    a[2, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        mc.eigh(a)
    with pytest.raises(ValueError):
        mc.apply_scalar_function(a, np.arctan)


def test_batched_eigh_residual_is_checked_per_matrix(gen, monkeypatch):
    # the bad element is small next to its batch mate: a batch-wide residual
    # bound would let its 1e-7 error through
    a = np.stack([1e6 * random_hermitian(3, gen), random_hermitian(3, gen)])
    original = np.linalg.eigh

    def perturbed(m, *args, **kwargs):
        w, q = original(m, *args, **kwargs)
        w = w.copy()
        w[1, 0] += 1e-7
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(mc.NumericalError):
        mc.eigh(a)


def test_tuple_methods_match_per_component(gen):
    x = hermitian_batch(gen, (3,), 4, scale=2.0)
    assert operator_norm(x) == max(operator_norm(m) for m in x)
    assert l1_norm(x) == pytest.approx(
        sum(np.sum(np.abs(np.linalg.eigvalsh(m))) / 4 for m in x), rel=1e-14)


@settings(max_examples=120, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(1, 64),
       rank=hst.integers(1, 3), scale=hst.floats(1e-3, 1e3))
def test_operator_norm_bound_is_never_below_the_norm(seed, n, rank, scale):
    """(sum lambda^p)^(1/p) >= max |lambda| <= n^(1/p) max |lambda|, for
    ``operator_norm_bound`` (p = 4) and the radius the clip screen composes
    from it (p = 8), also at low rank, where the bound meets the norm; the
    screens' margin 1e-10 covers rounding."""
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(4, n, n)) + 1j * gen.normal(size=(4, n, n))
    v = gen.normal(size=(4, n, rank)) + 1j * gen.normal(size=(4, n, rank))
    lam = gen.normal(size=(4, 1, rank))
    a = scale * np.concatenate([z + np.swapaxes(z, 1, 2).conj(),
                                (v * lam) @ np.swapaxes(v, 1, 2).conj()])
    a = 0.5 * (a + np.swapaxes(a, 1, 2).conj())
    norms = np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)
    plain = mc.operator_norm_bound(a)
    radius = np.sqrt(mc.operator_norm_bound(a @ a))     # the clip screen's
    for bound, power in ((plain, 4), (radius, 8)):
        assert bound.shape == (8,)
        assert np.all(bound * (1.0 + 1e-10) >= norms)
        assert np.all(bound <= n ** (1.0 / power) * norms * (1.0 + 1e-10))
