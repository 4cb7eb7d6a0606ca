import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import hermitian_batch
from nclab import harness, ncpoly
from nclab.laplacian import (CylindricalFunction, MultiPoly, format_outer,
                             parse_outer, random_cylindrical, trace_power)
from nclab.matrixcore import basis_element
from nclab.ncpoly import NCPolynomial, words_up_to_degree
from nclab.randmat import RngStream, sample_gue_tuple
from references import cylindrical_to_json, euler_maruyama, sharp, star


TUPLES = RngStream(733)  # child(seed) draws the test's tuple at that seed


def trace_square(d=1):
    outer = MultiPoly(d, {tuple(1 if i == o else 0 for i in range(d)): 1.0
                          for o in range(d)})
    inners = [NCPolynomial(d, {(j, j): 1.0}) for j in range(1, d + 1)]
    return CylindricalFunction(outer=outer, inners=inners)


def trace_square_squared():
    # U = (tr_n x^2)^2
    outer = MultiPoly(1, {(2,): 1.0})
    return CylindricalFunction(outer=outer,
                               inners=[NCPolynomial(1, {(1, 1): 1.0})])


# -- outer polynomials -----------------------------------------------------------


def test_multipoly_eval_and_partials():
    p = parse_outer("u1^2*u2 - 0.5*u1", 2)
    assert p(np.array([2.0, 3.0])) == pytest.approx(11.0)
    assert p.partial(0)(np.array([2.0, 3.0])) == pytest.approx(11.5)
    assert p.partial(1)(np.array([2.0, 3.0])) == pytest.approx(4.0)


def test_outer_format_round_trip():
    p = parse_outer("2.0*u1^3 - u2 + 0.25", 2)
    q = parse_outer(format_outer(p), 2)
    assert q.terms == p.terms


# -- eval -------------------------------------------------------------------------


def test_eval_trace_square():
    u = trace_square()
    x = hermitian_batch(TUPLES.child(1).generator(), (1,), 5, 0.7)
    expect = float(np.real(np.trace(x[0] @ x[0]))) / 5
    assert u.eval(x) == pytest.approx(expect)


def test_eval_unitary_invariance(stream):
    u = random_cylindrical(stream.child("cyl").generator(), d=2)
    x = hermitian_batch(TUPLES.child(2).generator(), (2,), 6, 0.7)
    z = stream.child("unitary").generator().standard_normal((6, 6, 2))
    v, _ = np.linalg.qr(z[..., 0] + 1j * z[..., 1])  # any unitary will do
    rotated = np.stack([v @ c @ v.conj().T for c in x])
    assert u.eval(rotated) == pytest.approx(u.eval(x), abs=1e-10)


def test_eval_product_outer():
    # g = u1 u2 with inners (x, x^3) on diag(1, 2): 1.5 * 4.5 = 6.75
    outer = MultiPoly(2, {(1, 1): 1.0})
    inners = [NCPolynomial(1, {(1,): 1.0}), NCPolynomial(1, {(1, 1, 1): 1.0})]
    u = CylindricalFunction(outer=outer, inners=inners)
    x = np.diag([1.0, 2.0]).astype(complex)[None]
    assert u.eval(x) == pytest.approx(6.75)


# -- gradient -----------------------------------------------------------------------


def test_gradient_trace_square():
    u = trace_square()
    x = hermitian_batch(TUPLES.child(3).generator(), (1,), 4, 0.7)
    g = u.gradient(x)
    assert np.allclose(g, 2.0 * x)


def test_gradient_constant_function():
    u = CylindricalFunction(outer=MultiPoly(1, {(0,): 3.0}),
                            inners=[NCPolynomial(1, {(1,): 1.0})])
    x = hermitian_batch(TUPLES.child(4).generator(), (1,), 4, 0.7)
    assert np.max(np.abs(u.gradient(x))) == 0.0


def test_gradient_chain_rule_at_identity():
    u = trace_square_squared()
    x = np.eye(3, dtype=complex)[None]
    # 2 tr(x^2) * 2x = 4 I at the identity
    assert np.allclose(u.gradient(x), 4.0 * np.eye(3))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2, 4])
def test_trace_power_value_and_gradient(d, p):
    coef = 0.7
    u = trace_power(d, p, coef)
    x = hermitian_batch(TUPLES.child(10 + d).generator(), (d,), 4, 0.7)
    powers = np.stack([np.linalg.matrix_power(c, p - 1) for c in x])
    want = coef * sum(np.trace(c @ q).real for c, q in zip(x, powers)) / 4
    assert u.eval(x) == pytest.approx(want, rel=1e-12)
    grad = u.gradient(x)
    assert np.max(np.abs(grad - coef * p * powers)) <= 1e-12 * np.max(np.abs(grad))


def quadratic_cylindrical(rng, d, outer_degree):
    """A random cylindrical function drawn as ``random_cylindrical`` draws
    one, over inners of degree <= 2 and an outer of degree <=
    ``outer_degree``."""
    inners = old_random_inners(rng, d, inner_degree=2)
    m = len(inners)
    terms = {}
    for exps in itertools.product(range(outer_degree + 1), repeat=m):
        if sum(exps) <= outer_degree and rng.random() < 0.6:
            terms[exps] = rng.normal() / (1.0 + sum(exps)) ** 2
    outer = MultiPoly(m, terms) if terms else MultiPoly.variable(m, 0)
    return CylindricalFunction(outer=outer, inners=inners)


@pytest.mark.parametrize("d", [1, 2])
def test_trace_quadratic_reproduces_eval(stream, d):
    # the affine form of a degree-1 outer over degree-2 inners; none beyond
    gen = stream.child("trace-quadratic", d).generator()
    n = 4
    linear_seen = set()
    for case in range(8):
        u = quadratic_cylindrical(gen, d, outer_degree=1 + 2 * (case % 2))
        form = u.trace_quadratic()
        linear = u.outer.degree() <= 1
        linear_seen.add(linear)
        if not linear:
            assert form is None
            continue
        x = np.stack([hermitian_batch(TUPLES.child(40 + 10 * d + case + s)
                                      .generator(), (d,), n, 0.7)
                      for s in range(3)])
        traces = np.einsum("skii->sk", x).real / n
        pairs = np.einsum("skij,slji->skl", x, x).real / n
        value = (form.const + traces @ form.lin
                 + np.einsum("skl,kl->s", pairs, form.quad))
        assert np.allclose(form.quad, form.quad.T)
        assert np.max(np.abs(value - u.eval(x))) <= 1e-12 * (
            1.0 + np.max(np.abs(u.eval(x))))
    assert linear_seen == {True, False}
    assert trace_power(d, 4).trace_quadratic() is None
    # built once, at construction, and shared read-only
    u = trace_power(d, 2)
    form = u.trace_quadratic()
    assert u.trace_quadratic() is form
    assert not form.lin.flags.writeable and not form.quad.flags.writeable
    assert trace_power(d, 2).trace_quadratic() == trace_square(d).trace_quadratic()
    assert trace_power(d, 2, 2.0).trace_quadratic() != trace_power(d, 2).trace_quadratic()


def test_gradient_matches_finite_differences(stream):
    gen = stream.child("gradfd").generator()
    u = random_cylindrical(gen, d=2)
    x = hermitian_batch(TUPLES.child(5).generator(), (2,), 4, 0.7)
    e = hermitian_batch(TUPLES.child(6).generator(), (2,), 4, 0.3)
    g = u.gradient(x)
    analytic = sum(float(np.real(np.trace(g[j] @ e[j]))) / 4 for j in range(2))
    h = 1e-5
    up = u.eval(x + h * e)
    dn = u.eval(x - h * e)
    fd = (up - dn) / (2 * h)
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("batched", [False, True])
def test_value_and_grad_matches_eval_and_gradient(stream, batched):
    gen = stream.child("vg", batched).generator()
    u = random_cylindrical(gen, d=2)
    x = hermitian_batch(TUPLES.child(7).generator(), (2,), 4, 0.7)
    if batched:
        x = np.stack([x, hermitian_batch(TUPLES.child(8).generator(), (2,), 4,
                                         0.7)])
    value, grad = u.value_and_grad(x)
    want = u.gradient(x)
    assert np.array_equal(value, u.eval(x))
    assert np.array_equal(grad, want)
    # against the cyclic derivatives evaluated one by one, each with its own
    # word-product cache
    traces = u.inner_traces(x, {})
    ref = np.zeros(x.shape, dtype=complex)
    for o, phi in enumerate(u.inners):
        go = np.asarray(u.outer.partial(o)(traces))
        for j, dpoly in enumerate(phi.gradient()):
            if dpoly.terms:
                ref[..., j, :, :] += go[..., None, None] * dpoly.evaluate(x)
    assert np.max(np.abs(grad - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


# -- Hessian ------------------------------------------------------------------------
# Paper claim: the generator with common noise,
# 1/2 beta_C^2 Hess U[1, 1] + 1/2 beta_F^2 Delta_GUE U, which
# test_generator_consistency_with_dynamics checks against the dynamics.


def hessian_bilinear(cyl, x, a, b):
    """Hess U(X)[A, B]; symmetric in (A, B), matches finite differences.

    First term pairs outer second partials with cyclic derivatives; the
    second term pushes A through the difference quotients of the gradient
    and pairs with B under tr_n.  It is the common-noise half of the
    generator of the controlled dynamics,
    1/2 beta_C^2 Hess U[1, 1] + 1/2 beta_F^2 gue_laplacian.
    """
    u = cyl.inner_traces(x, {})
    g1, g2 = cyl._outer_derivatives(u)
    dmats = cyl._cyclic_matrices(x, {})
    d, n = x.shape[-3], x.shape[-1]
    tr_da = np.einsum("ojab,jba->oj", dmats, a) / n
    tr_db = np.einsum("ojab,jba->oj", dmats, b) / n
    term1 = float(np.real(np.einsum("oq,oi,qj->", g2, tr_da, tr_db)))

    term2 = 0.0 + 0.0j
    for o, phi in enumerate(cyl.inners):
        if abs(g1[o]) < 1e-300:
            continue
        for j in range(1, min(phi.d, d) + 1):
            for i in range(1, min(phi.d, d) + 1):
                tensor = cyl._grad_polys[o][j - 1].free_difference_quotient(i)
                if not tensor.terms:
                    continue
                term2 += g1[o] * np.trace(sharp(tensor, x, a[i - 1]) @ b[j - 1]) / n
    if abs(term2.imag) > 1e-9 * (1.0 + abs(term2)):
        raise ValueError(f"Hessian has imaginary part {term2.imag:.3e}")
    return term1 + float(term2.real)


def test_hessian_trace_square():
    u = trace_square()
    x = hermitian_batch(TUPLES.child(7).generator(), (1,), 4, 0.7)
    a = hermitian_batch(TUPLES.child(8).generator(), (1,), 4, 0.5)
    expect = 2.0 * float(np.real(np.trace(a[0] @ a[0]))) / 4
    assert hessian_bilinear(u, x, a, a) == pytest.approx(expect, abs=1e-12)


def test_hessian_vanishes_for_linear():
    outer = MultiPoly(1, {(1,): 2.0})
    u = CylindricalFunction(outer=outer, inners=[NCPolynomial(1, {(1,): 1.0})])
    x = hermitian_batch(TUPLES.child(9).generator(), (1,), 4, 0.7)
    a = hermitian_batch(TUPLES.child(10).generator(), (1,), 4, 0.7)
    assert hessian_bilinear(u, x, a, a) == pytest.approx(0.0, abs=1e-14)


def test_hessian_symmetry(stream):
    gen = stream.child("hess").generator()
    u = random_cylindrical(gen, d=2)
    x = hermitian_batch(TUPLES.child(11).generator(), (2,), 4, 0.7)
    a = hermitian_batch(TUPLES.child(12).generator(), (2,), 4, 0.5)
    b = hermitian_batch(TUPLES.child(13).generator(), (2,), 4, 0.5)
    assert hessian_bilinear(u, x, a, b) == pytest.approx(
        hessian_bilinear(u, x, b, a), abs=1e-9)


def test_hessian_matches_second_differences(stream):
    gen = stream.child("hessfd").generator()
    u = random_cylindrical(gen, d=2)
    x = hermitian_batch(TUPLES.child(14).generator(), (2,), 4, 0.7)
    a = hermitian_batch(TUPLES.child(15).generator(), (2,), 4, 0.4)
    h = 1e-3
    up = u.eval(x + h * a)
    dn = u.eval(x - h * a)
    fd = (up - 2.0 * u.eval(x) + dn) / (h * h)
    assert hessian_bilinear(u, x, a, a) == pytest.approx(fd, rel=1e-5, abs=1e-5)


# -- Laplacians ----------------------------------------------------------------------


def test_gue_laplacian_trace_squares_exact():
    for d in (1, 2):
        u = trace_square(d)
        x = hermitian_batch(TUPLES.child(16).generator(), (d,), 3, 0.7)
        assert u.gue_laplacian(x, {}) == pytest.approx(2.0 * d, abs=1e-10)


def gue_laplacian_reference(u, x):
    """(1/n^2) sum_l sum_E Hess U(X)[E e_l, E e_l]: word products by explicit
    matmuls, the pair term as one 4-operand einsum per tensor word pair."""
    d, n = x.shape[-3], x.shape[-1]
    basis = np.stack([basis_element(n, i, j)
                      for i in range(1, n + 1) for j in range(1, n + 1)])

    def word(w):
        out = np.eye(n, dtype=complex)
        for letter in w:
            out = out @ x[letter - 1]
        return out

    traces = u.inner_traces(x, {})
    g1 = [u.outer.partial(o)(traces) for o in range(u.m)]
    g2 = [[u.outer.partial(o).partial(q)(traces) for q in range(u.m)]
          for o in range(u.m)]
    total = 0.0 + 0.0j
    for l in range(1, d + 1):
        grads = [phi.cyclic_derivative(l) for phi in u.inners]
        tr_de = [np.einsum("ab,eba->e", g.evaluate(x), basis) / n for g in grads]
        for o in range(u.m):
            for q in range(u.m):
                total += g2[o][q] * np.sum(tr_de[o] * tr_de[q])
        for o, g in enumerate(grads):
            for (w1, w2), c in g.free_difference_quotient(l).terms.items():
                s = np.einsum("eab,bc,ecd,da->", basis, word(w1), basis, word(w2))
                total += g1[o] * c * s / n
    return total.real / n ** 2


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_gue_laplacian_matches_literal_basis_sum(stream, d, n):
    gen = stream.child("guelit", d, n).generator()
    for _ in range(4):
        u = random_cylindrical(gen, d=d)
        x = hermitian_batch(gen, (d,), n, 0.8)
        want = gue_laplacian_reference(u, x)
        assert abs(u.gue_laplacian(x, {}) - want) <= 1e-13 * (1.0 + abs(want))


def test_gue_laplacian_constant():
    u = CylindricalFunction(outer=MultiPoly(1, {(0,): 1.5}),
                            inners=[NCPolynomial(1, {(1,): 1.0})])
    x = hermitian_batch(TUPLES.child(17).generator(), (1,), 3, 0.7)
    assert u.gue_laplacian(x, {}) == pytest.approx(0.0)


def test_gue_laplacian_guard():
    u = trace_square()
    with pytest.raises(ValueError):
        u.gue_laplacian(np.zeros((1, 70, 70), dtype=complex), {})


def test_free_laplacian_trace_square():
    u = trace_square()
    x = hermitian_batch(TUPLES.child(18).generator(), (1,), 4, 0.7)
    assert u.free_laplacian(x, {}) == pytest.approx(2.0)


def test_free_laplacian_quartic_at_zero():
    outer = MultiPoly(1, {(1,): 1.0})
    u = CylindricalFunction(outer=outer,
                            inners=[NCPolynomial(1, {(1,) * 4: 1.0})])
    assert u.free_laplacian(np.zeros((1, 4, 4), dtype=complex), {}) == \
        pytest.approx(0.0)


def test_correction_zero_for_linear_outer():
    u = trace_square()
    x = hermitian_batch(TUPLES.child(19).generator(), (1,), 4, 0.7)
    assert u.correction_term(x, {}) == pytest.approx(0.0, abs=1e-14)
    assert u.gue_laplacian(x, {}) == pytest.approx(u.free_laplacian(x, {}),
                                                   abs=1e-10)


def test_correction_trace_square_squared():
    u = trace_square_squared()
    n = 4
    x = hermitian_batch(TUPLES.child(20).generator(), (1,), n, 0.7)
    tr_x2 = float(np.real(np.trace(x[0] @ x[0]))) / n
    assert u.correction_term(x, {}) == pytest.approx(8.0 * tr_x2 / n ** 2,
                                                 abs=1e-12)
    assert abs(u.gue_laplacian(x, {}) - u.free_laplacian(x, {})
               - u.correction_term(x, {})) < 1e-10


def test_identity_random_instances(stream):
    gen = stream.child("identity").generator()
    for case in range(50):
        n = (3, 4, 6)[case % 3]
        u = random_cylindrical(gen, d=2)
        x = hermitian_batch(gen, (2,), n, 0.8)
        cache = {}
        gue, free, corr = (u.gue_laplacian(x, cache), u.free_laplacian(x, cache),
                           u.correction_term(x, cache))
        # a shared word cache changes no bit of the three terms
        assert (gue, free, corr) == (u.gue_laplacian(x, {}),
                                     u.free_laplacian(x, {}),
                                     u.correction_term(x, {}))
        assert abs(gue - free - corr) < 1e-10


@pytest.mark.parametrize("caller", ["shared-cache", "laplacian-check"])
def test_laplacian_triple_computes_each_word_once(monkeypatch, caller):
    # the GUE Laplacian, the free Laplacian and the correction at one X share
    # one word cache, so each distinct word at an X costs one product
    products, alive = Counter(), []
    original = ncpoly._word_matrix

    def counting(word, data, cache):
        if word and word not in cache:
            products[id(data), word] += 1
            alive.append(data)  # no id is reused while counting
        return original(word, data, cache)

    monkeypatch.setattr(ncpoly, "_word_matrix", counting)
    stream = RngStream(5)
    if caller == "shared-cache":
        for c in range(20):
            gen = stream.child("lap", c).generator()
            u = random_cylindrical(gen, 2)
            x, cache = sample_gue_tuple(4, 2, gen, scale=0.8), {}
            assert abs(u.gue_laplacian(x, cache) - u.free_laplacian(x, cache)
                       - u.correction_term(x, cache)) < 1e-10
    else:
        harness._exp_laplacian_check(
            {"cases": 20, "n_list": [3, 4, 6], "d": 2, "fd_step": 1e-3}, stream)
    assert products and max(products.values()) == 1


def old_random_inners(rng, d, m_max=2, inner_degree=4):
    """The inners as built through 0.5 * (p + p*)."""
    m = int(rng.integers(1, m_max + 1))
    inners = []
    for _ in range(m):
        terms = {}
        for word in words_up_to_degree(d, inner_degree):
            if rng.random() < 0.5:
                continue
            coeff = rng.normal() / (1.0 + len(word)) ** 2
            terms[word] = terms.get(word, 0.0) + coeff
        poly = NCPolynomial(d, terms)
        poly = 0.5 * (poly + star(poly))
        if not poly.terms:
            poly = NCPolynomial(d, {(1,): 1.0})
        inners.append(poly)
    return inners


@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_cylindrical_inners_equal_symmetrized_construction(d):
    for seed in range(20):
        got = random_cylindrical(RngStream(seed).generator(), d).inners
        want = old_random_inners(RngStream(seed).generator(), d)
        assert [list(p.terms.items()) for p in got] == \
            [list(p.terms.items()) for p in want]
        assert all(star(p).terms == p.terms for p in got)


def test_free_laplacian_scale_covariance():
    # U = tr x^4: free Laplacian 4 sum_k tr(x^k) tr(x^(2-k)) scales as s^2
    outer = MultiPoly(1, {(1,): 1.0})
    u = CylindricalFunction(outer=outer,
                            inners=[NCPolynomial(1, {(1,) * 4: 1.0})])
    x = hermitian_batch(TUPLES.child(21).generator(), (1,), 5, 0.7)
    s = 1.7
    scaled = s * x
    assert u.free_laplacian(scaled, {}) == pytest.approx(
        s ** 2 * u.free_laplacian(x, {}), rel=1e-10)


def test_serialization_round_trip(stream):
    u = random_cylindrical(stream.child("ser").generator(), d=2)
    x = hermitian_batch(TUPLES.child(22).generator(), (2,), 4, 0.7)
    back = CylindricalFunction.from_json(cylindrical_to_json(u), d=2)
    assert back.eval(x) == pytest.approx(u.eval(x), abs=1e-12)


def test_generator_consistency_with_dynamics(stream):
    # d/dt E U(X_t) for the zero-control SDE matches
    # 0.5 beta_C^2 Hess[1,1] + 0.5 beta_F^2 gue_laplacian = (bc^2+bf^2) d
    from nclab.harness import lq_problem

    d, n = 2, 8
    beta_c, beta_f = 0.7, 0.9
    u = trace_square(d)
    x0 = np.zeros((d, n, n), dtype=complex)
    ident = np.broadcast_to(np.eye(n, dtype=complex), (d, n, n))
    drift_rate = (0.5 * beta_c ** 2 * hessian_bilinear(u, x0, ident, ident)
                  + 0.5 * beta_f ** 2 * u.gue_laplacian(x0, {}))
    assert drift_rate == pytest.approx((beta_c ** 2 + beta_f ** 2) * d,
                                       abs=1e-10)

    problem = lq_problem(n, d=d, beta_c=beta_c, beta_f=beta_f, T=1.0)
    steps, paths = 4, 400
    base = stream.child("gen")
    finals = np.array([euler_maruyama(problem, None, steps, base.child(p)).states[-1]
                       for p in range(paths)])
    slope = float(np.mean(u.eval(finals)))  # U(X_0) = 0, horizon 1
    assert slope == pytest.approx(drift_rate, rel=0.05)
