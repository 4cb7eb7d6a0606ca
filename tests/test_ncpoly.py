import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hermitian_batch, random_hermitian
from nclab import ncpoly as ncp
from nclab.randmat import RngStream
from references import sharp, star

TUPLES = RngStream(991)  # child(seed) draws the test's tuple at that seed


x1 = ncp.NCPolynomial.monomial(2, (1,))
x2 = ncp.NCPolynomial.monomial(2, (2,))


# -- words, parsing, formatting ------------------------------------------------


def test_words_graded_lex_order():
    words = ncp.words_up_to_degree(2, 2)
    assert words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_parse_basic():
    p = ncp.parse_polynomial("2.0*x1*x2*x1 - 0.5*x2", 2)
    assert p.terms == {(1, 2, 1): 2.0, (2,): -0.5}


def test_parse_compact_signs_and_powers():
    p = ncp.parse_polynomial("-x1^2 -0.5*x2 + 3", 2)
    assert p.terms == {(1, 1): -1.0, (2,): -0.5, (): 3.0}


def test_parse_rejects_unknown_letter():
    with pytest.raises(ValueError):
        ncp.parse_polynomial("x3", 2)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ncp.parse_polynomial("x1 & x2", 2)
    with pytest.raises(ValueError):
        ncp.parse_polynomial("x1 +", 2)


def test_format_round_trip():
    p = 2.0 * x1 * x2 * x1 - 0.5 * x2 + 1.5
    q = ncp.parse_polynomial(ncp.format_polynomial(p), 2)
    assert q == p


# -- evaluation -----------------------------------------------------------------


def test_evaluate_unit():
    p = ncp.NCPolynomial.unit(2)
    x = hermitian_batch(TUPLES.child(0).generator(), (2,), 4, 0.7)
    assert np.allclose(p.evaluate(x), np.eye(4))
    assert p.evaluate_trace(x, {}) == pytest.approx(1.0)


def test_commutator_on_commuting_tuple():
    p = x1 * x2 - x2 * x1
    x = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, -1.0])]).astype(complex)
    assert np.max(np.abs(p.evaluate(x))) <= 1e-14


def test_square_of_pauli_x():
    p = ncp.NCPolynomial(1, {(1, 1): 1.0})
    x = np.array([[[0, 1], [1, 0]]], dtype=complex)
    assert np.allclose(p.evaluate(x), np.eye(2))
    assert p.evaluate_trace(x, {}) == pytest.approx(1.0)


def test_evaluate_batched_matches_loop():
    p = 1.5 * x1 * x2 + x2 * x2
    data = np.stack([hermitian_batch(TUPLES.child(k).generator(), (2,), 3, 0.7)
                     for k in range(5)])
    batched = p.evaluate(data)
    for k in range(5):
        single = p.evaluate(data[k])
        assert np.allclose(batched[k], single)


def test_one_letter_word_is_the_letter():
    data = np.stack([hermitian_batch(TUPLES.child(k).generator(), (2,), 3, 0.7)
                     for k in range(4)])
    cache = {}
    assert np.array_equal(ncp._word_matrix((2,), data, cache), data[:, 1])
    assert np.array_equal(ncp._word_matrix((2, 1), data, cache),
                          data[:, 1] @ data[:, 0])


def test_evaluate_returns_a_fresh_array():
    x = hermitian_batch(TUPLES.child(6).generator(), (2,), 3, 0.7)
    before = x.copy()
    for p in (x1, 2.0 * x2, x1 + x2):
        out = p.evaluate(x)
        out[...] = 7.0
        assert np.array_equal(x, before)


def test_trace_imaginary_check_is_per_element():
    # a large real trace beside a small imaginary one: the batch-wide bound
    # 1e-10 (1 + 1e6) would pass the second element, its own bound does not
    p = ncp.NCPolynomial(1, {(1,): 1.0})
    big = np.eye(3, dtype=complex)[None] * 1e6
    tilted = np.eye(3, dtype=complex)[None] * 1e-6j
    assert p.evaluate_trace(big, {}) == pytest.approx(1e6)
    with pytest.raises(ValueError, match="imaginary part"):
        p.evaluate_trace(tilted, {})
    with pytest.raises(ValueError, match="imaginary part"):
        p.evaluate_trace(np.stack([big, tilted]), {})
    batch = np.stack([big, hermitian_batch(TUPLES.child(9).generator(), (1,), 3,
                                           0.7)])
    want = [p.evaluate_trace(b, {}) for b in batch]
    assert np.array_equal(p.evaluate_trace(batch, {}), want)


def test_trace_cyclic_shift_invariance():
    x = hermitian_batch(TUPLES.child(3).generator(), (2,), 5, 0.7)
    word = (1, 2, 2, 1, 2)
    base = ncp.NCPolynomial.monomial(2, word).evaluate_trace(x, {})
    for s in range(1, len(word)):
        shifted = ncp.NCPolynomial.monomial(2, word[s:] + word[:s])
        assert shifted.evaluate_trace(x, {}) == pytest.approx(base, abs=1e-10)


# -- involution -------------------------------------------------------------------
# Paper claim: self-adjoint inners give real traces.  ``star`` is the
# involution p -> p*, the reference for ``symmetrize`` and ``is_selfadjoint``.


def test_star_examples():
    assert star(x1 * x2) == x2 * x1
    assert star(1j * x1) == -1j * x1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.integers(1, 2), max_size=4),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)),
    max_size=5))
def test_symmetrization_is_selfadjoint(terms):
    p = ncp.NCPolynomial(2, {tuple(w): c for w, c in terms})
    assert (p + star(p)).is_selfadjoint()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.integers(1, 3), max_size=4),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)),
    max_size=6))
def test_symmetrize_equals_half_sum_with_star(terms):
    p = ncp.NCPolynomial(3, {tuple(w): c for w, c in terms})
    want = 0.5 * (p + star(p))
    assert list(p.symmetrize().terms.items()) == list(want.terms.items())


def test_symmetrize_cancels_and_prunes_like_half_sum():
    # (1,2) and (2,1) cancel; 1.5e-15 survives on a palindrome only
    p = ncp.NCPolynomial(2, {(1, 2): 1 + 2j, (2, 1): -1 + 2j,
                             (1, 1, 2): 1.5e-15, (1,): 1.5e-15, (): 3.0})
    got = p.symmetrize()
    assert got.terms == {(1,): 1.5e-15 + 0j, (): 3.0 + 0j}
    want = 0.5 * (p + star(p))
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.integers(1, 3), max_size=4),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)),
    max_size=6),
    st.booleans(),
    st.lists(st.integers(1, 3), max_size=4),
    st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 1e-9, 1j * 1e-12, 2j * 1e-12]))
def test_is_selfadjoint_matches_difference_definition(terms, symmetric, word,
                                                      nudge):
    # reference: p - p* built with the polynomial algebra, every coefficient
    # of the difference within the tolerance
    p = ncp.NCPolynomial(3, {tuple(w): c for w, c in terms})
    if symmetric:
        p = p + star(p)
    p = p + ncp.NCPolynomial(3, {tuple(word): nudge})
    diff = p - star(p)
    assert p.is_selfadjoint() == all(abs(c) <= 1e-12 for c in diff.terms.values())


def test_star_is_involution():
    p = 2.0 * x1 * x2 * x1 - (0.5 + 1j) * x2
    assert star(star(p)) == p


# -- derivatives ------------------------------------------------------------------


def test_fdq_single_letter():
    t = ncp.NCPolynomial.monomial(2, (1,)).free_difference_quotient(1)
    assert t.terms == {((), ()): 1.0}


def test_fdq_three_letter_word():
    p = ncp.NCPolynomial.monomial(2, (1, 2, 1))
    t = p.free_difference_quotient(1)
    assert t.terms == {((), (2, 1)): 1.0, ((1, 2), ()): 1.0}


def test_fdq_absent_letter():
    p = ncp.NCPolynomial(2, {(1, 1): 1.0})
    assert p.free_difference_quotient(2).terms == {}


def test_cyclic_derivative_square():
    p = ncp.NCPolynomial(1, {(1, 1): 1.0})
    assert p.cyclic_derivative(1) == ncp.NCPolynomial(1, {(1,): 2.0})


def test_cyclic_derivative_product():
    assert (x1 * x2).cyclic_derivative(1) == x2


def test_cyclic_derivative_absent_letter():
    p = ncp.NCPolynomial(2, {(1, 1, 1): 1.0})
    assert p.cyclic_derivative(2).terms == {}


def test_leibniz_fd_check():
    # d/dt tr_n p(X + tE) at 0 equals <cyclic gradient, E>
    x = hermitian_batch(TUPLES.child(5).generator(), (2,), 4, 0.7)
    e = hermitian_batch(TUPLES.child(6).generator(), (2,), 4, 0.4)
    p = (2.0 * x1 * x2 * x1 + x2 * x2 * x2).symmetrize()
    grads = p.gradient()
    analytic = sum(
        float(np.real(np.trace(grads[j].evaluate(x) @ e[j]))) / 4
        for j in range(2))
    h = 1e-4 * (1.0 + max(np.linalg.norm(c) for c in x))
    up = p.evaluate_trace(x + h * e, {})
    dn = p.evaluate_trace(x - h * e, {})
    assert analytic == pytest.approx((up - dn) / (2 * h), abs=1e-6)


def test_sharp_is_directional_derivative():
    # d/dt p(X + t e_j E) = (d_j p)(X) # E for matrix-valued evaluation
    x = hermitian_batch(TUPLES.child(7).generator(), (2,), 4, 0.7)
    e = random_hermitian(4, RngStream(17).generator(), scale=0.5)
    p = x1 * x2 * x1
    tensor = p.free_difference_quotient(1)
    analytic = sharp(tensor, x, e)
    h = 1e-5
    shift = np.zeros_like(x)
    shift[0] = e
    up = p.evaluate(x + h * shift)
    dn = p.evaluate(x - h * shift)
    assert np.max(np.abs(analytic - (up - dn) / (2 * h))) <= 1e-6


# -- tensor operations ---------------------------------------------------------------


def test_tensor_unit_sharp_and_trace():
    t = ncp.TensorPolynomial(1, {((), ()): 1.0})
    x = hermitian_batch(TUPLES.child(8).generator(), (1,), 3, 0.7)
    c = random_hermitian(3, RngStream(18).generator())
    assert np.allclose(sharp(t, x, c), c)
    assert t.trace_pair(x, {}) == pytest.approx(1.0)


def test_tensor_letter_pair_on_identity():
    t = ncp.TensorPolynomial(1, {((1,), (1,)): 1.0})
    x = np.eye(3, dtype=complex)[None]
    c = random_hermitian(3, RngStream(19).generator())
    assert np.allclose(sharp(t, x, c), c)
    assert t.trace_pair(x, {}) == pytest.approx(1.0)


def test_tensor_trace_of_fdq_on_diagonal():
    p = ncp.NCPolynomial(1, {(1, 1): 1.0})
    t = p.free_difference_quotient(1)
    x = np.diag([1.0, 2.0]).astype(complex)[None]
    # 1 (x) x + x (x) 1 -> 2 tr_n(X) = 3
    assert t.trace_pair(x, {}) == pytest.approx(3.0)


def test_coefficient_pruning():
    p = ncp.NCPolynomial(1, {(1,): 1e-16})
    assert p.terms == {}
    q = x1 - x1
    assert q.terms == {}
