import math

import numpy as np
import pytest
from scipy import integrate

from nclab import nclaw
from nclab.matrixcore import MatrixTuple, random_hermitian
from nclab.ncpoly import NCPolynomial
from nclab.randmat import RngStream, sample_gue

# frozen from the geometric sum sum_{m=1..8} 4^-m = (1 - 4^-8)/3
METRIC_ZERO_VS_IDENTITY = 0.3333282470703125


def rand_tuple(d, n, seed, scale=0.6):
    gen = RngStream(411, (seed,)).generator()
    return MatrixTuple(np.stack([random_hermitian(n, gen, scale)
                                 for _ in range(d)]))


# -- empirical laws ---------------------------------------------------------------


def test_empirical_law_zero_tuple():
    law = nclaw.empirical_law(MatrixTuple.zero(2, 4), 4)
    for word, val in law.moments.items():
        expected = 1.0 if not word else 0.0
        assert val == pytest.approx(expected, abs=1e-14)


def test_empirical_law_identity():
    law = nclaw.empirical_law(MatrixTuple.identity(1, 5), 6)
    for m in range(7):
        assert law.moment((1,) * m) == pytest.approx(1.0)


def test_empirical_law_parity():
    x = MatrixTuple(np.diag([1.0, -1.0]).astype(complex)[None])
    law = nclaw.empirical_law(x, 8)
    for m in range(9):
        assert law.moment((1,) * m) == pytest.approx(1.0 if m % 2 == 0 else 0.0,
                                                     abs=1e-14)


def test_law_invariants_on_random_tuple():
    law = nclaw.empirical_law(rand_tuple(2, 6, seed=1), 5)
    law.validate(tol=1e-9)
    # radius consistency: |m(w)|^(1/|w|) <= radius
    for word, val in law.moments.items():
        if word:
            assert abs(val) ** (1.0 / len(word)) <= law.radius_bound + 1e-9


# -- arctan pushforward -------------------------------------------------------------


def test_arctan_law_zero():
    law = nclaw.arctan_law(MatrixTuple.zero(1, 4), 5)
    assert law.moment((1,)) == pytest.approx(0.0, abs=1e-14)


def test_arctan_law_identity_powers():
    law = nclaw.arctan_law(MatrixTuple.identity(1, 4), 6)
    for m in range(1, 7):
        assert law.moment((1,) * m) == pytest.approx((math.pi / 4) ** m)


def test_arctan_law_radius():
    law = nclaw.arctan_law(rand_tuple(2, 8, seed=3, scale=3.0), 5)
    assert law.radius_bound <= math.pi / 2
    for word, val in law.moments.items():
        if word:
            assert abs(val) <= (math.pi / 2) ** len(word) * (1 + 1e-9)


# -- metric ----------------------------------------------------------------------


def test_metric_identical_laws():
    law = nclaw.arctan_law(rand_tuple(1, 6, seed=4), 6)
    assert nclaw.law_metric(law, law, 6) == 0.0


def test_metric_zero_vs_identity_geometric_sum():
    l0 = nclaw.arctan_law(MatrixTuple.zero(1, 4), 8)
    l1 = nclaw.arctan_law(MatrixTuple.identity(1, 4), 8)
    assert nclaw.law_metric(l0, l1, 8) == pytest.approx(
        METRIC_ZERO_VS_IDENTITY, abs=1e-12)


def test_metric_triangle_inequality():
    laws = [nclaw.arctan_law(rand_tuple(1, 5, seed=s), 5) for s in (5, 6, 7)]
    d01 = nclaw.law_metric(laws[0], laws[1], 5)
    d12 = nclaw.law_metric(laws[1], laws[2], 5)
    d02 = nclaw.law_metric(laws[0], laws[2], 5)
    assert d02 <= d01 + d12 + 1e-12


def test_metric_rejects_mismatched_laws():
    l1 = nclaw.arctan_law(rand_tuple(1, 4, seed=8), 6)
    l2 = nclaw.arctan_law(rand_tuple(2, 4, seed=9), 6)
    with pytest.raises(ValueError):
        nclaw.law_metric(l1, l2, 6)
    shallow = nclaw.arctan_law(rand_tuple(1, 4, seed=8), 3)
    with pytest.raises(ValueError):
        nclaw.law_metric(l1, shallow, 6)


def test_metric_rejects_uncompressed_law():
    raw = nclaw.empirical_law(rand_tuple(1, 4, seed=10, scale=3.0), 6)
    ref = nclaw.arctan_law(rand_tuple(1, 4, seed=10), 6)
    if raw.radius_bound > math.pi / 2:
        with pytest.raises(ValueError):
            nclaw.law_metric(raw, ref, 6)


# -- freeness ---------------------------------------------------------------------


def test_freeness_single_factor_is_zero():
    x = rand_tuple(1, 6, seed=11)
    poly = NCPolynomial(1, {(1, 1): 1.0})
    assert nclaw.freeness_statistic([x], [1], [poly]) == pytest.approx(0.0,
                                                                       abs=1e-12)


def test_freeness_rejects_repeated_index():
    x = rand_tuple(1, 4, seed=12)
    poly = NCPolynomial(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        nclaw.freeness_statistic([x, x], [1, 1], [poly, poly])


def test_freeness_two_gue_squares(stream):
    gen = stream.child("free2").generator()
    poly = NCPolynomial(1, {(1, 1): 1.0})
    stats = []
    for _ in range(50):
        s1 = MatrixTuple(sample_gue(128, gen)[None], validate=False)
        s2 = MatrixTuple(sample_gue(128, gen)[None], validate=False)
        stats.append(nclaw.freeness_statistic([s1, s2], [1, 2], [poly, poly]))
    assert np.mean(np.abs(stats)) < 0.05


def test_freeness_decay_across_n(stream):
    gen = stream.child("decay").generator()
    poly = NCPolynomial(1, {(1, 1): 1.0})
    means = []
    for n in (8, 32, 128):
        stats = []
        for _ in range(50):
            s1 = MatrixTuple(sample_gue(n, gen)[None], validate=False)
            s2 = MatrixTuple(sample_gue(n, gen)[None], validate=False)
            stats.append(nclaw.freeness_statistic([s1, s2], [1, 2],
                                                  [poly, poly]))
        means.append(np.mean(np.abs(stats)))
    assert means[0] > means[1] > means[2]


# -- semicircle references -----------------------------------------------------------


def test_catalan_sequence():
    assert [nclaw.catalan(k) for k in range(5)] == [1, 1, 2, 5, 14]


def test_semicircle_moments():
    assert nclaw.semicircle_moment(2) == 1.0
    assert nclaw.semicircle_moment(4) == 2.0
    assert nclaw.semicircle_moment(3) == 0.0
    with pytest.raises(ValueError):
        nclaw.semicircle_moment(-1)


def test_semicircle_arctan_moment_against_quad():
    # independent oracle: adaptive Gauss-Kronrod from scipy
    for m in (2, 4, 6):
        ref, _ = integrate.quad(
            lambda x: math.atan(x) ** m * math.sqrt(4 - x * x) / (2 * math.pi),
            -2, 2, epsabs=1e-13)
        assert nclaw.semicircle_arctan_moment(m) == pytest.approx(ref, abs=1e-9)
    assert nclaw.semicircle_arctan_moment(3) == 0.0


def test_weak_star_convergence_surrogate(stream):
    gen = stream.child("weakstar").generator()
    ref = nclaw.semicircle_arctan_law(6)
    dists = {}
    for n in (16, 128):
        vals = []
        for _ in range(20):
            s = MatrixTuple(sample_gue(n, gen)[None], validate=False)
            vals.append(nclaw.law_metric(nclaw.arctan_law(s, 6), ref, 6))
        dists[n] = np.mean(vals)
    assert dists[128] < dists[16]
