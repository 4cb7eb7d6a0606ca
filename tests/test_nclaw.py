import math

import numpy as np
import pytest
from scipy import integrate

from conftest import hermitian_batch
from nclab import nclaw
from nclab.ncpoly import NCPolynomial
from nclab.randmat import RngStream, sample_gue

TUPLES = RngStream(411)  # child(seed) draws the test's tuple at that seed


# -- freeness ---------------------------------------------------------------------


def test_freeness_single_factor_is_zero():
    x = hermitian_batch(TUPLES.child(11).generator(), (1,), 6, 0.6)
    poly = NCPolynomial(1, {(1, 1): 1.0})
    assert nclaw.freeness_statistic([x], [1], [poly]) == pytest.approx(0.0,
                                                                       abs=1e-12)


def test_freeness_rejects_repeated_index():
    x = hermitian_batch(TUPLES.child(12).generator(), (1,), 4, 0.6)
    poly = NCPolynomial(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        nclaw.freeness_statistic([x, x], [1, 1], [poly, poly])


def test_freeness_two_gue_squares(stream):
    gen = stream.child("free2").generator()
    poly = NCPolynomial(1, {(1, 1): 1.0})
    stats = []
    for _ in range(50):
        s1 = sample_gue(128, gen)[None]
        s2 = sample_gue(128, gen)[None]
        stats.append(nclaw.freeness_statistic([s1, s2], [1, 2], [poly, poly]))
    assert np.mean(np.abs(stats)) < 0.05


def test_freeness_decay_across_n(stream):
    gen = stream.child("decay").generator()
    poly = NCPolynomial(1, {(1, 1): 1.0})
    means = []
    for n in (8, 32, 128):
        stats = []
        for _ in range(50):
            s1 = sample_gue(n, gen)[None]
            s2 = sample_gue(n, gen)[None]
            stats.append(nclaw.freeness_statistic([s1, s2], [1, 2],
                                                  [poly, poly]))
        means.append(np.mean(np.abs(stats)))
    assert means[0] > means[1] > means[2]


# -- semicircle references -----------------------------------------------------------
# Paper claim: the target law of the Laplace principle.  The arctan moments
# (``adaptive_simpson``) are the moments of ``semicircle_arctan_law``, the
# ``NCLaw`` at which the tests' ``rate_function_candidate`` evaluates phi.


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
