import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate, special, stats

from nclab import control as ctl
from nclab import gaussdisc as gd

# frozen oracles (scipy / mpmath, see the formulas next to each use)
Q1 = 0.15865525393145705            # P(Z > 1)
PATH_PROB_11 = 0.02517148960005512  # Q(1)^2
OMEGA_TAIL_D025 = 1.1866077664114205  # 0.5 phi(2)/Q(2)
ABSDEV_DEGENERATE = 0.004826241986514676  # E|X - m| on (0,1], X ~ N(0,1e-4)
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


# -- erfcx -----------------------------------------------------------------------


def assert_erfcx_matches_scipy(x):
    want = float(special.erfcx(x))
    assert gd.erfcx(x) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [-6.0, -1.0, -1e-300, 0.0, 1e-300, 0.5, 1.0,
                               5.0, 25.999999999, 26.0, 26.000001, 40.0,
                               1e4, 1e8])
def test_erfcx_matches_scipy_at_the_seams(x):
    assert_erfcx_matches_scipy(x)


@settings(max_examples=400, deadline=None)
@given(x=hst.floats(-6.0, 1e8))
def test_erfcx_matches_scipy(x):
    assert_erfcx_matches_scipy(x)


def test_erfcx_limits():
    assert gd.erfcx(-30.0) == math.inf
    assert gd.erfcx(math.inf) == 0.0
    assert math.isnan(gd.erfcx(math.nan))


# -- bins ------------------------------------------------------------------------


def test_bin_boundaries_paper_cases():
    assert gd.bin_boundaries(2, 0) == (0.0, 0.5)
    assert gd.bin_boundaries(2, 2) == (1.0, math.inf)
    assert gd.bin_boundaries(2, -3) == (-math.inf, -1.0)


def test_bin_boundaries_out_of_range():
    with pytest.raises(ValueError):
        gd.bin_boundaries(2, 3)
    with pytest.raises(ValueError):
        gd.bin_boundaries(2, -4)


@pytest.mark.parametrize("N", [1, 2, 8, 25])
def test_bin_of_reads_the_right_closed_bins(gen, N):
    """``bin_of`` puts each value in the bin (a, b] of ``bin_boundaries``
    that holds it: on random values, at every edge j/N (-1 and 1 among
    them; at N = 25 the edge 7/25 times N rounds above 7) and just above
    each edge."""
    edges = np.array([j / N for j in range(-N, N + 1)])
    values = np.concatenate([gen.uniform(-1.5, 1.5, 500), edges,
                             np.nextafter(edges, math.inf)])
    got = gd.bin_of(values, N)
    assert got.shape == values.shape
    for v, j in zip(values, got):
        a, b = gd.bin_boundaries(N, int(j))
        assert a < v <= b
    assert gd.bin_of(-1.0, N) == -N - 1 and gd.bin_of(1.0, N) == N - 1
    assert list(gd.bin_of(edges[1:], N)) == list(range(-N, N))
    assert gd.bin_of(np.zeros((2, 3)), N).shape == (2, 3)


def test_bin_probabilities_partition():
    for N, delta in [(1, 1.0), (2, 0.25), (8, 0.01)]:
        total = sum(gd.bin_probability(j, delta, N) for j in gd.bin_indices(N))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_bin_probability_symmetry():
    for j in range(-3, 2):
        assert gd.bin_probability(j, 0.3, 2) == pytest.approx(
            gd.bin_probability(-j - 1, 0.3, 2), abs=1e-15)


def test_bin_probability_tail_oracle():
    assert gd.bin_probability(1, 1.0, 1) == pytest.approx(Q1, abs=1e-14)


def test_conditional_mean_antisymmetry():
    for j in gd.bin_indices(2):
        assert gd.bin_conditional_mean(j, 0.25, 2) == pytest.approx(
            -gd.bin_conditional_mean(-j - 1, 0.25, 2), abs=1e-13)


def test_conditional_mean_tail_mills_oracle():
    assert gd.bin_conditional_mean(1, 0.25, 1) == pytest.approx(
        OMEGA_TAIL_D025, abs=1e-9)


def test_conditional_mean_inside_bin():
    omega = gd.bin_conditional_mean(0, 0.25, 2)
    assert 0.0 <= omega <= 0.5


def test_conditional_mean_quadrature_cross_check():
    # independent check: direct integral against the Mills-ratio closed form
    for (j, delta, N) in [(0, 0.25, 2), (1, 0.25, 2), (2, 0.25, 2),
                          (0, 1.0, 1), (1, 0.04, 1)]:
        a, b = gd.bin_boundaries(N, j)
        sd = math.sqrt(delta)
        hi = b if b != math.inf else 40 * sd
        p = gd.bin_probability(j, delta, N)
        val, _ = integrate.quad(lambda x: x * stats.norm.pdf(x, scale=sd),
                                a, hi, epsabs=1e-15)
        assert gd.bin_conditional_mean(j, delta, N) == pytest.approx(
            val / p, abs=1e-9)


def test_omega_bound_two_across_grid():
    for delta in (1.0, 0.25, 0.01):
        for N in (1, 2, 8):
            table = gd.noise_table(N, delta)
            assert table.omega_in_range
            assert np.all(np.abs(table.omegas) <= 2.0 + 1e-12)


def test_centered_conditional_means():
    for (N, delta) in [(1, 1.0), (2, 0.25), (8, 0.01)]:
        table = gd.noise_table(N, delta)
        assert abs(float(table.probs @ table.omegas)) <= 1e-12


def test_vanishing_tail_probability_raises():
    with pytest.raises(ValueError):
        gd.bin_conditional_mean(1, 1e-6, 1)  # tail mass below 1e-300


# -- conditional absolute deviation -------------------------------------------------


def test_absdev_interior_bound():
    assert gd.bin_conditional_absdev(0, 0.01, 4) <= 0.25


def test_absdev_tail_bound():
    assert gd.bin_conditional_absdev(1, 0.04, 1) <= 0.2


def test_absdev_degenerate_bin_oracle():
    # N=1, delta=1e-4: the bin (0, 1] holds nearly all positive mass; the
    # closed-form Gaussian partial-moment oracle gives 0.48262 sigma.
    val = gd.bin_conditional_absdev(0, 1e-4, 1)
    assert val == pytest.approx(ABSDEV_DEGENERATE, abs=1e-9)


# -- paths ------------------------------------------------------------------------


def tree_row(N, prefix):
    """The row of a bin prefix in its level's tables of the bin tree."""
    policy = ctl.DiscretePolicy(N=N, R=1.0, gate_level=1.0, degree=1,
                                steps=[])
    return policy.prefix_index(prefix)


def test_path_probability_two_tails():
    tree = ctl._bin_tree(2, 1, 1.0, False)
    assert tree.probs[1][tree_row(1, (1, 1))] == pytest.approx(PATH_PROB_11,
                                                               abs=1e-12)


def test_noise_value_antisymmetric_pair():
    tree = ctl._bin_tree(2, 2, 0.25, False)
    assert tree.noise[1][tree_row(2, (1, -2))] == pytest.approx(0.0,
                                                                abs=1e-13)


@pytest.mark.parametrize("N", [1, 2])
def test_prefix_index_numbers_the_bin_tree_rows(N):
    """``prefix_index`` is the C-order numbering ``_bin_tree`` builds: the
    row of each prefix holds the product of its bins' probabilities and
    the sum of their conditional means, and its parent's row is the row
    over the branching."""
    K, delta = 3, 0.25
    table = gd.noise_table(N, delta)
    tree = ctl._bin_tree(K, N, delta, False)
    branch = ctl.tree_branching(N, False)
    for i in range(1, K + 1):
        rows = []
        for prefix in itertools.product(table.indices, repeat=i):
            row = tree_row(N, prefix)
            rows.append(row)
            assert tree.probs[i - 1][row] == pytest.approx(
                math.prod(table.prob(j) for j in prefix), rel=1e-14)
            assert tree.noise[i - 1][row] == pytest.approx(
                sum(table.omega(j) for j in prefix), abs=1e-14)
            if i > 1:
                assert tree_row(N, prefix[:-1]) == row // branch
        assert sorted(rows) == list(range(branch ** i))


def test_prefix_semantics():
    # a path's probability and noise value extend its prefix's by one step
    table = gd.noise_table(2, 0.25)
    tree = ctl._bin_tree(3, 2, 0.25, False)
    row2, row3 = tree_row(2, (0, 1)), tree_row(2, (0, 1, -1))
    assert tree.noise[1][row2] == pytest.approx(table.omega(0) + table.omega(1),
                                                abs=1e-15)
    assert tree.noise[2][row3] == pytest.approx(
        tree.noise[1][row2] + table.omega(-1), abs=1e-15)
    assert tree.probs[2][row3] == pytest.approx(
        tree.probs[1][row2] * table.prob(-1), rel=1e-14)


# -- truncated Gaussian analytics ----------------------------------------------------


def test_truncated_mean_far_left_limit():
    assert gd.truncated_gaussian_mean(-37.0) == pytest.approx(0.0, abs=1e-12)
    assert gd.truncated_gaussian_variance(-37.0) == pytest.approx(1.0, abs=1e-9)


def test_truncated_mean_half_normal():
    assert gd.truncated_gaussian_mean(0.0) == pytest.approx(HALF_NORMAL_MEAN,
                                                            abs=1e-12)


def test_truncated_moments_at_two():
    assert gd.truncated_gaussian_variance(2.0) <= 1.0
    assert gd.truncated_gaussian_mean(2.0) <= 4.0


def test_truncated_variance_grid():
    for z in np.arange(0.0, 5.0 + 1e-9, 0.1):
        assert gd.truncated_gaussian_variance(float(z)) <= 1.0 + 1e-12


def test_truncated_mean_linear_bound():
    for k in np.arange(1.0, 5.0 + 1e-9, 0.25):
        assert gd.truncated_gaussian_mean(float(k)) <= 2.0 * k


def test_truncated_mean_no_overflow_deep_tail():
    val = gd.truncated_gaussian_mean(50.0)
    assert 50.0 < val < 50.03  # asymptotically z + 1/z


# -- bridge bound ---------------------------------------------------------------------


def test_bridge_bound_degenerate_endpoints(stream):
    assert gd.bridge_bound_check(0.0, 0.0, 1.0, 100, stream.child(0))
    assert gd.bridge_bound_check(0.0, 1.0, 1.0, 100, stream.child(1))


def test_bridge_bound_scalar(stream):
    assert gd.bridge_bound_check(0.0, 0.5, 1.0, 10_000, stream.child(2))


def test_bridge_bound_matrix(stream):
    assert gd.bridge_bound_check(0.0, 0.5, 1.0, 2000, stream.child(3), n=8)


def test_bridge_bound_rejects_bad_interval(stream):
    with pytest.raises(ValueError):
        gd.bridge_bound_check(0.5, 0.2, 1.0, 100, stream)
