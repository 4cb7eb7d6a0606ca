import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nclab import randmat as rm
from nclab.matrixcore import hermitize
from nclab.ncpoly import NCPolynomial
from nclab.nclaw import freeness_statistic, semicircle_moment
from references import brownian_increments


def tr_n(a):
    return float(np.trace(a).real) / a.shape[0]


def test_reproducibility_bit_identical():
    a = rm.sample_gue(16, rm.RngStream(5, (1, 2)))
    b = rm.sample_gue(16, rm.RngStream(5, (1, 2)))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_gue_matches_docstring_formula(n):
    # S_ii = g_ii / sqrt(n), S_ij = (g_ij - i g_ji) / sqrt(2n) for i < j,
    # S_ji = conj(S_ij), from the generator's first (n, n) normal draw;
    # repeated calls reuse the cached index arrays and stay bit-identical
    for k in range(3):
        stream = rm.RngStream(11, (n, k))
        s = rm.sample_gue(n, stream)
        g = stream.generator().standard_normal((n, n))
        want = np.zeros((n, n), dtype=complex)
        for i in range(n):
            want[i, i] = g[i, i] / np.sqrt(n)
            for j in range(i + 1, n):
                want[i, j] = (g[i, j] - 1j * g[j, i]) / np.sqrt(2.0 * n)
                want[j, i] = np.conj(want[i, j])
        assert np.array_equal(s, want)


def test_child_streams_differ():
    base = rm.RngStream(5)
    a = rm.sample_gue(8, base.child(0))
    b = rm.sample_gue(8, base.child(1))
    assert not np.allclose(a, b)


def test_string_labels_are_stable():
    a = rm.sample_gue(4, rm.RngStream(5).child("train", 3))
    b = rm.sample_gue(4, rm.RngStream(5).child("train", 3))
    c = rm.sample_gue(4, rm.RngStream(5).child("val", 3))
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_gue_is_hermitian(gen):
    s = rm.sample_gue(9, gen)
    assert np.max(np.abs(s - s.conj().T)) == 0.0


def test_gue_first_moment(stream):
    gen = stream.child("m1").generator()
    vals = [tr_n(rm.sample_gue(8, gen)) for _ in range(2000)]
    assert -0.02 <= np.mean(vals) <= 0.02


def test_gue_second_moment(stream):
    gen = stream.child("m2").generator()
    vals = []
    for _ in range(2000):
        s = rm.sample_gue(8, gen)
        vals.append(tr_n(s @ s))
    assert 0.98 <= np.mean(vals) <= 1.02


def test_gue_fourth_moment_catalan(stream):
    gen = stream.child("m4").generator()
    vals = []
    for _ in range(20):
        s = rm.sample_gue(256, gen)
        vals.append(tr_n(s @ s @ s @ s))
    assert 1.9 <= np.mean(vals) <= 2.1


def test_wigner_moments_within_5pct(stream):
    gen = stream.child("wigner").generator()
    moments = np.zeros(4)
    reps = 20
    for _ in range(reps):
        w = np.linalg.eigvalsh(rm.sample_gue(256, gen))
        moments += np.array([np.mean(w ** (2 * k)) for k in range(1, 5)]) / reps
    for k in range(1, 5):
        ck = semicircle_moment(2 * k)
        assert abs(moments[k - 1] - ck) / ck <= 0.05


def test_operator_norm_median(stream):
    gen = stream.child("opnorm").generator()
    norms = [float(np.max(np.abs(np.linalg.eigvalsh(rm.sample_gue(512, gen)))))
             for _ in range(10)]
    assert 1.90 <= float(np.median(norms)) <= 2.15


def test_gue_increments_single_step(stream):
    increments = rm.gue_increments(8, 1, (0.0, 1.0), stream.child("g1"))
    assert increments.shape == (1, 1, 8, 8)


def test_gue_increments_additive_variance(stream):
    gen = stream.child("add").generator()
    vals = []
    for _ in range(2000):
        total = rm.gue_increments(8, 1, (0.0, 0.5, 1.0), gen).sum(axis=0)[0]
        vals.append(tr_n(total @ total))
    assert abs(np.mean(vals) - 1.0) <= 0.05


def single_gue(n, gen):
    """One GUE(n) draw from its own (n, n) block of normals, entry by entry."""
    g = gen.standard_normal((n, n))
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        s[i, i] = g[i, i] / np.sqrt(n)
        for j in range(i + 1, n):
            s[i, j] = (g[i, j] - 1j * g[j, i]) / np.sqrt(2.0 * n)
            s[j, i] = np.conj(s[i, j])
    return s


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("shape", [(), (3,), (4, 2)])
def test_sample_gue_stack_equals_consecutive_draws(stream, n, shape):
    got = rm.sample_gue(n, stream.child("stack", n).generator(), shape)
    gen = stream.child("stack", n).generator()
    want = np.array([single_gue(n, gen) for _ in range(int(np.prod(shape)))])
    assert got.shape == shape + (n, n)
    assert np.array_equal(got, want.reshape(shape + (n, n)))


@pytest.mark.parametrize("n", [1, 2, 4, 5])
@pytest.mark.parametrize("shape", [(), (3,), (4, 2)])
def test_sample_gue_streams_equal_stacked_single_draws(stream, n, shape):
    parent, indices = stream.child("multi"), (3, 0, 7)
    got = rm.sample_gue(n, (parent, n, indices), shape)
    want = np.stack([rm.sample_gue(n, parent.child(n, s), shape)
                     for s in indices])
    assert got.shape == (len(indices),) + shape + (n, n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_coordinates_are_the_normals_and_give_the_trace_pairing(stream, n):
    """A set's normals assemble into ``sample_gue``'s draws by its docstring
    formula exactly; ``hermitian_coordinates`` maps each draw back to its
    normals over sqrt(n), and any Hermitian matrices' coordinates have dot
    products Re tr(a b), to 1e-14 relative."""
    parent, indices = stream.child("coords", n), [2, 0, 9]
    g = rm.stream_normals(parent, "t", indices, np.empty((3, 4, n, n)))
    s = rm.sample_gue(n, (parent, "t", indices), (4,))
    want = np.empty(s.shape, dtype=complex)
    for i in range(n):
        want[..., i, i] = g[..., i, i] / np.sqrt(n)
        for j in range(i + 1, n):
            want[..., i, j] = ((g[..., i, j] - 1j * g[..., j, i])
                               / np.sqrt(2 * n))
            want[..., j, i] = np.conj(want[..., i, j])
    assert np.array_equal(s, want)
    c = rm.hermitian_coordinates(s)
    assert np.allclose(c, g.reshape(3, 4, n * n) / np.sqrt(n), rtol=1e-14,
                       atol=0)
    gen = stream.child("coords-h", n).generator()
    h = np.stack([hermitize(gen.normal(size=(n, n))
                            + 1j * gen.normal(size=(n, n))) for _ in range(3)])
    mats = np.concatenate([s.reshape(-1, n, n), h])
    coords = np.concatenate([c.reshape(-1, n * n),
                             rm.hermitian_coordinates(h)])
    pairing = np.einsum("aij,bji->ab", mats, mats).real
    norms = np.linalg.norm(mats, axis=(-2, -1))
    assert np.all(np.abs(coords @ coords.T - pairing)
                  <= 1e-14 * np.outer(norms, norms))


def test_stream_normals_fill_each_row_from_its_stream(stream):
    out = np.empty((3, 2, 5))
    got = rm.stream_normals(stream, "t", [4, 0, 7], out)
    assert got is out
    for row, s in zip(out, [4, 0, 7]):
        want = stream.child("t", s).generator().standard_normal((2, 5))
        assert np.array_equal(row, want)
    with pytest.raises(ValueError):
        rm.stream_normals(stream, "t", [0, 1], out)


# Seeds and parent-path indices on both sides of 2^32, where SeedSequence
# reads an integer as more than one 32-bit word, and paths of length 0-9;
# sample indices fill one word, up to 2^32 - 1.
_index = hst.integers(0, 2 ** 32 - 1) | hst.integers(2 ** 32, 2 ** 70)
_parent = hst.builds(rm.RngStream, _index,
                     hst.lists(_index, max_size=9).map(tuple))
_tag = hst.text(max_size=4) | hst.integers(0, 2 ** 40)
_samples = hst.lists(hst.integers(0, 2 ** 32 - 1) | hst.just(2 ** 32 - 1),
                     max_size=6)


@settings(max_examples=100, deadline=None)
@given(parent=_parent, tag=_tag, indices=_samples)
def test_batched_philox_keys_equal_seed_sequence(parent, tag, indices):
    want = [np.random.SeedSequence(
        parent.master_seed, spawn_key=parent.child(tag, s).stream_path
    ).generate_state(2, np.uint64) for s in indices]
    got = rm._philox_keys(parent, tag, indices)
    assert got.shape == (len(indices), 2)
    assert np.array_equal(got, np.array(want).reshape(-1, 2))


@pytest.mark.parametrize("index", [-1, 2 ** 32, 2 ** 70])
def test_set_sample_index_must_fit_one_word(stream, index):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rm.sample_gue(2, (stream, "t", [0, index]))


@settings(max_examples=30, deadline=None)
@given(parent=_parent, tag=_tag, indices=_samples.filter(bool),
       n=hst.integers(1, 6), shape=hst.sampled_from([(), (2,), (2, 3)]))
def test_sample_gue_streams_equal_single_draws_at_any_address(parent, tag,
                                                              indices, n,
                                                              shape):
    got = rm.sample_gue(n, (parent, tag, indices), shape)
    want = np.stack([rm.sample_gue(n, parent.child(tag, s), shape)
                     for s in indices])
    assert got.tobytes() == want.tobytes()


def test_gue_increments_equal_per_step_draws(stream):
    grid = (0.0, 0.1, 0.35, 0.9, 1.0)
    n, d = 3, 2
    got = rm.gue_increments(n, d, grid, stream.child("steps"))
    gen = stream.child("steps").generator()
    want = [[np.sqrt(b - a) * single_gue(n, gen) for _ in range(d)]
            for a, b in zip(grid, grid[1:])]
    assert np.array_equal(got, np.array(want))


def test_gue_increment_components_nearly_free(stream):
    gen = stream.child("freeparts").generator()
    poly = NCPolynomial(1, {(1, 1): 1.0})
    stats = []
    for _ in range(50):
        pair = rm.sample_gue_tuple(64, 2, gen)
        s1, s2 = pair[:1], pair[1:]
        stats.append(freeness_statistic([s1, s2], [1, 2], [poly, poly]))
    assert abs(np.mean(np.abs(stats))) < 0.1


def test_gue_increments_rejects_bad_grid(stream):
    with pytest.raises(ValueError):
        rm.gue_increments(4, 1, (0.0, 0.5, 0.5), stream)


def test_brownian_increment_variance(stream):
    vals = brownian_increments((0.0, 1.0), stream.child("bm", 0))
    gen = stream.child("bm", 1).generator()
    draws = np.concatenate([brownian_increments((0.0, 1.0), gen)
                            for _ in range(5000)])
    assert 0.95 <= np.var(draws) <= 1.05


def test_brownian_empty_grid(stream):
    assert len(brownian_increments((), stream)) == 0
    assert len(brownian_increments((0.0,), stream)) == 0


def test_brownian_sum_variance(stream):
    gen = stream.child("bmsum").generator()
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    sums = [brownian_increments(grid, gen).sum() for _ in range(5000)]
    assert abs(np.var(sums) - 1.0) <= 0.05
