import pytest

from nclab.matrixcore import hermitize
from nclab.randmat import RngStream


def random_hermitian(n, rng, scale=1.0):
    """A Gaussian Hermitian matrix for tests; NOT the GUE normalization."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(scale * g)


@pytest.fixture
def stream():
    return RngStream(987654321)


@pytest.fixture
def gen(stream):
    return stream.generator()
