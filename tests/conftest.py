import math

import numpy as np
import pytest

from nclab.matrixcore import hermitize
from nclab.randmat import RngStream


def random_hermitian(n, rng, scale=1.0):
    """A Gaussian Hermitian matrix for tests; NOT the GUE normalization."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(scale * g)


def hermitian_batch(gen, shape, n, scale=1.0):
    """``random_hermitian`` matrices drawn one after another from ``gen``,
    stacked as (*shape, n, n); shape (d,) gives a d-tuple."""
    return np.stack([random_hermitian(n, gen, scale=scale)
                     for _ in range(math.prod(shape))]).reshape(shape + (n, n))


@pytest.fixture
def stream():
    return RngStream(987654321)


@pytest.fixture
def gen(stream):
    return stream.generator()
