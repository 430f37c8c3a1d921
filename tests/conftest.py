import tracemalloc

import numpy as np
import pytest

from platelab.discretization import DomainSpec, make_operators


@pytest.fixture(scope="session")
def dom():
    return DomainSpec(l=1.0, sigma=0.3)


@pytest.fixture(scope="session")
def ops3(dom):
    return make_operators(3, 3, dom)


@pytest.fixture(scope="session")
def ops12(dom):
    """4 x 3 = 12 modes; the workhorse size for model-level checks."""
    return make_operators(4, 3, dom)


@pytest.fixture(scope="session")
def ops1(dom):
    return make_operators(1, 1, dom)


def random_coeffs(ops, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (ops.phi @ (rng.standard_normal(ops.n) / (1.0 + ops.mu)))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def traced_peak(f, *args) -> int:
    """Peak bytes that f(*args) holds at once, by tracemalloc (allocations
    made before the call do not count)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
