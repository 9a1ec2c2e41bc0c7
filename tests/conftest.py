import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_stable(rng, n, margin=0.3, complex_entries=True):
    """Random generator with spectrum strictly in the left half-plane."""
    M = rng.standard_normal((n, n))
    if complex_entries:
        M = M + 1j * rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(M).real) + margin
    return M - shift * np.eye(n)


@pytest.fixture
def stable_corpus(rng):
    """Mixed-size strictly stable generators, not necessarily dissipative."""
    out = []
    for i in range(8):
        n = int(rng.integers(2, 9))
        out.append(random_stable(rng, n, complex_entries=bool(i % 2)))
    return out
