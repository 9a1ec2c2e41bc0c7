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


def fixed_examples(seed, count, /, **ranges):
    """Keyword examples over ``ranges``: all low ends, all high ends, then ``count`` draws.

    Each range is ``(low, high)``, inclusive.  Booleans and integers are
    drawn uniformly from ``default_rng(seed)``, floats log-uniformly so
    that every decade of a wide range is sampled.  The set depends only on
    ``seed``, never on the package source.
    """
    rng = np.random.default_rng(seed)

    def draw(low, high):
        if isinstance(low, bool):
            return bool(rng.integers(2))
        if isinstance(low, int):
            return int(rng.integers(low, high + 1))
        return float(np.exp(rng.uniform(np.log(low), np.log(high))))

    examples = [{k: r[0] for k, r in ranges.items()}, {k: r[1] for k, r in ranges.items()}]
    examples += [{k: draw(*r) for k, r in ranges.items()} for _ in range(count)]
    return examples
