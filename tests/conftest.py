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


def schur_design(rng, n, complex_):
    """The benchmark's never-dissipative upper-triangular designs, in a random basis."""
    d = -rng.uniform(0.5, 0.75, n)
    phase = rng.choice([-1.0, 1.0], (n, n))
    if complex_:
        d = d + 1j * rng.uniform(-1.0, 1.0, n)
        phase = np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    N = (2.0 / np.sqrt(n)) * np.triu(phase, 1)
    N[0, 1] *= np.sqrt(n)
    G = rng.standard_normal((n, n))
    if complex_:
        G = G + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return Q @ (np.diag(d) + N) @ Q.conj().T


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
