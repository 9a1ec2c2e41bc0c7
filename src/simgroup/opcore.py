"""Dense complex operator arithmetic and spectral quantities.

Everything downstream (weight solvers, the example-semigroup gallery,
audits, Gramians) is built on the handful of primitives in this module:
matrix exponentials evaluated as one-parameter semigroups, resolvents,
operator norms in plain and weighted inner products, and the two growth
quantities of a generator (spectral bound and numerical abscissa).

Matrices are plain ``numpy`` arrays with complex entries.  All operations
are pure functions of immutable inputs; a :class:`MatrixSemigroup` may
cache a spectral factorization of its generator but is otherwise
stateless.
"""

import json
import math
import os
import tempfile

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionError,
    InputFormatError,
    InvalidWeightError,
    NearSingularError,
    SaturationError,
)

__all__ = [
    "as_matrix",
    "operator_norm",
    "norm_upper_bound",
    "min_singular_value",
    "spectral_radius",
    "growth_bound",
    "numerical_abscissa",
    "expm_semigroup",
    "gramian_integral",
    "resolvent",
    "weighted_norm",
    "weight_factors",
    "check_hermitian_pd",
    "MatrixSemigroup",
    "semigroup_from_generator",
    "sampled_semigroup",
    "semigroup_law_residual",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "save_matrix",
    "write_atomic",
]

#: Relative eigenvalue floor for the Hermitian positive-definiteness test.
PD_EIG_FLOOR = 1e-12

#: Exponent ceiling before expm is declared saturated.
_EXP_SATURATION = 700.0

#: Eigenvector condition number above which expm falls back to
#: scaling-and-squaring.
_EIG_COND_LIMIT = 1e6


def as_matrix(a, name="matrix"):
    """Validate and return a square complex matrix as an ndarray.

    Rejects non-square input and non-finite entries.
    """
    M = np.asarray(a, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        raise DimensionError(f"{name} must have positive dimension")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise DimensionError(f"{name} contains non-finite entries")
    return M


def operator_norm(T):
    """Largest singular value of ``T``."""
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    if T.size == 0:
        return 0.0
    return float(np.linalg.norm(T, 2))


def norm_upper_bound(X):
    """Schur-test bound ``sqrt(norm(X, 1) * norm(X, inf))`` on ``operator_norm(X)``.

    The value is ``>= operator_norm(X)`` for every ``X`` (I. Schur, 1911),
    and equals it when ``X`` has at most one nonzero entry per row and
    per column (a scaled partial permutation).  It takes absolute row and
    column sums only, so for matrices of small integers it is computed
    without rounding up to the final square root.
    """
    X = np.abs(np.atleast_2d(np.asarray(X)))
    if X.size == 0:
        return 0.0
    return math.sqrt(float(X.sum(axis=0).max()) * float(X.sum(axis=1).max()))


def min_singular_value(T):
    """Smallest singular value of ``T``."""
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    return float(scipy.linalg.svdvals(T)[-1])


def spectral_radius(T):
    """Largest eigenvalue modulus of ``T``."""
    T = as_matrix(T)
    return float(np.max(np.abs(np.linalg.eigvals(T))))


def growth_bound(A):
    """Spectral bound ``max Re(spec(A))``.

    For matrices this equals the exponential growth bound of the
    semigroup ``t -> exp(tA)``:  ``log r(exp(tA)) / t`` for every t > 0.
    """
    A = as_matrix(A)
    return float(np.max(np.real(np.linalg.eigvals(A))))


def numerical_abscissa(A):
    """Largest eigenvalue of the Hermitian part ``(A + A*)/2``.

    This is the sharpest rate ``w`` with ``norm(exp(tA)) <= exp(w t)`` for
    all ``t >= 0`` in the original norm.
    """
    A = as_matrix(A)
    H = 0.5 * (A + A.conj().T)
    return float(np.linalg.eigvalsh(H)[-1])


def _eig_cached(A):
    """Eigendecomposition with condition number of the eigenvector basis.

    Returns ``(w, V, Vinv, cond)`` or ``None`` when the basis is too
    ill-conditioned to be trusted.
    """
    try:
        w, V = np.linalg.eig(A)
        cond = np.linalg.cond(V)
        if not np.isfinite(cond) or cond >= _EIG_COND_LIMIT:
            return None
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    return w, V, Vinv, cond


def expm_semigroup(A, t, _eig=None):
    """Evaluate ``exp(t*A)`` for ``t >= 0``.

    Uses the eigendecomposition of ``A`` when the eigenvector basis is
    well conditioned (many gallery generators are non-normal, where this
    is cheaper and lets one factorization serve a whole time grid), and
    scaling-and-squaring otherwise.

    Raises
    ------
    SaturationError
        If ``t * growth_bound(A)`` exceeds the floating-point range.
    """
    A = as_matrix(A)
    t = float(t)
    if t < 0:
        raise ValueError("semigroup evaluation requires t >= 0")
    if t == 0.0:
        return np.eye(A.shape[0], dtype=complex)
    ded = _eig if _eig is not None else _eig_cached(A)
    if ded is not None:
        w = ded[0]
        if t * float(np.max(w.real)) > _EXP_SATURATION:
            raise SaturationError(
                f"t * spectral abscissa = {t * float(np.max(w.real)):.3g} overflows"
            )
        _, V, Vinv, _ = ded
        return (V * np.exp(t * w)) @ Vinv
    if t * growth_bound(A) > _EXP_SATURATION:
        raise SaturationError("t * spectral abscissa overflows the floating range")
    return scipy.linalg.expm(t * A)


def gramian_integral(A, Q, tau):
    """Orbit integral ``integral_0^tau exp(sA*) Q exp(sA) ds``.

    Van Loan's block exponential ``exp(h [[-A*, Q], [0, A]])`` carries
    ``exp(hA)`` and ``exp(-hA*)`` times the integral over ``[0, h]``.
    It is taken on the step ``h = tau / 2^k``, with ``k`` the smallest
    integer such that ``h norm(A) <= 1/2``, so the factor ``exp(-hA*)``
    cannot swamp the integral in rounding.  ``k`` doublings ``G <- G +
    T* G T``, ``T <- T^2`` then reach ``tau``; for semidefinite ``Q``
    every doubling adds terms of one sign, so nothing cancels at long or
    stiff horizons.
    """
    A = as_matrix(A, "generator")
    Q = as_matrix(Q, "Q")
    n = A.shape[0]
    tau = float(tau)
    k = max(0, math.ceil(math.log2(max(2.0 * tau * operator_norm(A), 1.0))))
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    M[:n, :n] = -A.conj().T
    M[:n, n:] = Q
    M[n:, n:] = A
    E = scipy.linalg.expm((tau / 2**k) * M)
    T = E[n:, n:]
    G = T.conj().T @ E[:n, n:]
    for _ in range(k):
        G = G + T.conj().T @ G @ T
        T = T @ T
    return 0.5 * (G + G.conj().T)


def resolvent(A, z, tol=1e-10):
    """Return ``(z - A)^{-1}`` with residual ``norm((z-A)X - I) <= tol``.

    One step of iterative refinement is applied when the first solve does
    not meet the residual target.

    Raises
    ------
    NearSingularError
        If ``z`` is within 1e-12 of an eigenvalue of ``A`` (relative to
        the eigenvalue scale), or the residual target cannot be met.
    """
    A = as_matrix(A)
    z = complex(z)
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    scale = max(1.0, float(np.max(np.abs(eigs))), abs(z))
    if np.min(np.abs(eigs - z)) <= 1e-12 * scale:
        raise NearSingularError(f"z = {z} is within 1e-12 of the spectrum")
    B = z * np.eye(n, dtype=complex) - A
    I = np.eye(n, dtype=complex)
    X = np.linalg.solve(B, I)
    res = operator_norm(B @ X - I)
    for _ in range(2):
        if res <= tol:
            break
        X = X - np.linalg.solve(B, B @ X - I)
        res = operator_norm(B @ X - I)
    if not np.isfinite(res) or res > tol:
        raise NearSingularError(f"resolvent residual {res:.3g} exceeds tolerance {tol:.3g}")
    return X


def check_hermitian_pd(P, name="weight"):
    """Symmetrize ``P`` and verify positive definiteness.

    Returns the symmetrized matrix together with ``(eig_min, eig_max)``.
    The test is ``eig_min > 1e-12 * eig_max`` after ``P <- (P + P*)/2``;
    iterative solvers drift Hermitian symmetry, so the symmetrization is
    always applied first.
    """
    P = as_matrix(P, name)
    P = 0.5 * (P + P.conj().T)
    w = np.linalg.eigvalsh(P)
    lo, hi = float(w[0]), float(w[-1])
    if hi <= 0 or lo <= PD_EIG_FLOOR * hi:
        raise InvalidWeightError(
            f"{name} is not positive definite (eig range [{lo:.3g}, {hi:.3g}])"
        )
    return P, lo, hi


def weight_factors(P):
    """Return ``(S, Sinv)`` with ``S = P^{1/2}`` for a Hermitian PD weight.

    ``S T Sinv`` expresses an operator in the inner product ``<Ph, h>``;
    callers sweeping many operators against one weight should factor once.
    """
    P, _, _ = check_hermitian_pd(P)
    w, U = np.linalg.eigh(P)
    s = np.sqrt(w)
    S = (U * s) @ U.conj().T
    Sinv = (U * (1.0 / s)) @ U.conj().T
    return S, Sinv


def weighted_norm(T, P):
    """Operator norm of ``T`` in the inner product ``<Ph, h>``.

    Equals ``norm(P^{1/2} T P^{-1/2})``; with ``P = I`` this is exactly
    :func:`operator_norm`.
    """
    T = as_matrix(T)
    P = as_matrix(P, "weight")
    if P.shape != T.shape:
        raise DimensionError("weight and operator dimensions differ")
    if np.array_equal(P, np.eye(P.shape[0], dtype=complex)):
        return operator_norm(T)
    S, Sinv = weight_factors(P)
    return operator_norm(S @ T @ Sinv)


# ---------------------------------------------------------------------------
# semigroup values


class MatrixSemigroup:
    """A one-parameter family ``t -> T(t)`` of matrices.

    Two kinds exist: ``generator`` semigroups evaluate ``exp(tA)`` from a
    fixed generator, and ``sampled`` semigroups evaluate a closed-form
    sampler (the gallery constructions).  Sampled kinds may carry a grid
    ``step``; times are then snapped to the nearest multiple and the snap
    distance is reported on request, since the gallery identities are
    exact only for aligned times.

    Evaluation is pure; the only internal state is a cached
    factorization, computed once.
    """

    def __init__(self, dim, eval_fn, kind, description, step=None):
        self.dim = int(dim)
        self.kind = kind
        self.description = description
        self.step = step
        self._eval = eval_fn

    def snap(self, t):
        """Snap ``t`` to the alignment grid; returns ``(t_aligned, distance)``."""
        t = float(t)
        if t < 0:
            raise ValueError("semigroup times must be nonnegative")
        if self.step is None:
            return t, 0.0
        k = round(t / self.step)
        ta = k * self.step
        return ta, abs(t - ta)

    def eval(self, t):
        """Evaluate ``T(t)`` (after snapping, for gridded kinds)."""
        ta, _ = self.snap(t)
        return self._eval(ta)

    def eval_with_snap(self, t):
        """Evaluate and also report the snap distance."""
        ta, dist = self.snap(t)
        return self._eval(ta), dist

    def __repr__(self):
        return f"MatrixSemigroup({self.description!r}, dim={self.dim}, kind={self.kind!r})"


def semigroup_from_generator(A, description=None):
    """Semigroup ``t -> exp(tA)`` with a cached spectral factorization."""
    A = as_matrix(A, "generator")
    ded = _eig_cached(A)

    def ev(t, _A=A, _ded=ded):
        return expm_semigroup(_A, t, _eig=_ded)

    sem = MatrixSemigroup(
        A.shape[0],
        ev,
        kind="generator",
        description=description or "exp(tA)",
        step=None,
    )
    sem.generator = A
    return sem


def sampled_semigroup(dim, eval_fn, description, step=None):
    """Wrap a closed-form sampler as a :class:`MatrixSemigroup`."""
    return MatrixSemigroup(dim, eval_fn, kind="sampled", description=description, step=step)


def semigroup_law_residual(sem, s, t):
    """Scaled semigroup-law defect at the pair ``(s, t)``.

    Returns ``norm(T(s+t) - T(s) T(t)) / max(1, norm(T(s)) * norm(T(t)))``.
    The scaling makes the contract meaningful in float64 also for
    semigroups with large transient norms.
    """
    Ts = sem.eval(s)
    Tt = sem.eval(t)
    Tst = sem.eval(s + t)
    scale = max(1.0, operator_norm(Ts) * operator_norm(Tt))
    return operator_norm(Tst - Ts @ Tt) / scale


# ---------------------------------------------------------------------------
# matrix JSON schema: {"n": int, "re": [[float]], "im": [[float]]}


def matrix_to_json(M):
    """Encode a square complex matrix in the wire schema."""
    M = as_matrix(M)
    return {
        "n": int(M.shape[0]),
        "re": M.real.tolist(),
        "im": M.imag.tolist(),
    }


def matrix_from_json(obj, name="matrix"):
    """Decode the wire schema, rejecting ragged or non-square payloads."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{name}: expected an object with keys n/re/im")
    try:
        n = int(obj["n"])
        re = obj["re"]
        im = obj.get("im")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{name}: missing or invalid fields: {exc}") from exc
    if n <= 0:
        raise InputFormatError(f"{name}: n must be positive")
    if im is None:
        im = [[0.0] * n for _ in range(n)]
    for part, label in ((re, "re"), (im, "im")):
        if not isinstance(part, list) or len(part) != n:
            raise InputFormatError(f"{name}: {label} must be an n-row list")
        for row in part:
            if not isinstance(row, list) or len(row) != n:
                raise InputFormatError(f"{name}: {label} is ragged or non-square")
    M = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    return as_matrix(M, name)


def load_matrix(path, name=None):
    """Read a matrix JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: not valid JSON: {exc}") from exc
    return matrix_from_json(obj, name or os.path.basename(path))


def write_atomic(path, data):
    """Write text or bytes atomically (temp file + rename)."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-simgroup-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(M, path):
    """Write a matrix JSON file atomically."""
    payload = json.dumps(matrix_to_json(M), sort_keys=True)
    write_atomic(path, payload + "\n")
