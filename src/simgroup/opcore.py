"""Dense operator arithmetic and spectral quantities.

Everything downstream (weight solvers, the example-semigroup gallery,
audits, Gramians) is built on the handful of primitives in this module:
matrix exponentials evaluated as one-parameter semigroups, resolvents,
operator norms in plain and weighted inner products, the orbit
integral behind every Gramian and averaged weight (a degree-13 Padé
step of Van Loan's block exponential, evaluated in ``n x n`` blocks,
then doublings), and the two growth quantities of a generator (spectral
bound and numerical abscissa).

Matrices are plain ``numpy`` arrays.  :func:`as_matrix` decides their
field, float64 for real-valued data and complex128 otherwise, and every
kernel follows its operands' dtype, so real data takes the real LAPACK
kernels throughout.  An operator norm is the square root of the one top
eigenvalue of the Gram matrix, scaled by a power of two so that it stays
in the floating range; no singular value decomposition is taken for it.
All operations are pure functions of immutable inputs; a :class:`MatrixSemigroup` may cache
a spectral factorization of its generator but is otherwise stateless.
"""

import cmath
import ctypes
import functools
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


def _one_blas_thread():
    """Give every loaded OpenBLAS pool one thread, unless a thread variable is set.

    numpy and scipy each load their own OpenBLAS; at the dimensions here
    (n up to a few hundred) their worker threads contend and make the
    dense kernels slower than one thread.  Each pool is reached through a
    module linked against it; another BLAS has no such symbol and is left
    alone.
    """
    if any(os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    for module in (np.linalg._umath_linalg, scipy.linalg._fblas):
        lib = ctypes.CDLL(module.__file__)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name)(ctypes.c_int(1))
                break


_one_blas_thread()


def as_matrix(a, name="matrix"):
    """Validate a square matrix and return it as a float64 or complex128 ndarray.

    Float64 for real-valued input, including complex input whose
    imaginary part is exactly zero (:func:`_real_if_exact`).  An array
    already of its field is returned itself; no function of the package
    writes into a validated input.  Rejects non-square input and
    non-finite entries.
    """
    return _validated(_real_if_exact(a), name)


def _validated(M, name):
    """``M`` itself, after the checks of :func:`as_matrix`; any dtype."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        raise DimensionError(f"{name} must have positive dimension")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} contains non-finite entries")
    return M


def _real_if_exact(T):
    """``T`` as float64 when its imaginary part is exactly zero, else as complex128.

    The package's one test of a matrix's field.  For real data the Stein
    and Lyapunov constraint sets are invariant under entrywise
    conjugation, so real arithmetic loses nothing, and the real LAPACK
    kernels are 1.7-2x faster at n = 128-256.  A complex input's real
    part is copied, contiguous for BLAS.
    """
    T = np.asarray(T)
    if T.dtype == np.float64:
        return T
    T = np.asarray(T, dtype=complex)
    return T if T.imag.any() else T.real.copy()


def _nonnegative_finite(x, name):
    """``float(x)``; a ``ValueError`` naming ``name`` unless it is finite and ``>= 0``."""
    x = float(x)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite with {name} >= 0, got {x!r}")
    return x


def _positive_finite(x, name):
    """``float(x)``; a ``ValueError`` naming ``name`` unless it is finite and ``> 0``."""
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def _singular_values(T):
    """All singular values of ``T``, largest first."""
    return scipy.linalg.svdvals(np.atleast_2d(_real_if_exact(T)))


#: LAPACK's relatively robust eigensolvers, fetched once for :func:`operator_norm`.
_SYEVR = scipy.linalg.get_lapack_funcs("syevr", dtype=float)
_HEEVR = scipy.linalg.get_lapack_funcs("heevr", dtype=complex)


def operator_norm(T):
    """Largest singular value of ``T``; ``inf`` when an entry is not finite.

    ``T`` is first scaled by the power of two that brings its largest
    entry into ``[1/2, 1)``, which is exact, so the Gram matrix ``T* T``
    (or ``T T*``, whichever is smaller) neither overflows nor underflows
    anywhere in the floating range.  The norm is the square root of that
    matrix's largest eigenvalue, the only one LAPACK's ``?syevr``/``?heevr``
    computes, scaled back.
    """
    T = np.atleast_2d(_real_if_exact(T))
    if T.size == 0:
        return 0.0
    amax = float(np.abs(T).max())
    if not math.isfinite(amax):
        return math.inf
    if amax == 0.0:
        return 0.0
    e = math.frexp(amax)[1]
    h = e // 2
    # 2.0**-e alone leaves the float range for the extreme exponents
    X = T * 2.0**-e if abs(e) < 1022 else T * 2.0**-h * 2.0 ** (h - e)
    G = X.conj().T @ X if X.shape[0] >= X.shape[1] else X @ X.conj().T
    n = G.shape[0]
    evr = _HEEVR if np.iscomplexobj(G) else _SYEVR
    lam = float(evr(G, compute_v=0, range="I", il=n, iu=n)[0][0])
    return math.sqrt(lam) * 2.0**h * 2.0 ** (e - h)


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
    return float(_singular_values(T)[-1])


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
    """Eigendecomposition ``(w, V, Vinv, cond)``, with ``cond`` that of the eigenvector basis.

    The package's one ``eig``; each caller refuses the basis above its
    own limit on ``cond``.  None when LAPACK fails.  A real ``A`` is
    factorized in real arithmetic: ``w``, ``V`` and ``Vinv`` are real
    when every eigenvalue is.
    """
    try:
        w, V = np.linalg.eig(A)
        cond = np.linalg.cond(V)
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    return w, V, Vinv, cond


def expm_semigroup(A, t):
    """Evaluate ``exp(t*A)`` for ``t >= 0``: ``semigroup_from_generator(A).eval(t)``.

    Raises
    ------
    SaturationError
        If ``t * growth_bound(A)`` exceeds the floating-point range.
    ValueError
        If ``t`` is negative or not finite.
    """
    return semigroup_from_generator(A).eval(t)


def gramian_integral(A, Q, tau):
    """Orbit integral ``integral_0^tau exp(sA*) Q exp(sA) ds`` for ``tau >= 0``.

    ``Q`` is Hermitian, of ``A``'s shape.  Van Loan's block exponential
    ``exp(h [[-A*, Q], [0, A]])`` carries ``exp(hA)`` in its (2,2)
    block and ``exp(-hA*)`` times the integral over ``[0, h]`` in its
    (1,2) block; it is evaluated by a degree-13 Padé approximant in
    ``n x n`` blocks (:func:`_orbit_step`).  The step is ``h = tau /
    2^k``, with ``k`` the smallest integer such that ``h norm(A) <= 1/2``,
    so the factor ``exp(-hA*)`` cannot swamp the integral in rounding,
    and ``2 h max(norm(A, 1), norm(A, inf)) <= theta_13``.  ``k``
    doublings ``G <- G + T* G T``, ``T <- T^2`` then reach ``tau``; for
    semidefinite ``Q`` every doubling adds terms of one sign, so nothing
    cancels at long or stiff horizons.

    Why ``Q`` never picks the step: for ``S = diag(I, a I)``, ``a > 0``,
    ``S^{-1} M S = [[-A*, a Q], [0, A]]``, and a rational function
    commutes with the similarity, so the approximant's (1,2) block at
    ``a Q`` is ``a`` times the one at ``Q``, in exact arithmetic and, for
    ``a`` a power of two, bit for bit.  Al-Mohy and Higham's bound
    (SIAM J. Matrix Anal. Appl. 31, 2009) makes the approximant at ``a
    Q`` the exact exponential of a block perturbed by less than the unit
    roundoff in relative 1-norm once that block's 1-norm is at most
    ``theta_13``.  With ``a`` chosen so that ``norm(a h Q, 1) <= h
    max(norm(A, 1), norm(A, inf))``, that 1-norm is at most the step
    rule's ``2 h max(norm(A, 1), norm(A, inf))``; scaling back by ``1/a``
    leaves the (1,2) block's relative error unchanged.  For real ``A``
    and ``Q`` every block is real, and so is the float64 result.

    An integral beyond the floating-point range raises
    :class:`~simgroup.exceptions.SaturationError`; a negative or
    non-finite ``tau`` and a ``Q`` that is not Hermitian to within
    ``1e-12 norm(Q, 1)`` in each entry raise ``ValueError``; a ``Q``
    whose shape is not ``A``'s raises
    :class:`~simgroup.exceptions.DimensionError`.
    """
    return _orbit_integral(A, Q, tau)[0]


#: Numerator coefficients ``b_0, ..., b_13`` of the degree-13 Padé
#: approximant of ``exp``; the denominator's are ``(-1)^j b_j``.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

#: Largest 1-norm at which the degree-13 Padé approximant's backward
#: error stays below the unit roundoff (Al-Mohy and Higham, 2009).
_THETA13 = 5.371920351148152

#: Entrywise tolerance of the Hermitian test of an orbit weight, relative to its 1-norm.
_HERMITIAN_RTOL = 1e-12


def _orbit_integral(A, Q, tau):
    """``(G, T)``: :func:`gramian_integral` together with ``T = exp(tau A)``.

    ``T`` is the last square of the doublings, which hold it anyway.  Both
    are real for real ``A`` and ``Q``.  ``T`` may overflow where ``G`` does
    not; the caller that uses it checks.  Neither the step nor the number
    of doublings reads ``Q``, and every operation on ``Q``'s descendants
    is linear, so scaling ``Q`` by a power of two scales ``G`` bit for bit.
    """
    A = as_matrix(A, "generator")
    Q = _orbit_weight(Q, A.shape)
    tau = _nonnegative_finite(tau, "tau")
    k = max(0, math.ceil(math.log2(max(2.0 * tau * operator_norm(A), 1.0))))
    absA = np.abs(A)
    wide = 2.0 * tau * max(float(absA.sum(axis=0).max()), float(absA.sum(axis=1).max()))
    while wide > _THETA13 * 2.0**k:
        k += 1
    h = tau / 2**k
    # an overflow stays inf or nan through every later step
    with np.errstate(over="ignore", invalid="ignore"):
        G, T = _orbit_step(h * A, h * Q)
        for _ in range(k):
            G = G + T.conj().T @ G @ T
            T = T @ T
        G = 0.5 * (G + G.conj().T)
    if not np.all(np.isfinite(G)):
        raise SaturationError(f"orbit integral over [0, {tau:.6g}] overflows the floating range")
    return G, T


def _orbit_weight(Q, shape):
    """The Hermitian part of ``Q``, after checking its shape and that it is Hermitian."""
    Q = as_matrix(Q, "Q")
    if Q.shape != shape:
        raise DimensionError(f"Q must have the generator's shape {shape}, got {Q.shape}")
    return _hermitian_part(Q, "Q", ValueError)


def _hermitian_part(M, name, error=InvalidWeightError):
    """``(M + M*)/2``; ``error`` unless each entry of ``|M - M*|`` is at most ``1e-12 norm(M, 1)``.

    The package's one Hermitian test of a weight: solvers drift
    Hermitian symmetry at rounding level, which the test admits, but a
    skew part beyond it is not the weight's to drop.
    """
    MH = M.conj().T
    skew = float(np.abs(M - MH).max())
    if skew > _HERMITIAN_RTOL * float(np.abs(M).sum(axis=0).max()):
        raise error(f"{name} must be Hermitian, got max |{name} - {name}*| = {skew:.3g}")
    return 0.5 * (M + MH)


def _orbit_step(Y, Z):
    """``(T* R_12, T)`` for the degree-13 Padé approximant ``R`` of ``exp([[-Y*, Z], [0, Y]])``.

    ``Z`` is Hermitian.  ``T = R_22`` approximates ``exp(Y)`` and
    ``R_11 = T^{-*}``, so ``T* R_12`` approximates the orbit integral on
    the step.  Only ``n x n`` blocks are formed.  Write ``X = [[-Y*, Z],
    [0, Y]]``, ``Y_j`` and ``Z_j`` for the (2,2) and (1,2) blocks of
    ``X^j``.  Any polynomial ``p`` with real coefficients has ``p(X)_11
    = p(-Y*) = `` the conjugate transpose of ``p(-Y)``, so the (1,1)
    block of the even part ``V`` is ``V_22*`` and that of the odd part
    ``U`` is ``-U_22*``: the denominator's (1,1) block ``V_11 - U_11``
    is the numerator's (2,2) block conjugate-transposed, ``D_11 =
    N_22*``, and ``N_11 = D_22*``.  The (1,2) blocks follow the product
    rule ``(PR)_12 = P_11 R_12 + P_12 R_22``, linear in ``Z``:

        Z_2 = Z Y - (Z Y)*          (Z Hermitian)
        Z_4 = Z_2 Y_2 - (Z_2 Y_2)*  (Z_2 skew-Hermitian)
        Z_6 = Y_4* Z_2 + Z_4 Y_2.

    The quotient ``R = D^{-1} N`` has ``T = D_22^{-1} N_22`` and ``R_12
    = N_22^{-*} (N_12 - D_12 T)``.  ``N_22`` and ``D_22`` are polynomials
    in ``Y`` and commute, so ``T* N_22^{-*} = D_22^{-*}``: the step's
    integral ``T* R_12 = D_22^{-*} (N_12 - D_12 T)`` takes one LU
    factorization, of ``D_22``, for both solves.
    """
    b = _PADE13
    I = np.eye(Y.shape[0], dtype=Y.dtype)
    Y2 = Y @ Y
    Y4 = Y2 @ Y2
    Y6 = Y4 @ Y2
    P = Z @ Y
    Z2 = P - P.conj().T
    P = Z2 @ Y2
    Z4 = P - P.conj().T
    Z6 = Y4.conj().T @ Z2 + Z4 @ Y2
    # V = X6 (b12 X6 + b10 X4 + b8 X2) + b6 X6 + b4 X4 + b2 X2 + b0 I, even
    W = b[12] * Y6 + b[10] * Y4 + b[8] * Y2
    W12 = b[12] * Z6 + b[10] * Z4 + b[8] * Z2
    V = Y6 @ W + (b[6] * Y6 + b[4] * Y4 + b[2] * Y2 + b[0] * I)
    V12 = Y6.conj().T @ W12 + Z6 @ W + (b[6] * Z6 + b[4] * Z4 + b[2] * Z2)
    # U = X K, K = X6 (b13 X6 + b11 X4 + b9 X2) + b7 X6 + b5 X4 + b3 X2 + b1 I
    W = b[13] * Y6 + b[11] * Y4 + b[9] * Y2
    W12 = b[13] * Z6 + b[11] * Z4 + b[9] * Z2
    K = Y6 @ W + (b[7] * Y6 + b[5] * Y4 + b[3] * Y2 + b[1] * I)
    K12 = Y6.conj().T @ W12 + Z6 @ W + (b[7] * Z6 + b[5] * Z4 + b[3] * Z2)
    U = Y @ K
    U12 = Z @ K - Y.conj().T @ K12
    lu = scipy.linalg.lu_factor(V - U, check_finite=False)
    T = scipy.linalg.lu_solve(lu, V + U, check_finite=False)
    G = scipy.linalg.lu_solve(lu, (V12 + U12) - (V12 - U12) @ T, trans=2, check_finite=False)
    return G, T


def resolvent(A, z):
    """Return ``(z - A)^{-1}`` with residual ``norm((z-A)X - I) <= 1e-10``.

    The solve is in the field ``np.result_type(A, z)``: float64 for a
    real ``A`` and a real ``z``.  Up to two steps of iterative refinement
    are applied while the solve does not meet the residual target.  The
    spectrum is computed only when ``|z|`` fails to exceed ``norm(A, 1)``
    by the margin of the test below: every eigenvalue lies in the disc of
    that radius, so past the margin none can be near ``z``.

    Raises
    ------
    NearSingularError
        If ``z`` is within 1e-12 of an eigenvalue of ``A`` (relative to
        the eigenvalue scale), or the residual target cannot be met.
    ValueError
        If ``z`` is not finite.
    """
    A = as_matrix(A)
    z = complex(z) if np.iscomplexobj(z) else float(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    I = np.eye(A.shape[0], dtype=np.result_type(A, z))
    if abs(z) - float(np.abs(A).sum(axis=0).max()) <= 1e-12 * max(1.0, abs(z)):
        eigs = np.linalg.eigvals(A)
        scale = max(1.0, float(np.max(np.abs(eigs))), abs(z))
        if np.min(np.abs(eigs - z)) <= 1e-12 * scale:
            raise NearSingularError(f"z = {z} is within 1e-12 of the spectrum")
    B = z * I - A
    X = np.linalg.solve(B, I)
    res = operator_norm(B @ X - I)
    for _ in range(2):
        if res <= 1e-10:
            break
        X = X - np.linalg.solve(B, B @ X - I)
        res = operator_norm(B @ X - I)
    if not np.isfinite(res) or res > 1e-10:
        raise NearSingularError(f"resolvent residual {res:.3g} exceeds tolerance 1e-10")
    return X


def check_hermitian_pd(P, name="weight"):
    """Symmetrize ``P`` and verify positive definiteness.

    Returns the symmetrized matrix together with ``(eig_min, eig_max)``.
    The test is ``eig_min > 1e-12 * eig_max`` after ``P <- (P + P*)/2``;
    iterative solvers drift Hermitian symmetry, so the symmetrization is
    always applied first, to a ``P`` whose entries of ``|P - P*|`` are at
    most ``1e-12 norm(P, 1)``.  Either test failing raises
    :class:`~simgroup.exceptions.InvalidWeightError`.
    """
    P = _hermitian_part(as_matrix(P, name), name)
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
    if np.array_equal(P, np.eye(P.shape[0])):
        return operator_norm(T)
    S, Sinv = weight_factors(P)
    return operator_norm(S @ T @ Sinv)


# ---------------------------------------------------------------------------
# semigroup values


class MatrixSemigroup:
    """A one-parameter family ``t -> T(t)`` of matrices.

    ``generator`` is the matrix ``A`` of ``exp(tA)``, None for a
    closed-form sampler (the gallery constructions, including coupling
    families that need not satisfy the semigroup law).  With a grid
    ``step`` times are snapped to the nearest multiple, and the snap
    distance is reported on request, since the gallery identities are
    exact only for aligned times.  A time that is not finite and ``>=
    0`` raises ``ValueError``.  Evaluation is pure, up to a cached
    factorization.
    """

    def __init__(self, dim, eval_fn, description, step=None, generator=None):
        self.dim = int(dim)
        self.description = description
        self.step = step
        self.generator = generator
        self._eval = eval_fn

    def snap(self, t):
        """Snap ``t`` to the alignment grid; returns ``(t_aligned, distance)``."""
        t = _nonnegative_finite(t, "t")
        if self.step is None:
            return t, 0.0
        k = round(t / self.step)
        ta = k * self.step
        return ta, abs(t - ta)

    def eval(self, t):
        """Evaluate ``T(t)`` (after snapping, for gridded samplers)."""
        ta, _ = self.snap(t)
        return self._eval(ta)

    def eval_with_snap(self, t):
        """Evaluate and also report the snap distance."""
        ta, dist = self.snap(t)
        return self._eval(ta), dist

    def __repr__(self):
        return f"MatrixSemigroup({self.description!r}, dim={self.dim}, step={self.step!r})"


def semigroup_from_generator(A):
    """Semigroup ``t -> exp(tA)``, carrying ``A``, with a cached spectral factorization.

    ``exp(tA) = V exp(tw) V^{-1}`` while the eigenbasis has condition
    below ``1e6``, else scaling-and-squaring, whose growth bound is
    computed once.  Neither is computed before the first ``t > 0``.  The
    value takes the dtype of ``A`` (the real part of a complex eigenbasis
    product for a real ``A``).  A ``t`` times the spectral bound beyond
    the floating-point range raises
    :class:`~simgroup.exceptions.SaturationError`.
    """
    A = as_matrix(A, "generator")
    eig = functools.cache(lambda: _eig_cached(A))
    growth = functools.cache(lambda: growth_bound(A))

    def ev(t):
        if t == 0.0:
            return np.eye(A.shape[0], dtype=A.dtype)
        ded = eig()
        if ded is not None and ded[3] < _EIG_COND_LIMIT:
            w, V, Vinv, _ = ded
            if t * float(np.max(w.real)) > _EXP_SATURATION:
                raise SaturationError(
                    f"t * spectral abscissa = {t * float(np.max(w.real)):.3g} overflows"
                )
            E = (V * np.exp(t * w)) @ Vinv
            if E.dtype != A.dtype:
                E = E.real.copy()
            return E
        if t * growth() > _EXP_SATURATION:
            raise SaturationError("t * spectral abscissa overflows the floating range")
        return scipy.linalg.expm(t * A)

    return MatrixSemigroup(A.shape[0], ev, "exp(tA)", generator=A)


def sampled_semigroup(dim, eval_fn, description, step=None):
    """Wrap a closed-form sampler as a :class:`MatrixSemigroup` without a generator."""
    return MatrixSemigroup(dim, eval_fn, description, step)


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
# matrix JSON schema: {"n": int, "re": [[float]], "im": [[float]]}, or
# {"rows": int, "cols": int, ...} for a rectangular matrix


def _matrix_fields(M):
    """The wire-schema fields of ``M``, with ``re`` and ``im`` as float arrays, not lists.

    ``M`` is checked as :func:`as_matrix` checks it but its field is not
    decided: a complex ``M`` keeps its own imaginary bits, ``-0.0``
    included, and a float64 ``M`` is its own ``re``, with an all ``+0.0``
    ``im``.
    """
    M = np.asarray(M)
    M = _validated(M.astype(np.result_type(M, float), copy=False), "matrix")
    return {"n": int(M.shape[0]), "re": M.real, "im": M.imag}


def matrix_to_json(M):
    """Encode a square complex matrix in the wire schema."""
    fields = _matrix_fields(M)
    return {"n": fields["n"], "re": fields["re"].tolist(), "im": fields["im"].tolist()}


def matrix_from_json(obj, name="matrix"):
    """Decode the wire schema, rejecting ragged or non-square payloads."""
    return as_matrix(_matrix_payload(obj, name), name)


def _matrix_payload(obj, name):
    """The complex array of a ``{n, re, im}`` or ``{rows, cols, re, im}`` payload.

    ``im`` may be omitted.  A payload that is not an object, lacks its
    shape, or has a part that is not ``rows`` lists of ``cols`` entries
    raises :class:`~simgroup.exceptions.InputFormatError`; the entries are
    the caller's to check.
    """
    if not isinstance(obj, dict):
        raise InputFormatError(f"{name}: expected an object with keys n/re/im or rows/cols/re/im")
    try:
        rows, cols = (int(obj["n"]),) * 2 if "n" in obj else (int(obj["rows"]), int(obj["cols"]))
        re, im = obj["re"], obj.get("im")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{name}: missing or invalid fields: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise InputFormatError(f"{name}: the shape must be positive, got {rows} x {cols}")
    for part, label in ((re, "re"), (im, "im")):
        if part is not None and not (
            isinstance(part, list)
            and len(part) == rows
            and all(isinstance(row, list) and len(row) == cols for row in part)
        ):
            raise InputFormatError(f"{name}: {label} must be {rows} rows of {cols} entries")
    M = np.array(re, dtype=complex)
    if im is not None:
        # set, not 1j * im, which makes an infinite part a NaN one with a warning
        M.imag = np.array(im, dtype=float)
    return M


def load_matrix(path):
    """Read a matrix JSON file; errors name the file's base name."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: not valid JSON: {exc}") from exc
    return matrix_from_json(obj, os.path.basename(path))


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
