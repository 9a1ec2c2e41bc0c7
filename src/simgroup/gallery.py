"""Grid discretizations of the classical example semigroups.

Functions on an interval are represented by their values on ``m`` equal
cells, expressed in the orthonormal basis of normalized cell indicators
of the weighted space ``L^2([0, nu], e^{-2*lam*x} dx)``.  In that basis
plain operator norms coincide with the weighted ones, shift-type
operators are scaled partial permutations, and all the coupling
identities (reflection, wrap-fill, circle interpolation) hold *exactly*
for times aligned to the grid; discretization error enters only through
quadrature functionals and singular kernels.  Time arguments are
therefore snapped to the grid, with the snap distance available to
callers.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, NotContractionError, WindowError
from .opcore import (
    MatrixSemigroup,
    as_matrix,
    operator_norm,
    sampled_semigroup,
)

__all__ = [
    "GridSpace",
    "DyadicSequence",
    "OperatorFamily",
    "HolbrookFactorization",
    "right_shift",
    "left_shift",
    "evolution_semigroup",
    "integration_functional",
    "indicator_embedding",
    "packel_reflection",
    "packel_semigroup",
    "packel_nilpotent_compression",
    "packel_nilpotent_lower_bound",
    "periodic_shift",
    "wrap_fill",
    "w_semigroup",
    "wrap_coupling_weight",
    "lemerdy_semigroup",
    "summing_basis",
    "riemann_liouville",
    "riemann_liouville_semigroup",
    "bhat_skeide",
    "bhat_skeide_semigroup",
    "leftzero_idempotents",
    "schaeffer_dilation",
    "schaeffer_compression",
]


@dataclass(frozen=True)
class GridSpace:
    """Uniform grid on ``[0, nu]`` carrying the weight ``exp(-2*lam*x)``.

    ``m`` cells of width ``step = nu/m``; quadrature weights
    ``w_i = exp(-2*lam*x_i) * step`` at cell midpoints ``x_i``.
    """

    nu: float
    m: int
    lam: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise DimensionError("grid needs at least one cell")
        if not self.nu > 0:
            raise DimensionError("interval length must be positive")

    @property
    def step(self):
        return self.nu / self.m

    @property
    def midpoints(self):
        return (np.arange(self.m) + 0.5) * self.step

    @property
    def weights(self):
        return np.exp(-2.0 * self.lam * self.midpoints) * self.step

    def snap(self, t):
        """Snap ``t >= 0`` to the grid; returns ``(k, distance)``."""
        t = float(t)
        if t < 0:
            raise ValueError("times must be nonnegative")
        k = int(round(t / self.step))
        return k, abs(t - k * self.step)

    def steps_of(self, x, what="value"):
        """Grid index of an aligned coordinate, validating alignment."""
        k, dist = self.snap(x)
        if dist > 1e-9 * max(1.0, abs(x)):
            raise WindowError(f"{what} = {x} is not a multiple of the grid step")
        return k

    def embed_indicator(self, upto):
        """ON coordinates of ``x -> 1`` on ``[0, upto)`` (a column vector)."""
        v = np.zeros(self.m, dtype=complex)
        sel = self.midpoints < upto
        v[sel] = np.sqrt(self.weights[sel])
        return v


def right_shift(space):
    """Right shift semigroup ``(R(t)f)(x) = f(x - t)`` on the grid.

    Nilpotent: ``R(t) = 0`` for ``t >= nu``; the weighted operator norm
    of ``R(k*step)`` is exactly ``exp(-lam*k*step)``.
    """
    m, step, lam = space.m, space.step, space.lam

    def ev(t):
        k, _ = space.snap(t)
        if k >= m:
            return np.zeros((m, m), dtype=complex)
        return math.exp(-lam * k * step) * np.eye(m, k=-k, dtype=complex)

    return sampled_semigroup(m, ev, f"right shift on [0,{space.nu}]", step=step)


def left_shift(space):
    """Left shift semigroup ``(L(t)f)(x) = f(x + t)`` on the grid."""
    m, step, lam = space.m, space.step, space.lam

    def ev(t):
        k, _ = space.snap(t)
        if k >= m:
            return np.zeros((m, m), dtype=complex)
        return math.exp(lam * k * step) * np.eye(m, k=k, dtype=complex)

    return sampled_semigroup(m, ev, f"left shift on [0,{space.nu}]", step=step)


def evolution_semigroup(inner, space):
    """Block evolution semigroup ``f(x) -> T(t) f(x - t)``.

    The inner semigroup rides along the right shift; with the identity
    inner semigroup this reduces to :func:`right_shift`.
    """
    m, step, lam = space.m, space.step, space.lam
    d = inner.dim

    def ev(t):
        k, _ = space.snap(t)
        if k >= m:
            return np.zeros((m * d, m * d), dtype=complex)
        shift = math.exp(-lam * k * step) * np.eye(m, k=-k)
        return np.kron(shift, inner.eval(k * step))

    return sampled_semigroup(m * d, ev, f"evolution semigroup over {inner.description}", step=step)


def integration_functional(space):
    """Row operator ``f -> integral of f over [0, nu]`` in ON coordinates.

    Its norm approaches ``sqrt((exp(2*lam*nu) - 1)/(2*lam))`` as the grid
    refines (``sqrt(nu)`` for ``lam = 0``).
    """
    return (space.step / np.sqrt(space.weights)).astype(complex).reshape(1, -1)


def indicator_embedding(space):
    """Column operator ``h -> h * indicator([0, min(1, nu)])``."""
    return space.embed_indicator(min(1.0, space.nu)).reshape(-1, 1)


# ---------------------------------------------------------------------------
# Packel-type reflection couplings


@dataclass(frozen=True)
class DyadicSequence:
    """Increasing positive sequence with dyadic gaps ``a_{n+1} >= 2 a_n``.

    ``kind`` records which index set the window was cut from: ``"Z"``,
    ``"Zplus"`` (smallest term is the true first) or ``"Zminus"``
    (largest term is the true last).
    """

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in ("Z", "Zplus", "Zminus"):
            raise ValueError("kind must be Z, Zplus or Zminus")
        vals = tuple(float(v) for v in self.values)
        if not vals or any(v <= 0 for v in vals):
            raise ValueError("sequence values must be positive")
        for lo, hi in zip(vals, vals[1:]):
            if hi < 2.0 * lo:
                raise ValueError("dyadic gap violated: need a_{n+1} >= 2 a_n")
        object.__setattr__(self, "values", vals)

    @classmethod
    def powers_of_two(cls, kind, window):
        """The default family ``a_n = 2^n`` over an index window.

        ``window`` counts steps away from index 0: ``Zminus`` yields
        ``(2^-window, ..., 1)``, ``Zplus`` yields ``(1, ..., 2^window)``,
        and ``Z`` is symmetric.
        """
        if kind == "Zminus":
            idx = range(-window, 1)
        elif kind == "Zplus":
            idx = range(0, window + 1)
        else:
            idx = range(-window, window + 1)
        return cls(kind, tuple(2.0**n for n in idx))

    def cell_indices(self, space):
        """Each value as a grid-step multiple; all must align and fit."""
        if space.lam != 0.0:
            raise WindowError("reflection couplings live on the unweighted grid")
        if max(self.values) > space.nu * (1.0 + 1e-12):
            raise WindowError(
                f"sequence reaches {max(self.values)} beyond the truncation [0, {space.nu}]"
            )
        return tuple(space.steps_of(v, "sequence value") for v in self.values)


class OperatorFamily:
    """Grid-aligned family ``t -> V(t)`` that need not be a semigroup."""

    def __init__(self, dim, eval_fn, description, step):
        self.dim = int(dim)
        self.description = description
        self.step = step
        self._eval = eval_fn

    def snap(self, t):
        t = float(t)
        if t < 0:
            raise ValueError("times must be nonnegative")
        k = round(t / self.step)
        return k * self.step, abs(t - k * self.step)

    def eval(self, t):
        ta, _ = self.snap(t)
        return self._eval(ta)


def _reflection_matrix(cells, k, m):
    """0/1 reflection matrix of ``V_a(k*step)`` on an ``m``-cell grid.

    For each window value with ``A_n >= k`` the cells of
    ``(a_n - t, a_n]`` are reflected onto themselves; the largest value
    below ``t`` contributes the truncated reflection on
    ``[0, 2 a_n0 - t]``.  Intervals are pairwise disjoint, so the matrix
    is a partial permutation of norm at most one.
    """
    V = np.zeros((m, m), dtype=complex)
    if k == 0:
        return V
    below = [A for A in cells if A < k]
    for A in cells:
        if A >= k:
            i = np.arange(A - k, A)
            V[i, 2 * A - k - 1 - i] = 1.0
    if below:
        A0 = max(below)
        top = 2 * A0 - k  # cells 0 .. top-1
        if top > 0:
            i = np.arange(0, top)
            V[i, 2 * A0 - k - 1 - i] = 1.0
    return V


def packel_reflection(a, space):
    """Reflection family ``V_a(t)`` acting by ``f -> f(2 a_n - x - t)``.

    ``V_a(0) = 0``; for aligned times the coupling identity
    ``V_a(s+t) = L(s) V_a(t) + V_a(s) R(t)`` holds exactly whenever all
    of ``s, t`` are at least the smallest window value (always, for
    ``Zplus`` windows).
    """
    cells = a.cell_indices(space)
    m = space.m

    def ev(t):
        k, _ = space.snap(t)
        return _reflection_matrix(cells, k, m)

    return OperatorFamily(m, ev, f"packel reflection ({a.kind})", space.step)


def packel_semigroup(a, space):
    """Coupled shift semigroup ``[[L(t), V_a(t)], [0, R(t)]]``.

    Bounded with norm at most 2 on the grid; never similar to a
    contraction semigroup for infinite ``Z``/``Zplus`` families, which at
    finite truncation shows up as window-growing constants.
    """
    cells = a.cell_indices(space)
    m = space.m
    L = left_shift(space)
    R = right_shift(space)

    def ev(t):
        k, _ = space.snap(t)
        V = _reflection_matrix(cells, k, m)
        out = np.zeros((2 * m, 2 * m), dtype=complex)
        out[:m, :m] = L.eval(t)
        out[:m, m:] = V
        out[m:, m:] = R.eval(t)
        return out

    return sampled_semigroup(2 * m, ev, f"packel semigroup ({a.kind})", step=space.step)


def packel_nilpotent_compression(a, b, refine=1):
    """Compression of the ``Zminus`` coupling to ``L^2(0,b) + L^2(0,b)``.

    All intervals of a ``Zminus`` window inside ``(0, b]`` couple only
    cells below ``b``, so truncating both legs of the shift coupling at
    ``b`` *is* the compression; it is an exactly nilpotent semigroup with
    ``N(2b) = 0``.  ``refine`` subdivides the coarsest exact grid
    (``step = min(a)``) by an integer factor.
    """
    if a.kind != "Zminus":
        raise WindowError("the nilpotent compression needs a Zminus window")
    if max(a.values) > b * (1.0 + 1e-12):
        raise WindowError("all sequence values must lie in (0, b]")
    step = min(a.values) / int(refine)
    m = int(round(b / step))
    if abs(m * step - b) > 1e-9 * b:
        raise WindowError("b must be a multiple of the refined grid step")
    space = GridSpace(nu=b, m=m)
    sem = packel_semigroup(a, space)
    sem.description = f"packel nilpotent compression (window {len(a.values)})"
    return sem


def packel_nilpotent_lower_bound(a, b, refine=1):
    """Certified divergence floor ``sqrt(window)/2`` for the compression.

    Checks on the grid the three structural facts the proof of the
    divergence inequality rests on, for the test vectors
    ``h_n = (0, indicator(0, a_n))`` and times ``t_n(k) = 2 a_k - a_n``:
    the reflection fixes the indicator at each ``t_n(k)``, the left leg
    annihilates it at ``a_n``, and the shifted copies have disjoint
    supports.  When they hold, any joint contraction renorming of the
    compression has condition at least ``sqrt(len(a))/2``.
    """
    if a.kind != "Zminus":
        raise WindowError("the divergence bound needs a Zminus window")
    step = min(a.values) / int(refine)
    m = int(round(b / step))
    space = GridSpace(nu=b, m=m)
    cells = a.cell_indices(space)
    V = packel_reflection(a, space)
    L = left_shift(space)
    an_cells = cells[0]  # smallest value: the proof's a_n
    ind = np.zeros(m, dtype=complex)
    ind[:an_cells] = 1.0
    supports = []
    for Ak in cells:
        t = (2 * Ak - an_cells) * step
        if not np.allclose(V.eval(t) @ ind, ind, atol=1e-12):
            raise WindowError("reflection identity failed on the grid")
        k_shift = 2 * Ak - an_cells
        lo = k_shift
        hi = k_shift + an_cells
        supports.append((lo, min(hi, m)))
    if np.linalg.norm(L.eval(an_cells * step) @ ind) > 1e-12:
        raise WindowError("left-shift annihilation failed on the grid")
    supports.sort()
    for (lo1, hi1), (lo2, hi2) in zip(supports, supports[1:]):
        if lo2 < hi1:
            raise WindowError("shifted supports overlap on the grid")
    return math.sqrt(len(a.values)) / 2.0


# ---------------------------------------------------------------------------
# circle / wrap coupling


def periodic_shift(m):
    """Periodic (unitary) shift group on the ``m``-cell circle."""

    def ev(t):
        k = int(round(t * m)) % m
        P = np.zeros((m, m), dtype=complex)
        i = np.arange(m)
        P[i, (i - k) % m] = 1.0
        return P

    return sampled_semigroup(m, ev, "periodic shift", step=1.0 / m)


def wrap_fill(m):
    """Fill family ``V(t)``: the wrapped tail poured onto ``[0, t)``.

    ``V(1) = I`` and ``V(t) = R_p(t-1)`` for ``t >= 1``.
    """

    def ev(t):
        k = int(round(t * m))
        if k >= m:
            kk = (k - m) % m
            P = np.zeros((m, m), dtype=complex)
            i = np.arange(m)
            P[i, (i - kk) % m] = 1.0
            return P
        V = np.zeros((m, m), dtype=complex)
        i = np.arange(k)
        V[i, (i - k) % m] = 1.0
        return V

    return OperatorFamily(m, ev, "wrap fill", step=1.0 / m)


def w_semigroup(m, inner=None):
    """Coupling ``W(t) = [[R_p(t), V(t)], [0, R(t)]]`` on two unit legs.

    With an ``inner`` semigroup the blocks are tensored against it at the
    doubled rate, ``S(t) = W(t/2) (x) S0(t)``, as needed to hand a tail
    factorization across the coupling.
    """
    space = GridSpace(nu=1.0, m=m)
    Rp = periodic_shift(m)
    V = wrap_fill(m)
    R = right_shift(space)

    def w_eval(t):
        out = np.zeros((2 * m, 2 * m), dtype=complex)
        out[:m, :m] = Rp.eval(t)
        out[:m, m:] = V.eval(t)
        out[m:, m:] = R.eval(t)
        return out

    if inner is None:
        return sampled_semigroup(2 * m, w_eval, "wrap coupling W", step=1.0 / m)

    d = inner.dim

    def ev(t):
        return np.kron(w_eval(t / 2.0), inner.eval(t))

    return sampled_semigroup(
        2 * m * d, ev, f"wrap coupling W over {inner.description}", step=2.0 / m
    )


def wrap_coupling_weight(m, inner_dim=1):
    """The weight ``Lambda* Lambda`` making the wrap coupling contractive.

    ``Lambda = [[I, I], [0, I]]`` in leg blocks; the induced norm is
    ``norm(f + g)^2 + norm(g)^2``.
    """
    I = np.eye(m * inner_dim, dtype=complex)
    top = np.hstack([I, I])
    bot = np.hstack([np.zeros_like(I), I])
    lam = np.vstack([top, bot])
    return lam.conj().T @ lam


# ---------------------------------------------------------------------------
# diagonal families


def summing_basis(n):
    """Lower-triangular all-ones basis (partial-sum sections)."""
    return np.tril(np.ones((n, n), dtype=complex))


def lemerdy_semigroup(n, basis=None):
    """Diagonal decay ``exp(-2^j t)`` expressed in a skewed basis.

    ``T(t) = B diag(exp(-2^j t)) B^{-1}``, ``j = 1..n``; the default
    basis is the partial-sum (summing sections) matrix, whose inverse
    norms grow with ``n``.  With the identity basis this is a plain
    normal contraction semigroup.
    """
    if basis is None:
        B = summing_basis(n)
    else:
        B = as_matrix(basis, "basis")
        if B.shape[0] != n:
            raise DimensionError("basis dimension mismatch")
    if abs(np.linalg.det(B)) < 1e-300:
        raise DimensionError("basis must be invertible")
    Binv = np.linalg.inv(B)
    rates = 2.0 ** np.arange(1, n + 1)

    def ev(t):
        with np.errstate(under="ignore"):
            d = np.exp(-rates * t)
        return (B * d) @ Binv

    sem = sampled_semigroup(n, ev, f"lemerdy section (n={n})", step=None)
    sem.generator = (B * (-rates)) @ Binv
    return sem


def riemann_liouville(space, t):
    """Fractional integration of order ``t`` by product integration.

    Piecewise-constant collocation at cell midpoints with the exact cell
    moments of the kernel ``(x - y)^{t-1}/Gamma(t)``; the matrix is
    lower-triangular Toeplitz.  The kernel is integrably singular for
    ``t < 1``, which is why the moments must be exact.
    """
    t = float(t)
    if t <= 0:
        raise ValueError("fractional order must be positive")
    m, step = space.m, space.step
    d = np.arange(m, dtype=float)
    upper = (d + 0.5) ** t
    lower = np.zeros(m)
    lower[1:] = (d[1:] - 0.5) ** t
    col = (step**t) * (upper - lower) / math.gamma(t + 1.0)
    return scipy.linalg.toeplitz(col.astype(complex), np.zeros(m, dtype=complex))


def riemann_liouville_semigroup(space):
    """Fractional-integration family as a (quasi-nilpotent) semigroup.

    The semigroup law holds only up to the product-integration error
    ``O(step^min(s,t,1))``, so law checks on this family need a
    tolerance of that order.
    """

    def ev(t):
        if t == 0.0:
            return np.eye(space.m, dtype=complex)
        return riemann_liouville(space, t)

    return sampled_semigroup(
        space.m,
        ev,
        f"riemann-liouville on [0,{space.nu}] (m={space.m})",
        step=None,
    )


# ---------------------------------------------------------------------------
# circle interpolation of a single operator


def bhat_skeide(T, circle_m, t):
    """Circle interpolant of the powers of ``T`` at time ``t``.

    Rotation by ``t`` on an ``m``-cell circle applies ``T^(floor(t)+1)``
    on the wrapped arc and ``T^floor(t)`` elsewhere, so integer times
    give exactly ``I (x) T^n``.  Returns ``(matrix, weight)`` where the
    block-diagonal weight ``I + r T*T`` (``r`` the cell midpoint)
    certifies the quasi-contraction envelope
    ``sqrt(1/(1-t) + t norm(T)^2)`` up to ``O(1/m)``.
    """
    T = as_matrix(T)
    m = int(circle_m)
    K = int(round(t * m))
    if K < 0:
        raise ValueError("time must be nonnegative")
    q, k = divmod(K, m)
    d = T.shape[0]
    i = np.arange(m)
    Cwrap = np.zeros((m, m), dtype=complex)
    Cmain = np.zeros((m, m), dtype=complex)
    Cwrap[i[:k], (i[:k] - k) % m] = 1.0
    Cmain[i[k:], i[k:] - k] = 1.0
    Tq = np.linalg.matrix_power(T, q)
    B = np.kron(Cwrap, T @ Tq) + np.kron(Cmain, Tq)
    r = (np.arange(m) + 0.5) / m
    blocks = [np.eye(d, dtype=complex) + ri * (T.conj().T @ T) for ri in r]
    P = scipy.linalg.block_diag(*blocks)
    return B, P


def bhat_skeide_semigroup(T, circle_m):
    """The circle interpolant as a semigroup, with its envelope weight."""
    T = as_matrix(T)

    def ev(t):
        return bhat_skeide(T, circle_m, t)[0]

    sem = sampled_semigroup(
        circle_m * T.shape[0],
        ev,
        f"circle interpolant (m={circle_m})",
        step=1.0 / circle_m,
    )
    _, P = bhat_skeide(T, circle_m, 0.0)
    return sem, P


# ---------------------------------------------------------------------------
# idempotents and dilations


def leftzero_idempotents(count, blocks=None, p=1, q=1):
    """Idempotents ``E_n = [[I, 0], [D_n, 0]]`` with ``E_m E_n = E_m``.

    Pairwise distinct ``D_n`` make the family a left-zero representation
    that no weight can renorm into joint contractions.  Default blocks
    are the scalars ``(-1)^n 2^{-n//2}``.
    """
    if blocks is None:
        blocks = [
            ((-1.0) ** n * 2.0 ** (-(n // 2))) * np.ones((q, p)) for n in range(count)
        ]
    if len(blocks) != count:
        raise DimensionError("need one block per idempotent")
    out = []
    for D in blocks:
        D = np.atleast_2d(np.asarray(D, dtype=complex))
        qq, pp = D.shape
        E = np.zeros((pp + qq, pp + qq), dtype=complex)
        E[:pp, :pp] = np.eye(pp)
        E[pp:, :pp] = D
        out.append(E)
    return out


def _psd_sqrt(M):
    w, U = np.linalg.eigh(0.5 * (M + M.conj().T))
    w = np.clip(w, 0.0, None)
    # levels at rounding noise would be amplified to sqrt-scale defects
    w[w < 1e-14] = 0.0
    return (U * np.sqrt(w)) @ U.conj().T


def schaeffer_dilation(T, horizon):
    """Finite-horizon unitary dilation of a contraction by defect blocks.

    ``U`` acts on ``2*horizon + 1`` copies of the base space; compressing
    ``U^k`` to the middle copy reproduces ``T^k`` for ``0 <= k <=
    horizon``.  The construction is the classical one: the unitary
    rotation ``[[T, D_{T*}], [D_T, -T*]]`` between the middle copy and
    its past neighbour, embedded in a cyclic block shift.
    """
    T = as_matrix(T)
    if operator_norm(T) > 1.0 + 1e-12:
        raise NotContractionError(f"norm {operator_norm(T):.6g} > 1")
    N = int(horizon)
    if N < 1:
        raise ValueError("horizon must be at least 1")
    d = T.shape[0]
    DT = _psd_sqrt(np.eye(d) - T.conj().T @ T)
    DTs = _psd_sqrt(np.eye(d) - T @ T.conj().T)
    nblocks = 2 * N + 1
    U = np.zeros((nblocks * d, nblocks * d), dtype=complex)

    def put(row, col, block):
        U[(row + N) * d : (row + N + 1) * d, (col + N) * d : (col + N + 1) * d] = block

    for j in range(-N + 1, 0):
        put(j, j - 1, np.eye(d))
    put(-N, N, np.eye(d))
    put(0, -1, DTs)
    put(0, 0, T)
    put(1, -1, -T.conj().T)
    put(1, 0, DT)
    for j in range(2, N + 1):
        put(j, j - 1, np.eye(d))
    return U


def schaeffer_compression(U, dim, k):
    """Middle-block compression of ``U^k`` (the dilated power)."""
    n = U.shape[0] // dim
    N = (n - 1) // 2
    sl = slice(N * dim, (N + 1) * dim)
    return np.linalg.matrix_power(U, k)[sl, sl]


@dataclass(frozen=True)
class HolbrookFactorization:
    """Factorization ``T^k = amap S(k) bmap`` through a contraction family.

    ``inner`` is the contraction (semi)group on the auxiliary space,
    audited on integer times up to ``horizon``.
    """

    amap: np.ndarray
    bmap: np.ndarray
    inner: MatrixSemigroup
    horizon: int

    def defect(self, T, k):
        return operator_norm(
            np.linalg.matrix_power(T, k) - self.amap @ self.inner.eval(float(k)) @ self.bmap
        )
