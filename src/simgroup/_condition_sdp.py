"""Primal-dual path-following for the condition-number SDP.

For a constraint map in pair form ``L(X) = c (M* X F + F* X M)`` whose
cone ``{L(P) <= 0}`` has interior points, the squared similarity
constant is the optimum of the linear semidefinite program

    min t   s.t.   P - I >= 0,   t I - P >= 0,   -L(P) >= 0

(Boyd, El Ghaoui, Feron and Balakrishnan, *Linear Matrix Inequalities in
System and Control Theory*, 1994).  Its dual (Vandenberghe and Boyd,
*Semidefinite Programming*, 1996) is

    max tr Z1   s.t.   tr Z2 = 1,   Z1 = Z2 + L*(W),   Z1, Z2, W >= 0,

and every dual-feasible point bounds the optimum from below.

The engine follows the central path of this pair with the HKM direction
(Helmberg, Rendl, Vanderbei and Wolkowicz, *An interior-point method for
semidefinite programming*, 1996) and Mehrotra's predictor-corrector
(*On the implementation of a primal-dual interior point method*, 1992).
The weight side ``(P, t)`` starts strictly feasible, at twice the
seed weight, and stays so.  The solver in :mod:`simgroup.weightsolve`
passes the balanced weight ``X_o # X_c^-1``, the geometric mean of the
two Gramians ``X_o = L^-1(-I)`` and ``X_c = L*^-1(-I)``: the weight that a
balancing transformation turns into ``I`` (Moore, *Principal component
analysis in linear systems*, 1981), whose kappa is near the constant
where the equation seed ``X_o`` alone is often many times above it.
Where float64 does not certify the mean (not positive definite above
its rounding level, or a pair-form defect that is not negative
definite) it passes ``X_o``.  Each step goes ``0.98`` of the way to the
boundary of the slack blocks ``S1 = P - I``, ``S2 = t I - P`` and ``S3
= -nu L(P)`` at most.  The dual blocks ``(X1, X2, X3)`` start at ``mu0
S^-1`` with ``tr X2 = 1`` and reach the coupling ``X1 = X2 + nu L*(X3)``
only in the limit.  Each iterate carries an upper bound, the condition
number of its weight, and a lower bound from weak duality with the
coupling residual ``r = X1 - X2 - nu L*(X3)`` charged: for every
feasible ``(P, t)`` and ``X1, X2, X3 >= 0``

    tr X1 <= <X1, P> = t tr X2 + nu <X3, L(P)> - <X2, t I - P> + <r, P>
          <= t (tr X2 + tr r+),

so ``C^2 >= tr X1 / (tr X2 + tr r+)`` (:func:`_coupling_bound`).

The Newton system is the Schur complement ``sum_b tr(A_i X_b A_j
S_b^-1)`` of the three blocks (Toh, Todd and Tutuncu, *SDPT3*, 1999).
Both loops step on it: :class:`_Problem` builds, scales, factors and
solves it in one place, and the barrier loop's Hessian is the Schur
matrix at ``X = S^-1``.  It is assembled in ``O(n^4)``: every term has
the form ``tr(E_k A E_l B)``, so the whole matrix is four gathers from
one ``n^2 x n^2`` outer product of the six factor pairs ``(A_r, B_r)``
-- the ``n^2``-dimensional constraint map is never formed as a matrix.
One primal-dual step costs one stacked ``eigh`` of the six blocks, one
``eigvalsh`` of the residual ``r``, one ``potrf`` of the Newton matrix,
two ``potrs`` (predictor and corrector) and two stacked ``eigvalsh``
for the step lengths, plus the ``O(n^4)`` outer product and gather.  At
``n <= 12`` numpy's per-call overhead, not LAPACK, sets the cost of a
step, so the blocks and factor stacks are filled in arrays allocated
once per solve, a Lyapunov target (``F = I``) skips its identity
products, and the coordinate basis with its gather indices is built
once per size and field and cached, as long as its gather is small
(:func:`_basis`).

Some solves the loop does not close: a Newton matrix still fails
Cholesky after the ridges, a block loses definiteness in rounding, or
:data:`MAX_PD_STEPS` steps run out.  Such a solve hands over to a primal
barrier method from the seed, which minimizes ``t / mu + barrier`` by
Newton steps on the same system with an exact line search and, inside
the Dikin ellipsoid, re-checks the Newton-corrected slacks as a dual
point (:func:`_dual_bound`).  It closes some thin near-marginal cones
that the primal-dual iterates leave wide.  The result keeps the smaller
kappa and the larger lower bound of the two loops.  A stall whose
bracket is already within :data:`_HANDOVER_WIDTH` (``1e-9`` relative,
the float64 reach of ``tol``) is not handed over: ``tol`` below it, or
a budget inside the bracket, cannot be met by either loop.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Cap on primal-dual steps; the bracket normally closes in about ten.
MAX_PD_STEPS = 50
#: Smallest centring parameter of the corrector.
_SIGMA_MIN = 0.01
#: Fraction of the step to the boundary that a primal-dual step takes.
_STEP = 0.98
#: Hard cap on Newton steps of the barrier hand-over.
MAX_NEWTON_STEPS = 300
#: Newton decrement squared below which the iterate counts as centred.
_CENTRED = 0.5
#: Factor applied to the barrier's ``mu`` once centred.
_MU_FACTOR = 0.1
#: Relative bracket width below which the float64 iterates stop improving.
GAP_FLOOR = 1e-12
#: Ridges, relative to the unit diagonal, tried after a failed Cholesky.
_RIDGES = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6)
#: Relative bracket width within which a stalled primal-dual solve is
#: not handed over: the float64 reach of ``tol`` (see :func:`solve`).
_HANDOVER_WIDTH = 1e-9
#: Largest index gather, in bytes, of a basis kept between solves
#: (:func:`_basis`); all sizes and fields together stay under 7 MB.
_BASIS_CACHE_BYTES = 1 << 20
_BASES = {}


@dataclass
class SdpResult:
    """Best certified bracket ``lower <= sqrt(t*) <= kappa`` found.

    ``weight`` is the strictly feasible weight of ``kappa``, scaled to
    ``eig_min = 1``.  ``iterations`` counts the steps of both loops;
    ``barrier_steps`` those of the barrier hand-over (0 when the
    primal-dual loop decided).
    """

    weight: np.ndarray
    kappa: float
    lower: float
    iterations: int
    barrier_steps: int = 0


class _HermitianBasis:
    """Real coordinates of Hermitian (or real symmetric) ``n x n`` matrices.

    The coordinates are ``Re P[a, b]`` for ``a <= b`` and, for complex
    data, ``Im P[a, b]`` for ``a < b``; their basis matrices are ``e_a
    e_b^T + e_b e_a^T`` (``e_a e_a^T`` on the diagonal) and ``i (e_a e_b^T
    - e_b e_a^T)``.
    """

    def __init__(self, n, complex_):
        self.n = n
        self.complex = complex_
        self.dtype = complex if complex_ else float
        self._re = np.triu_indices(n)
        self._im = np.triu_indices(n, 1) if complex_ else (np.array([], int), np.array([], int))
        self._w = np.where(self._re[0] == self._re[1], 0.5, 1.0)
        self._m = len(self._re[0])
        self.dim = self._m + len(self._im[0])
        # flat positions a n + b of each pair (a, b) and of its mirror (b, a)
        self._fwd = tuple(a * n + b for a, b in (self._re, self._im))
        self._bwd = tuple(b * n + a for a, b in (self._re, self._im))
        # T[y n + x, u n + v] = sum_r A_r[y, u] B_r[v, x] is entry (y n + u,
        # v n + x) of the outer product O = sum_r vec(A_r) vec(B_r)^T, at
        # flat position (y n^3 + x) + n (u n + v).  The Hessian reads T at
        # the rows (mirror b, pair f) of each coordinate and at its columns
        # (f, b), stacked as [row][column]
        f, b = np.concatenate(self._fwd), np.concatenate(self._bwd)
        rows = np.array([p // n * n**3 + p % n for p in (b, f)])
        cols = n * np.array([f, b])
        self._gather = rows[:, None, :, None] + cols[None, :, None, :]
        if complex_:
            # positions in O viewed as float64: the real part of each entry
            # where row and column are of one kind, the imaginary part where
            # they differ; then the signs and weights of quadratic
            imag = np.arange(self.dim) >= self._m
            self._gather = 2 * self._gather + (imag[:, None] ^ imag[None, :])
            self._sign = np.where(imag, -1.0, 1.0)
            self._rw = np.append(self._w, np.ones(self.dim - self._m))
            self._cw = np.where(imag[:, None] | imag[None, :], -1.0, 1.0) * self._rw
        # a cached basis is shared by every solve of its size and field
        index = [*self._re, *self._im, *self._fwd, *self._bwd, self._w, self._gather]
        if complex_:
            index += [self._sign, self._rw, self._cw]
        for a in index:
            a.flags.writeable = False

    def matrix(self, x):
        (ia, ib), (ja, jb) = self._re, self._im
        m = self._m
        P = np.zeros((self.n, self.n), dtype=self.dtype)
        P[ia, ib] = x[:m]
        P[ib, ia] = x[:m]
        if self.complex:
            P[ja, jb] += 1j * x[m:]
            P[jb, ja] -= 1j * x[m:]
        return P

    def coords(self, G):
        """The vector ``Re tr(G E_k)`` over the basis matrices ``E_k``."""
        flat = G.ravel()
        (fr, fi), (br, bi) = self._fwd, self._bwd
        out = self._w * np.real(flat[fr] + flat[br])
        if self.complex:
            out = np.concatenate([out, np.imag(flat[fi] - flat[bi])])
        return out

    def quadratic(self, As, Bs):
        """The matrix ``Re sum_r tr(E_k A_r E_l B_r)`` over the basis.

        ``tr(e_x e_y^T A e_u e_v^T B) = A[y, u] B[v, x]`` is entry ``(y n +
        x, u n + v)`` of ``T = sum_r kron(A_r, B_r^T)`` and entry ``(y n +
        u, v n + x)`` of the outer product ``O = sum_r vec(A_r)
        vec(B_r)^T``, one ``dot`` over the stack.  Entry ``(k, l)`` then
        combines four entries of ``T``, gathered from ``O`` at flat
        positions fixed by the basis.  With ``b``/``f`` the mirror and the
        pair of row ``k`` and of column ``l`` and ``w`` the entry weights,
        two real coordinates give ``w_l Re(w_k (T[b, f] + T[f, f]) + w_k
        (T[b, b] + T[f, b]))``.  An imaginary row takes ``T[b] - T[f]``
        instead and an imaginary column ``Y[f] - Y[b]``; as ``Re(i z) =
        -Im z`` and ``Im(i z) = Re z``, each entry is then the real or
        the imaginary parts of its four entries of ``T``, combined with
        the same two roundings and exact signs and powers of two.
        """
        n, k = self.n, len(As)
        O = np.dot(As.transpose(1, 2, 0).reshape(n * n, k), Bs.reshape(k, n * n))
        # the row and column stages run in place on the gathered entries
        if not self.complex:
            T = O.take(self._gather)
            del O
            Y = np.add(T[0], T[1], out=T[0])
            Y *= self._w[:, None]
            H = Y[0] + Y[1]
            H *= self._w
            return H
        T = O.view(np.float64).take(self._gather)
        del O
        T[1] *= self._sign[:, None]
        Y = np.add(T[0], T[1], out=T[0])
        Y *= self._rw[:, None]
        Y[1] *= self._sign
        H = Y[0] + Y[1]
        H *= self._cw
        return H


class _PairMap:
    """``L(X) = c (M* X F + F* X M)`` with ``F = None`` for the identity.

    As a sum of terms ``s M_r* X N_r`` the map has ``(M_r, N_r) = (M,
    F), (F, M)``; every product below is that sum written out, with the
    identity products of ``F = None`` skipped.
    """

    def __init__(self, form, dtype):
        M, F, c = form
        self.M = np.asarray(M, dtype=dtype)
        self.Mh = self.M.conj().T
        self.F = None if F is None else np.asarray(F, dtype=dtype)
        self.Fh = None if F is None else self.F.conj().T
        self.c = float(c)

    def defect(self, X):
        c = self.c
        if self.F is None:
            D = c * (self.Mh @ X) + c * (X @ self.M)
        else:
            D = c * (self.Mh @ X @ self.F) + c * (self.Fh @ X @ self.M)
        return 0.5 * (D + D.conj().T)

    def adjoint(self, Z):
        c = self.c
        if self.F is None:
            G = c * (Z @ self.Mh) + c * (self.M @ Z)
        else:
            G = c * (self.F @ Z @ self.Mh) + c * (self.M @ Z @ self.Fh)
        return 0.5 * (G + G.conj().T)

    def newton_factors(self, X, W, coef, AB):
        """Fill the defect block's factor pairs ``AB[:, 2:]``.

        With ``N_0 = F``, ``N_1 = M`` (the right factors) and ``K_ij(Y) =
        N_i Y M_j*``, ``AB[0, 2:]`` gets ``coef K_ij(X)`` and ``AB[1, 2:]``
        gets ``K_ji(W)`` over ``(i, j) = 00, 01, 10, 11``: the pairs of
        ``tr(L(E_k) X L(E_l) W) / c^2``.
        """
        A, B = AB[0], AB[1]
        for Y, out, (k00, k01, k10, k11) in ((W, B, (2, 4, 3, 5)), (X, A, (2, 3, 4, 5))):
            MY = self.M @ Y
            if self.F is None:
                np.matmul(Y, self.Mh, out=out[k00])
                out[k01] = Y
                out[k11] = MY
            else:
                FY = self.F @ Y
                np.matmul(FY, self.Mh, out=out[k00])
                np.matmul(FY, self.Fh, out=out[k01])
                np.matmul(MY, self.Fh, out=out[k11])
            np.matmul(MY, self.Mh, out=out[k10])
        A[2:] *= coef


def _basis(n, complex_):
    """The :class:`_HermitianBasis` of size ``n`` and field, cached when small.

    Building one takes 40 to 300 microseconds at ``n <= 12`` (2 vCPU),
    and a verdict makes many solves of one size.  A basis whose index
    gather takes fewer than :data:`_BASIS_CACHE_BYTES` is kept for every
    later solve of its size and field.  It depends on
    nothing else and its index arrays are read-only, so sharing it
    couples no two solves.  A larger one (real ``n > 18``, complex ``n >
    13``; 32 MB for a complex ``n = 32``) is built per solve and freed
    with it.
    """
    key = (n, complex_)
    basis = _BASES.get(key)
    if basis is None:
        basis = _HermitianBasis(n, complex_)
        if basis._gather.nbytes < _BASIS_CACHE_BYTES:
            _BASES[key] = basis
    return basis


def _cholesky(H, potrf):
    """Upper Cholesky factor of the unit-diagonal Newton matrix.

    Near the optimum the Hessian's condition number grows like
    ``mu^-2``; once rounding makes it numerically indefinite, a ridge of
    relative size up to ``1e-6`` keeps the step a descent direction (the
    exact line search and the re-checked bounds make any such step safe).
    Operators close to the identity, such as ``exp(tA)`` at small ``t``,
    need the upper rungs.
    """
    c, info = potrf(H, lower=False, clean=False)
    if info == 0:
        return c
    I = np.eye(len(H))
    for ridge in _RIDGES:
        c, info = potrf(H + ridge * I, lower=False, clean=False)
        if info == 0:
            return c
    return None


def _line_search(slope_t, d):
    """Exact minimizer in ``[0, step to the boundary)`` of the barrier along a line.

    ``f(a) = a * slope_t - sum log(1 + a d)`` over the scaled direction
    eigenvalues ``d`` of every block; convex, decreasing at 0.
    """
    neg = d[d < 0.0]
    a_max = -1.0 / neg.min() if neg.size else np.inf
    hi = min(0.99 * a_max, 1e6)
    lo = 0.0
    a = min(1.0, 0.5 * hi)
    stop = 1e-12 * (abs(slope_t) + np.abs(d).sum())
    for _ in range(60):
        q = d / (1.0 + a * d)
        g = slope_t - q.sum()
        if abs(g) <= stop:
            break
        if g > 0.0:
            hi = a
        else:
            lo = a
        h = (q * q).sum()
        nxt = a - g / h if h > 0 else 0.5 * (lo + hi)
        a = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * hi:
            break
    return a


def solve(form, seed, tol, budget=None):
    """Bracket the condition-number SDP of ``L`` to relative width ``tol``.

    Parameters
    ----------
    form : (M, F, c)
        The pair form ``L(X) = c (M* X F + F* X M)`` with square ``M``,
        ``F`` of one size; ``F = None`` stands for the identity.
    seed : ndarray
        Hermitian weight with ``L(seed) < 0`` in float64 and
        ``eig_min(seed) = 1``; both loops start from twice it.  The
        verdicts pass the balanced weight ``L^{-1}(-I) # L*^{-1}(-I)^{-1}``
        where float64 certifies it, and else the equation seed
        ``L^{-1}(-I)``, each normalized.
    tol : float
        Stop once ``kappa <= (1 + tol) * lower``.  Below about ``1e-9``
        the float64 iterates may stall first (a numerically indefinite
        Newton matrix, or ``GAP_FLOOR``); the result is then the tightest
        bracket reached, and a stall within ``1e-9`` is not handed over.
    budget : float, optional
        Also stop once the bracket decides ``constant <= budget``
        (``kappa <= budget``) or ``constant > budget`` (``lower >
        budget``).

    Returns
    -------
    SdpResult
    """
    sdp = _Problem(form, seed, tol, budget)
    best = SdpResult(sdp.seed, _kappa(np.linalg.eigvalsh(sdp.seed)), 1.0, 0)
    if not _primal_dual(sdp, best) and best.kappa > (1.0 + _HANDOVER_WIDTH) * best.lower:
        steps = best.iterations
        _barrier(sdp, best)
        best.barrier_steps = best.iterations - steps
    return best


class _Problem:
    """One solve's SDP, scaled at the seed, its Newton system and its stopping rule.

    Both loops step on the Newton system held here: :meth:`factor` factors
    the slack blocks of an iterate (and, in the primal-dual loop, the dual
    blocks with them), :meth:`schur` builds and factors the Schur matrix
    at dual blocks ``X`` (the barrier's Hessian is the one at ``X = W =
    S^-1``), :meth:`step` solves it for one right-hand side and
    :meth:`ratios` gives the scaled block directions that the step lengths
    read.  The arrays ``blocks`` (``S1, S2, S3, X1, X2, X3``), ``dirs``
    (their directions), ``AB`` (the factor pairs ``(A_r, B_r)``) and ``H``
    are allocated once per solve and shared by both loops.
    """

    def __init__(self, form, seed, tol, budget):
        n = seed.shape[0]
        complex_ = any(np.iscomplexobj(X) for X in (seed, form[0], form[1]) if X is not None)
        self.n = n
        self.basis = _basis(n, complex_)
        self.L = _PairMap(form, self.basis.dtype)
        self.I = np.eye(n, dtype=self.basis.dtype)
        self.potrf, self.potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
        self.seed = 0.5 * (seed + seed.conj().T)
        # scale the defect block to unit size at the seed; near-marginal
        # targets (a step exp(tA) with small t) otherwise carry a defect many
        # orders below the other two blocks
        self.nu = 1.0 / float(np.linalg.eigvalsh(-self.L.defect(self.seed))[-1])
        # the defect block's weight in the Newton matrix
        self.nu2c2 = self.nu * self.nu * self.L.c * self.L.c
        self.tol = tol
        self.budget = budget
        self.blocks = np.empty((6, n, n), dtype=self.basis.dtype)
        self.dirs = np.empty((6, n, n), dtype=self.basis.dtype)
        self.AB = np.empty((2, 6, n, n), dtype=self.basis.dtype)
        self.H = np.empty((self.basis.dim + 1, self.basis.dim + 1))

    def start(self):
        """The weight side's start ``(2 seed, 2 eig_max(2 seed))``."""
        P = 2.0 * self.seed
        return P, 2.0 * float(np.linalg.eigvalsh(P)[-1])

    def slacks(self, P, t, out):
        """The blocks ``P - I``, ``t I - P`` and ``-nu L(P)`` into ``out[:3]``."""
        np.subtract(P, self.I, out=out[0])
        np.subtract(t * self.I, P, out=out[1])
        np.multiply(-self.nu, self.L.defect(P), out=out[2])

    def factor(self, P, t, best, k):
        """Factor the slacks of ``(P, t)`` and ``blocks[3:k]``; False if not definite.

        One stacked ``eigh`` of the first ``k`` blocks gives ``w``, ``U``
        and ``W = S^-1`` of the three slacks.  The weight side is strictly
        feasible, so its kappa is folded into ``best``.
        """
        self.slacks(P, t, self.blocks)
        w, U = np.linalg.eigh(self.blocks[:k])
        if not ((w[:, 0] > 0.0).all() and np.isfinite(w).all()):
            return False
        self.w, self.U = w, U
        self.Uh = U.conj().transpose(0, 2, 1)
        r = 1.0 / np.sqrt(w)
        self.scale = r[:, :, None] * r[:, None, :]
        self.W = (U[:3] / w[:3, None, :]) @ self.Uh[:3]
        self.wP = w[0] + 1.0
        kappa = _kappa(self.wP)
        if kappa < best.kappa:
            best.weight, best.kappa = P / self.wP[0], kappa
        return True

    def schur(self, X):
        """Build and factor the Schur matrix ``sum_b tr(A_i X_b A_j W_b)``; False if it fails.

        In relative coordinates ``dP = R dZ R``, ``R = P^(1/2)``: ``P``
        spans a condition number up to the constant squared, which the raw
        entries would pass on to the matrix; the Jacobi scaling on top
        balances ``t`` against the weight.
        """
        W, AB, H, basis = self.W, self.AB, self.H, self.basis
        self.R = R = (self.U[0] * np.sqrt(self.wP)) @ self.Uh[0]
        AB[0, :2] = X[:2]
        AB[1, :2] = W[:2]
        self.L.newton_factors(X[2], W[2], self.nu2c2, AB)
        RAB = R @ AB @ R
        H[:-1, :-1] = basis.quadratic(RAB[0], RAB[1])
        XW2 = X[1] @ W[1]
        H[:-1, -1] = H[-1, :-1] = -basis.coords(R @ XW2 @ R)
        H[-1, -1] = XW2.trace().real
        # near a marginal target rounding can leave a non-positive diagonal
        # entry or a non-finite one: like a failed factorization, that
        # ends the loop with the best bracket so far
        d = H.diagonal()
        if not ((d > 0.0).all() and np.isfinite(H).all()):
            return False
        self.dsc = 1.0 / np.sqrt(d)
        self.chol = _cholesky(H * np.outer(self.dsc, self.dsc), self.potrf)
        return self.chol is not None

    def step(self, rhs):
        """Solve the factored system for ``rhs``; ``dP``, ``dt I - dP``, ``-nu L(dP)`` into ``dirs``."""
        step = self.dsc * self.potrs(self.chol, self.dsc * rhs, lower=False)[0]
        dP = np.matmul(self.R @ self.basis.matrix(step[:-1]), self.R, out=self.dirs[0])
        np.subtract(step[-1] * self.I, dP, out=self.dirs[1])
        np.multiply(-self.nu, self.L.defect(dP), out=self.dirs[2])
        return step

    def ratios(self):
        """``S^-1/2 dS S^-1/2`` of each factored block, in its eigenbasis."""
        return (self.Uh @ self.dirs[:len(self.w)] @ self.U) * self.scale

    def decided(self, best):
        budget = self.budget
        return (
            best.kappa <= (1.0 + max(self.tol, GAP_FLOOR)) * best.lower
            or (budget is not None and (best.kappa <= budget or best.lower > budget))
        )


def _primal_dual(sdp, best):
    """Run the primal-dual loop on ``best``; False where it hands over.

    A step is the HKM direction for ``X S = sigma mu I``: with ``dS =
    -A*(dy)`` the Schur system ``sum_b A(X_b A_b*(dy) S_b^-1) = b - sigma
    mu A(S^-1) + A(C)`` gives ``dy``, and ``dX = sigma mu S^-1 - X - (X
    dS + C) S^-1``, symmetrized.  The predictor takes ``sigma = 0`` and
    ``C = 0``; the corrector ``sigma = (mu_aff / mu)^3`` (at least
    ``_SIGMA_MIN``) and Mehrotra's second-order term ``C = dX_aff
    dS_aff``.  ``A`` maps the blocks to the coordinates of ``(P, t)``:
    ``(-Z1 + Z2 + nu L*(Z3), -tr Z2)``, and ``b = (0, -1)``.
    """
    n, basis, L, nu = sdp.n, sdp.basis, sdp.L, sdp.nu
    S, X, dirs = sdp.blocks[:3], sdp.blocks[3:], sdp.dirs
    rhs = np.empty(basis.dim + 1)
    P, t = sdp.start()
    if not sdp.factor(P, t, best, 3):
        return False
    W = sdp.W
    # X = mu0 S^-1 with mu0 = 1 / tr S2^-1, so that tr X2 = 1
    np.add(W, W.conj().transpose(0, 2, 1), out=X)
    X *= 0.5 / W[1].trace().real

    for _ in range(MAX_PD_STEPS):
        best.iterations += 1
        if not sdp.factor(P, t, best, 6):
            return False
        W = sdp.W
        best.lower = max(best.lower, _coupling_bound(sdp.w[3:], X[0] - X[1] - nu * L.adjoint(X[2]), n))
        if sdp.decided(best):
            return True
        if not sdp.schur(X):
            return False

        def direction(smu, C):
            # dS into dirs[:3], dX into dirs[3:]
            dt = float(sdp.step(rhs)[-1])
            D = smu * W - X - X @ dirs[:3] @ W
            if C is not None:
                D -= C
            np.add(D, D.conj().transpose(0, 2, 1), out=dirs[3:])
            dirs[3:] *= 0.5
            return dt

        def lengths(frac):
            # the largest steps keeping S and X definite, each capped at 1
            lam = np.linalg.eigvalsh(sdp.ratios())[:, 0]
            return tuple(min(1.0, -frac / m) if m < 0.0 else 1.0 for m in (lam[:3].min(), lam[3:].min()))

        mu = np.vdot(X, S).real / (3 * n)
        rhs[:-1] = 0.0
        rhs[-1] = -1.0
        direction(0.0, None)
        a_d, a_p = lengths(1.0)
        mu_aff = np.vdot(X + a_p * dirs[3:], S + a_d * dirs[:3]).real / (3 * n)
        smu = min(1.0, max(_SIGMA_MIN, (mu_aff / mu) ** 3)) * mu
        C = dirs[3:] @ dirs[:3] @ W
        G = smu * (W[0] - W[1]) - C[0] + C[1] + nu * L.adjoint(C[2] - smu * W[2])
        rhs[:-1] = basis.coords(sdp.R @ G @ sdp.R)
        rhs[-1] = -1.0 + smu * W[1].trace().real - C[1].trace().real
        dt = direction(smu, C)
        a_d, a_p = lengths(_STEP)
        P = P + a_d * dirs[0]
        P = 0.5 * (P + P.conj().T)
        t = t + a_d * dt
        X += a_p * dirs[3:]
    return False


def _barrier(sdp, best):
    """The barrier loop from the seed, folding its brackets into ``best``.

    Newton steps for ``t / mu - log det(P - I) - log det(tI - P) - log
    det(-nu L(P))``; the Hessian is the Schur matrix at ``X = W``.
    """
    n, basis, L, nu = sdp.n, sdp.basis, sdp.L, sdp.nu
    tol = sdp.tol
    dirs = sdp.dirs
    g = np.empty(basis.dim + 1)
    P, t = sdp.start()

    mu = None
    for _ in range(MAX_NEWTON_STEPS):
        best.iterations += 1
        # the three barrier blocks, factored and inverted as one stack;
        # the iterate itself is strictly feasible
        if not sdp.factor(P, t, best, 3) or sdp.decided(best) or not sdp.schur(sdp.W):
            break
        W1, W2, W3 = sdp.W
        g[:-1] = basis.coords(sdp.R @ (-W1 + W2 + nu * L.adjoint(W3)) @ sdp.R)
        tr_w2 = float(W2.trace().real)
        if mu is None:
            mu = 1.0 / tr_w2

        def newton(mu):
            # the step (dP, dt) and the decrement; dirs gets the blocks'
            # directions dP, dt I - dP and -nu L(dP)
            g[-1] = 1.0 / mu - tr_w2
            step = sdp.step(-g)
            return float(step[-1]), -float(g @ step)

        dt, dec = newton(mu)
        if dec < 1.0:
            # inside the Dikin ellipsoid the Newton-corrected slacks
            # mu (S^-1 - S^-1 dS S^-1) satisfy the dual equations; their
            # positivity and the dual objective are re-checked from scratch
            Z2 = mu * (W2 - W2 @ dirs[1] @ W2)
            # L(dP) again, not dirs[2] = -nu L(dP): that rounds differently
            Z3 = mu * (W3 + nu * (W3 @ L.defect(dirs[0]) @ W3))
            best.lower = max(best.lower, _dual_bound(Z2, Z3, nu * L.adjoint(Z3), n))
            if sdp.decided(best):
                break
            if dec <= _CENTRED:
                if mu * 3 * n <= GAP_FLOOR * t:
                    break
                # the next centre needs a duality gap near 3 n mu
                mu_stop = 0.5 * t * (1.0 - (1.0 + tol) ** -2) / (3 * n)
                mu = max(_MU_FACTOR * mu, mu_stop) if mu_stop < mu else _MU_FACTOR * mu
                dt, dec = newton(mu)
        K = sdp.ratios()
        a = _line_search(dt / mu, np.linalg.eigvalsh(0.5 * (K + K.conj().transpose(0, 2, 1))).ravel())
        if not a > 0.0:
            break
        P = P + a * dirs[0]
        t = t + a * dt


def _coupling_bound(wX, r, n):
    """Certified lower bound on the constant from dual blocks off the coupling.

    ``wX`` holds the eigenvalues of ``X1, X2, X3`` (rows, ascending) and
    ``r = X1 - X2 - nu L*(X3)`` is the coupling residual.  For ``X2, X3
    >= 0`` and every feasible ``(P, t)``, weak duality gives ``tr X1 <=
    <X1, P> <= t (tr X2 + tr r+)`` (module notes).  ``X2`` and ``X3`` must
    be positive semidefinite as computed; a negative eigenvalue ``-eps``
    of ``X1``, which rounding may leave, is charged as in
    :func:`_dual_bound`: ``<X1, P - I> >= -eps n (t - 1)``.
    """
    if not (np.isfinite(wX).all() and wX[1, 0] >= 0.0 and wX[2, 0] >= 0.0):
        return 1.0
    wr = np.linalg.eigvalsh(r)
    eps = max(0.0, -float(wX[0, 0]))
    num = float(wX[0].sum()) + eps * n
    den = float(wX[1].sum()) + float(wr[wr > 0.0].sum()) + eps * n
    if not (den > 0.0 and num > den and np.isfinite(num / den)):
        return 1.0
    return float(np.sqrt(num / den))


def _kappa(w):
    return float(np.sqrt(w[-1] / w[0]))


def _dual_bound(Z2, Z3, M, n):
    """Certified lower bound on the constant from a dual candidate.

    With ``s = tr Z2`` the point ``(Z2 / s, W = Z3 / s)`` is rescaled onto
    ``tr Z2 = 1``, and ``Z1 = Z2 / s + a L*(W)`` is formed with ``a`` the
    largest step keeping ``Z1 >= 0``.  ``Z2`` and ``W`` must be positive
    semidefinite as computed; the smallest eigenvalue of ``Z1``, which
    rounding may leave slightly negative, is charged to the bound through
    weak duality: ``t - tr Z1 >= <Z1, P - I> >= -eps n (t - 1)``.
    ``M`` is ``L*(Z3)``.
    """
    s = float(np.real(np.trace(Z2)))
    if not s > 0.0:
        return 1.0
    w2, U2 = np.linalg.eigh(0.5 * (Z2 + Z2.conj().T) / s)
    if not w2[0] > 0.0 or not np.linalg.eigvalsh(0.5 * (Z3 + Z3.conj().T))[0] >= 0.0:
        return 1.0
    M = M / s
    trM = float(np.real(np.trace(M)))
    if not trM > 0.0:
        return 1.0
    r = 1.0 / np.sqrt(w2)
    K = (U2.conj().T @ M @ U2) * np.outer(r, r)
    lam = float(np.linalg.eigvalsh(0.5 * (K + K.conj().T))[0])
    a = -1.0 / lam if lam < 0.0 else 1.0
    Z1 = (U2 * w2) @ U2.conj().T + a * M
    eps = max(0.0, -float(np.linalg.eigvalsh(0.5 * (Z1 + Z1.conj().T))[0]))
    obj = float(np.real(np.trace(Z1)))
    bound2 = (obj + eps * n) / (1.0 + eps * n)
    return float(np.sqrt(max(bound2, 1.0)))
