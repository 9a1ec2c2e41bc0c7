"""Barrier path-following for the condition-number SDP.

For a constraint map in pair form ``L(X) = c (M* X F + F* X M)`` whose
cone ``{L(P) <= 0}`` has interior points, the squared similarity
constant is the optimum of the linear semidefinite program

    min t   s.t.   P - I >= 0,   t I - P >= 0,   -L(P) >= 0

(Boyd, El Ghaoui, Feron and Balakrishnan, *Linear Matrix Inequalities in
System and Control Theory*, 1994).  Its dual (Vandenberghe and Boyd,
*Semidefinite Programming*, 1996) is

    max tr Z1   s.t.   tr Z2 = 1,   Z1 = Z2 + L*(W),   Z1, Z2, W >= 0,

and every dual-feasible point bounds the optimum from below.

The method minimizes ``t / mu + barrier`` by Newton steps with an exact
line search, shrinking ``mu`` whenever the iterate is centred.  Each
iterate carries an upper bound (the condition number of its weight,
which is strictly feasible) and, once inside its Dikin ellipsoid, a dual
point from the Newton-corrected slacks whose feasibility is re-checked
before its objective is used as a lower bound.  The Newton system is
the Schur complement of the three barrier blocks (Vandenberghe and
Boyd; Toh, Todd and Tutuncu, *SDPT3*, 1999), assembled in ``O(n^4)``:
every term of the Hessian has the form ``tr(X A Y B)``, so the whole
matrix is four gathers from one ``n^2 x n^2`` outer product of the six
factor pairs ``(A_r, B_r)`` -- the ``n^2``-dimensional constraint map
is never formed as a matrix.

One Newton step costs one stacked ``eigh`` of the three barrier blocks,
one stacked ``eigvalsh`` of the scaled search directions for the line
search, one ``potrf`` of the Newton matrix and one or two ``potrs`` (a
second one after ``mu`` shrinks), plus the ``O(n^4)`` outer product and
gather.  At ``n <= 12`` numpy's per-call overhead, not LAPACK, sets the
cost of a step, so the blocks and factor stacks are filled in arrays
allocated once per solve, and a Lyapunov target (``F = I``) skips its
identity products.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Hard cap on Newton steps; the bracket normally closes in a few dozen.
MAX_NEWTON_STEPS = 300
#: Newton decrement squared below which the iterate counts as centred.
_CENTRED = 0.5
#: Factor applied to ``mu`` once centred.
_MU_FACTOR = 0.1
#: Relative bracket width below which the float64 iterates stop improving.
GAP_FLOOR = 1e-12
#: Ridges, relative to the unit diagonal, tried after a failed Cholesky.
_RIDGES = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6)


@dataclass
class SdpResult:
    """Best certified bracket ``lower <= sqrt(t*) <= kappa`` found.

    ``weight`` is the strictly feasible weight of ``kappa``, scaled to
    ``eig_min = 1``.
    """

    weight: np.ndarray
    kappa: float
    lower: float
    iterations: int


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
        self._fwd = [a * n + b for a, b in (self._re, self._im)]
        self._bwd = [b * n + a for a, b in (self._re, self._im)]
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

    def newton_factors(self, W, coef, AB):
        """Fill the defect block's factor pairs ``AB[:, 2:]``.

        With ``N_0 = F``, ``N_1 = M`` (the right factors) and ``K_ij = N_i W
        M_j*``, ``AB[0, 2:]`` gets ``coef K_ij`` and ``AB[1, 2:]`` gets
        ``K_ji`` over ``(i, j) = 00, 01, 10, 11``.
        """
        A, B = AB[0], AB[1]
        MW = self.M @ W
        if self.F is None:
            np.matmul(W, self.Mh, out=B[2])
            B[4] = W
            B[5] = MW
        else:
            FW = self.F @ W
            np.matmul(FW, self.Mh, out=B[2])
            np.matmul(FW, self.Fh, out=B[4])
            np.matmul(MW, self.Fh, out=B[5])
        np.matmul(MW, self.Mh, out=B[3])
        np.multiply(coef, B[[2, 4, 3, 5]], out=A[2:])


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
        Hermitian weight with ``L(seed) < 0`` and ``eig_min(seed) = 1``
        (the equation seed ``L^{-1}(-I)``, normalized).
    tol : float
        Stop once ``kappa <= (1 + tol) * lower``.  Below about ``1e-9``
        the float64 iterates may stall first (a numerically indefinite
        Newton matrix, or ``GAP_FLOOR``); the result is then the tightest
        bracket reached.
    budget : float, optional
        Also stop once the bracket decides ``constant <= budget``
        (``kappa <= budget``) or ``constant > budget`` (``lower >
        budget``).

    Returns
    -------
    SdpResult
    """
    n = seed.shape[0]
    complex_ = any(np.iscomplexobj(X) for X in (seed, form[0], form[1]) if X is not None)
    basis = _HermitianBasis(n, complex_)
    L = _PairMap(form, basis.dtype)
    I = np.eye(n, dtype=basis.dtype)
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
    # the three barrier blocks, their search directions, the factor pairs
    # (A_r, B_r) and the Newton system, filled at every step
    blocks = np.empty((3, n, n), dtype=basis.dtype)
    dirs = np.empty((3, n, n), dtype=basis.dtype)
    AB = np.empty((2, 6, n, n), dtype=basis.dtype)
    H = np.empty((basis.dim + 1, basis.dim + 1))
    g = np.empty(basis.dim + 1)

    # scale the defect block to unit size at the seed; near-marginal
    # targets (a step exp(tA) with small t) otherwise carry a defect many
    # orders below the other two blocks
    seed = 0.5 * (seed + seed.conj().T)
    nu = 1.0 / float(np.linalg.eigvalsh(-L.defect(seed))[-1])
    # the defect block's weight in the Newton matrix
    nu2c2 = nu * nu * L.c * L.c

    P = 2.0 * seed
    t = 2.0 * float(np.linalg.eigvalsh(P)[-1])
    best = SdpResult(seed, _kappa(np.linalg.eigvalsh(seed)), 1.0, 0)

    def decided():
        return (
            best.kappa <= (1.0 + max(tol, GAP_FLOOR)) * best.lower
            or (budget is not None and (best.kappa <= budget or best.lower > budget))
        )

    mu = None
    for it in range(1, MAX_NEWTON_STEPS + 1):
        best.iterations = it
        # the three barrier blocks, factored and inverted as one stack
        np.subtract(P, I, out=blocks[0])
        np.subtract(t * I, P, out=blocks[1])
        np.multiply(-nu, L.defect(P), out=blocks[2])
        w, U = np.linalg.eigh(blocks)
        if not ((w[:, 0] > 0.0).all() and np.isfinite(w).all()):
            break
        Uh = U.conj().transpose(0, 2, 1)
        W = (U / w[:, None, :]) @ Uh
        W1, W2, W3 = W
        # upper bound: the iterate itself is strictly feasible
        wP = w[0] + 1.0
        kappa = _kappa(wP)
        if kappa < best.kappa:
            best.weight, best.kappa = P / wP[0], kappa
        if decided():
            break

        # Newton system for t / mu - log det(P - I) - log det(tI - P) - log det(-nu L(P))
        # in relative coordinates dP = R dX R, R = P^(1/2): P spans a
        # condition number up to the constant squared, which the raw
        # entries would pass on to the Hessian; the Jacobi scaling on top
        # balances t against the weight
        R = (U[0] * np.sqrt(wP)) @ Uh[0]
        AB[:, :2] = W[:2]
        L.newton_factors(W3, nu2c2, AB)
        RAB = R @ AB @ R
        H[:-1, :-1] = basis.quadratic(RAB[0], RAB[1])
        W22 = W2 @ W2
        H[:-1, -1] = H[-1, :-1] = -basis.coords(R @ W22 @ R)
        H[-1, -1] = W22.trace().real
        # near a marginal target rounding can leave a non-positive diagonal
        # entry or a non-finite one: like a failed factorization, that
        # ends the solve with the best bracket so far
        d = H.diagonal()
        if not ((d > 0.0).all() and np.isfinite(H).all()):
            break
        dsc = 1.0 / np.sqrt(d)
        chol = _cholesky(H * np.outer(dsc, dsc), potrf)
        if chol is None:
            break
        g[:-1] = basis.coords(R @ (-W1 + W2 + nu * L.adjoint(W3)) @ R)
        tr_w2 = float(W2.trace().real)
        if mu is None:
            mu = 1.0 / tr_w2

        def newton(mu):
            # the step (dP, dt), L(dP) and the decrement; dirs gets the
            # blocks' directions dP, dt I - dP and -nu L(dP)
            g[-1] = 1.0 / mu - tr_w2
            step = -dsc * potrs(chol, dsc * g, lower=False)[0]
            dP = np.matmul(R @ basis.matrix(step[:-1]), R, out=dirs[0])
            dt = float(step[-1])
            np.subtract(dt * I, dP, out=dirs[1])
            D = L.defect(dP)
            np.multiply(-nu, D, out=dirs[2])
            return dP, dt, D, -float(g @ step)

        dP, dt, D, dec = newton(mu)
        if dec < 1.0:
            # inside the Dikin ellipsoid the Newton-corrected slacks
            # mu (S^-1 - S^-1 dS S^-1) satisfy the dual equations; their
            # positivity and the dual objective are re-checked from scratch
            Z2 = mu * (W2 - W2 @ dirs[1] @ W2)
            Z3 = mu * (W3 + nu * (W3 @ D @ W3))
            best.lower = max(best.lower, _dual_bound(Z2, Z3, nu * L.adjoint(Z3), n))
            if decided():
                break
            if dec <= _CENTRED:
                if mu * 3 * n <= GAP_FLOOR * t:
                    break
                # the next centre needs a duality gap near 3 n mu
                mu_stop = 0.5 * t * (1.0 - (1.0 + tol) ** -2) / (3 * n)
                mu = max(_MU_FACTOR * mu, mu_stop) if mu_stop < mu else _MU_FACTOR * mu
                dP, dt, D, dec = newton(mu)
        # eigenvalues of S^-1/2 dS S^-1/2 for the three blocks S
        r = 1.0 / np.sqrt(w)
        K = (Uh @ dirs @ U) * (r[:, :, None] * r[:, None, :])
        a = _line_search(dt / mu, np.linalg.eigvalsh(0.5 * (K + K.conj().transpose(0, 2, 1))).ravel())
        if not a > 0.0:
            break
        P = P + a * dP
        t = t + a * dt
    return best


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
