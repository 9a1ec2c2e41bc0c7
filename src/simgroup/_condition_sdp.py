"""Barrier path-following for the condition-number SDP.

For a linear constraint map ``L(X) = sum_r s_r M_r* X N_r`` whose cone
``{L(P) <= 0}`` has interior points, the squared similarity constant is
the optimum of the linear semidefinite program

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
assembled in ``O(n^4)``: every term of the Hessian has the form
``tr(X A Y B)``, a gather from the ``n^2 x n^2`` matrix ``kron(A,
B^T)`` of ``n x n`` factors -- the ``n^2``-dimensional constraint map is
never formed as a matrix.

One Newton step costs one stacked ``eigh`` of the three barrier blocks,
one stacked ``eigvalsh`` of the scaled search directions for the line
search, one ``potrf`` of the Newton matrix and one or two ``potrs``
(a second one after ``mu`` shrinks), plus that ``O(n^4)`` gather.
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
        self.dim = len(self._re[0]) + len(self._im[0])
        # flat positions a n + b of each pair (a, b) and of its mirror (b, a)
        self._fwd = [a * n + b for a, b in (self._re, self._im)]
        self._bwd = [b * n + a for a, b in (self._re, self._im)]

    def matrix(self, x):
        (ia, ib), (ja, jb) = self._re, self._im
        m = len(ia)
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
        x, u n + v)`` of ``T = sum_r kron(A_r, B_r^T)``, so the matrix is
        a row and a column gather of ``T``, combined with the entry
        weights of each basis matrix.
        """
        n = self.n
        T = np.tensordot(As, Bs, axes=(0, 0)).transpose(0, 3, 1, 2).reshape(n * n, n * n)
        (fr, fi), (br, bi) = self._fwd, self._bwd
        Y = self._w[:, None] * (T[br] + T[fr])
        if self.complex:
            Y = np.concatenate([Y, 1j * (T[bi] - T[fi])])
        H = self._w * np.real(Y[:, fr] + Y[:, br])
        if self.complex:
            H = np.concatenate([H, -np.imag(Y[:, fi] - Y[:, bi])], axis=1)
        return H


def _cholesky(H, potrf):
    """Upper Cholesky factor of the unit-diagonal Newton matrix.

    Near the optimum the Hessian's condition number grows like
    ``mu^-2``; once rounding makes it numerically indefinite, a ridge of
    relative size up to ``1e-6`` keeps the step a descent direction (the
    exact line search and the re-checked bounds make any such step safe).
    Operators close to the identity, such as ``exp(tA)`` at small ``t``,
    need the upper rungs.
    """
    for ridge in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        c, info = potrf(H + ridge * np.eye(len(H)), lower=False, clean=False)
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


def solve(terms, seed, tol, budget=None):
    """Bracket the condition-number SDP of ``L`` to relative width ``tol``.

    Parameters
    ----------
    terms : sequence of (M, N, s)
        ``L(X) = sum s * M^* X N`` with square ``M``, ``N`` of one size.
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
    complex_ = np.iscomplexobj(seed) or any(
        np.iscomplexobj(M) or np.iscomplexobj(N) for M, N, _ in terms
    )
    basis = _HermitianBasis(n, complex_)
    # M enters only through M*, so each term is kept as (M*, N, s)
    terms = [(np.asarray(M, dtype=basis.dtype).conj().T, np.asarray(N, dtype=basis.dtype), float(s))
             for M, N, s in terms]
    I = np.eye(n, dtype=basis.dtype)
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)

    def defect(X):
        D = sum(s * (Mh @ X @ N) for Mh, N, s in terms)
        return 0.5 * (D + D.conj().T)

    def adjoint(Z):
        G = sum(s * (N @ Z @ Mh) for Mh, N, s in terms)
        return 0.5 * (G + G.conj().T)

    # scale the defect block to unit size at the seed; near-marginal
    # targets (a step exp(tA) with small t) otherwise carry a defect many
    # orders below the other two blocks
    seed = 0.5 * (seed + seed.conj().T)
    nu = 1.0 / float(np.linalg.eigvalsh(-defect(seed))[-1])

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
        w, U = np.linalg.eigh(np.stack([P - I, t * I - P, -nu * defect(P)]))
        if not (np.all(w[:, 0] > 0.0) and np.all(np.isfinite(w))):
            break
        Uh = U.conj().transpose(0, 2, 1)
        W1, W2, W3 = (U / w[:, None, :]) @ Uh
        # upper bound: the iterate itself is strictly feasible
        kappa = _kappa(w[0] + 1.0)
        if kappa < best.kappa:
            best.weight, best.kappa = P / (w[0, 0] + 1.0), kappa
        if decided():
            break

        # Newton system for t / mu - log det(P - I) - log det(tI - P) - log det(-nu L(P))
        # in relative coordinates dP = R dX R, R = P^(1/2): P spans a
        # condition number up to the constant squared, which the raw
        # entries would pass on to the Hessian; the Jacobi scaling on top
        # balances t against the weight
        R = (U[0] * np.sqrt(w[0] + 1.0)) @ Uh[0]
        # the defect block contributes the products N_i W3 M_j*
        NWM = [[NW @ Mh for Mh, _, _ in terms] for NW in [N @ W3 for _, N, _ in terms]]
        As = [W1, W2]
        Bs = [W1, W2]
        for i, (_, _, s1) in enumerate(terms):
            for j, (_, _, s2) in enumerate(terms):
                As.append((nu * nu * s1 * s2) * NWM[i][j])
                Bs.append(NWM[j][i])
        H = np.empty((basis.dim + 1, basis.dim + 1))
        H[:-1, :-1] = basis.quadratic(R @ np.array(As) @ R, R @ np.array(Bs) @ R)
        W22 = W2 @ W2
        H[:-1, -1] = H[-1, :-1] = -basis.coords(R @ W22 @ R)
        H[-1, -1] = float(np.real(np.trace(W22)))
        # near a marginal target rounding can leave a non-positive diagonal
        # entry or a non-finite one: like a failed factorization, that
        # ends the solve with the best bracket so far
        d = np.diag(H)
        if not (np.all(d > 0.0) and np.all(np.isfinite(H))):
            break
        dsc = 1.0 / np.sqrt(d)
        chol = _cholesky(H * np.outer(dsc, dsc), potrf)
        if chol is None:
            break
        grad_x = basis.coords(R @ (-W1 + W2 + nu * adjoint(W3)) @ R)
        tr_w2 = float(np.real(np.trace(W2)))
        if mu is None:
            mu = 1.0 / tr_w2

        def newton(mu):
            g = np.append(grad_x, 1.0 / mu - tr_w2)
            step = -dsc * potrs(chol, dsc * g, lower=False)[0]
            return step, R @ basis.matrix(step[:-1]) @ R, float(step[-1]), -float(g @ step)

        step, dP, dt, dec = newton(mu)
        if dec < 1.0:
            # inside the Dikin ellipsoid the Newton-corrected slacks
            # mu (S^-1 - S^-1 dS S^-1) satisfy the dual equations; their
            # positivity and the dual objective are re-checked from scratch
            Z2 = mu * (W2 - W2 @ (dt * I - dP) @ W2)
            Z3 = mu * (W3 + nu * (W3 @ defect(dP) @ W3))
            best.lower = max(best.lower, _dual_bound(Z2, Z3, nu * adjoint(Z3), n))
            if decided():
                break
            if dec <= _CENTRED:
                if mu * 3 * n <= GAP_FLOOR * t:
                    break
                # the next centre needs a duality gap near 3 n mu
                mu_stop = 0.5 * t * (1.0 - (1.0 + tol) ** -2) / (3 * n)
                mu = max(_MU_FACTOR * mu, mu_stop) if mu_stop < mu else _MU_FACTOR * mu
                step, dP, dt, dec = newton(mu)
        # eigenvalues of S^-1/2 dS S^-1/2 for the three blocks S
        r = 1.0 / np.sqrt(w)
        K = (Uh @ np.stack([dP, dt * I - dP, -nu * defect(dP)]) @ U) * (r[:, :, None] * r[:, None, :])
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
