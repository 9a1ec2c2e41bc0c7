"""Similarity constants as condition-number-minimal Hermitian weights.

An invertible ``R`` with ``norm(R T R^{-1}) <= 1`` exists exactly when
some Hermitian positive definite ``P = R* R`` satisfies the Stein
inequality ``T* P T <= P``; the best achievable ``cond(R) = sqrt(cond(P))``
is the similarity constant of ``T``.  For a semigroup ``exp(tA)`` the
role of the Stein inequality is played by the Lyapunov inequality
``A* P + P A <= 2 shift P``, which certifies ``norm(exp(tA))_P <=
exp(shift * t)`` for all ``t >= 0`` at once.

The squared constant is the optimum of the linear semidefinite program
``min t`` over ``I <= P <= t I`` with the defect ``L(P) <= 0``.  The
equation seed ``L^{-1}(-I)``, which exists exactly for strictly stable
single-constraint targets, picks one solver per regime:

* **No seed** (several operators, or critical spectrum): the cone has
  no interior to search.  The verdict is the best closed-form
  certificate at its own kappa (``I``, the diagonalizer, or the split
  weight that decouples critical from strictly stable spectrum); a
  fixed-budget probe tries the same weights clipped to the box ``I <= P
  <= kappa^2 I``.
* **Seed, dimension up to 32**: the exact interior-point engine
  (:mod:`simgroup._condition_sdp`) alone decides.  ``I`` or the clipped
  seed answers first if it certifies the power/semigroup norm floor;
  otherwise the engine follows the barrier path from the seed until its
  strictly feasible weight and a re-checked dual-feasible point bracket
  the constant within the relative ``tol``, and fixed-budget probes
  decide from the same bracket.  An engine weight that fails the
  tolerance every certificate passes is restored onto the cone by one
  equation solve, or replaced by the seed; a bracket wider than ``tol``
  (below about ``1e-9``) is reported in ``evidence``.
* **Seed, larger dimension**: bisection over ``kappa``.  A probe tries
  the clipped closed-form weights, restores the best onto the cone with
  one equation solve, and runs a convex search over the equation's
  right-hand side ``Q >= 0`` minimizing ``eig_max(P) - kappa^2
  eig_min(P)`` for ``P = L^{-1}(-Q)``; every iterate lies on the cone,
  so the best one certifies at its own kappa and tightens the upper
  bracket.

Outside the engine a failed probe proves nothing, so those constants are
certificate-backed upper bounds, only as tight as the weights tried.
Every verdict carries a certified lower bound next to its constant.
Certificates are always re-checked independently of the solver
(:func:`certificate_check`); infeasibility of a probe never masquerades
as a theorem: the verdict ``unbounded`` is only ever backed by spectral
or norm-growth evidence.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from . import _condition_sdp
from .exceptions import DimensionError, SaturationError
from .opcore import (
    as_matrix,
    growth_bound,
    matrix_to_json,
    numerical_abscissa,
    operator_norm,
    semigroup_from_generator,
    spectral_radius,
)

__all__ = [
    "SteinTarget",
    "LyapunovTarget",
    "WeightCertificate",
    "FeasibilityResult",
    "SimilarityVerdict",
    "stein_feasible",
    "lyapunov_feasible",
    "discrete_similarity_constant",
    "joint_similarity_constant",
    "quasi_similarity_constant",
    "min_quasi_shift",
    "certificate_check",
    "KAPPA_MAX_DEFAULT",
]

KAPPA_MAX_DEFAULT = 1e6
#: iteration cap of the q-space search (its window-stall rule usually stops it first)
MAXITER_DEFAULT = 5000


# ---------------------------------------------------------------------------
# targets and result records


@dataclass(frozen=True)
class SteinTarget:
    """Joint contractivity constraints ``Ti* P Ti <= P``."""

    operators: tuple

    @property
    def dim(self):
        return self.operators[0].shape[0]

    def scale(self):
        return self._scale

    @cached_property
    def _scale(self):
        return max(1.0, max(operator_norm(T) ** 2 for T in self.operators))


@dataclass(frozen=True)
class LyapunovTarget:
    """Quasi-dissipativity constraint ``A* P + P A <= 2 shift P``."""

    generator: np.ndarray
    shift: float = 0.0

    @property
    def dim(self):
        return self.generator.shape[0]

    def scale(self):
        return self._scale

    @cached_property
    def _scale(self):
        return max(1.0, 2.0 * operator_norm(self.generator) + 2.0 * abs(self.shift))


@dataclass(frozen=True)
class WeightCertificate:
    """Hermitian PD weight with its condition contribution and residual.

    ``kappa = sqrt(eig_max(P) / eig_min(P))`` is the condition number of
    the induced similarity ``R = P^{1/2}``; ``residual`` is the worst
    constraint violation in operator-norm units (clipped at zero).
    """

    weight: np.ndarray
    kappa: float
    residual: float

    def to_json(self):
        return {
            "kappa": self.kappa,
            "residual": self.residual,
            "P": matrix_to_json(self.weight),
        }


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of one fixed-``kappa`` feasibility solve.

    ``best_residual`` is the certificate's worst defect eigenvalue or,
    without one, the smallest among the box-clipped weights tried: the
    closed-form weights and, where the engine decided, its weight.
    ``iterations`` counts the steps of the convex right-hand-side search
    or the engine's Newton steps (0 when a closed-form weight answered).
    ``nearest`` is a valid certificate at its own (possibly larger than
    budget) kappa: the engine's certificate, or the search's best point
    on the constraint cone; bisection callers use it to tighten their
    upper bracket.
    """

    certificate: Optional[WeightCertificate]
    best_residual: float
    iterations: int
    nearest: Optional[WeightCertificate] = None

    def __bool__(self):
        return self.certificate is not None


@dataclass(frozen=True)
class SimilarityVerdict:
    """Similarity constant with certificate, or the reason there is none.

    ``status`` is ``finite`` (certificate present, ``constant ==
    certificate.kappa``), ``unbounded`` (spectral or norm-growth
    obstruction, ``constant == inf``) or ``infeasible`` (no certificate
    found up to ``searched_kappa_max``; nothing is claimed beyond that).

    ``lower`` is a certified lower bound on the true constant: the
    largest probed power or semigroup norm, or, where the exact engine
    decided the verdict, the objective of a re-checked dual-feasible
    point of the condition-number SDP.  A ``finite`` verdict has
    ``lower <= constant``, and one the engine decided has ``constant <=
    (1 + tol) lower`` unless ``evidence`` names an engine bracket wider
    than ``tol`` (below about ``1e-9``, or stalled by rounding).  Other
    constants are certificate-backed upper bounds (see the module notes).
    ``unbounded`` verdicts on spectral evidence carry ``lower == inf``.
    """

    status: str
    constant: float
    certificate: Optional[WeightCertificate]
    searched_kappa_max: float
    evidence: str = ""
    lower: float = 1.0

    @property
    def finite(self):
        return self.status == "finite"

    def to_json(self):
        out = {
            "status": self.status,
            "constant": self.constant if math.isfinite(self.constant) else "inf",
            "lower": self.lower if math.isfinite(self.lower) else "inf",
            "kappa_max_searched": self.searched_kappa_max,
            "residual": self.certificate.residual if self.certificate else None,
            "P": matrix_to_json(self.certificate.weight) if self.certificate else None,
        }
        if self.evidence:
            out["evidence"] = self.evidence
        return out


# ---------------------------------------------------------------------------
# penalty machinery


def _defects(target, P):
    if isinstance(target, SteinTarget):
        return [T.conj().T @ P @ T - P for T in target.operators]
    A = target.generator
    lam = target.shift
    return [A.conj().T @ P + P @ A - 2.0 * lam * P]


def _penalty(target, P):
    return max(
        float(np.linalg.eigvalsh(0.5 * (D + D.conj().T))[-1]) for D in _defects(target, P)
    )


def _project_box(P, kappa2):
    P = 0.5 * (P + P.conj().T)
    w, U = np.linalg.eigh(P)
    w = np.clip(w, 1.0, kappa2)
    return (U * w) @ U.conj().T


def _kappa_of(P):
    w = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
    return float(math.sqrt(max(w[-1], 0.0) / max(w[0], np.finfo(float).tiny)))


def _equation_seed(target, ctx=None):
    """Interior feasible point from the Stein/Lyapunov *equation*, if stable.

    Solving ``T* X T - X = -I`` (resp. ``Abar* X + X Abar = -I``) yields a
    strictly feasible Hermitian PD weight whenever the target is strictly
    stable; normalized to eig_min = 1 it doubles as an upper bracket for
    the similarity constant.  ``ctx`` is the target's
    :class:`_EquationContext`, built here when not given.
    """
    if ctx is None:
        ctx = _EquationContext.for_target(target)
        if ctx is None:
            return None
    X = ctx.solve(np.eye(target.dim, dtype=_native_dtype(target)))
    if X is None:
        return None
    w = np.linalg.eigvalsh(X)
    if w[0] <= 0 or not np.all(np.isfinite(w)):
        return None
    return X / w[0]


def _diagonalizer_weight(M):
    """``(V V*)^{-1}`` for ``M = V L V^{-1}``, or None if ``V`` is ill-conditioned.

    The weight renorms ``M`` to its diagonal part ``L``.
    """
    _, V = np.linalg.eig(M)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e8:
        return None
    return np.linalg.inv(V @ V.conj().T)


def _spectral_seeds(target):
    """Closed-form certificates from the spectrum of a single constraint.

    With admissible spectrum the diagonalizer renorms the constraint
    matrix to its diagonal part, which satisfies the constraint; this is
    the only closed-form seed of unitary-like operators and skew
    generators under zero shift.  Power boundedness at finite dimension
    is exactly "critical eigenvalues semisimple"; when critical and
    strictly stable eigenvalues are mixed, an ordered Schur form
    isolates the critical block, a Sylvester solve decouples it from the
    strict part, and each part carries a closed-form weight (diagonalizer
    and equation solution).  This split covers marginal targets such as
    a unitary block coupled to a nilpotent one, where neither the
    equation seed nor the diagonalizer exists.  Returns the weights that
    exist, diagonalizer first, normalized to ``eig_min = 1``.
    """
    if isinstance(target, SteinTarget):
        if len(target.operators) != 1:
            return []
        M = target.operators[0]

        def critical(lam):
            return abs(lam) >= 1.0 - 1e-9

        def admissible(lam):
            return abs(lam) <= 1.0 + 1e-12
    else:
        M = target.generator - target.shift * np.eye(target.dim)

        def critical(lam):
            return lam.real >= -1e-9

        def admissible(lam):
            return lam.real <= 1e-12

    weights = []
    try:
        if not all(admissible(lam) for lam in np.linalg.eigvals(M)):
            return []
        weights.append(_diagonalizer_weight(M))
    except np.linalg.LinAlgError:
        return []
    try:
        theta, Z, sdim = scipy.linalg.schur(
            M.astype(complex), output="complex", sort=critical
        )
        n = M.shape[0]
        th1 = theta[:sdim, :sdim]
        P1 = _diagonalizer_weight(th1) if 0 < sdim < n else None
        if P1 is not None:
            th12 = theta[:sdim, sdim:]
            th2 = theta[sdim:, sdim:]
            # decouple: [[I, Y],[0, I]] conjugation kills the coupling when
            # th1 Y - Y th2 = -th12
            Y = scipy.linalg.solve_sylvester(th1, -th2, -th12)
            if isinstance(target, SteinTarget):
                P2 = scipy.linalg.solve_discrete_lyapunov(
                    th2.conj().T, np.eye(n - sdim), method="bilinear"
                )
            else:
                P2 = scipy.linalg.solve_continuous_lyapunov(th2.conj().T, -np.eye(n - sdim))
            S = np.eye(n, dtype=complex)
            S[:sdim, sdim:] = -Y
            Pb = np.zeros((n, n), dtype=complex)
            Pb[:sdim, :sdim] = P1
            Pb[sdim:, sdim:] = P2
            weights.append(Z @ (S.conj().T @ Pb @ S) @ Z.conj().T)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
        pass
    seeds = []
    for P in weights:
        if P is None:
            continue
        P = 0.5 * (P + P.conj().T)
        pw = np.linalg.eigvalsh(P)
        if pw[0] <= 0 or not np.all(np.isfinite(pw)):
            continue
        P = P / pw[0]
        if _native_dtype(target).kind != "c" and np.max(np.abs(P.imag)) < 1e-13:
            P = np.ascontiguousarray(P.real)
        seeds.append(P)
    return seeds


class _EquationContext:
    """Cached Schur factorization for one target's defect-equation solves.

    The defect map ``L`` of a strictly stable single-constraint target is
    a linear bijection; this context solves ``L(X) = -Q`` and the adjoint
    ``L*(Z) = M`` with one LAPACK ``trsyl`` call each, reusing a single
    Schur decomposition.  The Stein case is reduced to the continuous one
    through the Cayley transform ``S = (T - I)(T + I)^{-1}``, using

        T*XT - X = (1/2) (T+I)* (S*X + X S) (T+I).

    :meth:`for_target` returns None for targets that are not strictly
    stable single constraints.
    """

    def __init__(self, theta, U, trsyl):
        self._theta = theta
        self._U = U
        self._trsyl = trsyl
        self._lu = None  # Stein only: LU of (T + I)

    @classmethod
    def for_target(cls, target):
        if not _is_strictly_stable(target):
            return None
        try:
            if isinstance(target, SteinTarget):
                T = target.operators[0]
                n = T.shape[0]
                F = T + np.eye(n)
                lu = scipy.linalg.lu_factor(F)
                S = scipy.linalg.lu_solve(lu, (T - np.eye(n)).conj().T, trans=2).conj().T
                theta, U = scipy.linalg.schur(S)
                if np.iscomplexobj(S):
                    theta, U = scipy.linalg.schur(S, output="complex")
                ctx = cls(theta, U, scipy.linalg.get_lapack_funcs(("trsyl",), (theta,)))
                ctx._lu = lu
                return ctx
            Abar = target.generator - target.shift * np.eye(target.dim)
            if np.iscomplexobj(Abar):
                theta, U = scipy.linalg.schur(Abar, output="complex")
            else:
                theta, U = scipy.linalg.schur(Abar)
            return cls(theta, U, scipy.linalg.get_lapack_funcs(("trsyl",), (theta,)))
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
            return None

    def _sylvester(self, rhs, trana, tranb):
        trsyl = self._trsyl[0]
        U = self._U
        C = U.conj().T @ rhs @ U
        y, scale, info = trsyl(self._theta, self._theta, C, trana=trana, tranb=tranb, isgn=1)
        if info != 0 or scale == 0.0:
            return None
        X = U @ (y / scale) @ U.conj().T
        X = 0.5 * (X + X.conj().T)
        if not np.all(np.isfinite(X)):
            return None
        return X

    def _stein_rhs(self, Q, adjoint):
        # primal: 2 F^{-*} Q F^{-1};  adjoint: 2 F^{-1} M F^{-*}
        lu = self._lu
        if adjoint:
            Y = scipy.linalg.lu_solve(lu, Q)
            return 2.0 * scipy.linalg.lu_solve(lu, Y.conj().T).conj().T
        Y = scipy.linalg.lu_solve(lu, Q, trans=2)
        return 2.0 * scipy.linalg.lu_solve(lu, Y.conj().T, trans=2).conj().T

    def solve(self, Q):
        """Hermitian ``X`` with ``defect(X) = -Q``."""
        rhs = -Q if self._lu is None else -self._stein_rhs(Q, adjoint=False)
        return self._sylvester(rhs, trana="C", tranb="N")

    def solve_adjoint(self, M):
        """Hermitian ``Z`` with ``L*(Z) = M``."""
        rhs = M if self._lu is None else self._stein_rhs(M, adjoint=True)
        return self._sylvester(rhs, trana="N", tranb="C")


def _is_strictly_stable(target):
    if isinstance(target, SteinTarget):
        return len(target.operators) == 1 and spectral_radius(target.operators[0]) < 1.0 - 1e-9
    return growth_bound(target.generator) < target.shift - 1e-9


def _cone_certificate(target, P, tol, ctx):
    """Restore ``P`` exactly onto the constraint cone and certify it there.

    One equation solve (through the target's :class:`_EquationContext`)
    repairs the positive defect part; the result is a valid certificate
    at its own kappa regardless of any box budget.
    """
    D = _defects(target, P)[0]
    w, U = np.linalg.eigh(0.5 * (D + D.conj().T))
    if w[-1] > 0.0:
        X = ctx.solve((U * np.maximum(w, 0.0)) @ U.conj().T)
        if X is None:
            return None
        P = 0.5 * (P + X + (P + X).conj().T)
    pw = np.linalg.eigvalsh(P)
    if pw[0] <= 0 or not np.all(np.isfinite(pw)):
        return None
    P = P / pw[0]
    kp = _kappa_of(P)
    f = _penalty(target, P)
    if f > _effective_tol(target, kp, tol):
        return None
    return WeightCertificate(P, kp, max(f, 0.0))


def _proj_spectraplex(Q):
    """Frobenius projection onto {Q Hermitian PSD, tr Q = 1}."""
    Q = 0.5 * (Q + Q.conj().T)
    w, U = np.linalg.eigh(Q)
    s = np.sort(w)[::-1]
    css = np.cumsum(s) - 1.0
    ks = np.arange(1, len(s) + 1)
    rho = ks[s - css / ks > 0][-1]
    theta = css[rho - 1] / rho
    return (U * np.maximum(w - theta, 0.0)) @ U.conj().T


def _qspace_rounds(target, kappa, tol, ctx, Q0=None):
    """Convex margin minimization in right-hand-side space.

    For strictly stable single-constraint targets the defect map ``L`` is
    a bijection, so the cone {defect <= 0} is the image of PSD
    right-hand sides ``Q`` under the equation solve.  Feasibility at
    budget kappa amounts to ``psi(Q) = eig_max(P) - kappa^2 eig_min(P)
    <= 0`` with ``P = L^{-1}(-Q)``, which is convex in ``Q``; every
    iterate is exactly on the cone, so the best one doubles as a
    certificate at its own kappa.

    Returns ``(certificate_or_None, nearest_certificate_or_None,
    iterates_formed)``.
    """
    n = target.dim
    kappa2 = kappa * kappa
    Q = _proj_spectraplex(Q0) if Q0 is not None else np.eye(n, dtype=_native_dtype(target)) / n
    best_rel = np.inf
    best_P = None
    window = 80
    window_best = np.inf
    it = -1
    for it in range(MAXITER_DEFAULT):
        P = ctx.solve(Q)
        if P is None:
            break
        w, U = np.linalg.eigh(P)
        if w[0] <= 0 or not np.all(np.isfinite(w)):
            break
        val = float(w[-1] - kappa2 * w[0])
        rel = val / float(w[-1])
        if rel < best_rel:
            best_rel, best_P = rel, P
        # acceptance is against the full spectral penalty, in which the
        # box excess eig_max(P) - kappa^2 counts like a defect violation
        if val <= _effective_tol(target, kappa, tol) * float(w[0]):
            Pn = P / w[0]
            f = _penalty(target, Pn)
            box = max(0.0, float(np.linalg.eigvalsh(Pn)[-1]) - kappa2)
            kp = _kappa_of(Pn)
            tol_eff = _effective_tol(target, kp, tol)
            if max(f, box) <= tol_eff:
                cert = WeightCertificate(Pn, kp, max(f, box, 0.0))
                return cert, cert, it + 1
            # fell marginally outside the box; report as nearest
            break
        # window stall: require a 30% drop in the margin per window,
        # which a geometric phase passes and the O(1/sqrt k) tail fails
        if it > 0 and it % window == 0:
            if it >= 2 * window and best_rel > 0.7 * window_best:
                break
            window_best = best_rel
        umax, umin = U[:, -1], U[:, 0]
        M = np.outer(umax, umax.conj()) - kappa2 * np.outer(umin, umin.conj())
        Z = ctx.solve_adjoint(M)
        if Z is None:
            break
        G = -Z
        gn2 = float(np.sum(np.abs(G) ** 2))
        if gn2 <= 0:
            break
        Q = _proj_spectraplex(Q - (val / gn2) * G)
    nearest = None
    if best_P is not None:
        nearest = _cone_certificate(target, best_P, tol, ctx)
    return None, nearest, it + 1


def _default_tol(target):
    return 1e-8 * target.scale()


def _effective_tol(target, kappa, tol):
    # float64 floor: forming the defect at weight scale kappa^2 already
    # carries rounding of this order.
    return max(tol, 8e-16 * target.scale() * kappa * kappa)


def _closed_form_probe(target, candidates, kappa, tol):
    """First probe of every feasibility path: closed-form weights.

    ``candidates`` lie in the ``kappa`` box already; the first whose
    penalty is within the effective ``tol`` certifies.  Returns
    ``(result, best_P, best_f)``, where ``result`` is None unless a
    candidate certifies or the box is the singleton ``{I}``, which
    leaves nothing to search.
    """
    best_P = None
    best_f = np.inf
    for P0 in candidates:
        f0 = _penalty(target, P0)
        if f0 < best_f:
            best_f, best_P = f0, P0
        if f0 <= tol:
            cert = WeightCertificate(P0, _kappa_of(P0), max(f0, 0.0))
            return FeasibilityResult(cert, cert.residual, 0), best_P, best_f
    if kappa * kappa <= 1.0 + 1e-14:
        return FeasibilityResult(None, best_f, 0), best_P, best_f
    return None, best_P, best_f


def _solve_feasibility(target, kappa, tol, warm=None, qwarm=None, ctx=None):
    """Fixed-budget feasibility: closed-form weights, then the convex search.

    The closed-form candidates (identity, warm start, equation seed and
    spectral seeds, each clipped to the box) come first.  Given the
    target's equation context ``ctx``, the best of them is restored onto
    the constraint cone once and the convex right-hand-side search runs
    from ``qwarm``; without one the candidates alone answer.
    ``warm``/``qwarm`` carry the previous probe's weight and cone
    right-hand side across a bisection.
    """
    n = target.dim
    kappa = float(kappa)
    tol = _effective_tol(target, kappa, tol)
    kappa2 = kappa * kappa

    candidates = [np.eye(n, dtype=_native_dtype(target))]
    for P in (warm, _equation_seed(target, ctx), *_spectral_seeds(target)):
        if P is not None:
            candidates.append(_project_box(P, kappa2))

    done, best_P, best_f = _closed_form_probe(target, candidates, kappa, tol)
    if done is not None:
        return done
    if ctx is None:
        return FeasibilityResult(None, best_f, 0)

    nearest = _cone_certificate(target, best_P, tol, ctx)
    if nearest is not None and nearest.kappa <= kappa:
        return FeasibilityResult(nearest, nearest.residual, 0, nearest)
    cert, near, iterations = _qspace_rounds(target, kappa, tol, ctx, Q0=qwarm)
    if cert is not None:
        return FeasibilityResult(cert, cert.residual, iterations, cert)
    if near is not None and (nearest is None or near.kappa < nearest.kappa):
        nearest = near
    return FeasibilityResult(None, best_f, iterations, nearest)


def _native_dtype(target):
    if isinstance(target, SteinTarget):
        return target.operators[0].dtype
    return target.generator.dtype


def _realified(target):
    """Work in real arithmetic when every entry is exactly real.

    For real data the constraint set is invariant under entrywise
    conjugation and averaging, so a real symmetric optimal weight exists;
    real eigen/Schur kernels are substantially cheaper.
    """
    if isinstance(target, SteinTarget):
        if all(np.all(T.imag == 0.0) for T in target.operators):
            return SteinTarget(tuple(np.ascontiguousarray(T.real) for T in target.operators))
        return target
    A = target.generator
    if np.all(A.imag == 0.0):
        return LyapunovTarget(np.ascontiguousarray(A.real), target.shift)
    return target


# ---------------------------------------------------------------------------
# solver regimes and the exact engine

#: Largest dimension the exact engine takes: its Newton system has
#: ``n^2`` unknowns, so a factorization costs ``O(n^6)``.
_ENGINE_DIM_LIMIT = 32


def _seeded(target):
    """The target's equation context and seed ``L^{-1}(-I)``, or ``(None, None)``.

    The seed exists for strictly stable single-constraint targets and
    picks the solver regime: without it the closed-form weights decide,
    with it the exact engine up to ``_ENGINE_DIM_LIMIT`` and the
    bisection above.
    """
    ctx = _EquationContext.for_target(target)
    seed = None if ctx is None else _equation_seed(target, ctx)
    return (None, None) if seed is None else (ctx, seed)


def _constraint_terms(target):
    """``L(X) = sum s M* X N`` for the defect map of a single-constraint target."""
    I = np.eye(target.dim, dtype=_native_dtype(target))
    if isinstance(target, SteinTarget):
        T = target.operators[0]
        return [(T, T, 1.0), (I, I, -1.0)]
    Abar = target.generator - target.shift * I
    return [(Abar, I, 1.0), (I, Abar, 1.0)]


def _engine_first_probe(target, seed, kappa, tol):
    """:func:`_closed_form_probe` with ``I`` and the clipped equation seed."""
    I = np.eye(target.dim, dtype=_native_dtype(target))
    candidates = [I, _project_box(seed, kappa * kappa)]
    return _closed_form_probe(target, candidates, kappa, _effective_tol(target, kappa, tol))


def _engine_solve(target, ctx, seed, tol, feas_tol, budget=None):
    """Engine bracket and a certificate.

    The engine's weight is strictly feasible in exact arithmetic; it is
    the certificate if its recomputed penalty also passes the tolerance
    every other certificate passes.  Otherwise one equation solve
    restores it onto the cone, and failing that the equation seed,
    which is strictly feasible, certifies.
    """
    res = _condition_sdp.solve(_constraint_terms(target), seed, tol, budget=budget)
    f = _penalty(target, res.weight)
    if f <= _effective_tol(target, res.kappa, feas_tol):
        return res, WeightCertificate(res.weight, res.kappa, max(f, 0.0))
    cert = _cone_certificate(target, res.weight, feas_tol, ctx)
    if cert is None:
        cert = WeightCertificate(seed, _kappa_of(seed), max(_penalty(target, seed), 0.0))
    return res, cert


def _engine_constant(target, ctx, seed, floor, tol, kappa_max, feas_tol):
    """Verdict of the exact engine.

    A closed-form weight certifying the norm floor answers first, so
    contractions and other floor-attaining operators stay exact and
    instant; otherwise the condition-number SDP is bracketed to relative
    width ``tol``.  A bracket that stays wider (``tol`` below the float64
    floor, or a numerically singular Newton system) is reported in
    ``evidence``.
    """
    done, _, _ = _engine_first_probe(target, seed, floor, feas_tol)
    if done is not None and done.certificate is not None:
        cert = done.certificate
        return SimilarityVerdict("finite", cert.kappa, cert, floor, lower=min(floor, cert.kappa))
    res, cert = _engine_solve(target, ctx, seed, tol, feas_tol)
    # the floor may exceed the constant by rounding; the dual bound may not
    lower = max(min(floor, res.kappa), res.lower)
    if lower > kappa_max or cert.kappa > kappa_max * (1.0 + 1e-9):
        return SimilarityVerdict("infeasible", math.inf, None, kappa_max, lower=lower)
    evidence = ""
    if cert.kappa > (1.0 + tol) * lower:
        evidence = f"engine bracket [{lower:.15g}, {cert.kappa:.15g}] wider than tol {tol:.3g}"
    return SimilarityVerdict(
        "finite", cert.kappa, cert, cert.kappa, evidence, lower=min(lower, cert.kappa)
    )


def _engine_feasibility(target, ctx, seed, kappa, tol):
    """Fixed-budget answer of the exact engine.

    The engine runs until its bracket puts the constant below the budget
    (certificate) or above it (no certificate).  A bracket that stops
    around the budget (a budget within float64 resolution of the
    constant, or stalled Newton steps) leaves the answer to the
    box-clipped engine weight against the feasibility tolerance; if that
    fails too, there is no certificate, and ``nearest`` is the engine's.
    """
    done, _, best_f = _engine_first_probe(target, seed, kappa, tol)
    if done is not None:
        return done
    res, cert = _engine_solve(target, ctx, seed, 0.0, tol, budget=kappa)
    if cert.kappa <= kappa:
        return FeasibilityResult(cert, cert.residual, res.iterations, cert)
    P = _project_box(res.weight, kappa * kappa)
    f = _penalty(target, P)
    if res.lower <= kappa and f <= _effective_tol(target, kappa, tol):
        clipped = WeightCertificate(P, _kappa_of(P), max(f, 0.0))
        return FeasibilityResult(clipped, clipped.residual, res.iterations, clipped)
    return FeasibilityResult(None, min(f, best_f), res.iterations, cert)


def _feasibility(target, kappa, tol, warm):
    ctx, seed = _seeded(target)
    if seed is not None and target.dim <= _ENGINE_DIM_LIMIT:
        return _engine_feasibility(target, ctx, seed, kappa, tol)
    return _solve_feasibility(target, kappa, tol, warm=warm, ctx=ctx)


# ---------------------------------------------------------------------------
# public feasibility surface


def stein_feasible(operators, kappa, tol=None, warm=None):
    """Search for ``P`` with ``I <= P <= kappa^2 I`` and ``Ti* P Ti <= P``.

    Parameters
    ----------
    operators : sequence of array_like
        The operators that must become joint contractions; all square of
        one dimension.
    kappa : float
        Condition budget, ``>= 1``.
    tol : float, optional
        Feasibility threshold on the worst defect eigenvalue, in
        operator-norm units.

    Returns
    -------
    FeasibilityResult
        For one strictly stable operator of dimension up to 32 the
        answer is exact: the engine's bracket decides it, and ``warm``
        is not used.  Otherwise ``certificate`` is None when no weight
        was found: the box-clipped closed-form weights are tried, then,
        for one strictly stable operator, the convex right-hand-side
        search, which stops when its margin stalls (at most
        ``MAXITER_DEFAULT`` steps).  ``best_residual`` reports how close
        the closed-form weights came.
    """
    ops = tuple(as_matrix(T, f"operators[{i}]") for i, T in enumerate(operators))
    if not ops:
        raise DimensionError("at least one operator is required")
    if len({T.shape[0] for T in ops}) != 1:
        raise DimensionError("all operators must share one dimension")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    target = _realified(SteinTarget(ops))
    if tol is None:
        tol = _default_tol(target)
    return _feasibility(target, kappa, tol, warm)


def lyapunov_feasible(A, shift, kappa, tol=None, warm=None):
    """Search for ``P`` with ``I <= P <= kappa^2 I`` and ``A*P + PA <= 2 shift P``.

    A certificate makes ``exp(-shift t) exp(tA)`` a joint contraction in
    the ``P`` inner product for all ``t >= 0``.  As for
    :func:`stein_feasible`, a strictly stable ``A - shift I`` of dimension
    up to 32 is decided exactly by the engine's bracket.
    """
    A = as_matrix(A, "generator")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    target = _realified(LyapunovTarget(A, float(shift)))
    if tol is None:
        tol = _default_tol(target)
    return _feasibility(target, kappa, tol, warm)


# ---------------------------------------------------------------------------
# lower bounds and unbounded evidence


def _discrete_norm_floor(T, kappa_max):
    """Lower bound on C(T) from power norms; also detects norm blow-up.

    ``norm(T^k) <= C(T)`` for every k, so the largest probed power norm
    is a valid bracket floor.  Powers are probed by repeated squaring.
    """
    lb = max(1.0, operator_norm(T))
    M = T.copy()
    for _ in range(40):
        nrm = operator_norm(M)
        lb = max(lb, nrm)
        # norm(T^(2k)) <= norm(T^k)^2: once a probed norm is <= 1 no later
        # square can raise the floor
        if nrm <= 1.0 or nrm > kappa_max or not np.isfinite(nrm) or nrm > 1e30:
            break
        M = M @ M
    return lb


def _continuous_norm_floor(A, shift, kappa_max):
    """Lower bound on the shifted joint constant from a log time grid.

    Returns inf when a sampled exponential overflows the floating-point
    range; every other error propagates.
    """
    Abar = A - shift * np.eye(A.shape[0])
    sem = semigroup_from_generator(Abar)
    lb = 1.0
    for t in np.logspace(-2, 8, 41):
        try:
            E = sem.eval(t)
        except (SaturationError, OverflowError, FloatingPointError):
            return np.inf
        if not np.all(np.isfinite(E)):
            return np.inf
        nrm = operator_norm(E)
        lb = max(lb, nrm)
        if lb > kappa_max:
            break
    return lb


# ---------------------------------------------------------------------------
# bisection driver


def _closed_form_certificates(target, ctx, feas_tol):
    """Closed-form weights that certify at their own kappa, best first.

    ``I``, the equation seed and the spectral seeds, unclipped; each is
    kept if its penalty passes the feasibility tolerance at its kappa.
    """
    I = np.eye(target.dim, dtype=_native_dtype(target))
    certs = []
    for P in (I, _equation_seed(target, ctx), *_spectral_seeds(target)):
        if P is None:
            continue
        kappa = _kappa_of(P)
        f = _penalty(target, P)
        if f <= _effective_tol(target, kappa, feas_tol):
            certs.append(WeightCertificate(P, kappa, max(f, 0.0)))
    return sorted(certs, key=lambda c: c.kappa)


def _bisect_constant(target, ctx, lower, kappa_max, rel_tol, feas_tol):
    """Log-scale bisection over kappa with warm-started feasibility probes.

    For strictly stable targets with equation context ``ctx``.  An
    infeasible probe may still surface a certificate slightly above its
    budget (see :class:`FeasibilityResult`); the upper bracket is
    tightened with every certificate seen, so the reported constant is
    always backed by an actual weight.  Returns ``(certificate,
    searched_kappa_max)``, with no certificate up to ``kappa_max``
    reported as ``(None, kappa_max)``.
    """
    warm = None
    qwarm = None
    best_cert = None

    def probe(kap):
        res = _solve_feasibility(target, kap, feas_tol, warm=warm, qwarm=qwarm, ctx=ctx)
        absorb(res.certificate)
        absorb(res.nearest)
        return res

    def absorb(cert):
        nonlocal best_cert, warm, qwarm
        if cert is not None and (best_cert is None or cert.kappa < best_cert.kappa):
            best_cert = cert
            warm = cert.weight
            D = _defects(target, cert.weight)[0]
            qwarm = -0.5 * (D + D.conj().T)

    res = probe(lower)
    if res:
        return best_cert, lower

    # locate a feasible upper bracket; the closed-form certificates cap
    # the search
    if best_cert is None:
        best_cert = next(
            (c for c in _closed_form_certificates(target, ctx, feas_tol) if c.kappa <= kappa_max),
            None,
        )
        if best_cert is not None:
            warm = best_cert.weight
    if best_cert is None:
        kap = max(2.0 * lower, 2.0)
        while kap <= kappa_max * (1.0 + 1e-12):
            if probe(kap):
                break
            kap *= 4.0
        if best_cert is None and kap / 4.0 < kappa_max:
            probe(kappa_max)
    if best_cert is None or best_cert.kappa > kappa_max * (1.0 + 1e-9):
        return None, kappa_max

    lo = lower
    hi = max(best_cert.kappa, lo)
    while hi > lo * (1.0 + rel_tol):
        # geometric bisection while the bracket is wide; once it tightens,
        # probe exactly one tolerance below the certificate so the final
        # gap closes in a single solve
        mid = max(min(math.sqrt(lo * hi), hi / (1.0 + rel_tol)), lo)
        res = probe(mid)
        if res:
            hi = min(mid, max(best_cert.kappa, lo))
        else:
            lo = mid
            hi = max(lo, min(hi, best_cert.kappa))
    return best_cert, hi


def _constant_verdict(target, floor, tol, kappa_max, feas_tol):
    """Finite or infeasible verdict above the certified ``floor``.

    The equation seed picks the regime (see the module notes).
    """
    if feas_tol is None:
        feas_tol = _default_tol(target)
    ctx, seed = _seeded(target)
    if seed is not None and target.dim <= _ENGINE_DIM_LIMIT:
        return _engine_constant(target, ctx, seed, floor, tol, kappa_max, feas_tol)
    if seed is not None:
        cert, searched = _bisect_constant(target, ctx, floor, kappa_max, tol, feas_tol)
    else:
        # no interior to search from: the best closed-form certificate decides
        certs = _closed_form_certificates(target, None, feas_tol)
        cert = next((c for c in certs if c.kappa <= kappa_max), None)
        searched = kappa_max if cert is None else cert.kappa
    if cert is None:
        return SimilarityVerdict("infeasible", math.inf, None, searched, lower=floor)
    return SimilarityVerdict("finite", cert.kappa, cert, searched, lower=min(floor, cert.kappa))


def discrete_similarity_constant(T, tol=1e-4, kappa_max=KAPPA_MAX_DEFAULT, feas_tol=None):
    """Similarity constant C(T) of a single operator, with certificate.

    Minimizes the condition number of a Stein certificate for ``T``,
    which covers every power ``T^k`` by congruence, so no explicit power
    constraints are needed.  ``tol`` is the relative bracket width: for
    strictly stable ``T`` of dimension up to 32 the exact engine returns
    ``lower <= C(T) <= constant <= (1 + tol) lower`` unless ``evidence``
    reports a wider bracket.  Larger strictly stable operators are
    bisected over the condition budget, and operators with eigenvalues on
    the unit circle get their best closed-form certificate (see the
    module notes).

    Verdicts: ``unbounded`` on spectral evidence (``r(T) > 1``, or power
    norms exceeding the budget, which bound C(T) from below); otherwise
    ``finite`` with certificate, or ``infeasible`` past ``kappa_max``.
    """
    T = as_matrix(T)
    r = spectral_radius(T)
    if r > 1.0 + 1e-10:
        return SimilarityVerdict(
            "unbounded",
            math.inf,
            None,
            0.0,
            evidence=f"spectral radius {r:.12g} > 1",
            lower=math.inf,
        )
    floor = _discrete_norm_floor(T, kappa_max)
    if floor > kappa_max:
        return SimilarityVerdict(
            "unbounded",
            math.inf,
            None,
            kappa_max,
            evidence=f"power norms reach {floor:.3g} > budget (defective peripheral spectrum)",
            lower=floor,
        )
    target = _realified(SteinTarget((T,)))
    return _constant_verdict(target, floor, tol, kappa_max, feas_tol)


def _shifted_constant(A, shift, tol, kappa_max, feas_tol):
    A = as_matrix(A, "generator")
    gb = growth_bound(A)
    if gb > shift + 1e-10:
        return SimilarityVerdict(
            "unbounded",
            math.inf,
            None,
            0.0,
            evidence=f"growth bound {gb:.12g} exceeds shift {shift:.12g}",
            lower=math.inf,
        )
    floor = _continuous_norm_floor(A, shift, kappa_max)
    if floor > kappa_max:
        return SimilarityVerdict(
            "unbounded",
            math.inf,
            None,
            kappa_max,
            evidence="semigroup norms exceed the budget (marginal defective spectrum)",
            lower=floor,
        )
    target = _realified(LyapunovTarget(A, float(shift)))
    return _constant_verdict(target, floor, tol, kappa_max, feas_tol)


def joint_similarity_constant(A, tol=1e-4, kappa_max=KAPPA_MAX_DEFAULT, feas_tol=None):
    """Joint similarity constant of the semigroup ``t -> exp(tA)``.

    A Lyapunov certificate ``A*P + PA <= 0`` renorms every ``exp(tA)``
    into a contraction simultaneously; the constant is the smallest
    condition number of such a certificate, found within relative
    ``tol`` as in :func:`discrete_similarity_constant`.
    """
    return _shifted_constant(A, 0.0, tol, kappa_max, feas_tol)


def quasi_similarity_constant(A, shift, tol=1e-4, kappa_max=KAPPA_MAX_DEFAULT, feas_tol=None):
    """Similarity constant of the rescaled semigroup ``exp(-shift t) exp(tA)``."""
    return _shifted_constant(A, float(shift), tol, kappa_max, feas_tol)


def min_quasi_shift(A, kappa_budget, tol=1e-3, feas_tol=None):
    """Smallest shift admitting a certificate within the condition budget.

    Bisects over ``shift`` in ``[growth_bound(A), numerical_abscissa(A)]``;
    the upper endpoint is always feasible with ``P = I``, and feasibility
    is monotone in the shift.  Returns the certified-feasible end of the
    final bracket (an endpoint when the bracket is numerically empty).
    """
    A = as_matrix(A, "generator")
    if kappa_budget < 1.0:
        raise ValueError("kappa_budget must be >= 1")
    lo = growth_bound(A)
    hi = numerical_abscissa(A)
    if not hi - lo > tol:
        return lo
    target_scale = max(1.0, 2.0 * operator_norm(A))
    if feas_tol is None:
        feas_tol = 1e-8 * target_scale

    def feasible(lam, warm=None):
        return lyapunov_feasible(A, lam, kappa_budget, tol=feas_tol, warm=warm)

    res_lo = feasible(lo)
    if res_lo:
        return lo
    warm = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = feasible(mid, warm=warm)
        if res:
            hi = mid
            warm = res.certificate.weight
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# independent certificate verification


@dataclass(frozen=True)
class CertificateReport:
    """Re-derived certificate quantities, independent of the solver path."""

    kappa: float
    residual: float
    constraint_violations: tuple
    box_violation: float

    @property
    def worst(self):
        return max(self.residual, self.box_violation)


def certificate_check(cert, target):
    """Recompute all constraint violations and kappa for a certificate.

    ``target`` is a :class:`SteinTarget` or :class:`LyapunovTarget`.  The
    defect eigenvalues are recomputed from scratch and ``kappa`` via
    singular values, so a buggy solver cannot vouch for itself.
    """
    P = as_matrix(cert.weight, "certificate weight")
    if P.shape[0] != target.dim:
        raise DimensionError("certificate and target dimensions differ")
    sv = scipy.linalg.svdvals(0.5 * (P + P.conj().T))
    kappa = float(math.sqrt(sv[0] / max(sv[-1], np.finfo(float).tiny)))
    violations = []
    for D in _defects(target, P):
        lam = float(np.linalg.eigvalsh(0.5 * (D + D.conj().T))[-1])
        violations.append(max(lam, 0.0))
    w = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
    box = max(0.0, 1.0 - float(w[0]))
    return CertificateReport(
        kappa=kappa,
        residual=max(violations) if violations else 0.0,
        constraint_violations=tuple(violations),
        box_violation=box,
    )
