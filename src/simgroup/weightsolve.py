"""Similarity constants as condition-number-minimal Hermitian weights.

An invertible ``R`` with ``norm(R T R^{-1}) <= 1`` exists exactly when
some Hermitian positive definite ``P = R* R`` satisfies the Stein
inequality ``T* P T <= P``; the best achievable ``cond(R) = sqrt(cond(P))``
is the similarity constant of ``T``.  For a semigroup ``exp(tA)`` the
role of the Stein inequality is played by the Lyapunov inequality
``A* P + P A <= 2 shift P``, which certifies ``norm(exp(tA))_P <=
exp(shift * t)`` for all ``t >= 0`` at once.

The squared constant is the optimum of the linear semidefinite program
``min t`` over ``I <= P <= t I`` with the defect ``L(P) <= 0``.  For one
operator or generator the solver writes ``L`` in one pair form ``L(X) =
c (M* X F + F* X M)``: ``(A - shift I, I)`` with ``c = 1`` for a
Lyapunov target, and ``(T - I, T + I)`` with ``c = 1/2`` for a Stein
target, by the cogenerator identity (Sz.-Nagy, Foias, Bercovici and
Kerchy, *Harmonic Analysis of Operators on Hilbert Space*, Ch. III)

    T*XT - X = (1/2) [(T-I)* X (T+I) + (T+I)* X (T-I)].

The engine, the equation solves and the strict-stability test read this
form only.  Its Stein terms do not cancel: ``T*XT - X`` subtracts two
``norm(X)``-sized terms down to a ``(1 - r(T))``-relative remainder,
which left the engine's near-marginal constants about twice too high.
The target counts as strictly stable when every eigenvalue ``mu`` of the
pencil ``(M, F)`` is finite with a margin of ``1e-9`` on the spectrum it
stands for: ``Re mu < -1e-9`` for ``A - shift I``, and ``r(T) < 1 -
1e-9`` for ``mu = (lam - 1) / (lam + 1)``, wherever ``lam`` lies on the
circle.  The recomputed defect of a certificate
(:func:`certificate_check`) stays the literal one, independent of the
form.  The equation seed ``L^{-1}(-I)``, which exists exactly for
strictly stable single-constraint targets, picks the target's regime
(``_Target._regime``), which verdicts and fixed-budget probes both read:

* **No seed** (several operators, or critical spectrum): the cone has
  no interior to search.  The verdict is the best closed-form
  certificate at its own kappa (``I``, the diagonalizer, or the split
  weight that decouples critical from strictly stable spectrum); a
  fixed-budget probe tries the same weights clipped to the box ``I <= P
  <= kappa^2 I``.
* **Seed, dimension up to 32**: the exact interior-point engine
  (:mod:`simgroup._condition_sdp`) alone decides.  ``I`` or the clipped
  seed answers first if it certifies the power norm floor (or a sampled
  semigroup norm floor); a generator whose seed's kappa is within the
  budget samples no semigroup norm floor up front (every norm is at
  most that kappa, so the floor cannot exceed the budget, and a bracket
  closed to ``tol`` needs no floor), and ``I`` alone answers first, at
  kappa 1.  Otherwise the engine follows the primal-dual central path
  from the balanced start (``_Target._start``: the geometric mean of the
  two Gramians where float64 certifies it, else the seed) until its
  strictly feasible weight and the weak-duality bound of its dual blocks
  bracket the constant within the relative ``tol`` (a stalled solve
  hands over to a barrier loop from the same start, which keeps the
  better end of each bracket); a fixed-budget probe
  tries the clipped closed-form weights first and otherwise decides
  from the same bracket.  An engine weight that fails the certificate rule is
  restored onto the cone by one equation solve, or replaced by the seed;
  a bracket wider than ``tol`` (below about ``1e-9``) is reported in
  ``evidence``, and only then is an unsampled semigroup norm floor
  sampled to raise its lower end.
* **Seed, larger dimension**: bisection over ``kappa``.  A probe tries
  the clipped closed-form weights, restores the best onto the cone with
  one equation solve, and runs a convex search over the equation's
  right-hand side ``Q >= 0`` minimizing ``eig_max(P) - kappa^2
  eig_min(P)`` for ``P = L^{-1}(-Q)``; every iterate lies on the cone,
  so the best one certifies at its own kappa and tightens the upper
  bracket.

One rule accepts every weight (:func:`_certifies`): its worst defect
eigenvalue, clipped at zero, is within the feasibility tolerance at its
own kappa.  Two fixed-budget paths read the tolerance at the budget
instead: the engine's box-clipped weight where its bracket stops around
the budget, and the right-hand-side search, at the larger of the budget
and the weight's own kappa.

Outside the engine a failed probe proves nothing, so those constants are
certificate-backed upper bounds, only as tight as the weights tried.
Every verdict carries a certified lower bound next to its constant.
Certificates are always re-checked independently of the solver
(:func:`certificate_check`); infeasibility of a probe never masquerades
as a theorem: the verdict ``unbounded`` is only ever backed by spectral
or norm-growth evidence.  A strictly stable target has a finite
constant, so a sampled norm above the budget makes it ``infeasible``,
with that norm as ``lower``.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np
import scipy.linalg

from . import _condition_sdp
from .exceptions import DimensionError, SaturationError
from .opcore import (
    _eig_cached,
    _hermitian_part,
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
#: Largest dimension the exact engine takes: its Newton system has
#: ``n^2`` unknowns, so a factorization costs ``O(n^6)``.
_ENGINE_DIM_LIMIT = 32


# ---------------------------------------------------------------------------
# targets and result records


class _Target:
    """Solver state of a target, each part computed at most once.

    A single-operator target writes its defect map in one pair form
    ``L(X) = c (M* X F + F* X M)`` (:attr:`_form`).  The equation
    context and seed exist for strictly stable targets; the seed picks
    the solver regime (see the module notes).
    """

    def scale(self):
        return self._scale

    @cached_property
    def _context(self):
        """The target's :class:`_EquationContext`, or None unless strictly stable."""
        return _EquationContext.for_target(self)

    @cached_property
    def _equation_seed(self):
        """``(seed, kappa_seed)``, or ``(None, inf)``: see :attr:`_seed`."""
        if self._context is None:
            return None, math.inf
        X = self._context.solve(np.eye(self.dim, dtype=_native_dtype(self)))
        if X is None:
            return None, math.inf
        w = np.linalg.eigvalsh(X)
        if not np.all(np.isfinite(w)) or w[0] <= self.dim * np.finfo(float).eps * w[-1]:
            return None, math.inf
        return X / w[0], math.sqrt(w[-1] / w[0])

    @property
    def _seed(self):
        """Interior feasible point from the Stein/Lyapunov *equation*, or None.

        Solving ``L(X) = -I`` yields a strictly feasible Hermitian PD
        weight whenever the target is strictly stable; normalized to
        eig_min = 1 it doubles as an upper bracket for the similarity
        constant.  A solution whose smallest eigenvalue is below its
        rounding level ``n eps eig_max`` is not positive definite in
        float64, so it is no seed.
        """
        return self._equation_seed[0]

    @property
    def _seed_kappa(self):
        """The seed's kappa, from the eigenvalues that normalized it; inf without a seed."""
        return self._equation_seed[1]

    @cached_property
    def _start(self):
        """The engine's start: the balanced weight ``X_o # X_c^{-1}``, or the seed.

        ``X_o = L^{-1}(-I)`` (the seed) certifies the target and ``X_c =
        L*^{-1}(-I)`` its adjoint, so ``X_c^{-1}`` certifies the target
        too.  Their geometric mean is strictly feasible, as ``#`` is
        congruence-covariant and monotone (Kubo and Ando, *Means of
        positive linear operators*, 1980), and it is the weight that a
        balancing transformation turns into ``I`` (Moore, 1981).  With
        ``X_o = L_o L_o*`` it is formed as ``L_o (L_o* X_c L_o)^{-1/2}
        L_o*``, the non-positive eigenvalues of ``L_o* X_c L_o`` dropped,
        and normalized to ``eig_min = 1``.  It replaces the seed only if
        it is positive definite above its rounding level ``n eps
        eig_max`` and its pair-form defect is negative definite in
        float64: near the circle ``X_c`` may be indefinite in float64, or
        the mean may leave the cone by rounding.
        """
        seed = self._seed
        n = self.dim
        X_c = self._context.solve_adjoint(-np.eye(n, dtype=_native_dtype(self)))
        if X_c is None:
            return seed
        try:
            L_o = np.linalg.cholesky(seed)
        except np.linalg.LinAlgError:
            return seed
        s, V = np.linalg.eigh(L_o.conj().T @ X_c @ L_o)
        G = (L_o @ V) * np.where(s > 0.0, s, np.inf) ** -0.25
        P = G @ G.conj().T
        if not np.isfinite(P).all():
            return seed
        w = np.linalg.eigvalsh(P)
        if not w[0] > n * np.finfo(float).eps * w[-1]:
            return seed
        P /= w[0]
        D = _condition_sdp._PairMap(self._form, np.result_type(P, self._form[0])).defect(P)
        return P if np.linalg.eigvalsh(D)[-1] < 0.0 else seed

    @cached_property
    def _regime(self):
        """The solver regime (see the module notes): ``"no seed"``, ``"engine"`` or ``"bisect"``."""
        if self._seed is None:
            return "no seed"
        return "engine" if self.dim <= _ENGINE_DIM_LIMIT else "bisect"

    @cached_property
    def _closed_forms(self):
        """Every closed-form weight: the seed, then :func:`_spectral_seeds`."""
        return [P for P in (self._seed, *_spectral_seeds(self)) if P is not None]


@dataclass(frozen=True)
class SteinTarget(_Target):
    """Joint contractivity constraints ``Ti* P Ti <= P``."""

    operators: tuple

    @property
    def dim(self):
        return self.operators[0].shape[0]

    @cached_property
    def _scale(self):
        return max(1.0, max(operator_norm(T) ** 2 for T in self.operators))

    @cached_property
    def _form(self):
        """``(T - I, T + I, 1/2)`` for one operator (see the module notes), or None."""
        if len(self.operators) != 1:
            return None
        T = self.operators[0]
        I = np.eye(self.dim)
        return T - I, T + I, 0.5


@dataclass(frozen=True)
class LyapunovTarget(_Target):
    """Quasi-dissipativity constraint ``A* P + P A <= 2 shift P``."""

    generator: np.ndarray
    shift: float = 0.0

    @property
    def dim(self):
        return self.generator.shape[0]

    @cached_property
    def _scale(self):
        return max(1.0, 2.0 * operator_norm(self.generator) + 2.0 * abs(self.shift))

    @cached_property
    def _form(self):
        """``(A - shift I, None, 1)``: ``F = I``, written None so that no solve applies it."""
        return self.generator - self.shift * np.eye(self.dim), None, 1.0


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
    or the engine's steps: its primal-dual steps plus, after a hand-over,
    its barrier Newton steps (0 when a closed-form weight answered).
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
    decided the verdict, a weak-duality bound of the condition-number
    SDP, from the primal-dual iterates' dual blocks with their coupling
    residual charged or, after a hand-over to the barrier loop, from a
    re-checked dual-feasible point, raised by a sampled norm floor.
    Power norms are always sampled; semigroup norms of an engine target
    whose seed's kappa is within the budget only when the engine's
    bracket stays wider than ``tol``.  A ``finite`` verdict has
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


def _effective_tol(target, kappa):
    """Feasibility tolerance of a weight at condition ``kappa``.

    ``scale max(1e-8, 8e-16 kappa^2)``, as the public probes document:
    the ``1e-8`` relative tolerance, raised to the float64 floor, since
    forming the defect at weight scale ``kappa^2`` already carries
    rounding of that order.
    """
    return max(1e-8 * target.scale(), 8e-16 * target.scale() * kappa * kappa)


def _certificate(target, P, kappa=None, box=0.0):
    """``P`` with its kappa (``kappa`` if given) and its penalty, clipped at ``box`` and zero."""
    if kappa is None:
        kappa = _kappa_of(P)
    return WeightCertificate(P, kappa, max(_penalty(target, P), box, 0.0))


def _certifies(target, cert, at=None):
    """The one acceptance rule: ``residual <= _effective_tol(target, at)``.

    ``at`` is the weight's own kappa unless a budget-read path (see the
    module notes) gives it.
    """
    return cert.residual <= _effective_tol(target, cert.kappa if at is None else at)


def _diagonalizer_weight(M):
    """``(V V*)^{-1}`` for ``M = V L V^{-1}``, or None if ``V`` is ill-conditioned.

    The weight renorms ``M`` to its diagonal part ``L``.
    """
    ded = _eig_cached(M)
    if ded is None or not ded[3] <= 1e8:
        return None
    return np.linalg.inv(ded[1] @ ded[1].conj().T)


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
    if target._form is None:
        return []
    if isinstance(target, SteinTarget):
        M = target.operators[0]

        def critical(lam):
            return abs(lam) >= 1.0 - 1e-9

        def admissible(lam):
            return abs(lam) <= 1.0 + 1e-12
    else:
        M = target._form[0]

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


def _schur_eigenvalues(theta):
    """Eigenvalues of a Schur form, read off its diagonal blocks.

    A complex Schur form is triangular.  A real one has standardized
    ``2 x 2`` blocks ``[[a, b], [c, a]]`` with ``b c < 0`` (LAPACK's
    ``lanv2``), whose eigenvalues are ``a +- i sqrt(-b c)``.
    """
    mu = np.diag(theta).astype(complex)
    if not np.iscomplexobj(theta):
        k = np.flatnonzero(np.diag(theta, -1))
        im = np.sqrt(np.abs(theta[k, k + 1] * theta[k + 1, k]))
        mu[k] += 1j * im
        mu[k + 1] -= 1j * im
    return mu


def _getrs(lu, B, trans):
    """``F^{-1} B`` (``trans=0``) or ``F^{-*} B`` (``trans=2``) from the ``getrf`` factors of ``F``.

    LAPACK's ``getrs``, the routine behind ``scipy.linalg.lu_solve``,
    called without that wrapper's checks: at small ``n`` they cost several
    times the solve, and every equation solve of a Stein target runs two.
    """
    lu_, piv = lu
    return scipy.linalg.get_lapack_funcs("getrs", (lu_, B))(lu_, piv, B, trans=trans)[0]


class _EquationContext:
    """Cached Schur factorization for one target's defect-equation solves.

    The defect map ``L(X) = c (M* X F + F* X M)`` of the target's pair
    form (:attr:`_Target._form`) is a linear bijection exactly when every
    eigenvalue of the pencil ``(M, F)`` lies in the open left half-plane;
    :meth:`for_target` requires the margin of the module notes and
    returns None otherwise (an eigenvalue ``-1`` of a Stein operator
    makes ``F`` singular and its pencil eigenvalue infinite, which the
    LU pivots of ``F`` show).  The pairs of both targets commute, so
    with ``S = M F^{-1}``

        L(X) = c F* (S* X + X S) F,

    and this context solves ``L(X) = -Q`` and the adjoint ``L*(Z) = R``
    with one LAPACK ``trsyl`` call each on a single Schur decomposition
    of ``S``, after the congruence by ``F^{-1}`` (none for ``F = I``).
    The stability margin is read off the same Schur form.
    """

    def __init__(self, theta, U, lu, c):
        self._theta = theta
        self._U = U
        self._trsyl = scipy.linalg.get_lapack_funcs(("trsyl",), (theta,))
        self._lu = lu  # LU of F, or None for F = I
        self._inv_c = 1.0 / c

    @classmethod
    def for_target(cls, target):
        if target._form is None:
            return None
        M, F, c = target._form
        try:
            lu = None
            S = M
            if F is not None:
                # a zero pivot: F = T + I is singular, the pencil eigenvalue
                # of lam = -1 infinite
                getrf = scipy.linalg.get_lapack_funcs("getrf", (F,))
                lu_, piv, info = getrf(F)
                if info != 0:
                    return None
                lu = (lu_, piv)
                S = _getrs(lu, M.conj().T, trans=2).conj().T
            theta, U = scipy.linalg.schur(S, output="complex" if np.iscomplexobj(S) else "real")
            mu = _schur_eigenvalues(theta)
            if not np.all(np.isfinite(mu)):
                return None
            # the margin 1e-9 on the spectrum of A - shift I, or 1e-9 on
            # r(T) wherever the eigenvalue lam of T lies on the circle:
            # Re mu = (|lam|^2 - 1) |1 - mu|^2 / 4 for the Stein pair
            margin = 1e-9 if F is None else 0.5e-9 * np.abs(1.0 - mu) ** 2
            if not np.all(mu.real < -margin):
                return None
            return cls(theta, U, lu, c)
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

    def _congruence(self, Q, trans):
        """``G Q G* / c`` for ``G = F^{-*}`` (``trans=2``) or ``G = F^{-1}`` (``trans=0``)."""
        if self._lu is None:
            return self._inv_c * Q
        Y = _getrs(self._lu, Q, trans)
        return self._inv_c * _getrs(self._lu, Y.conj().T, trans).conj().T

    def solve(self, Q):
        """Hermitian ``X`` with ``defect(X) = -Q``."""
        return self._sylvester(-self._congruence(Q, trans=2), trana="C", tranb="N")

    def solve_adjoint(self, R):
        """Hermitian ``Z`` with ``L*(Z) = R``."""
        return self._sylvester(self._congruence(R, trans=0), trana="N", tranb="C")


def _cone_certificate(target, P):
    """Restore ``P`` exactly onto the constraint cone and certify it there.

    One equation solve (through the target's :class:`_EquationContext`)
    repairs the positive defect part; the result is a valid certificate
    at its own kappa regardless of any box budget.
    """
    D = _defects(target, P)[0]
    w, U = np.linalg.eigh(0.5 * (D + D.conj().T))
    if w[-1] > 0.0:
        X = target._context.solve((U * np.maximum(w, 0.0)) @ U.conj().T)
        if X is None:
            return None
        P = 0.5 * (P + X + (P + X).conj().T)
    pw = np.linalg.eigvalsh(P)
    if pw[0] <= 0 or not np.all(np.isfinite(pw)):
        return None
    cert = _certificate(target, P / pw[0])
    return cert if _certifies(target, cert) else None


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


def _qspace_rounds(target, kappa, Q0=None):
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
    ctx = target._context
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
        if val <= _effective_tol(target, kappa) * float(w[0]):
            Pn = P / w[0]
            box = max(0.0, float(np.linalg.eigvalsh(Pn)[-1]) - kappa2)
            cert = _certificate(target, Pn, box=box)
            if _certifies(target, cert, at=max(kappa, cert.kappa)):
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
        nearest = _cone_certificate(target, best_P)
    return None, nearest, it + 1


def _closed_form_probe(target, kappa, weights):
    """First probe of every fixed-budget path: closed-form weights.

    ``I``, then each of ``weights`` (None skipped) clipped to the
    ``kappa`` box; the first whose penalty is within the tolerance at its
    own kappa certifies.  Returns ``(result, best_P, best_f)``, where
    ``result`` is None unless a candidate certifies or the box is the
    singleton ``{I}``, which leaves nothing to search.
    """
    kappa2 = kappa * kappa
    I = np.eye(target.dim, dtype=_native_dtype(target))
    clipped = (_project_box(P, kappa2) for P in weights if P is not None)
    best_P = None
    best_f = np.inf
    for P0 in itertools.chain([I], clipped):
        cert = _certificate(target, P0)
        if cert.residual < best_f:
            best_f, best_P = cert.residual, P0
        if _certifies(target, cert):
            return FeasibilityResult(cert, cert.residual, 0), best_P, best_f
    if kappa2 <= 1.0 + 1e-14:
        return FeasibilityResult(None, best_f, 0), best_P, best_f
    return None, best_P, best_f


def _native_dtype(target):
    if isinstance(target, SteinTarget):
        return target.operators[0].dtype
    return target.generator.dtype


# ---------------------------------------------------------------------------
# solver regimes and the exact engine

def _engine_solve(target, tol, budget=None):
    """Engine bracket and a certificate.

    The engine's weight, at the engine's own kappa, is the certificate
    if it passes :func:`_certifies`.  Otherwise one equation solve
    restores it onto the cone, and failing that the strictly feasible
    equation seed certifies.
    """
    res = _condition_sdp.solve(target._form, target._start, tol, budget=budget)
    cert = _certificate(target, res.weight, kappa=res.kappa)
    if not _certifies(target, cert):
        cert = _cone_certificate(target, res.weight)
    if cert is None:
        cert = _certificate(target, target._seed)
    return res, cert


def _engine_constant(target, floor, tol, kappa_max, late_floor=None):
    """``(certificate or None, searched budget, lower, evidence)`` of the exact engine.

    A closed-form weight certifying the norm floor answers first, so
    contractions and other floor-attaining operators stay exact and
    instant; otherwise the condition-number SDP is bracketed to relative
    width ``tol``.  A bracket that stays wider (``tol`` below the float64
    floor, or a numerically singular Newton system) is reported in
    ``evidence``.  ``late_floor`` stands for a norm floor left unsampled
    (``floor`` is then 1, and ``I`` alone is probed first): it is sampled
    only where the bracket stays wider than ``tol``, and it raises
    ``lower`` as a floor sampled up front would.
    """
    head = (target._seed,) if late_floor is None else ()
    done, _, _ = _closed_form_probe(target, floor, head)
    if done:
        return done.certificate, floor, floor, ""
    res, cert = _engine_solve(target, tol)
    # the floor may exceed the constant by rounding; the dual bound may not
    lower = max(min(floor, res.kappa), res.lower)
    if late_floor is not None and cert.kappa > (1.0 + tol) * lower:
        lower = max(min(late_floor(), res.kappa), lower)
    if lower > kappa_max or cert.kappa > kappa_max * (1.0 + 1e-9):
        return None, kappa_max, lower, ""
    evidence = ""
    if cert.kappa > (1.0 + tol) * lower:
        evidence = f"engine bracket [{lower:.15g}, {cert.kappa:.15g}] wider than tol {tol:.3g}"
    return cert, cert.kappa, lower, evidence


def _feasibility(target, kappa, warm=None, qwarm=None):
    """Fixed-budget answer: the closed-form head, then the regime's tail.

    The head (:func:`_closed_form_probe`) alone answers without a seed.
    The engine runs until its bracket puts the constant below the budget
    or above it; a bracket that stops around the budget leaves the
    answer to the box-clipped engine weight.  The bisection regime
    restores the best head weight onto the cone once, then searches from
    ``qwarm``.  The engine ignores ``warm`` (a previous probe's weight,
    tried in the head) and ``qwarm`` (its cone right-hand side).
    """
    kappa = float(kappa)
    regime = target._regime
    head = target._closed_forms if regime == "engine" else (warm, *target._closed_forms)
    done, best_P, best_f = _closed_form_probe(target, kappa, head)
    if done is not None:
        return done
    if regime == "no seed":
        return FeasibilityResult(None, best_f, 0)
    if regime == "engine":
        res, cert = _engine_solve(target, 0.0, budget=kappa)
        if cert.kappa <= kappa:
            return FeasibilityResult(cert, cert.residual, res.iterations, cert)
        clipped = _certificate(target, _project_box(res.weight, kappa * kappa))
        if res.lower <= kappa and _certifies(target, clipped, at=kappa):
            return FeasibilityResult(clipped, clipped.residual, res.iterations, clipped)
        return FeasibilityResult(None, min(clipped.residual, best_f), res.iterations, cert)

    nearest = _cone_certificate(target, best_P)
    if nearest is not None and nearest.kappa <= kappa:
        return FeasibilityResult(nearest, nearest.residual, 0, nearest)
    cert, near, iterations = _qspace_rounds(target, kappa, Q0=qwarm)
    if cert is not None:
        return FeasibilityResult(cert, cert.residual, iterations, cert)
    if near is not None and (nearest is None or near.kappa < nearest.kappa):
        nearest = near
    return FeasibilityResult(None, best_f, iterations, nearest)


# ---------------------------------------------------------------------------
# public feasibility surface


def stein_feasible(operators, kappa):
    """Search for ``P`` with ``I <= P <= kappa^2 I`` and ``Ti* P Ti <= P``.

    Parameters
    ----------
    operators : sequence of array_like
        The operators that must become joint contractions; all square of
        one dimension.
    kappa : float
        Condition budget, ``>= 1``; any other, NaN included, raises ``ValueError``.

    A weight certifies when its worst defect eigenvalue is at most
    ``scale max(1e-8, 8e-16 k^2)``, with ``scale = max(1, max_i
    norm(Ti)^2)`` and ``k`` the weight's condition number, except on two
    paths: ``k`` is the budget ``kappa`` for the engine's box-clipped
    weight, and the larger of the two in the right-hand-side search.
    That is the relative tolerance ``1e-8``, raised above ``k`` of about
    3500 to the rounding level of a defect formed at weight scale ``k^2``.

    Returns
    -------
    FeasibilityResult
        For one strictly stable operator of dimension up to 32 the
        answer is exact: the engine's bracket decides it.  Otherwise
        ``certificate`` is None when no weight was found: the box-clipped
        closed-form weights are tried, then,
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
    # one field for the family: complex as soon as one operator is
    field = np.result_type(*ops)
    ops = tuple(T.astype(field, copy=False) for T in ops)
    _check_budget(kappa, "kappa")
    return _feasibility(SteinTarget(ops), kappa)


def lyapunov_feasible(A, shift, kappa):
    """Search for ``P`` with ``I <= P <= kappa^2 I`` and ``A*P + PA <= 2 shift P``.

    A certificate makes ``exp(-shift t) exp(tA)`` a joint contraction in
    the ``P`` inner product for all ``t >= 0``.  A weight certifies when
    its worst defect eigenvalue is at most ``scale max(1e-8, 8e-16
    k^2)``, with ``scale = max(1, 2 norm(A) + 2 abs(shift))`` and ``k``
    as for :func:`stein_feasible`, budget-read paths included.  As
    there, a strictly stable ``A - shift I`` of dimension up to 32 is
    decided exactly by the engine's bracket.  A ``kappa`` below 1 or NaN,
    and a ``shift`` that is not finite, raise ``ValueError``.
    """
    A = as_matrix(A, "generator")
    shift = _finite_shift(shift)
    _check_budget(kappa, "kappa")
    return _feasibility(LyapunovTarget(A, shift), kappa)


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


def _continuous_norm_floor(target, kappa_max):
    """Lower bound on the shifted joint constant from a log time grid.

    ``T(t) = exp(t (A - shift I))`` of the :class:`LyapunovTarget` is
    sampled at ``t = 10^-2 ... 10^8`` (41 points), and the largest norm
    is the floor.  The joint verdict samples it up front only where it can
    still decide: without a seed, past the engine's dimension, and where
    ``kappa_seed > kappa_max``, when a norm above the budget is a fast
    ``infeasible``.  In the engine regime within budget it is sampled
    only for a bracket that stays wider than ``tol``.  The grid stops
    early on either of two conditions:

    - the floor exceeds ``kappa_max``;
    - a sample has ``norm(T(t_k)) * kappa_seed <= floor / 2``, with
      ``kappa_seed`` the kappa of the target's equation seed and
      ``floor`` the largest norm so far.

    The second stop leaves the floor unchanged.  The seed renorms ``T``
    into a contraction, so ``norm(T(s)) <= kappa_seed`` for every ``s``,
    and for every ``t >= t_k``

        norm(T(t)) <= norm(T(t_k)) norm(T(t - t_k)) <= floor / 2 < floor.

    The factor 2 absorbs the rounding in the samples and in
    ``kappa_seed``.  A target without a seed (critical spectrum) runs
    the whole grid.

    Returns inf when a sampled exponential overflows the floating-point
    range; every other error propagates.
    """
    sem = semigroup_from_generator(target._form[0])
    kappa_seed = target._seed_kappa
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
        if lb > kappa_max or nrm * kappa_seed <= 0.5 * lb:
            break
    return lb


# ---------------------------------------------------------------------------
# bisection driver and verdicts


def _bisect_constant(target, lower, kappa_max, rel_tol):
    """Log-scale bisection over kappa with warm-started feasibility probes.

    The bisection regime's verdict.  An infeasible probe may still
    surface a certificate slightly above its budget (see
    :class:`FeasibilityResult`); the upper bracket is tightened with
    every certificate seen, so the reported constant is always backed by
    an actual weight.  Returns ``(certificate,
    searched_kappa_max)``, with no certificate up to ``kappa_max``
    reported as ``(None, kappa_max)``.
    """
    warm = qwarm = best_cert = None

    def probe(kap):
        res = _feasibility(target, kap, warm=warm, qwarm=qwarm)
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

    if probe(lower):
        return best_cert, lower

    # upper bracket: the probe's certificate when it is within budget, else
    # what a probe at the widest (most permissive) box surfaces
    budget = kappa_max * (1.0 + 1e-9)
    if best_cert is None or best_cert.kappa > budget:
        if not probe(kappa_max) and (best_cert is None or best_cert.kappa > budget):
            return None, kappa_max

    lo = lower
    hi = max(best_cert.kappa, lo)
    while hi > lo * (1.0 + rel_tol):
        # geometric bisection while the bracket is wide; once it tightens,
        # probe exactly one tolerance below the certificate so the final
        # gap closes in a single solve
        mid = max(min(math.sqrt(lo * hi), hi / (1.0 + rel_tol)), lo)
        if probe(mid):
            hi = min(mid, max(best_cert.kappa, lo))
        else:
            lo = mid
            hi = max(lo, min(hi, best_cert.kappa))
    return best_cert, hi


def _unbounded(evidence, searched=0.0, lower=math.inf):
    """``unbounded`` verdict on spectral evidence, or on norm growth up to ``searched``."""
    return SimilarityVerdict("unbounded", math.inf, None, searched, evidence=evidence, lower=lower)


def _constant_verdict(target, floor, tol, kappa_max, growth, late_floor=None):
    """Verdict above the certified norm ``floor``; the regime picks the solver.

    A floor above ``kappa_max`` decides first: ``infeasible`` for a
    strictly stable target (its equation context exists), whose constant
    is finite; otherwise, or when a probed norm overflowed float64
    (``floor`` is inf), ``unbounded`` with ``growth`` as evidence.
    ``late_floor`` goes to the engine (:func:`_engine_constant`).
    """
    evidence = ""
    lower = floor
    if floor > kappa_max:
        if not (math.isfinite(floor) and target._context is not None):
            return _unbounded(growth, kappa_max, floor)
        cert, searched = None, kappa_max
    elif target._regime == "engine":
        cert, searched, lower, evidence = _engine_constant(
            target, floor, tol, kappa_max, late_floor
        )
    elif target._regime == "bisect":
        cert, searched = _bisect_constant(target, floor, kappa_max, tol)
    else:
        # no interior to search from: the best closed-form certificate decides
        I = np.eye(target.dim, dtype=_native_dtype(target))
        certs = (_certificate(target, P) for P in (I, *target._closed_forms))
        cert = min(
            (c for c in certs if _certifies(target, c) and c.kappa <= kappa_max),
            key=lambda c: c.kappa,
            default=None,
        )
        searched = kappa_max if cert is None else cert.kappa
    if cert is None:
        return SimilarityVerdict("infeasible", math.inf, None, searched, lower=lower)
    return SimilarityVerdict(
        "finite", cert.kappa, cert, searched, evidence, lower=min(lower, cert.kappa)
    )


def discrete_similarity_constant(T, tol=1e-4, kappa_max=KAPPA_MAX_DEFAULT):
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

    Verdicts: ``unbounded`` on spectral evidence (``r(T) > 1``, or, for
    ``T`` with eigenvalues on the unit circle, power norms exceeding the
    budget); otherwise ``finite`` with certificate, or ``infeasible``
    past ``kappa_max``, which for strictly stable ``T`` includes a power
    norm above the budget (then ``lower`` is that norm).  ``tol`` must be
    finite and ``>= 0``, and ``kappa_max`` must be ``>= 1``; either
    raises ``ValueError`` otherwise.
    """
    T = as_matrix(T)
    _check_tol_budget(tol, kappa_max)
    r = spectral_radius(T)
    if r > 1.0 + 1e-10:
        return _unbounded(f"spectral radius {r:.12g} > 1")
    floor = _discrete_norm_floor(T, kappa_max)
    growth = f"power norms reach {floor:.3g} > budget (defective peripheral spectrum)"
    return _constant_verdict(SteinTarget((T,)), floor, tol, kappa_max, growth)


def _check_tol_budget(tol, kappa_max):
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    _check_budget(kappa_max, "kappa_max")


def _check_budget(kappa, name):
    """A ``ValueError`` naming ``name`` unless ``kappa >= 1``; NaN fails the test."""
    if not kappa >= 1.0:
        raise ValueError(f"{name} must be >= 1, got {kappa!r}")


def _finite_shift(shift):
    """``float(shift)``; a ``ValueError`` unless it is finite."""
    shift = float(shift)
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    return shift


def _shifted_constant(A, shift, tol, kappa_max):
    A = as_matrix(A, "generator")
    shift = _finite_shift(shift)
    _check_tol_budget(tol, kappa_max)
    gb = growth_bound(A)
    if gb > shift + 1e-10:
        return _unbounded(f"growth bound {gb:.12g} exceeds shift {shift:.12g}")
    target = LyapunovTarget(A, float(shift))
    growth = "semigroup norms exceed the budget (marginal defective spectrum)"
    if target._regime == "engine" and target._seed_kappa <= kappa_max:
        # every norm is at most kappa_seed: the floor cannot exceed the
        # budget, and a bracket closed to tol needs no floor
        late_floor = partial(_continuous_norm_floor, target, kappa_max)
        return _constant_verdict(target, 1.0, tol, kappa_max, growth, late_floor)
    floor = _continuous_norm_floor(target, kappa_max)
    return _constant_verdict(target, floor, tol, kappa_max, growth)


def joint_similarity_constant(A, tol=1e-4, kappa_max=KAPPA_MAX_DEFAULT):
    """Joint similarity constant of the semigroup ``t -> exp(tA)``.

    A Lyapunov certificate ``A*P + PA <= 0`` renorms every ``exp(tA)``
    into a contraction simultaneously; the constant is the smallest
    condition number of such a certificate, found within relative
    ``tol`` and with the verdicts of :func:`discrete_similarity_constant`,
    semigroup norms taking the place of power norms (``tol`` and
    ``kappa_max`` are checked as there).  The semigroup norms are sampled
    on a log time grid only where they can decide: without an equation
    seed, past dimension 32, where the seed's kappa exceeds
    ``kappa_max`` (a norm over the budget is then an early
    ``infeasible``), and after an engine solve whose bracket stays wider
    than ``tol``.
    """
    return _shifted_constant(A, 0.0, tol, kappa_max)


def quasi_similarity_constant(A, shift, tol=1e-4, kappa_max=KAPPA_MAX_DEFAULT):
    """Similarity constant of the rescaled semigroup ``exp(-shift t) exp(tA)``.

    ``shift`` must be finite; ``tol`` and ``kappa_max`` are checked as in
    :func:`discrete_similarity_constant`.
    """
    return _shifted_constant(A, shift, tol, kappa_max)


def min_quasi_shift(A, kappa_budget):
    """Smallest shift admitting a certificate within the condition budget.

    Probes ``growth_bound(A)`` first, then bisects over ``shift`` in
    ``[growth_bound(A), numerical_abscissa(A)]`` to ``1e-4`` times that
    bracket's width, so the shift of ``c A`` is ``c`` times that of ``A``
    to the same relative accuracy; each probe is :func:`lyapunov_feasible`
    at that shift.  The upper endpoint is always feasible with ``P = I``,
    and feasibility is monotone in the shift.  A probe passes with a
    defect eigenvalue up to its feasibility tolerance; since ``P >= I``,
    its weight holds with no tolerance at the probed shift plus that
    residual, and that shift, not the probed one, becomes the upper end
    of the bracket.  So the returned shift is never below the true
    minimum.  The bisection stops early once a residual takes up half
    the upper half of the bracket, which leaves a bracket of at most four
    feasibility tolerances.
    """
    A = as_matrix(A, "generator")
    _check_budget(kappa_budget, "kappa_budget")
    lo = growth_bound(A)
    hi = numerical_abscissa(A)
    width = 1e-4 * (hi - lo)

    def exact_shift(lam, warm=None):
        """Shift at which the probe's weight holds exactly, and that weight, or None."""
        res = _feasibility(LyapunovTarget(A, float(lam)), kappa_budget, warm)
        if not res:
            return None
        return lam + res.certificate.residual, res.certificate.weight

    first = exact_shift(lo)
    if first is not None:
        return min(first[0], hi)
    warm = None
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        probe = exact_shift(mid, warm=warm)
        if probe is None:
            lo = mid
            continue
        shift, warm = probe
        if shift >= 0.5 * (mid + hi):
            hi = min(hi, shift)
            break
        hi = shift
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
    singular values, so a buggy solver cannot vouch for itself.  A weight
    that is not Hermitian to within ``1e-12 norm(P, 1)`` in each entry
    raises :class:`~simgroup.exceptions.InvalidWeightError`.
    """
    P = as_matrix(cert.weight, "certificate weight")
    if P.shape[0] != target.dim:
        raise DimensionError("certificate and target dimensions differ")
    PH = _hermitian_part(P, "certificate weight")
    sv = scipy.linalg.svdvals(PH)
    kappa = float(math.sqrt(sv[0] / max(sv[-1], np.finfo(float).tiny)))
    violations = []
    for D in _defects(target, P):
        lam = float(np.linalg.eigvalsh(0.5 * (D + D.conj().T))[-1])
        violations.append(max(lam, 0.0))
    w = np.linalg.eigvalsh(PH)
    box = max(0.0, 1.0 - float(w[0]))
    return CertificateReport(
        kappa=kappa,
        residual=max(violations) if violations else 0.0,
        constraint_violations=tuple(violations),
        box_violation=box,
    )
