"""Executable audits of the similarity characterizations and bounds.

The joint similarity constant of ``exp(tA)`` equals the limit of the
individual constants ``C(exp(tA))`` as ``t -> 0`` and of the resolvent
constants ``C(lam (lam - A)^{-1})`` as ``lam -> infinity``; this module
computes those curves, classifies a semigroup by its joint verdict (or
reports a truncation family's constants), constructs the averaging renormings
behind the quantitative bounds, and audits the bounds themselves.  An
audit compares an independently computed left-hand side against the
assembled right-hand side; with every ingredient finite the inequality
is a theorem, so a violated audit indicates a defect in the
implementation, not in the data.
"""

import bisect
import math
import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidWeightError, SimgroupError, StabilityError
from .opcore import (
    MatrixSemigroup,
    _nonnegative_finite,
    _positive_finite,
    _real_if_exact,
    _singular_values,
    as_matrix,
    gramian_integral,
    growth_bound,
    numerical_abscissa,
    operator_norm,
    resolvent,
    sampled_semigroup,
    semigroup_from_generator,
    weight_factors,
)
from .weightsolve import (
    LyapunovTarget,
    SimilarityVerdict,
    WeightCertificate,
    certificate_check,
    discrete_similarity_constant,
    joint_similarity_constant,
    quasi_similarity_constant,
)
from .gallery import HolbrookFactorization

__all__ = [
    "CurvePoint",
    "ConstantCurve",
    "TrichotomyReport",
    "BoundAudit",
    "IsometryReport",
    "SlopeReport",
    "small_time_constants",
    "resolvent_constants",
    "classify",
    "post_widder",
    "average_renorm",
    "average_renorm_factor_audit",
    "liapunov_renorm",
    "simconst_bound_audit",
    "holbrook_bound_audit",
    "factorization_from_certificate",
    "nagy_isometry_test",
    "local_commutation_slope",
    "sup_norm_on_interval",
]

AUDIT_TOL = 0.01
#: relative bracket width of the constants the bound audits compare
_AUDIT_SOLVE_TOL = 1e-3


@dataclass(frozen=True)
class CurvePoint:
    parameter: float
    verdict: Optional[SimilarityVerdict]
    error: str = ""

    @property
    def constant(self):
        return self.verdict.constant if self.verdict is not None else math.inf


@dataclass(frozen=True)
class ConstantCurve:
    """Per-parameter similarity constants along a time or resolvent grid."""

    kind: str
    points: tuple

    @property
    def finite(self):
        return [p for p in self.points if p.verdict is not None and p.verdict.finite]

    @property
    def sup_constant(self):
        vals = [p.constant for p in self.points if not p.error]
        return max(vals) if vals else math.inf

    @property
    def limit_estimate(self):
        """Constant at the grid end approaching the limit (smallest t,
        largest lam)."""
        pts = [p for p in self.points if not p.error]
        if not pts:
            return math.inf
        edge = min(pts, key=lambda p: p.parameter) if self.kind == "time" else max(
            pts, key=lambda p: p.parameter
        )
        return edge.constant

    def rows(self):
        for p in self.points:
            status = p.verdict.status if p.verdict is not None else "error"
            residual = (
                p.verdict.certificate.residual
                if p.verdict is not None and p.verdict.certificate is not None
                else ""
            )
            yield (p.parameter, p.constant, status if not p.error else "error", residual)


def small_time_constants(A, t_grid=None, tol=1e-4, kappa_max=1e6):
    """Curve ``t -> C(exp(tA))`` on a positive grid, finest point first.

    The limit of the curve as ``t -> 0`` is the joint constant of the
    semigroup whenever that is finite.
    """
    A = as_matrix(A, "generator")
    if t_grid is None:
        scale = max(1.0, operator_norm(A))
        t_grid = np.geomspace(1e-3, 2.0, 6) / scale
    return _constant_curve("time", t_grid, semigroup_from_generator(A).eval, tol, kappa_max)


def resolvent_constants(A, lam_grid, tol=1e-4, kappa_max=1e6):
    """Curve ``lam -> C(lam (lam - A)^{-1})`` over positive shifts.

    Points where ``lam`` hits the spectrum carry an error entry instead
    of a verdict; the constant at the largest shift estimates the joint
    constant.
    """
    A = as_matrix(A, "generator")
    return _constant_curve("resolvent", lam_grid, lambda lam: lam * resolvent(A, lam), tol, kappa_max)


def _constant_curve(kind, grid, operator, tol, kappa_max):
    """``C(operator(x))`` at each ``x`` of the positive ``grid``, ascending; an error entry per failed point."""
    pts = []
    for x in sorted(float(x) for x in grid):
        if x <= 0:
            raise ValueError(f"{kind} grid must be positive")
        try:
            v = discrete_similarity_constant(operator(x), tol=tol, kappa_max=kappa_max)
            pts.append(CurvePoint(x, v))
        except SimgroupError as exc:  # recorded per point
            pts.append(CurvePoint(x, None, error=str(exc)))
    return ConstantCurve(kind, tuple(pts))


@dataclass(frozen=True)
class TrichotomyReport:
    """Classification of a matrix generator by its joint verdict.

    ``case`` is read from the joint verdict alone: ``SimilarContraction``
    when it is ``finite`` (a certificate within ``kappa_max``),
    ``NeverSimilar`` when it is ``unbounded`` (spectral or norm-growth
    evidence that no weight exists), and ``BudgetExhausted`` when it is
    ``infeasible``: no certificate within ``kappa_max``, with the joint's
    certified ``lower`` in ``notes``.  For a matrix generator some
    ``T(t)`` has a finite constant exactly when the joint constant is
    finite, so there is no case with finite individual constants and
    none jointly.  The time and resolvent curves are reported beside the
    case and do not decide it.  For a supplied truncation family only the
    growth of the constants across the family is asserted, never an
    infinite-dimensional case.
    """

    case: Optional[str]
    joint: Optional[SimilarityVerdict]
    time_curve: Optional[ConstantCurve]
    resolvent_curve: Optional[ConstantCurve]
    family_curve: tuple = ()
    notes: str = ""

    @property
    def family_diverging(self):
        vals = [c for _, c in self.family_curve if math.isfinite(c)]
        return len(vals) >= 2 and all(b > a for a, b in zip(vals, vals[1:]))


def _member_constant(member, tol, kappa_max):
    if isinstance(member, MatrixSemigroup):
        if member.step is not None:
            v = discrete_similarity_constant(
                member.eval(member.step), tol=tol, kappa_max=kappa_max
            )
        elif member.generator is not None:
            v = joint_similarity_constant(member.generator, tol=tol, kappa_max=kappa_max)
        else:
            raise ValueError("sampled member without step or generator")
        return v
    return joint_similarity_constant(as_matrix(member), tol=tol, kappa_max=kappa_max)


def classify(generator, t_grid=None, kappa_max=1e6, family=None):
    """Classification of one semigroup (see :class:`TrichotomyReport`), with optional family.

    ``generator`` is the matrix generator to classify, or None when only
    the family is reported (``case``, ``joint`` and both curves are then
    None); ``family`` is an optional sequence of generators or gridded
    semigroups (truncations of one construction) whose constants are
    reported as a growth curve.  Every constant is bracketed to relative
    width ``1e-3``.
    """
    tol = 1e-3
    case = joint = curve = res_curve = None
    notes = ""
    if generator is not None:
        A = as_matrix(generator, "generator")
        joint = joint_similarity_constant(A, tol=tol, kappa_max=kappa_max)
        curve = small_time_constants(A, t_grid, tol=tol, kappa_max=kappa_max)
        lam_hi = 16.0 * max(1.0, operator_norm(A))
        res_curve = resolvent_constants(
            A, np.geomspace(lam_hi / 8.0, lam_hi, 3), tol=tol, kappa_max=kappa_max
        )
        if joint.finite:
            case = "SimilarContraction"
        elif joint.status == "unbounded":
            case = "NeverSimilar"
            notes = "joint verdict unbounded: no weight renorms the semigroup into contractions"
        else:
            case = "BudgetExhausted"
            notes = (
                f"no joint certificate up to kappa_max {float(joint.searched_kappa_max)!r}; "
                f"certified lower bound {float(joint.lower)!r}"
            )
    fam = ()
    if family is not None:
        fam = tuple(
            (float(i), _member_constant(member, tol, kappa_max).constant)
            for i, member in enumerate(family)
        )
        notes = (notes + "; " if notes else "") + "family constants attached (divergence is a truncation trend, not a fixed-dimension claim)"
    return TrichotomyReport(case, joint, curve, res_curve, fam, notes)


def post_widder(A, t, n):
    """Post-Widder approximant ``(I - (t/n) A)^{-n}`` of ``exp(tA)``.

    The error decreases in ``n``; the resolvent shift ``n/t`` must stay
    clear of the spectrum.  ``t`` must be positive and finite, and ``n``
    an integer of at least 1 (an integral float such as ``4.0`` counts).
    A shift beyond ``norm(A, 1)``, the usual case for large ``n``, is
    clear of every eigenvalue, and :func:`~simgroup.opcore.resolvent`
    then skips the spectrum.
    """
    A = as_matrix(A, "generator")
    x = float(n)
    if not (math.isfinite(x) and x.is_integer() and x >= 1.0):
        raise ValueError(f"n must be an integer with n >= 1, got {n!r}")
    n = int(n)
    t = _positive_finite(t, "t")
    shift = n / t
    M = shift * resolvent(A, shift)
    return np.linalg.matrix_power(M, n)


def sup_norm_on_interval(sem, tau, inflate=AUDIT_TOL):
    """Estimate ``sup norm(T(t))`` on ``[0, tau]`` by grid plus refinement.

    The grid has 65 points; 15 more, interior to the grid cells on either
    side of its maximum, refine it (80 samples in all).  A 1%
    inflation counters grid under-estimation of the true supremum when
    the value feeds an audit; pass ``inflate=0`` for the raw grid
    maximum.  ``tau`` must be nonnegative and finite.

    A semigroup with a generator skips a sample at ``t`` that the latest
    evaluated sample ``s <= t`` bounds below the running maximum:
    ``norm(T(t)) <= N(s) exp(omega (t - s))`` with ``N(s) = norm(T(s))``
    and ``omega`` the numerical abscissa (Lumer-Phillips), and the skip
    needs that bound, inflated by ``1e-6`` against rounding, below the
    maximum.  The latest ``s`` gives the lowest of these bounds, because
    ``N(s)`` obeys the bound of every earlier sample.  A skipped sample
    can be neither the maximum nor the first grid point that attains it,
    so the result and the refined cell are those of the full grid.  A
    dissipative generator (``omega < 0``) thus evaluates ``T(0) = I``
    alone; sampled semigroups have no ``omega`` and evaluate all 80
    samples.
    """
    tau = _nonnegative_finite(tau, "tau")
    omega = None if sem.generator is None else numerical_abscissa(sem.generator)
    times, values = [], []  # the evaluated samples, in time order
    top = -math.inf

    def norm_at(t):
        """``N(t)``, or ``-inf`` when the ``omega`` bound skips ``t``."""
        nonlocal top
        i = bisect.bisect_right(times, t)
        if omega is not None and i:
            x = omega * (t - times[i - 1])
            # math.exp overflows past 709; evaluating instead is always safe
            if x < 700.0 and values[i - 1] * math.exp(x) * (1.0 + 1e-6) < top:
                return -math.inf
        n = operator_norm(sem.eval(t))
        times.insert(i, t)
        values.insert(i, n)
        top = max(top, n)
        return n

    ts = np.linspace(0.0, tau, 65)
    norms = [norm_at(float(t)) for t in ts]
    k = int(np.argmax(norms))
    lo = ts[max(0, k - 1)]
    hi = ts[min(len(ts) - 1, k + 1)]
    # the refinement's end points are grid points, already evaluated
    for t in np.linspace(lo, hi, 17)[1:-1]:
        norms.append(norm_at(float(t)))
    return (1.0 + inflate) * max(norms)


# ---------------------------------------------------------------------------
# renorming constructions


def average_renorm(A, P_eq, tau1):
    """Orbit-averaged weight turning one-time contractivity into global.

    Given ``P_eq`` certifying ``norm(exp(tau1 A))_{P_eq} <= 1``, the
    average ``P_avg = (1/(M^2 tau1)) * integral exp(sA*) P_eq exp(sA) ds``
    over ``[0, tau1]`` satisfies the Lyapunov inequality exactly (the
    defect telescopes to the one-time contractivity), so it certifies
    ``norm(exp(tA))_{P_avg} <= 1`` for every ``t >= 0``.  The integral
    is :func:`~simgroup.opcore.gramian_integral`; the certificate's
    ``residual`` is the Lyapunov defect that
    :func:`~simgroup.weightsolve.certificate_check` recomputes.
    """
    return _average_renorm(A, P_eq, tau1)[0]


def _average_renorm(A, P_eq, tau1):
    """:func:`average_renorm`'s certificate with the semigroup and the raw ``M`` it used."""
    A = as_matrix(A, "generator")
    P_eq = as_matrix(P_eq, "P_eq")
    tau1 = _positive_finite(tau1, "tau1")
    sem = semigroup_from_generator(A)
    S_eq, Sinv_eq = weight_factors(P_eq)
    if operator_norm(S_eq @ sem.eval(tau1) @ Sinv_eq) > 1.0 + 1e-9:
        raise InvalidWeightError("P_eq does not certify contraction at tau1")
    M = sup_norm_on_interval(sem, tau1, inflate=0.0)
    P = gramian_integral(A, 0.5 * (P_eq + P_eq.conj().T), tau1) / (M * M * tau1)
    rep = certificate_check(WeightCertificate(P, 0.0, 0.0), LyapunovTarget(A, 0.0))
    return WeightCertificate(P, rep.kappa, rep.residual), sem, M


def average_renorm_factor_audit(A, P_eq, tau1, tau2=None):
    """Audit the factorization norms of the averaged renorming.

    The averaging argument factors ``T(t) = script_A U(t) iota`` with
    ``norm(iota) <= C(T(tau1))`` and ``norm(script_A) <= M^2
    sqrt(tau1/tau2)``; in weight terms ``norm(iota) = sqrt(eig_max(
    P_avg))`` (for ``P_eq`` normalized above the identity) and
    ``norm(script_A) = norm(T(tau2) P_avg^{-1/2})``.  The audited bound
    is the product against ``kappa(P_eq) M^2 sqrt(tau1/tau2)``; the raw
    condition number of ``P_avg`` obeys no such bound, so it is the
    factorization product that is audited.  ``P_avg`` is the exact
    orbit integral of :func:`average_renorm`, so the audit carries no
    quadrature error.
    """
    A = as_matrix(A, "generator")
    if tau2 is None:
        tau2 = tau1
    _positive_finite(tau2, "tau2")
    P_eq = as_matrix(P_eq, "P_eq")
    ev = np.linalg.eigvalsh(0.5 * (P_eq + P_eq.conj().T))
    P_eq = P_eq / ev[0]
    kappa_eq = math.sqrt(ev[-1] / ev[0])
    cert, sem, M = _average_renorm(A, P_eq, tau1)
    M = (1.0 + AUDIT_TOL) * M  # sup_norm_on_interval's inflation, without a second grid
    _, Sinv = weight_factors(cert.weight)
    iota = math.sqrt(float(np.linalg.eigvalsh(cert.weight)[-1]))
    amap = operator_norm(sem.eval(tau2) @ Sinv)
    lhs = iota * amap
    rhs = kappa_eq * M * M * math.sqrt(tau1 / tau2)
    return BoundAudit(
        name="average-renorm-factorization",
        lhs=lhs,
        rhs=rhs,
        inputs={"tau1": tau1, "tau2": tau2, "M": M, "kappa_eq": kappa_eq},
        status="satisfied" if lhs <= rhs * (1.0 + AUDIT_TOL) else "violated",
    )


def liapunov_renorm(A, a):
    """Equivalent-norm certificate for the envelope ``exp(a t)``.

    Requires ``a`` strictly above the spectral bound; composes the
    shifted similarity constant and re-checks its certificate with
    :func:`~simgroup.weightsolve.certificate_check`.  A defect ``A*P +
    PA - 2aP <= eps I`` with ``P >= I`` gives ``norm(exp(tA))_P <= exp((a
    + eps/2) t)`` for every ``t >= 0``.  The constant is bracketed to
    relative width ``1e-4``, and the certificate is rejected when ``eps``
    exceeds ``1e-2``.
    """
    A = as_matrix(A, "generator")
    if not a > growth_bound(A):
        raise StabilityError(
            f"envelope rate {a} is not above the spectral bound {growth_bound(A):.6g}"
        )
    v = quasi_similarity_constant(A, float(a), tol=1e-4)
    if not v.finite:
        raise StabilityError("no certificate found for a rate above the spectral bound")
    defect = certificate_check(v.certificate, LyapunovTarget(A, float(a))).residual
    if defect > 1e-2:
        raise StabilityError(f"certificate violates the envelope by {defect:.3g}")
    return v.certificate


# ---------------------------------------------------------------------------
# bound audits


@dataclass(frozen=True)
class BoundAudit:
    """One checked inequality: ``lhs <= rhs`` within the audit tolerance.

    ``status`` is ``satisfied``/``violated`` for a decided audit,
    ``vacuous`` when an ingredient was not finite, ``inconclusive`` when
    a defect series had not converged.
    """

    name: str
    lhs: float
    rhs: float
    inputs: dict
    status: str

    @property
    def satisfied(self):
        return self.status == "satisfied"

    def to_json(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "inputs": {k: v for k, v in self.inputs.items()},
            "satisfied": self.satisfied,
            "status": self.status,
        }


def simconst_bound_audit(A, lam, tau):
    """Audit the joint-constant bound assembled from shifted and one-time data.

    ``lhs`` is the joint constant; ``rhs = sqrt(2) C_shift (e^{2 lam} -
    1)/(2 lam) + 2 sqrt(2) C(T(tau)) M^2 max(1, sqrt(tau))`` with ``M``
    the supremum of the norms on ``[0, tau]``.  The right-hand side is
    never below ``3 sqrt(2)``.  Every constant is bracketed to relative
    width ``1e-3``.  Marked vacuous when any ingredient is unbounded.
    ``lam`` and ``tau`` must be positive and finite.
    """
    return _simconst_bound_audit(A, lam, tau)[0]


def _simconst_bound_audit(A, lam, tau):
    """:func:`simconst_bound_audit`, with ``T(tau)`` and its verdict ``C(T(tau))``."""
    A = as_matrix(A, "generator")
    lam = _positive_finite(lam, "lam")
    tau = _positive_finite(tau, "tau")
    joint = joint_similarity_constant(A, tol=_AUDIT_SOLVE_TOL)
    shifted = quasi_similarity_constant(A, lam, tol=_AUDIT_SOLVE_TOL)
    sem = semigroup_from_generator(A)
    T = sem.eval(tau)
    one_time = discrete_similarity_constant(T, tol=_AUDIT_SOLVE_TOL)
    inputs = {
        "lam": lam,
        "tau": tau,
        "joint": joint.constant,
        "shifted": shifted.constant,
        "one_time": one_time.constant,
    }
    if not (joint.finite and shifted.finite and one_time.finite):
        return BoundAudit("joint-constant-bound", math.inf, math.inf, inputs, "vacuous"), T, one_time
    M = sup_norm_on_interval(sem, tau)
    inputs["M"] = M
    rhs = math.sqrt(2.0) * shifted.constant * (math.exp(2.0 * lam) - 1.0) / (2.0 * lam)
    rhs += 2.0 * math.sqrt(2.0) * one_time.constant * M * M * max(1.0, math.sqrt(tau))
    lhs = joint.constant
    status = "satisfied" if lhs <= rhs * (1.0 + AUDIT_TOL) else "violated"
    return BoundAudit("joint-constant-bound", lhs, rhs, inputs, status), T, one_time


def factorization_from_certificate(T, cert, horizon):
    """Exact power factorization ``T^k = R^{-1} (R T R^{-1})^k R``.

    The inner operator is a contraction up to the certificate residual,
    making the quadratic-nearness bound an equality case.
    """
    T = as_matrix(T)
    S, Sinv = weight_factors(cert.weight)
    inner_op = S @ T @ Sinv

    def ev(t):
        return np.linalg.matrix_power(inner_op, int(round(t)))

    inner = sampled_semigroup(T.shape[0], ev, "renormed contraction powers", step=1.0)
    return HolbrookFactorization(amap=Sinv, bmap=S, inner=inner, horizon=int(horizon))


def holbrook_bound_audit(T, fact):
    """Audit the quadratic-nearness bound for a power factorization.

    ``rhs = norm(amap) norm(bmap) + sqrt(sum_k norm(T^k - amap S(k)
    bmap)^2)`` over ``k = 0..fact.horizon``, including the ``k = 0``
    term ``norm(I - amap bmap)``; ``lhs = C(T)`` is bracketed to relative
    width ``1e-3``.  The audit is inconclusive unless the defect tail (the
    last three terms) is below ``1e-10``, and vacuous when ``C(T)`` is
    unbounded.
    """
    return _holbrook_bound_audit(as_matrix(T), fact)


def _holbrook_bound_audit(T, fact, verdict=None):
    """:func:`holbrook_bound_audit` of a checked ``T``, given ``C(T)`` if already solved."""
    N = int(fact.horizon)
    for k in range(N + 1):
        if operator_norm(fact.inner.eval(float(k))) > 1.0 + 1e-9:
            raise InvalidWeightError("inner family is not contractive on the audited grid")
    defects = [fact.defect(T, k) for k in range(N + 1)]
    if verdict is None:
        verdict = discrete_similarity_constant(T, tol=_AUDIT_SOLVE_TOL)
    inputs = {
        "horizon": N,
        "amap_norm": operator_norm(fact.amap),
        "bmap_norm": operator_norm(fact.bmap),
        "defect_sum": math.sqrt(sum(d * d for d in defects)),
        "tail": max(defects[-3:]) if len(defects) >= 3 else max(defects),
    }
    if not verdict.finite:
        return BoundAudit("holbrook-nearness-bound", math.inf, math.inf, inputs, "vacuous")
    rhs = inputs["amap_norm"] * inputs["bmap_norm"] + inputs["defect_sum"]
    lhs = verdict.constant
    if inputs["tail"] > 1e-10:
        return BoundAudit("holbrook-nearness-bound", lhs, rhs, inputs, "inconclusive")
    status = "satisfied" if lhs <= rhs * (1.0 + AUDIT_TOL) else "violated"
    return BoundAudit("holbrook-nearness-bound", lhs, rhs, inputs, status)


# ---------------------------------------------------------------------------
# isometry and local commutation probes


@dataclass(frozen=True)
class IsometryReport:
    alpha: float
    beta: float
    positive: bool
    weight: Optional[np.ndarray]
    kappa: Optional[float]
    defect: Optional[float]


def nagy_isometry_test(A, t_grid=None):
    """Two-sided orbit bounds and the time-averaged isometry weight.

    ``alpha``/``beta`` are the extreme singular values of ``exp(tA)``
    over the grid; when ``alpha > 1e-6``, ``beta < 1e6`` and the norms
    do not climb at the end of the grid, the time average ``P = (1/T)
    integral exp(tA*) exp(tA) dt`` over the grid's last time ``T`` (the
    orbit integral :func:`~simgroup.opcore.gramian_integral`) renorms the
    semigroup toward an isometry, and the report carries the worst
    relative isometry defect ``max |norm(S E h) / norm(S h) - 1|`` over
    all vectors ``h`` and grid times, with ``S = P^{1/2}``: the largest
    distance from 1 of a singular value of ``S exp(tA) S^{-1}``.  A
    ``t_grid`` that is empty, holds a non-finite or negative time, or
    ends at a time that is not positive raises ``ValueError``.
    """
    A = as_matrix(A, "generator")
    sem = semigroup_from_generator(A)
    if t_grid is None:
        t_grid = np.linspace(0.25, 20.0, 33)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if not (t_grid.size and np.all(np.isfinite(t_grid)) and t_grid[0] >= 0.0 and t_grid[-1] > 0.0):
        raise ValueError(
            "t_grid must be nonempty and finite, with no negative time and a positive last "
            f"time, got {reprlib.repr(t_grid.tolist())}"
        )
    alpha = math.inf
    beta = 0.0
    norms = []
    values = [sem.eval(t) for t in t_grid]
    for E in values:
        sv = _singular_values(E)
        alpha = min(alpha, float(sv[-1]))
        norms.append(float(sv[0]))
        beta = max(beta, norms[-1])
    # norms still climbing at the end of the grid mean beta is a grid
    # artifact, not a bound for the half-line; windowed maxima are robust
    # against the oscillation of genuinely bounded groups
    fifth = max(1, len(norms) // 5)
    tail = max(norms[-fifth:])
    mid = max(norms[2 * fifth : 3 * fifth]) if len(norms) >= 5 else tail
    growing = tail > 1.1 * max(mid, 1e-300)
    positive = alpha > 1e-6 and beta < 1e6 and not growing
    if not positive:
        return IsometryReport(alpha, beta, False, None, None, None)
    T_max = float(t_grid[-1])
    P = gramian_integral(A, np.eye(A.shape[0]), T_max) / T_max
    ev = np.linalg.eigvalsh(P)
    kappa = math.sqrt(ev[-1] / ev[0])
    S, Sinv = weight_factors(P)
    defect = 0.0
    for E in values:
        sv = np.linalg.svd(S @ E @ Sinv, compute_uv=False)
        defect = max(defect, float(sv[0]) - 1.0, 1.0 - float(sv[-1]))
    return IsometryReport(alpha, beta, True, P, kappa, defect)


@dataclass(frozen=True)
class SlopeReport:
    slope: float
    intercept: float
    linear: bool


def local_commutation_slope(t_sem, s_sem, amap, t_grid):
    """Least-squares slope of ``norm(T(t) A - A S(t))`` near ``t = 0``.

    A vanishing fit intercept (at most ``1e-8`` of the largest distance,
    or of 1) flags the ``O(t)`` local-commutation behavior that transfers
    quasi-contractivity across ``amap``.
    """
    amap = _real_if_exact(amap)
    ts = np.asarray(sorted(float(t) for t in t_grid))
    if ts[0] <= 0 or ts[-1] > 1.0:
        raise ValueError("grid must lie in (0, 1]")
    ds = np.array(
        [operator_norm(t_sem.eval(t) @ amap - amap @ s_sem.eval(t)) for t in ts]
    )
    X = np.vstack([np.ones_like(ts), ts]).T
    coef, *_ = np.linalg.lstsq(X, ds, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    scale = max(1.0, float(np.max(ds)))
    return SlopeReport(slope, intercept, abs(intercept) <= 1e-8 * scale)
