"""Executable audits of the similarity characterizations and bounds.

The joint similarity constant of ``exp(tA)`` equals the limit of the
individual constants ``C(exp(tA))`` as ``t -> 0`` and of the resolvent
constants ``C(lam (lam - A)^{-1})`` as ``lam -> infinity``; this module
computes those curves, classifies a semigroup (or a truncation family)
into the three similarity regimes, constructs the averaging renormings
behind the quantitative bounds, and audits the bounds themselves.  An
audit compares an independently computed left-hand side against the
assembled right-hand side; with every ingredient finite the inequality
is a theorem, so a violated audit indicates a defect in the
implementation, not in the data.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InvalidWeightError, StabilityError
from .opcore import (
    MatrixSemigroup,
    as_matrix,
    gramian_integral,
    growth_bound,
    min_singular_value,
    numerical_abscissa,
    operator_norm,
    resolvent,
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
from .opcore import sampled_semigroup

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
    sem = semigroup_from_generator(A)
    if t_grid is None:
        scale = max(1.0, operator_norm(A))
        t_grid = np.geomspace(1e-3, 2.0, 6) / scale
    pts = []
    for t in sorted(float(t) for t in t_grid):
        if t <= 0:
            raise ValueError("time grid must be positive")
        try:
            v = discrete_similarity_constant(sem.eval(t), tol=tol, kappa_max=kappa_max)
            pts.append(CurvePoint(t, v))
        except Exception as exc:  # propagate per point
            pts.append(CurvePoint(t, None, error=str(exc)))
    return ConstantCurve("time", tuple(pts))


def resolvent_constants(A, lam_grid, tol=1e-4, kappa_max=1e6):
    """Curve ``lam -> C(lam (lam - A)^{-1})`` over positive shifts.

    Points where ``lam`` hits the spectrum carry an error entry instead
    of a verdict; the constant at the largest shift estimates the joint
    constant.
    """
    A = as_matrix(A, "generator")
    pts = []
    for lam in sorted(float(x) for x in lam_grid):
        if lam <= 0:
            raise ValueError("resolvent grid must be positive")
        try:
            R = lam * resolvent(A, lam)
            v = discrete_similarity_constant(R, tol=tol, kappa_max=kappa_max)
            pts.append(CurvePoint(lam, v))
        except Exception as exc:
            pts.append(CurvePoint(lam, None, error=str(exc)))
    return ConstantCurve("resolvent", tuple(pts))


@dataclass(frozen=True)
class TrichotomyReport:
    """Classification into the three mutually exclusive similarity regimes.

    ``SimilarContraction`` carries a finite joint constant agreeing with
    the supremum of the time curve; ``TailOnlySimilar`` has finite
    individual constants but no joint certificate within budget;
    ``NeverSimilar`` has spectral evidence at every sampled time.  For a
    supplied truncation family only the growth of the constants across
    the family is asserted, never an infinite-dimensional case.
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
        elif hasattr(member, "generator"):
            v = joint_similarity_constant(member.generator, tol=tol, kappa_max=kappa_max)
        else:
            raise ValueError("sampled member without step or generator")
        return v
    return joint_similarity_constant(as_matrix(member), tol=tol, kappa_max=kappa_max)


def classify(generator, t_grid=None, kappa_max=1e6, family=None, tol=1e-3):
    """Trichotomy classification of one semigroup, with optional family.

    ``generator`` is the matrix generator to classify, or None when only
    the family is reported (``case``, ``joint`` and both curves are then
    None); ``family`` is an optional sequence of generators or gridded
    semigroups (truncations of one construction) whose constants are
    reported as a growth curve.
    """
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
        else:
            finite_pts = [p for p in curve.points if p.verdict is not None and p.verdict.finite]
            if finite_pts:
                case = "TailOnlySimilar"
                notes = "individual constants finite; no joint certificate within budget"
            else:
                case = "NeverSimilar"
                notes = "no sampled time admits a contraction renorming"
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
    clear of the spectrum.
    """
    A = as_matrix(A, "generator")
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    shift = n / t
    M = shift * resolvent(A, shift)
    return np.linalg.matrix_power(M, n)


def sup_norm_on_interval(sem, tau, points=64, inflate=AUDIT_TOL):
    """Estimate ``sup norm(T(t))`` on ``[0, tau]`` by grid plus refinement.

    A 1% inflation counters grid under-estimation of the true supremum
    when the value feeds an audit; pass ``inflate=0`` for the raw grid
    maximum.
    """
    ts = np.linspace(0.0, tau, points + 1)
    norms = [operator_norm(sem.eval(t)) for t in ts]
    k = int(np.argmax(norms))
    lo = ts[max(0, k - 1)]
    hi = ts[min(len(ts) - 1, k + 1)]
    for t in np.linspace(lo, hi, 17):
        norms.append(operator_norm(sem.eval(float(t))))
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
    A = as_matrix(A, "generator")
    tau1 = float(tau1)
    if tau1 <= 0:
        raise ValueError("tau1 must be positive")
    sem = semigroup_from_generator(A)
    S_eq, Sinv_eq = weight_factors(P_eq)
    if operator_norm(S_eq @ sem.eval(tau1) @ Sinv_eq) > 1.0 + 1e-9:
        raise InvalidWeightError("P_eq does not certify contraction at tau1")
    M = sup_norm_on_interval(sem, tau1, inflate=0.0)
    P_eq = np.asarray(P_eq, dtype=complex)
    P = gramian_integral(A, 0.5 * (P_eq + P_eq.conj().T), tau1) / (M * M * tau1)
    rep = certificate_check(WeightCertificate(P, 0.0, 0.0), LyapunovTarget(A, 0.0))
    return WeightCertificate(P, rep.kappa, rep.residual)


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
    P_eq = np.asarray(P_eq, dtype=complex)
    ev = np.linalg.eigvalsh(0.5 * (P_eq + P_eq.conj().T))
    P_eq = P_eq / ev[0]
    kappa_eq = math.sqrt(ev[-1] / ev[0])
    cert = average_renorm(A, P_eq, tau1)
    sem = semigroup_from_generator(A)
    M = sup_norm_on_interval(sem, tau1)
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


def liapunov_renorm(A, a, tol=1e-4):
    """Equivalent-norm certificate for the envelope ``exp(a t)``.

    Requires ``a`` strictly above the spectral bound; composes the
    shifted similarity constant and re-checks its certificate with
    :func:`~simgroup.weightsolve.certificate_check`.  A defect ``A*P +
    PA - 2aP <= eps I`` with ``P >= I`` gives ``norm(exp(tA))_P <= exp((a
    + eps/2) t)`` for every ``t >= 0``; the certificate is rejected when
    ``eps`` exceeds ``100 max(tol, 1e-9)``.
    """
    A = as_matrix(A, "generator")
    if not a > growth_bound(A):
        raise StabilityError(
            f"envelope rate {a} is not above the spectral bound {growth_bound(A):.6g}"
        )
    v = quasi_similarity_constant(A, float(a), tol=tol)
    if not v.finite:
        raise StabilityError("no certificate found for a rate above the spectral bound")
    defect = certificate_check(v.certificate, LyapunovTarget(A, float(a))).residual
    if defect > 100 * max(tol, 1e-9):
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


def simconst_bound_audit(A, lam, tau, tol=1e-3, kappa_max=1e6):
    """Audit the joint-constant bound assembled from shifted and one-time data.

    ``lhs`` is the joint constant; ``rhs = sqrt(2) C_shift (e^{2 lam} -
    1)/(2 lam) + 2 sqrt(2) C(T(tau)) M^2 max(1, sqrt(tau))`` with ``M``
    the supremum of the norms on ``[0, tau]``.  The right-hand side is
    never below ``3 sqrt(2)``.  Marked vacuous when any ingredient is
    unbounded.
    """
    A = as_matrix(A, "generator")
    lam = float(lam)
    tau = float(tau)
    if lam <= 0 or tau <= 0:
        raise ValueError("lam and tau must be positive")
    joint = joint_similarity_constant(A, tol=tol, kappa_max=kappa_max)
    shifted = quasi_similarity_constant(A, lam, tol=tol, kappa_max=kappa_max)
    sem = semigroup_from_generator(A)
    one_time = discrete_similarity_constant(sem.eval(tau), tol=tol, kappa_max=kappa_max)
    inputs = {
        "lam": lam,
        "tau": tau,
        "joint": joint.constant,
        "shifted": shifted.constant,
        "one_time": one_time.constant,
    }
    if not (joint.finite and shifted.finite and one_time.finite):
        return BoundAudit("joint-constant-bound", math.inf, math.inf, inputs, "vacuous")
    M = sup_norm_on_interval(sem, tau)
    inputs["M"] = M
    rhs = math.sqrt(2.0) * shifted.constant * (math.exp(2.0 * lam) - 1.0) / (2.0 * lam)
    rhs += 2.0 * math.sqrt(2.0) * one_time.constant * M * M * max(1.0, math.sqrt(tau))
    lhs = joint.constant
    status = "satisfied" if lhs <= rhs * (1.0 + AUDIT_TOL) else "violated"
    return BoundAudit("joint-constant-bound", lhs, rhs, inputs, status)


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


def holbrook_bound_audit(T, fact, horizon=None, tol=1e-3, kappa_max=1e6, tail_tol=1e-10):
    """Audit the quadratic-nearness bound for a power factorization.

    ``rhs = norm(amap) norm(bmap) + sqrt(sum_k norm(T^k - amap S(k)
    bmap)^2)`` including the ``k = 0`` term ``norm(I - amap bmap)``;
    the audit is inconclusive unless the defect tail has numerically
    converged, and vacuous when ``C(T)`` is unbounded.
    """
    T = as_matrix(T)
    N = int(horizon if horizon is not None else fact.horizon)
    for k in range(N + 1):
        if operator_norm(fact.inner.eval(float(k))) > 1.0 + 1e-9:
            raise InvalidWeightError("inner family is not contractive on the audited grid")
    defects = [fact.defect(T, k) for k in range(N + 1)]
    verdict = discrete_similarity_constant(T, tol=tol, kappa_max=kappa_max)
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
    if inputs["tail"] > tail_tol:
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


def nagy_isometry_test(A, t_grid=None, alpha_floor=1e-6, beta_cap=1e6):
    """Two-sided orbit bounds and the time-averaged isometry weight.

    ``alpha``/``beta`` are the extreme singular values of ``exp(tA)``
    over the grid; when they are bounded away from zero and infinity the
    time average ``P = (1/T) integral exp(tA*) exp(tA) dt`` over the
    grid's last time ``T`` (the orbit integral
    :func:`~simgroup.opcore.gramian_integral`) renorms the
    semigroup toward an isometry, and the report carries the worst
    relative isometry defect ``max |norm(S E h) / norm(S h) - 1|`` over
    all vectors ``h`` and grid times, with ``S = P^{1/2}``: the largest
    distance from 1 of a singular value of ``S exp(tA) S^{-1}``.
    """
    A = as_matrix(A, "generator")
    sem = semigroup_from_generator(A)
    if t_grid is None:
        t_grid = np.linspace(0.25, 20.0, 33)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    alpha = math.inf
    beta = 0.0
    norms = []
    for t in t_grid:
        E = sem.eval(t)
        alpha = min(alpha, min_singular_value(E))
        norms.append(operator_norm(E))
        beta = max(beta, norms[-1])
    # norms still climbing at the end of the grid mean beta is a grid
    # artifact, not a bound for the half-line; windowed maxima are robust
    # against the oscillation of genuinely bounded groups
    fifth = max(1, len(norms) // 5)
    tail = max(norms[-fifth:])
    mid = max(norms[2 * fifth : 3 * fifth]) if len(norms) >= 5 else tail
    growing = tail > 1.1 * max(mid, 1e-300)
    positive = alpha > alpha_floor and beta < beta_cap and not growing
    if not positive:
        return IsometryReport(alpha, beta, False, None, None, None)
    T_max = float(t_grid[-1])
    P = gramian_integral(A, np.eye(A.shape[0]), T_max) / T_max
    ev = np.linalg.eigvalsh(P)
    kappa = math.sqrt(ev[-1] / ev[0])
    S, Sinv = weight_factors(P)
    defect = 0.0
    for t in t_grid:
        sv = np.linalg.svd(S @ sem.eval(t) @ Sinv, compute_uv=False)
        defect = max(defect, float(sv[0]) - 1.0, 1.0 - float(sv[-1]))
    return IsometryReport(alpha, beta, True, P, kappa, defect)


@dataclass(frozen=True)
class SlopeReport:
    slope: float
    intercept: float
    linear: bool


def local_commutation_slope(t_sem, s_sem, amap, t_grid, intercept_tol=1e-8):
    """Least-squares slope of ``norm(T(t) A - A S(t))`` near ``t = 0``.

    A vanishing fit intercept flags the ``O(t)`` local-commutation
    behavior that transfers quasi-contractivity across ``amap``.
    """
    amap = np.asarray(amap, dtype=complex)
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
    return SlopeReport(slope, intercept, abs(intercept) <= intercept_tol * scale)
