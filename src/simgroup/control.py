"""Observability and controllability criteria through Gramians and means.

A generator-observation pair ``(A, C)`` is exactly observable on a
horizon when the observability Gramian ``G_tau = integral exp(sA*) C*C
exp(sA) ds`` is bounded below; together with ``T(tau)* T(tau)`` it
reproduces the two-sided orbit bounds that characterize similarity to
contraction (infinite horizon, stable case) and quasi-contraction
(finite horizon) semigroups.  The defect construction runs the bridge
in the other direction: a Lyapunov weight ``P`` yields an observation
``C`` with ``C*C = -(A*P + PA)`` whose Gramian telescopes back to ``P``.
Every finite-horizon Gramian and orbit mean is the one orbit integral
:func:`~simgroup.opcore.gramian_integral`, re-exported here.  The
resolvent means of Naboko's isometry criterion are evaluated both by
quadrature on the critical line and through their Plancherel form, which
reduces to a shifted Lyapunov solve.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, StabilityError
from .opcore import (
    as_matrix,
    gramian_integral,
    growth_bound,
    matrix_from_json,
    matrix_to_json,
    numerical_abscissa,
    operator_norm,
    semigroup_from_generator,
)
from .weightsolve import (
    LyapunovTarget,
    WeightCertificate,
    certificate_check,
    quasi_similarity_constant,
)

__all__ = [
    "ObservedSystem",
    "GramianReport",
    "gramian_integral",
    "observability_gramian",
    "finite_time_observability_test",
    "infinite_gramian",
    "defect_observation",
    "duality_check",
    "naboko_integral",
    "NabokoPoint",
    "cesaro_orbit_mean",
]

#: strict-stability margin demanded by infinite-horizon operations
STABILITY_MARGIN = -1e-10


@dataclass(frozen=True)
class ObservedSystem:
    """Generator-observation pair ``(A, C)`` with ``C`` mapping states to K."""

    A: np.ndarray
    C: np.ndarray
    label: str = ""

    def __post_init__(self):
        A = as_matrix(self.A, "generator")
        C = np.atleast_2d(np.asarray(self.C, dtype=complex))
        if C.shape[1] != A.shape[0]:
            raise DimensionError(
                f"observation has {C.shape[1]} columns for state dimension {A.shape[0]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)

    @property
    def dim(self):
        return self.A.shape[0]

    def to_json(self):
        return {"A": matrix_to_json(self.A), "C": _rect_to_json(self.C), "label": self.label}


def _rect_to_json(M):
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "re": [[float(x) for x in row] for row in M.real],
        "im": [[float(x) for x in row] for row in M.imag],
    }


def _rect_from_json(obj, name="C"):
    re = np.array(obj["re"], dtype=float)
    im = np.array(obj.get("im", np.zeros_like(re)), dtype=float)
    return re + 1j * im


def system_from_json(obj):
    """Decode ``{"A": matrix schema, "C": matrix-or-rectangular schema}``."""
    A = matrix_from_json(obj["A"], "A")
    C_obj = obj["C"]
    if "n" in C_obj:
        C = matrix_from_json(C_obj, "C")
    else:
        C = _rect_from_json(C_obj)
    return ObservedSystem(A, C, label=obj.get("label", ""))


@dataclass(frozen=True)
class GramianReport:
    """Gramian with the two-sided constants of the orbit bound.

    ``alpha``/``beta`` are the extreme eigenvalues of ``T(tau)* T(tau) +
    G_tau`` (for the infinite horizon, of the Gramian itself);
    ``admissible`` records the upper bound, ``exactly_observable`` the
    strict lower one.
    """

    horizon: float
    gramian: np.ndarray
    alpha: float
    beta: float
    admissible: bool
    exactly_observable: bool
    certificate: Optional[WeightCertificate] = None

    def to_json(self):
        return {
            "horizon": self.horizon if math.isfinite(self.horizon) else "inf",
            "gramian": matrix_to_json(self.gramian),
            "alpha": self.alpha,
            "beta": self.beta,
            "admissible": self.admissible,
            "exactly_observable": self.exactly_observable,
        }


def observability_gramian(sys, tau, obs_floor=1e-10):
    """Finite-horizon observability Gramian with its two-sided constants."""
    tau = float(tau)
    if tau <= 0:
        raise ValueError("horizon must be positive")
    G = gramian_integral(sys.A, sys.C.conj().T @ sys.C, tau)
    E = semigroup_from_generator(sys.A).eval(tau)
    H = E.conj().T @ E + G
    ev = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    alpha, beta = float(ev[0]), float(ev[-1])
    gev = np.linalg.eigvalsh(G)
    return GramianReport(
        horizon=tau,
        gramian=G,
        alpha=alpha,
        beta=beta,
        admissible=bool(np.isfinite(beta)),
        exactly_observable=bool(gev[0] > obs_floor * max(beta, 1.0)),
    )


def finite_time_observability_test(sys, tau, threshold=1e-10):
    """Positivity of ``T(tau)* T(tau) + G_tau``, the finite-time criterion.

    A positive verdict must co-occur with a finite shifted similarity
    constant (they characterize the same class), so the report carries
    one computed at the numerical abscissa where the certificate is
    immediate.
    """
    rep = observability_gramian(sys, tau)
    positive = rep.alpha > threshold * max(rep.beta, 1.0)
    shift = numerical_abscissa(sys.A)
    quasi = quasi_similarity_constant(sys.A, shift, tol=1e-3)
    return {
        "positive": bool(positive),
        "alpha": rep.alpha,
        "beta": rep.beta,
        "horizon": tau,
        "quasi_shift": shift,
        "quasi_constant": quasi.constant,
        "consistent": bool((not positive) or quasi.finite),
    }


def infinite_gramian(sys, residual_tol=1e-10):
    """Infinite-horizon Gramian ``P`` solving ``A*P + PA = -C*C``.

    Demands strict stability; when ``P`` is positive definite it is an
    equivalent-norm certificate making the semigroup contractive.  The
    certificate is attached to the report with the Lyapunov defect that
    :func:`~simgroup.weightsolve.certificate_check` recomputes as its
    ``residual``.
    """
    gb = growth_bound(sys.A)
    if gb >= STABILITY_MARGIN:
        raise StabilityError(
            f"infinite horizon requires growth bound < {STABILITY_MARGIN}, got {gb:.3g}"
        )
    Q = sys.C.conj().T @ sys.C
    P = scipy.linalg.solve_continuous_lyapunov(sys.A.conj().T, -Q)
    P = 0.5 * (P + P.conj().T)
    resid = operator_norm(sys.A.conj().T @ P + P @ sys.A + Q)
    scale = max(1.0, operator_norm(Q), operator_norm(P) * operator_norm(sys.A))
    if not np.all(np.isfinite(P)) or resid > residual_tol * scale:
        raise StabilityError(f"Lyapunov solve residual {resid:.3g} too large")
    ev = np.linalg.eigvalsh(P)
    alpha, beta = float(ev[0]), float(ev[-1])
    pd = alpha > 1e-12 * max(beta, 1.0)
    cert = None
    if pd:
        rep = certificate_check(WeightCertificate(P / alpha, 0.0, 0.0), LyapunovTarget(sys.A, 0.0))
        cert = WeightCertificate(P / alpha, rep.kappa, rep.residual)
    return GramianReport(
        horizon=math.inf,
        gramian=P,
        alpha=alpha,
        beta=beta,
        admissible=True,
        exactly_observable=pd,
        certificate=cert,
    )


def defect_observation(A, P, dissipativity_tol=1e-10):
    """Observation operator with ``C*C = -(A*P + PA)`` for a Lyapunov weight.

    ``C`` is the PSD square root of the (negated) Lyapunov defect; the
    Gramian identity ``integral_0^t norm(C exp(sA) h)^2 ds = norm(h)_P^2
    - norm(exp(tA) h)_P^2`` then holds exactly.
    """
    A = as_matrix(A, "generator")
    P = as_matrix(P, "weight")
    D = A.conj().T @ P + P @ A
    D = 0.5 * (D + D.conj().T)
    w, U = np.linalg.eigh(D)
    scale = max(1.0, operator_norm(P) * operator_norm(A))
    if w[-1] > dissipativity_tol * scale:
        raise StabilityError(
            f"weight is not dissipative for the generator (defect {w[-1]:.3g})"
        )
    return (U * np.sqrt(np.clip(-w, 0.0, None))) @ U.conj().T


def duality_check(sys, tau):
    """Residual of the identity that ties the Gramian to the semigroup.

    For every generator ``A`` the observability Gramian ``G`` on
    ``[0, tau]`` satisfies

        A* G + G A = exp(tau A*) C*C exp(tau A) - C*C,

    the integral of the derivative of ``exp(sA*) C*C exp(sA)``.  The right
    side needs one semigroup evaluation and no quadrature, so it checks
    the block-exponential Gramian along an independent route.
    ``residual`` is the identity's defect relative to the size of its
    terms.  The identity determines ``G`` wherever ``A`` and ``-A*``
    share no eigenvalue; for ``A = 0`` it holds for every ``G``.
    """
    tau = float(tau)
    Q = sys.C.conj().T @ sys.C
    G = gramian_integral(sys.A, Q, tau)
    return {
        "horizon": tau,
        "residual": _gramian_identity_residual(sys.A, Q, G, tau),
        "obs_eigs": np.linalg.eigvalsh(0.5 * (G + G.conj().T)).tolist(),
    }


def _gramian_identity_residual(A, Q, G, tau):
    """Relative defect of ``A* G + G A = exp(tau A*) Q exp(tau A) - Q``."""
    if G.shape != A.shape:
        raise DimensionError("gramian and generator dimensions differ")
    E = semigroup_from_generator(A).eval(tau)
    defect = A.conj().T @ G + G @ A - (E.conj().T @ Q @ E - Q)
    scale = max(
        1.0,
        2.0 * operator_norm(A) * operator_norm(G),
        (operator_norm(E) ** 2 + 1.0) * operator_norm(Q),
    )
    return operator_norm(defect) / scale


# ---------------------------------------------------------------------------
# resolvent means (isometry criterion)


@dataclass(frozen=True)
class NabokoPoint:
    eps: float
    quad_min: float
    quad_max: float
    plancherel_min: float
    plancherel_max: float

    @property
    def relative_gap(self):
        ref = max(self.plancherel_max, 1e-300)
        return max(
            abs(self.quad_max - self.plancherel_max),
            abs(self.quad_min - self.plancherel_min),
        ) / ref


def _gauss_panel(f, lo, hi, nodes, wts):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * sum(w * f(mid + half * x) for x, w in zip(nodes, wts))


def _adaptive_line_integral(f, lo, hi, rel_tol, max_depth=12):
    """Adaptive Gauss-Legendre on a line segment with interval halving."""
    nodes, wts = np.polynomial.legendre.leggauss(8)
    nodes2, wts2 = np.polynomial.legendre.leggauss(16)

    def recurse(a, b, depth):
        coarse = _gauss_panel(f, a, b, nodes, wts)
        fine = _gauss_panel(f, a, b, nodes2, wts2)
        if abs(fine - coarse) <= rel_tol * max(abs(fine), 1e-300) or depth >= max_depth:
            return fine
        m = 0.5 * (a + b)
        return recurse(a, m, depth + 1) + recurse(m, b, depth + 1)

    return recurse(lo, hi, 0)


def naboko_integral(A, eps_list, C=None, xi_max=200.0, quad_m=32, rel_tol=1e-6):
    """Two-sided resolvent means ``eps * integral norm(C R(eps+i xi) h)^2``.

    For each ``eps`` the line integral over ``[-xi_max, xi_max]`` is
    evaluated by adaptive quadrature for every basis probe ``h`` and
    cross-checked against the Plancherel form ``2 pi eps * integral
    exp(-2 eps t) norm(C T(t) h)^2 dt``, which collapses to the shifted
    Lyapunov solve ``(A - eps)* X + X (A - eps) = -C*C``.  Both the
    extremes over probes and the relative agreement are reported.
    """
    A = as_matrix(A, "generator")
    if growth_bound(A) > 1e-10:
        raise StabilityError("spectrum must lie in the closed left half-plane")
    n = A.shape[0]
    if C is None:
        C = np.eye(n, dtype=complex)
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    if C.shape[1] != n:
        raise DimensionError("observation dimension mismatch")
    Q = C.conj().T @ C
    # resolvent applications via a cached eigendecomposition when safe
    try:
        w_eig, V = np.linalg.eig(A)
        Vinv = np.linalg.inv(V)
        use_eig = np.linalg.cond(V) < 1e8
    except np.linalg.LinAlgError:
        use_eig = False

    def resolvent_apply(z, h):
        if use_eig:
            return V @ ((Vinv @ h) / (z - w_eig))
        return np.linalg.solve(z * np.eye(n) - A, h)

    out = []
    basis = np.eye(n, dtype=complex)
    panels = max(4, int(quad_m) // 8)
    for eps in eps_list:
        eps = float(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        X = scipy.linalg.solve_continuous_lyapunov(
            (A - eps * np.eye(n)).conj().T, -Q
        )
        X = 0.5 * (X + X.conj().T)
        quad_vals = []
        plan_vals = []
        edges = np.linspace(-xi_max, xi_max, panels + 1)
        for j in range(n):
            h = basis[:, j]

            def f(xi, h=h):
                r = C @ resolvent_apply(eps + 1j * xi, h)
                return float(np.real(np.vdot(r, r)))

            val = sum(
                _adaptive_line_integral(f, edges[i], edges[i + 1], rel_tol)
                for i in range(panels)
            )
            quad_vals.append(eps * val)
            plan_vals.append(2.0 * math.pi * eps * float(np.real(np.vdot(h, X @ h))))
        out.append(
            NabokoPoint(
                eps=eps,
                quad_min=min(quad_vals),
                quad_max=max(quad_vals),
                plancherel_min=min(plan_vals),
                plancherel_max=max(plan_vals),
            )
        )
    return out


def cesaro_orbit_mean(A, C=None, t_max=50.0):
    """Two-sided extremes of ``(1/t) integral norm(C T(s) h)^2 ds`` over unit ``h``.

    The mean is the quadratic form of ``G_t / t`` with the Gramian
    ``G_t``, so its extremes over unit vectors are that matrix's extreme
    eigenvalues.  They are evaluated at a tail of horizons; the reported
    pair bounds the liminf and limsup estimates.  A positive lower
    estimate is the mean form of the isometry criterion.
    """
    A = as_matrix(A, "generator")
    n = A.shape[0]
    if C is None:
        C = np.eye(n, dtype=complex)
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    Q = C.conj().T @ C
    horizons = [0.5 * t_max, 0.75 * t_max, t_max]
    lows, highs = [], []
    for tau in horizons:
        w = np.linalg.eigvalsh(gramian_integral(A, Q, tau) / tau)
        lows.append(float(w[0]))
        highs.append(float(w[-1]))
    return {
        "liminf_estimate": min(lows),
        "limsup_estimate": max(highs),
        "per_horizon": list(zip(horizons, lows, highs)),
    }
