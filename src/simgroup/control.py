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
:func:`~simgroup.opcore.gramian_integral`, re-exported here.  Its
doublings also end on ``T(tau)``, which the finite-horizon Gramian reads
instead of evaluating the semigroup again, and one block exponential at
``t_max/4`` serves every Cesàro horizon through the composition law
``G_{s+t} = G_s + T(s)* G_t T(s)``.  The Gramian identity check alone
evaluates ``T(tau)`` apart from the doublings, through
:func:`~simgroup.opcore.semigroup_from_generator`, so that its route
stays independent.  The resolvent means of Naboko's isometry criterion
are evaluated both by quadrature on the critical line and through their
Plancherel form, which reduces to a shifted Lyapunov solve.  ``A`` and
the rectangular ``C`` take the field :func:`~simgroup.opcore.as_matrix`
decides, so a real pair gives float64 Gramians and weights.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, InputFormatError, SaturationError, StabilityError
from .opcore import (
    _orbit_integral,
    _positive_finite,
    _real_if_exact,
    as_matrix,
    gramian_integral,
    growth_bound,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    semigroup_from_generator,
)
from .weightsolve import (
    LyapunovTarget,
    WeightCertificate,
    certificate_check,
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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", _observation(self.C, A.shape[0]))

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


def _observation(C, n):
    """``C`` as a float64 or complex128 matrix with ``n`` columns, all entries finite.

    A 1-D ``C`` is one row.  Any other shape, or a non-finite entry,
    raises :class:`~simgroup.exceptions.DimensionError`.
    """
    C = np.atleast_2d(_real_if_exact(C))
    if C.ndim != 2 or C.shape[1] != n:
        raise DimensionError(
            f"observation must be a matrix with {n} columns (the state dimension), got shape {C.shape}"
        )
    if not np.all(np.isfinite(C)):
        raise DimensionError("observation contains non-finite entries")
    return C


def _rect_from_json(obj, name="C"):
    """Decode ``{"rows", "cols", "re", "im"}``; the data must be ``rows x cols``."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj.get("im")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{name}: missing or invalid fields: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise InputFormatError(f"{name}: rows and cols must be positive")
    for part, label in ((re, "re"), (im, "im")):
        if part is not None and not (
            isinstance(part, list)
            and len(part) == rows
            and all(isinstance(row, list) and len(row) == cols for row in part)
        ):
            raise InputFormatError(f"{name}: {label} must be {rows} rows of {cols} entries")
    C = np.array(re, dtype=complex)
    if im is not None:
        # set, not 1j * im, which makes an infinite part a NaN one with a warning
        C.imag = np.array(im, dtype=float)
    return C


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
    G_tau`` (for the infinite horizon, of the Gramian itself), both
    finite; ``exactly_observable`` records the strict lower bound.
    """

    horizon: float
    gramian: np.ndarray
    alpha: float
    beta: float
    exactly_observable: bool
    certificate: Optional[WeightCertificate] = None

    def to_json(self):
        return {
            "horizon": self.horizon if math.isfinite(self.horizon) else "inf",
            "gramian": matrix_to_json(self.gramian),
            "alpha": self.alpha,
            "beta": self.beta,
            "exactly_observable": self.exactly_observable,
        }


def observability_gramian(sys, tau):
    """Finite-horizon observability Gramian with its two-sided constants.

    ``T(tau)`` is the one the Gramian's doublings end on, so the
    semigroup is not evaluated again.  The pair is exactly observable
    when the Gramian's smallest eigenvalue exceeds ``1e-10 max(beta,
    1)``.  A Gramian or ``T(tau)* T(tau)`` beyond the floating-point
    range raises :class:`~simgroup.exceptions.SaturationError`.
    """
    tau = float(tau)
    if tau <= 0:
        raise ValueError("horizon must be positive")
    G, E = _orbit_integral(sys.A, sys.C.conj().T @ sys.C, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        H = E.conj().T @ E + G
    if not np.all(np.isfinite(H)):
        raise SaturationError(f"T(tau)* T(tau) at tau = {tau:.6g} overflows the floating range")
    ev = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    alpha, beta = float(ev[0]), float(ev[-1])
    gev = np.linalg.eigvalsh(G)
    return GramianReport(
        horizon=tau,
        gramian=G,
        alpha=alpha,
        beta=beta,
        exactly_observable=bool(gev[0] > 1e-10 * max(beta, 1.0)),
    )


def finite_time_observability_test(sys, tau):
    """Positivity of ``T(tau)* T(tau) + G_tau``, the finite-time criterion.

    ``positive`` means ``alpha > 1e-10 max(beta, 1)``.  Its counterpart,
    a finite shifted similarity constant, holds for every generator at
    the numerical abscissa, where ``P = I`` certifies.
    """
    rep = observability_gramian(sys, tau)
    return {
        "positive": bool(rep.alpha > 1e-10 * max(rep.beta, 1.0)),
        "alpha": rep.alpha,
        "beta": rep.beta,
        "horizon": tau,
    }


def infinite_gramian(sys):
    """Infinite-horizon Gramian ``P`` solving ``A*P + PA = -C*C``.

    Demands strict stability and a solve residual within ``1e-10`` of the
    terms' scale; when ``P`` is positive definite it is an
    equivalent-norm certificate making the semigroup contractive.  The
    certificate is attached to the report with the Lyapunov defect that
    :func:`~simgroup.weightsolve.certificate_check` recomputes as its
    ``residual``.  One Schur form of ``A*`` serves both the stability test
    and the solve, which is Bartels-Stewart as in
    ``scipy.linalg.solve_continuous_lyapunov``: the growth bound is read
    off its diagonal (LAPACK standardizes a real 2x2 block to equal
    diagonal entries, the real part of its eigenvalue pair), so no
    separate eigenvalue computation is made.
    """
    r, u = scipy.linalg.schur(sys.A.conj().T, output="real")
    gb = float(np.max(np.diag(r).real))
    if gb >= STABILITY_MARGIN:
        raise StabilityError(
            f"infinite horizon requires growth bound < {STABILITY_MARGIN}, got {gb:.3g}"
        )
    Q = sys.C.conj().T @ sys.C
    f = u.conj().T.dot((-Q).dot(u))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (r, f))
    y, scale, _ = trsyl(r, r, f, tranb="C" if np.iscomplexobj(f) else "T")
    y *= scale
    P = u.dot(y).dot(u.conj().T)
    P = 0.5 * (P + P.conj().T)
    resid = operator_norm(sys.A.conj().T @ P + P @ sys.A + Q)
    scale = max(1.0, operator_norm(Q), operator_norm(P) * operator_norm(sys.A))
    if not np.all(np.isfinite(P)) or resid > 1e-10 * scale:
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
        exactly_observable=pd,
        certificate=cert,
    )


def defect_observation(A, P):
    """Observation operator with ``C*C = -(A*P + PA)`` for a Lyapunov weight.

    The defect may exceed zero by ``1e-10 max(1, norm(P) norm(A))``.
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
    if w[-1] > 1e-10 * scale:
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


#: Gauss-Legendre rules of 8 and 16 nodes on [-1, 1]: the coarse and the
#: fine estimate of each panel of :func:`_adaptive_line_integrals`.
_GAUSS_COARSE = np.polynomial.legendre.leggauss(8)
_GAUSS_FINE = np.polynomial.legendre.leggauss(16)
_GAUSS_NODES = np.concatenate([_GAUSS_COARSE[0], _GAUSS_FINE[0]])


def _adaptive_line_integrals(f, lo, hi, probes, rel_tol, max_depth=12):
    """Adaptive Gauss-Legendre of several integrands on a line segment, with interval halving.

    ``f(nodes, active)`` maps an array of nodes and a list of probes to
    the ``(len(active), nodes.size)`` integrand values; both rules' nodes
    on a panel are evaluated in one call, for every probe still refining
    that panel.  Each probe halves a panel on its own estimates and adds
    its halves as a recursion of its own would, so its integral does not
    depend on which other probes share the calls.  Returns one integral
    per entry of ``probes``.
    """
    k = _GAUSS_COARSE[0].size

    def recurse(a, b, depth, active):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        out = []
        split = []
        for i, v in enumerate(f(mid + half * _GAUSS_NODES, active)):
            coarse = half * float(_GAUSS_COARSE[1] @ v[:k])
            fine = half * float(_GAUSS_FINE[1] @ v[k:])
            out.append(fine)
            if not (abs(fine - coarse) <= rel_tol * max(abs(fine), 1e-300) or depth >= max_depth):
                split.append(i)
        if split:
            sub = [active[i] for i in split]
            halves = zip(recurse(a, mid, depth + 1, sub), recurse(mid, b, depth + 1, sub))
            for i, (left, right) in zip(split, halves):
                out[i] = left + right
        return out

    return np.array(recurse(lo, hi, 0, list(probes)))


def naboko_integral(A, eps_list, C=None, xi_max=200.0, quad_m=32):
    """Two-sided resolvent means ``eps * integral norm(C R(eps+i xi) h)^2``.

    For each ``eps`` the line integral over ``[-xi_max, xi_max]`` is
    evaluated by adaptive quadrature (relative panel tolerance ``1e-6``)
    for every basis probe ``h`` and
    cross-checked against the Plancherel form ``2 pi eps * integral
    exp(-2 eps t) norm(C T(t) h)^2 dt``, which collapses to the shifted
    Lyapunov solve ``(A - eps)* X + X (A - eps) = -C*C``.  Both the
    extremes over probes and the relative agreement are reported; each
    ``eps`` and ``xi_max`` must be positive and finite, and ``C`` (the
    identity by default) a finite matrix with ``n`` columns.  The probes share
    each panel's resolvent evaluation: one product (or one stacked solve)
    serves every probe still refining the panel, and each probe keeps its
    own refinement and summation, as if integrated alone.
    """
    A = as_matrix(A, "generator")
    xi_max = _positive_finite(xi_max, "xi_max")
    if growth_bound(A) > 1e-10:
        raise StabilityError("spectrum must lie in the closed left half-plane")
    n = A.shape[0]
    C = np.eye(n) if C is None else _observation(C, n)
    Q = C.conj().T @ C
    # C R(z) e_j for a vector of nodes z and of probes j, one column per
    # (probe, node): through a cached eigendecomposition when safe, else
    # by stacked solves
    try:
        w_eig, V = np.linalg.eig(A)
        Vinv = np.linalg.inv(V)
        use_eig = np.linalg.cond(V) < 1e8
    except np.linalg.LinAlgError:
        use_eig = False
    I = np.eye(n)
    CV = C @ V if use_eig else None

    def resolvent_columns(z, probes):
        if use_eig:
            X = Vinv[:, probes, None] / (z[None, None, :] - w_eig[:, None, None])
            return CV @ X.reshape(n, -1)
        rhs = np.broadcast_to(I[:, probes], (z.size, n, len(probes)))
        X = np.linalg.solve(z[:, None, None] * I - A, rhs)
        return C @ X.transpose(1, 2, 0).reshape(n, -1)

    out = []
    panels = max(4, int(quad_m) // 8)
    for eps in eps_list:
        eps = _positive_finite(eps, "eps")
        X = scipy.linalg.solve_continuous_lyapunov(
            (A - eps * np.eye(n)).conj().T, -Q
        )
        X = 0.5 * (X + X.conj().T)
        edges = np.linspace(-xi_max, xi_max, panels + 1)

        def f(xi, probes):
            R = resolvent_columns(eps + 1j * xi, probes)
            return (R.real**2 + R.imag**2).sum(axis=0).reshape(len(probes), xi.size)

        val = sum(
            _adaptive_line_integrals(f, edges[i], edges[i + 1], range(n), 1e-6)
            for i in range(panels)
        )
        quad_vals = eps * val
        plan_vals = 2.0 * math.pi * eps * X.diagonal().real
        out.append(
            NabokoPoint(
                eps=eps,
                quad_min=float(quad_vals.min()),
                quad_max=float(quad_vals.max()),
                plancherel_min=float(plan_vals.min()),
                plancherel_max=float(plan_vals.max()),
            )
        )
    return out


def cesaro_orbit_mean(A, C=None, t_max=50.0):
    """Two-sided extremes of ``(1/t) integral norm(C T(s) h)^2 ds`` over unit ``h``.

    The mean is the quadratic form of ``G_t / t`` with the Gramian
    ``G_t``, so its extremes over unit vectors are that matrix's extreme
    eigenvalues.  They are evaluated at the horizons ``t_max/2``,
    ``3 t_max/4`` and ``t_max``; the reported pair bounds the liminf and
    limsup estimates.  A positive lower estimate is the mean form of the
    isometry criterion.  One block exponential gives ``G`` and ``T`` at
    ``t_max/4``; the composition law ``G_{s+t} = G_s + T(s)* G_t T(s)``
    reaches each horizon from there.  A Gramian beyond the floating-point
    range raises :class:`~simgroup.exceptions.SaturationError`, a
    ``t_max`` that is not positive and finite raises ``ValueError``, and
    a ``C`` that is not a finite matrix with ``n`` columns raises
    :class:`~simgroup.exceptions.DimensionError`.
    """
    A = as_matrix(A, "generator")
    t_max = _positive_finite(t_max, "t_max")
    n = A.shape[0]
    C = np.eye(n) if C is None else _observation(C, n)
    G_q, T_q = _orbit_integral(A, C.conj().T @ C, 0.25 * t_max)
    with np.errstate(over="ignore", invalid="ignore"):
        T_h = T_q @ T_q
        G_h = G_q + T_q.conj().T @ G_q @ T_q
        gramians = (G_h, G_h + T_h.conj().T @ G_q @ T_h, G_h + T_h.conj().T @ G_h @ T_h)
    horizons = [0.5 * t_max, 0.75 * t_max, t_max]
    lows, highs = [], []
    for tau, G in zip(horizons, gramians):
        if not np.all(np.isfinite(G)):
            raise SaturationError(f"orbit integral over [0, {tau:.6g}] overflows the floating range")
        w = np.linalg.eigvalsh(0.5 * (G + G.conj().T) / tau)
        lows.append(float(w[0]))
        highs.append(float(w[-1]))
    return {
        "liminf_estimate": min(lows),
        "limsup_estimate": max(highs),
        "per_horizon": list(zip(horizons, lows, highs)),
    }
