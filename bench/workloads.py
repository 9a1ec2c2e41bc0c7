"""The benchmark workloads and their correctness gate.

Each workload turns a seed into a fixed list of operations.  An operation
drives the public ``simgroup`` API or the ``simgroup`` command line
(``simgroup.cli.main``, in-process) and checks its own output; a miss
raises :class:`CheckFailed` with the reason.  Program modules are always
reached through their module attribute at call time, so the traced run
sees the wrappers it installs.

Why these two (each stresses a different layer):

* ``constants_small`` -- the common use: similarity constants of small
  stable generators.  ``weightsolve`` bisection and its per-iteration
  Python overhead dominate; the solver's dense kernels and the contention
  between numpy's and scipy's OpenBLAS copies come with them.
* ``audits_control`` -- no solver: gallery suites, Gramians, orbit means
  and audits, where ``opcore`` norms and exponentials, ``gallery``
  constructors, ``control`` quadrature and the command line's JSON
  writes carry the time.  A solver change should not move it.

What the seed changes: every API input is a fixed design (drawn once from
``DESIGN_SEED``, or taken from the gallery) seen in a basis drawn from the
seed -- a random unitary ``U`` for complex designs, a real orthogonal
``Q`` for real ones.  A unitary change of basis leaves every exact answer
(similarity constants, Gramian condition numbers, orbit bounds) unchanged
but gives the program different matrices, so two seeds differ in the
rounding and the solver paths they exercise, not in the difficulty of the
problem.  Fully random corpora made the per-seed work and constants vary
by 20-40%, which buried any program change in the draw.
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from simgroup import cli, control, criteria, gallery, opcore, weightsolve


class CheckFailed(Exception):
    """An operation's output failed the correctness gate."""


def require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


@dataclass
class OpOutput:
    constants: list = field(default_factory=list)
    files: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable
    deadline_s: float


@dataclass
class Env:
    """Where an operation finds the shipped configs and writes its outputs."""

    root: str
    out_root: str

    def config(self, name):
        return os.path.join(self.root, "demos", "configs", name)

    def out_dir(self, op_name):
        path = os.path.join(self.out_root, op_name)
        os.makedirs(path, exist_ok=True)
        for name in os.listdir(path):
            os.remove(os.path.join(path, name))
        return path


# ---------------------------------------------------------------------------
# shared checks


def effective_tol(target, kappa):
    """The solver's feasibility tolerance at budget ``kappa``.

    Default feasibility tolerance ``1e-8 * scale``, floored by the
    rounding of a defect formed at weight scale ``kappa^2``.
    """
    scale = target.scale()
    return max(1e-8 * scale, 8e-16 * scale * kappa * kappa)


def check_certificate(weight, constant, target, what):
    """Re-check a finite verdict's weight against its target."""
    cert = weightsolve.WeightCertificate(np.asarray(weight), constant, 0.0)
    rep = weightsolve.certificate_check(cert, target)
    tol = effective_tol(target, constant)
    require(rep.worst <= 2.0 * tol, f"{what}: certificate violation {rep.worst:.3g} > {2 * tol:.3g}")
    require(
        abs(rep.kappa - constant) <= 1e-6 * constant,
        f"{what}: certificate kappa {rep.kappa:.12g} != constant {constant:.12g}",
    )
    return constant


def check_verdict(verdict, target, what):
    require(verdict.status == "finite", f"{what}: status {verdict.status}, expected finite")
    require(math.isfinite(verdict.constant) and verdict.constant >= 1.0, f"{what}: constant {verdict.constant}")
    return check_certificate(verdict.certificate.weight, verdict.constant, target, what)


def check_known(value, exact, tol, what):
    require(
        abs(value - exact) <= 5.0 * tol * exact,
        f"{what}: constant {value:.12g}, closed form {exact}",
    )


def read_outputs(out):
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


#: Per-operation deadlines, in seconds.
CLI_DEADLINE_S = 60.0
API_DEADLINE_S = 30.0


def cli_op(name, command, config, expect_exit, overrides=(), check=None):
    """Run ``simgroup <command>`` in-process and gate its exit code and files."""

    def run(env):
        out = env.out_dir(name)
        code = cli.main([command, "--config", env.config(config), "--out", out, *overrides])
        require(code == expect_exit, f"exit code {code}, documented {expect_exit}")
        files = read_outputs(out)
        constants = check(files, env) if check else []
        return OpOutput(constants=list(constants), files=files)

    return Op(f"cli.{name}", run, CLI_DEADLINE_S)


def _json(files, name):
    require(name in files, f"missing output {name}")
    return json.loads(files[name])


def _weight(obj):
    return opcore.matrix_from_json(obj, "P")


def unitary(rng, n, complex_entries):
    """Haar-random unitary (complex) or real orthogonal matrix."""
    G = rng.standard_normal((n, n))
    if complex_entries:
        G = G + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def in_basis(rng, M):
    """``U M U*`` for a seeded unitary ``U`` of ``M``'s field."""
    U = unitary(rng, M.shape[0], np.iscomplexobj(M))
    return U @ M @ U.conj().T


def schur_design(rng, n, complex_entries):
    """Upper-triangular stable generator ``D + N``, never dissipative.

    ``Re D`` lies in ``[-0.75, -0.5]``; ``N`` is strictly upper triangular
    with entries of modulus ``2/sqrt(n)`` except ``N[0, 1]`` of modulus 2,
    so the leading 2x2 block of the Hermitian part has an eigenvalue of at
    least ``1 - 0.75 > 0``: every constant exceeds 1, while the constants
    grow only moderately with ``n``.
    """
    d = -rng.uniform(0.5, 0.75, n)
    phase = rng.choice([-1.0, 1.0], (n, n))
    if complex_entries:
        d = d + 1j * rng.uniform(-1.0, 1.0, n)
        phase = np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    N = (2.0 / math.sqrt(n)) * np.triu(phase, 1)
    N[0, 1] *= math.sqrt(n)
    return np.diag(d) + N


def stable_design(rng, n, complex_entries):
    """Random generator scaled to unit spread, spectrum left of ``-0.5``."""
    M = rng.standard_normal((n, n)) / math.sqrt(n)
    if complex_entries:
        M = M + 1j * rng.standard_normal((n, n)) / math.sqrt(n)
    return M - (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(n)


def skew_design(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M - M.conj().T) / math.sqrt(n)


#: Fixed stream the designs are drawn from; the run's seed only picks bases.
DESIGN_SEED = 20250901


# ---------------------------------------------------------------------------
# constants_small

RANK_ONE = np.array([[0.0, 2.0], [0.0, 0.0]])
JORDAN = np.array([[-1.0, 4.0], [0.0, -1.0]])
SUPERCRITICAL = np.array([[1.1, 0.0], [0.0, 0.5]])
#: The criterion-8 time grid ``geomspace(1e-3, 2, 6)`` thinned to its end points.
CURVE_GRID = np.geomspace(1e-3, 2.0, 2)
CORPUS_SIZES = (2, 4, 6, 8, 12)  # alternately real and complex
#: Bracket width of the corpus, curve and Le Merdy verdicts.  The reported
#: constant is the best certificate's kappa, which on these inputs agrees
#: with the one at ``tol=1e-4`` to five digits for a third less work.
TOL = 1e-3


def _joint_op(i, A):
    def run(env):
        v = weightsolve.joint_similarity_constant(A, tol=TOL)
        return OpOutput([check_verdict(v, weightsolve.LyapunovTarget(A, 0.0), "joint")])

    return Op(f"api.joint[{i}].n{A.shape[0]}", run, API_DEADLINE_S)


def _discrete_op(i, T):
    def run(env):
        v = weightsolve.discrete_similarity_constant(T, tol=TOL)
        return OpOutput([check_verdict(v, weightsolve.SteinTarget((T,)), "discrete")])

    return Op(f"api.discrete[{i}].n{T.shape[0]}", run, API_DEADLINE_S)


def _curve_op(i, A):
    def run(env):
        scale = max(1.0, opcore.operator_norm(A))
        grid = CURVE_GRID / scale
        curve = criteria.small_time_constants(A, grid, tol=TOL)
        require(len(curve.points) == len(grid), "curve lost points")
        out = []
        for p in curve.points:
            what = f"curve t={p.parameter:.3g}"
            require(not p.error, f"{what}: {p.error}")
            T = opcore.expm_semigroup(A, p.parameter)
            out.append(check_verdict(p.verdict, weightsolve.SteinTarget((T,)), what))
        return OpOutput(out)

    return Op(f"api.curve[{i}].n{A.shape[0]}", run, API_DEADLINE_S)


def _known_ops():
    def rank_one(env):
        v = weightsolve.discrete_similarity_constant(RANK_ONE, tol=1e-5)
        c = check_verdict(v, weightsolve.SteinTarget((RANK_ONE,)), "rank one")
        check_known(c, 2.0, 1e-5, "rank one")
        return OpOutput([c])

    def jordan(env):
        v = weightsolve.joint_similarity_constant(JORDAN, tol=1e-4)
        c = check_verdict(v, weightsolve.LyapunovTarget(JORDAN, 0.0), "jordan")
        check_known(c, 2.0, 1e-4, "jordan")
        return OpOutput([c])

    def supercritical(env):
        v = weightsolve.discrete_similarity_constant(SUPERCRITICAL, tol=1e-4)
        require(v.status == "unbounded", f"status {v.status}, expected unbounded (r = 1.1)")
        return OpOutput()

    return [
        Op("api.known.rank_one", rank_one, API_DEADLINE_S),
        Op("api.known.jordan_joint", jordan, API_DEADLINE_S),
        Op("api.known.supercritical", supercritical, API_DEADLINE_S),
    ]


def _cli_constant_check(data_name, discrete, exact, tol):
    def check(files, env):
        obj = _json(files, "verdict.json")
        require(obj["status"] == "finite", f"status {obj['status']}")
        A = opcore.load_matrix(os.path.join(env.root, "demos", "data", data_name))
        target = weightsolve.SteinTarget((A,)) if discrete else weightsolve.LyapunovTarget(A, 0.0)
        c = check_certificate(_weight(obj["P"]), float(obj["constant"]), target, data_name)
        check_known(c, exact, tol, data_name)
        return [c]

    return check


def _cli_unbounded_check(files, env):
    obj = _json(files, "verdict.json")
    require(obj["status"] == "unbounded", f"status {obj['status']}, expected unbounded (r = 1.1)")
    return []


def _cli_audit_check(files, env):
    audits = _json(files, "audits.json")
    require(len(audits) == 2, f"{len(audits)} audits, expected 2")
    for a in audits:
        require(a["status"] not in ("violated", "inconclusive"), f"audit {a['name']}: {a['status']}")
    return []


def constants_small(seed):
    design = np.random.default_rng(DESIGN_SEED)
    forms = [schur_design(design, n, complex_entries=bool(i % 2)) for i, n in enumerate(CORPUS_SIZES)]
    curve_forms = [schur_design(design, 2, False), schur_design(design, 3, True)]
    rng = np.random.default_rng(seed)
    ops = []
    for i, S in enumerate(forms):
        A = in_basis(rng, S)
        ops.append(_joint_op(i, A))
        ops.append(_discrete_op(i, scipy.linalg.expm(0.5 * A)))
    for i, S in enumerate(curve_forms):
        ops.append(_curve_op(i, in_basis(rng, S)))
    ops.extend(_known_ops())
    # one of the operators whose constant ROADMAP item 2 found 6.6% above
    # the exact SDP value, so a tighter solver shows in constant_geomean
    ops.append(_joint_op("lemerdy", in_basis(rng, gallery.lemerdy_semigroup(8).generator)))
    ops.append(cli_op("constant_joint", "constant", "constant_joint.cfg", 0,
                      check=_cli_constant_check("jordan_shifted.json", False, 2.0, 1e-4)))
    ops.append(cli_op("constant_discrete", "constant", "constant_discrete.cfg", 0,
                      check=_cli_constant_check("rank_one.json", True, 2.0, 1e-5)))
    ops.append(cli_op("constant_supercritical", "constant", "constant_discrete.cfg", 3,
                      overrides=("matrix=../data/supercritical.json",), check=_cli_unbounded_check))
    ops.append(cli_op("audit_jordan", "audit", "audit_jordan.cfg", 0, check=_cli_audit_check))
    return ops


def constants_small_warmup(env):
    weightsolve.discrete_similarity_constant(RANK_ONE, tol=1e-5)
    cli.main(["constant", "--config", env.config("constant_discrete.cfg"), "--out", env.out_dir("warmup")])


# ---------------------------------------------------------------------------
# audits_control


def _gallery_check(files, env):
    obj = _json(files, "gallery.json")
    require(obj["suite"]["passed"] is True, f"gallery suite failed: {obj['suite']['checks']}")
    require("samples.json" in files, "missing output samples.json")
    return []


def _naboko_check(files, env):
    pts = _json(files, "naboko.json")
    require(len(pts) == 3, f"{len(pts)} naboko points, expected 3")
    for p in pts:
        require(p["relative_gap"] <= 0.01, f"naboko eps={p['eps']}: gap {p['relative_gap']:.3g} > 1%")
    require("naboko.csv" in files, "missing output naboko.csv")
    return []


def _observe_check(files, env):
    obj = _json(files, "gramian.json")
    # scalar system A = -1, C = sqrt(2): A*P + PA = -C*C gives P = 1
    P = opcore.matrix_from_json(obj["gramian"], "gramian")
    require(abs(P[0, 0] - 1.0) <= 1e-12, f"infinite gramian {P[0, 0]!r}, closed form 1")
    require(obj["exactly_observable"] is True, "scalar system reported unobservable")
    return []


def dissipative_design(rng, n):
    """``K - D`` with ``K`` skew-Hermitian and ``D`` positive definite."""
    B = rng.standard_normal((n, n)) / math.sqrt(n)
    return math.sqrt(n) * skew_design(rng, n) - (B @ B.T + 0.1 * np.eye(n))


def _gramian_ops(i, A, C):
    system = control.ObservedSystem(A, C)
    n = A.shape[0]

    def infinite(env):
        rep = control.infinite_gramian(system)
        P = rep.gramian
        Q = C.conj().T @ C
        scale = max(1.0, np.linalg.norm(Q, 2), np.linalg.norm(P, 2) * np.linalg.norm(A, 2))
        resid = np.linalg.norm(A.conj().T @ P + P @ A + Q, 2)
        require(resid <= 1e-9 * scale, f"Lyapunov residual {resid:.3g}")
        require(rep.certificate is not None, "no contraction certificate for a stable observable system")
        kappa = rep.certificate.kappa
        check_certificate(rep.certificate.weight, kappa, weightsolve.LyapunovTarget(A, 0.0), "gramian")
        return OpOutput([kappa])

    def finite(env):
        # independent route for stable A: G_tau = P - T(tau)* P T(tau)
        G = control.observability_gramian(system, 1.0).gramian
        P = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -(C.conj().T @ C))
        T = scipy.linalg.expm(A)
        ref = P - T.conj().T @ P @ T
        scale = np.linalg.norm(P, 2) * max(1.0, np.linalg.norm(T, 2) ** 2)
        err = np.linalg.norm(G - ref, 2) / scale
        require(err <= 1e-10, f"finite gramian off the independent route by {err:.3g} (relative to |P|)")
        return OpOutput()

    return [
        Op(f"api.infinite_gramian[{i}].n{n}", infinite, API_DEADLINE_S),
        Op(f"api.finite_gramian[{i}].n{n}", finite, API_DEADLINE_S),
    ]


def near_skew_design(rng, n):
    """``X^{-1} K X`` with ``K`` skew-Hermitian: a bounded, non-isometric group."""
    X = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    return np.linalg.solve(X, skew_design(rng, n) @ X), np.linalg.cond(X)


def audits_control(seed):
    design = np.random.default_rng(DESIGN_SEED + 1)
    rng = np.random.default_rng(seed)
    ops = [
        cli_op("gallery_w", "gallery", "gallery_w.cfg", 0, check=_gallery_check),
        cli_op("gallery_w_m128", "gallery", "gallery_w.cfg", 0, overrides=("m=128",), check=_gallery_check),
        cli_op("gallery_bhat", "gallery", "gallery_bhat.cfg", 0, check=_gallery_check),
        cli_op("gallery_riemann", "gallery", "gallery_riemann.cfg", 0, check=_gallery_check),
        cli_op("observe_stable", "observe", "observe_stable.cfg", 0, check=_observe_check),
        cli_op("observe_skew_infinite", "observe", "observe_stable.cfg", 5,
               overrides=("system=../data/system_skew.json",)),
        cli_op("naboko_skew", "naboko", "naboko_skew.cfg", 0, check=_naboko_check),
    ]
    for i, n in enumerate((64, 128)):
        A0 = stable_design(design, n, complex_entries=bool(i % 2))
        C0 = design.standard_normal((n, n)) / math.sqrt(n)
        # A -> U A U*, C -> C U* carries the Gramian to U P U*
        U = unitary(rng, n, np.iscomplexobj(A0))
        ops.extend(_gramian_ops(i, U @ A0 @ U.conj().T, C0 @ U.conj().T))

    S = in_basis(rng, skew_design(design, 16))
    S64 = in_basis(rng, skew_design(design, 64))

    def naboko(env):
        pts = control.naboko_integral(S, [0.1, 0.5], quad_m=32)
        for p in pts:
            require(p.relative_gap <= 0.01, f"eps={p.eps}: gap {p.relative_gap:.3g} > 1%")
        return OpOutput()

    def cesaro_isometric(env):
        # an isometric group keeps every orbit norm at 1, so both means are 1
        out = control.cesaro_orbit_mean(S64)
        for key in ("liminf_estimate", "limsup_estimate"):
            require(abs(out[key] - 1.0) <= 1e-8, f"{key} {out[key]!r}, closed form 1")
        return OpOutput()

    def nagy(env):
        rep = criteria.nagy_isometry_test(S64)
        require(rep.positive, "isometric group not recognised")
        require(rep.defect <= 1e-8 and abs(rep.kappa - 1.0) <= 1e-8,
                f"isometric group: defect {rep.defect:.3g}, kappa {rep.kappa!r}")
        return OpOutput([rep.kappa])

    ops += [
        Op("api.naboko_skew.n16", naboko, API_DEADLINE_S),
        Op("api.cesaro_isometric.n64", cesaro_isometric, API_DEADLINE_S),
        Op("api.nagy_isometric.n64", nagy, API_DEADLINE_S),
    ]

    B, cond = near_skew_design(design, 128)
    B = in_basis(rng, B)

    def cesaro_bounded(env):
        # T(t) = X^{-1} exp(tK) X keeps orbit norms within cond(X)^{+-1}
        out = control.cesaro_orbit_mean(B)
        lo, hi = cond ** -2 * (1 - 1e-9), cond ** 2 * (1 + 1e-9)
        require(lo <= out["liminf_estimate"] <= out["limsup_estimate"] <= hi,
                f"orbit means {out['liminf_estimate']!r}..{out['limsup_estimate']!r} outside [{lo!r}, {hi!r}]")
        return OpOutput()

    Apw = in_basis(rng, stable_design(design, 128, complex_entries=True))

    def post_widder(env):
        E = scipy.linalg.expm(Apw)
        e32 = np.linalg.norm(criteria.post_widder(Apw, 1.0, 32) - E, 2)
        e1024 = np.linalg.norm(criteria.post_widder(Apw, 1.0, 1024) - E, 2)
        require(e1024 <= e32 / 8.0, f"post-widder error {e1024:.3g} at n=1024 vs {e32:.3g} at n=32")
        return OpOutput()

    Asup = in_basis(rng, stable_design(design, 128, complex_entries=False))

    def sup_norm(env):
        sem = opcore.semigroup_from_generator(Asup)
        val = criteria.sup_norm_on_interval(sem, 1.0)
        omega = np.linalg.eigvalsh(0.5 * (Asup + Asup.T))[-1]
        cap = 1.01 * math.exp(max(omega, 0.0)) * (1 + 1e-12)
        require(1.01 * (1 - 1e-12) <= val <= cap, f"sup norm {val!r} outside [1.01, {cap!r}]")
        return OpOutput()

    Adiss = in_basis(rng, dissipative_design(design, 64))

    def renorm(env):
        cert = criteria.average_renorm(Adiss, np.eye(64), 1.0)
        target = weightsolve.LyapunovTarget(Adiss, 0.0)
        rep = weightsolve.certificate_check(cert, target)
        require(rep.residual <= 2.0 * effective_tol(target, cert.kappa),
                f"averaged weight violates Lyapunov by {rep.residual:.3g}")
        return OpOutput([cert.kappa])

    ops += [
        Op("api.cesaro_bounded.n128", cesaro_bounded, API_DEADLINE_S),
        Op("api.post_widder.n128", post_widder, API_DEADLINE_S),
        Op("api.sup_norm.n128", sup_norm, API_DEADLINE_S),
        Op("api.average_renorm.n64", renorm, API_DEADLINE_S),
    ]
    return ops


def audits_control_warmup(env):
    cli.main(["observe", "--config", env.config("observe_stable.cfg"), "--out", env.out_dir("warmup")])


#: name -> (build, warm-up, per_verdict).  ``per_verdict`` selects the unit
#: of ``verdict_s_p50``/``verdict_s_tail``: single verdicts on
#: ``constants_small``, whole rounds on ``audits_control``, which makes no
#: verdicts: there one pass over the audit suite is what a user waits for.
WORKLOADS = {
    "constants_small": (constants_small, constants_small_warmup, True),
    "audits_control": (audits_control, audits_control_warmup, False),
}
