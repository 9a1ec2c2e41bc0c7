"""Command-line surface: configuration, file I/O, experiment orchestration.

Usage::

    simgroup <constant|classify|gallery|audit|observe|naboko>
             --config <path> [--out <dir>] [key=value ...]

The configuration is a flat key-value text file (``key = value`` per
line, ``#`` comments); trailing ``key=value`` arguments override file
entries.  Outputs are JSON reports and CSV curves written atomically
with LF line endings and deterministic float formatting, so identical
inputs produce identical bytes.

Exit codes: 0 success, 2 input error, 3 unbounded verdict, 4 infeasible
or budget exhaustion, 5 precondition failure; audit-style commands exit
1 when a checked inequality is violated.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import control, criteria, gallery, opcore, weightsolve
from .exceptions import InputFormatError, SimgroupError, StabilityError

__all__ = ["main", "RunConfig", "parse_config"]

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_INPUT = 2
EXIT_UNBOUNDED = 3
EXIT_INFEASIBLE = 4
EXIT_PRECONDITION = 5


def _fmt(x):
    """Deterministic float formatting (17 significant digits)."""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list) and set(map(type, obj)) <= {float} and not any(map(math.isinf, obj)):
        # matrix rows: plain floats other than +-inf pass unchanged, checked at C level
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return _fmt(x) if math.isinf(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, obj):
    payload = json.dumps(_jsonable(obj), sort_keys=True, indent=1)
    opcore.write_atomic(path, payload + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    opcore.write_atomic(path, "\n".join(lines) + "\n")


class RunConfig:
    """Flat key-value configuration with typed, validating accessors."""

    def __init__(self, entries, base_dir="."):
        self.entries = dict(entries)
        self.base_dir = base_dir

    def has(self, key):
        return key in self.entries

    def get(self, key, default=None, required=False):
        if key in self.entries:
            return self.entries[key]
        if required:
            raise InputFormatError(f"missing required config key '{key}'")
        return default

    def get_float(self, key, default=None, required=False, positive=False):
        raw = self.get(key, default, required)
        if raw is None:
            return None
        try:
            val = float(raw)
        except (TypeError, ValueError):
            raise InputFormatError(f"config key '{key}' is not a number: {raw!r}")
        if not math.isfinite(val):
            raise InputFormatError(f"config key '{key}' must be finite")
        if positive and not val > 0:
            raise InputFormatError(f"config key '{key}' must be positive")
        return val

    def get_int(self, key, default=None, required=False, positive=False):
        raw = self.get(key, default, required)
        if raw is None:
            return None
        try:
            val = int(str(raw))
        except (TypeError, ValueError):
            raise InputFormatError(f"config key '{key}' is not an integer: {raw!r}")
        if positive and not val > 0:
            raise InputFormatError(f"config key '{key}' must be positive")
        return val

    def get_grid(self, key, default=None, required=False, positive=True):
        raw = self.get(key, default, required)
        if raw is None:
            return None
        if isinstance(raw, (list, tuple)):
            vals = [float(v) for v in raw]
        else:
            try:
                vals = [float(v) for v in str(raw).split(",") if v.strip()]
            except ValueError:
                raise InputFormatError(f"config key '{key}' is not a comma list: {raw!r}")
        if not vals:
            raise InputFormatError(f"config key '{key}' is empty")
        if not all(math.isfinite(v) for v in vals):
            raise InputFormatError(f"config key '{key}' must be finite values")
        if any(v <= 0 if positive else v < 0 for v in vals):
            sign = "positive" if positive else "nonnegative"
            raise InputFormatError(f"config key '{key}' must be {sign} values")
        return sorted(vals)

    def get_path(self, key, required=False):
        raw = self.get(key, None, required)
        if raw is None:
            return None
        path = raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)
        if not os.path.exists(path):
            raise InputFormatError(f"file for '{key}' not found: {path}")
        return path

    def load_matrix(self, key, required=True):
        path = self.get_path(key, required=required)
        if path is None:
            return None
        return opcore.load_matrix(path)


def parse_config(path):
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise InputFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            entries[key.strip()] = value.strip()
    return RunConfig(entries, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# commands


def _verdict_exit(verdict):
    if verdict.status == "finite":
        return EXIT_OK
    if verdict.status == "unbounded":
        return EXIT_UNBOUNDED
    return EXIT_INFEASIBLE


def cmd_constant(cfg, out):
    A = cfg.load_matrix("matrix")
    mode = cfg.get("mode", "joint")
    tol = cfg.get_float("tol", 1e-4, positive=True)
    kappa_max = cfg.get_float("kappa_max", weightsolve.KAPPA_MAX_DEFAULT, positive=True)
    if mode == "discrete":
        verdict = weightsolve.discrete_similarity_constant(A, tol=tol, kappa_max=kappa_max)
    elif mode == "joint":
        verdict = weightsolve.joint_similarity_constant(A, tol=tol, kappa_max=kappa_max)
    elif mode == "quasi":
        shift = cfg.get_float("shift", required=True)
        verdict = weightsolve.quasi_similarity_constant(
            A, shift, tol=tol, kappa_max=kappa_max
        )
    else:
        raise InputFormatError(f"unknown mode '{mode}' (discrete|joint|quasi)")
    write_json(os.path.join(out, "verdict.json"), verdict.to_json())
    return _verdict_exit(verdict)


def cmd_classify(cfg, out):
    # a gallery family has no single matrix generator: only its family
    # curve is reported, with no case and no joint verdict
    family = A = None
    if cfg.has("gallery"):
        family = _gallery_family(cfg)
    else:
        A = cfg.load_matrix("matrix")
    t_grid = cfg.get_grid("t_grid", default=None)
    kappa_max = cfg.get_float("kappa_max", weightsolve.KAPPA_MAX_DEFAULT, positive=True)
    report = criteria.classify(A, t_grid=t_grid, kappa_max=kappa_max, family=family)
    write_json(
        os.path.join(out, "classification.json"),
        {
            "case": report.case,
            "joint": report.joint.to_json() if report.joint else None,
            "family_curve": [[p, c] for p, c in report.family_curve],
            "family_diverging": report.family_diverging,
            "notes": report.notes,
        },
    )
    if report.time_curve is not None:
        write_csv(
            os.path.join(out, "curve_time.csv"),
            ("parameter", "constant", "status", "residual"),
            report.time_curve.rows(),
        )
        write_csv(
            os.path.join(out, "curve_resolvent.csv"),
            ("parameter", "constant", "status", "residual"),
            report.resolvent_curve.rows(),
        )
    if report.family_curve:
        write_csv(
            os.path.join(out, "curve_family.csv"),
            ("parameter", "constant", "status", "residual"),
            [(p, c, "finite" if math.isfinite(c) else "infeasible", "") for p, c in report.family_curve],
        )
    return EXIT_OK


def _gallery_family(cfg):
    kind = cfg.get("gallery", required=True)
    if kind != "packel":
        raise InputFormatError(f"classify supports gallery=packel families, got '{kind}'")
    window = cfg.get_int("window", 4, positive=True)
    members = []
    for k in range(2, window + 1):
        a = gallery.DyadicSequence.powers_of_two("Zminus", k)
        members.append(gallery.packel_nilpotent_compression(a, 1.0))
    return members


def _suite_result(checks):
    passed = all(c["pass"] for c in checks.values())
    return {"checks": checks, "passed": passed}


def _check(value, tol):
    return {"value": value, "tol": tol, "pass": bool(value <= tol)}


def _gallery_bundle(cfg):
    kind = cfg.get("kind", required=True)
    times = cfg.get_grid("times", default=None, positive=False)
    if kind == "w":
        m = cfg.get_int("m", 64, positive=True)
        sem = gallery.w_semigroup(m)
        suite = _w_suite(sem)
    elif kind == "packel":
        m = cfg.get_int("m", 64, positive=True)
        window = cfg.get_int("window", 2, positive=True)
        j_kind = cfg.get("J", "Zplus")
        a = gallery.DyadicSequence.powers_of_two(j_kind, window)
        if j_kind == "Zminus":
            sem = gallery.packel_nilpotent_compression(a, 1.0, refine=max(1, m // 2 ** window))
        else:
            sem = gallery.packel_semigroup(a, gallery.GridSpace(max(a.values), m))
        suite = _packel_suite(sem, a)
    elif kind == "bhat":
        m = cfg.get_int("m", 128, positive=True)
        t_scalar = cfg.get_float("T", 0.5)
        T = np.array([[t_scalar]], dtype=complex)
        tpath = cfg.get_path("T_matrix") if cfg.has("T_matrix") else None
        if tpath:
            T = opcore.load_matrix(tpath)
        sem, P = gallery.bhat_skeide_semigroup(T, m)
        suite = _bhat_suite(T, m)
    elif kind == "riemann":
        m = cfg.get_int("m", 256, positive=True)
        space = gallery.GridSpace(1.0, m)
        sem = gallery.riemann_liouville_semigroup(space)
        suite = _riemann_suite(space)
    elif kind == "lemerdy":
        n = cfg.get_int("n", 8, positive=True)
        sem = gallery.lemerdy_semigroup(n)
        suite = _lemerdy_suite(sem)
    else:
        raise InputFormatError(f"unknown gallery kind '{kind}'")
    if times is None:
        step = sem.step if sem.step else 0.25
        times = [0.0, step, 4 * step, 8 * step]
    return kind, sem, suite, times


def _w_suite(sem):
    """Checks of the wrap coupling ``W = [[R_p, V], [0, R]]``, read from ``sem``'s blocks.

    The fill and unit-time identities hold exactly on the aligned grid;
    their residuals are Schur bounds (:func:`opcore.norm_upper_bound`),
    never below the norm and equal to it on partial permutations, zero
    included.  The contraction in the
    weight ``P = Lambda* Lambda``, ``Lambda = [[I, I], [0, I]]``, is checked
    in ``Lambda`` coordinates: ``norm(P^{1/2} W P^{-1/2}) = norm(Lambda W
    Lambda^{-1})`` because ``Lambda P^{-1/2}`` is unitary.  For ``W = [[a,
    b], [c, d]]`` that matrix is ``[[a + c, (b + d) - (a + c)], [c, d -
    c]]``; its entries are small integers, so its Schur bound is exact
    arithmetic up to the final square root, with no ``P^{1/2}`` formed.
    """
    m = sem.dim // 2
    bound = opcore.norm_upper_bound
    worst = 0.0
    grid = [k / m for k in range(0, 2 * m + 1, max(1, m // 8))]
    for s in grid:
        Ws = sem.eval(s)
        for t in grid:
            Wt = sem.eval(t)
            lhs = sem.eval(s + t)[:m, m:]
            rhs = Ws[:m, :m] @ Wt[:m, m:] + Ws[:m, m:] @ Wt[m:, m:]
            worst = max(worst, bound(lhs - rhs))
    W1 = sem.eval(1.0)
    endpoint = max(bound(W1[:m, :m] - np.eye(m)), bound(W1[:m, m:] - np.eye(m)))
    space = gallery.GridSpace(1.0, m)
    Q = gallery.integration_functional(space)
    half = space.embed_indicator(0.5)
    intq = 0.0
    for k in range(0, 2 * m + 1, max(1, m // 16)):
        t = k / m
        expect = 0.0 if t <= 0.5 else (t - 0.5 if t <= 1.0 else 0.5)
        intq = max(intq, abs(complex((Q @ sem.eval(t)[:m, m:] @ half)[0]).real - expect))
    contraction = -math.inf
    for k in range(0, 3 * m + 1):
        X = sem.eval(k / m).copy()
        X[:m] += X[m:]  # Lambda W: add the second leg's rows to the first's
        X[:, m:] -= X[:, :m]  # (Lambda W) Lambda^{-1}: subtract the first leg's columns
        contraction = max(contraction, bound(X) - 1.0)
    return _suite_result(
        {
            "fill_identity_residual": _check(worst, 1e-12),
            "unit_time_identity": _check(endpoint, 1e-12),
            "integrated_fill_values": _check(intq, 2.0 / m),
            "coupling_contraction_excess": _check(contraction, 1e-10),
        }
    )


def _packel_suite(sem, a):
    """Checks of the Packel coupling ``[[L, V_a], [0, R]]``, read from ``sem``'s blocks.

    On the aligned grid the reflection identity ``V_a(s+t) = L(s) V_a(t)
    + V_a(s) R(t)`` (the corner block of the semigroup law) and the law
    itself hold exactly, and ``V_a`` is a partial permutation, so every
    value is a Schur bound (:func:`opcore.norm_upper_bound`).  The law
    value bounds the numerator of :func:`opcore.semigroup_law_residual`,
    which its scale ``max(1, ...)`` only lowers.
    """
    m, step = sem.dim // 2, sem.step
    bound = opcore.norm_upper_bound
    lo = min(a.values)
    ks = [int(round((lo + i * step) / step)) for i in range(0, m, max(1, m // 6))]
    worst = law = 0.0
    for i in ks:
        s = i * step
        Ts = sem.eval(s)
        for j in ks:
            t = j * step
            D = sem.eval(s + t) - Ts @ sem.eval(t)
            worst = max(worst, bound(D[:m, m:]))
            law = max(law, bound(D))
    vnorm = max(bound(sem.eval(k * step)[:m, m:]) for k in range(1, 2 * m))
    return _suite_result(
        {
            "reflection_identity_residual": _check(worst, 1e-12),
            "reflection_norm_excess": _check(max(0.0, vnorm - 1.0), 1e-12),
            "semigroup_law_residual": _check(law, 1e-12),
        }
    )


def _bhat_suite(T, m):
    interp = 0.0
    for n in (1, 2, 3):
        B, _ = gallery.bhat_skeide(T, m, float(n))
        exact = np.kron(np.eye(m), np.linalg.matrix_power(T, n))
        interp = max(interp, opcore.operator_norm(B - exact))
    _, P = gallery.bhat_skeide(T, m, 0.0)
    S, Sinv = opcore.weight_factors(P)
    tnorm = opcore.operator_norm(T)
    excess = -math.inf
    for t in np.arange(0.1, 0.95, 0.1):
        B, _ = gallery.bhat_skeide(T, m, float(t))
        wn = opcore.operator_norm(S @ B @ Sinv)
        excess = max(excess, wn - math.sqrt(1.0 / (1.0 - t) + t * tnorm * tnorm))
    slack = 16.0 * max(1.0, tnorm * tnorm) / m
    return _suite_result(
        {
            "integer_interpolation": _check(interp, 1e-12),
            "envelope_excess": _check(max(0.0, excess), slack),
        }
    )


def _riemann_suite(space):
    law = {}
    for s, t in ((0.25, 0.25), (0.5, 0.5), (1.0, 0.5)):
        Ts = gallery.riemann_liouville(space, s)
        Tt = gallery.riemann_liouville(space, t)
        Tst = gallery.riemann_liouville(space, s + t)
        resid = opcore.operator_norm(Ts @ Tt - Tst)
        law[f"law({s},{t})"] = resid
    checks = {k: _check(v, 4.0 * space.step ** 0.25) for k, v in law.items()}
    checks["spectral_radius_t_half"] = _check(
        opcore.spectral_radius(gallery.riemann_liouville(space, 0.5)), 1.0
    )
    return _suite_result(checks)


def _lemerdy_suite(sem):
    law = max(
        opcore.semigroup_law_residual(sem, s, t) for s, t in ((0.3, 0.7), (1.0, 2.0))
    )
    ident = opcore.operator_norm(sem.eval(0.0) - np.eye(sem.dim))
    return _suite_result(
        {
            "semigroup_law_residual": _check(law, 1e-10),
            "identity_at_zero": _check(ident, 1e-12),
        }
    )


def cmd_gallery(cfg, out):
    kind, sem, suite, times = _gallery_bundle(cfg)
    samples = {}
    for t in times:
        M, snap = sem.eval_with_snap(float(t))
        samples[_fmt(float(t))] = {"snap_distance": snap, "matrix": opcore.matrix_to_json(M)}
    write_json(os.path.join(out, "gallery.json"), {"kind": kind, "dim": sem.dim, "suite": suite})
    write_json(os.path.join(out, "samples.json"), samples)
    return EXIT_OK if suite["passed"] else EXIT_AUDIT


def cmd_audit(cfg, out):
    A = cfg.load_matrix("matrix")
    lam = cfg.get_float("lam", 1.0, positive=True)
    tau = cfg.get_float("tau", 1.0, positive=True)
    horizon = cfg.get_int("horizon", 8, positive=True)
    audits = [criteria.simconst_bound_audit(A, lam, tau)]
    T = opcore.expm_semigroup(A, tau)
    verdict = weightsolve.discrete_similarity_constant(T, tol=1e-3)
    if verdict.finite:
        fact = criteria.factorization_from_certificate(T, verdict.certificate, horizon)
        audits.append(criteria.holbrook_bound_audit(T, fact))
    write_json(os.path.join(out, "audits.json"), [a.to_json() for a in audits])
    bad = [a for a in audits if a.status in ("violated", "inconclusive")]
    return EXIT_AUDIT if bad else EXIT_OK


def _load_system(cfg):
    path = cfg.get_path("system", required=True)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}")
    try:
        return control.system_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: bad system payload: {exc}")


def cmd_observe(cfg, out):
    sys_obj = _load_system(cfg)
    if str(cfg.get("horizon", "1.0")).strip() in ("inf", "infinite"):
        rep = control.infinite_gramian(sys_obj)
    else:
        rep = control.observability_gramian(sys_obj, cfg.get_float("horizon", 1.0, positive=True))
    dual = control.duality_check(
        sys_obj, 1.0 if not math.isfinite(rep.horizon) else rep.horizon
    )
    payload = rep.to_json()
    payload["duality_residual"] = dual["residual"]
    if rep.certificate is not None:
        payload["certificate"] = rep.certificate.to_json()
    write_json(os.path.join(out, "gramian.json"), payload)
    return EXIT_OK


def cmd_naboko(cfg, out):
    sys_obj = _load_system(cfg)
    eps = cfg.get_grid("eps", default=[0.05, 0.1, 0.5])
    xi_max = cfg.get_float("xi_max", 200.0, positive=True)
    quad_m = cfg.get_int("quad_m", 32, positive=True)
    pts = control.naboko_integral(
        sys_obj.A, eps, C=sys_obj.C, xi_max=xi_max, quad_m=quad_m
    )
    write_csv(
        os.path.join(out, "naboko.csv"),
        ("eps", "quad_min", "quad_max", "plancherel_min", "plancherel_max", "relative_gap"),
        [
            (p.eps, p.quad_min, p.quad_max, p.plancherel_min, p.plancherel_max, p.relative_gap)
            for p in pts
        ],
    )
    write_json(
        os.path.join(out, "naboko.json"),
        [
            {
                "eps": p.eps,
                "quad": [p.quad_min, p.quad_max],
                "plancherel": [p.plancherel_min, p.plancherel_max],
                "relative_gap": p.relative_gap,
            }
            for p in pts
        ],
    )
    return EXIT_OK


COMMANDS = {
    "constant": cmd_constant,
    "classify": cmd_classify,
    "gallery": cmd_gallery,
    "audit": cmd_audit,
    "observe": cmd_observe,
    "naboko": cmd_naboko,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="simgroup",
        description="similarity-to-contraction certificates, gallery checks, and observability reports",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_intermixed_args(argv)

    try:
        cfg = parse_config(args.config)
    except (OSError, InputFormatError) as exc:
        print(f"simgroup: config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for item in args.overrides:
        if "=" not in item:
            print(f"simgroup: override '{item}' is not key=value", file=sys.stderr)
            return EXIT_INPUT
        key, value = item.split("=", 1)
        cfg.entries[key.strip()] = value.strip()

    out = args.out
    os.makedirs(out, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out)
    except InputFormatError as exc:
        print(f"simgroup: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StabilityError as exc:
        print(f"simgroup: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SimgroupError as exc:
        print(f"simgroup: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
