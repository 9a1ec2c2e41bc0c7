"""Command-line surface: configuration, file I/O, experiment orchestration.

Usage::

    simgroup <constant|classify|gallery|audit|observe|naboko>
             --config <path> [--out <dir>] [key=value ...]

The configuration is a flat key-value text file (``key = value`` per
line, ``#`` comments); trailing ``key=value`` arguments override file
entries.  Outputs are JSON reports and CSV curves written atomically
with LF line endings and deterministic float formatting, so identical
inputs produce identical bytes.

Exit codes: 0 success, 2 input error (also a size too large to
allocate), 3 unbounded verdict, 4 infeasible or budget exhaustion, 5
precondition failure; audit-style commands exit 1 when a checked
inequality is violated.
"""

import argparse
import functools
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

#: Header of every curve CSV that ``classify`` writes.
_CURVE_HEADER = ("parameter", "constant", "status", "residual")


def _fmt(x):
    """Deterministic float formatting (17 significant digits)."""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _json_text(obj):
    """JSON text of ``obj``, with sorted keys and ``json.dumps``'s separators.

    numpy scalars and arrays are written as the Python values they hold,
    complex numbers as ``{"im": ..., "re": ...}`` and other infinite
    floats as the strings ``"inf"``/``"-inf"``.  A 2-D float64 array
    formats each distinct float64 bit pattern once and joins the strings:
    gallery samples hold a few hundred distinct values among tens of
    thousands of entries.
    """
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON object keys must be strings")
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.size and obj.dtype == np.float64:
            return _matrix_text(obj)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if type(obj) is list and set(map(type, obj)) <= {float} and not any(map(math.isinf, obj)):
            return json.dumps(obj)  # plain floats other than +-inf, formatted at C level
        return "[" + ", ".join(map(_json_text, obj)) + "]"
    if isinstance(obj, complex):
        return json.dumps({"re": obj.real, "im": obj.imag}, sort_keys=True)
    if isinstance(obj, (np.floating, float)):
        obj = float(obj)
        if math.isinf(obj):
            obj = _fmt(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    return json.dumps(obj)


def _float_text(x):
    return repr(x) if math.isfinite(x) else _json_text(x)


def _matrix_text(a):
    """JSON text of a nonempty 2-D float64 array.

    A matrix whose entries share one bit pattern, such as the all
    ``+0.0`` imaginary half of a real sample, is one row string repeated.
    """
    bits = a.view(np.int64)
    if (bits == bits[0, 0]).all():
        row = "[" + ", ".join([_float_text(float(a[0, 0]))] * a.shape[1]) + "]"
        return "[" + ", ".join([row] * a.shape[0]) + "]"
    return _distinct_values_text(a)


def _distinct_values_text(a):
    """:func:`_matrix_text` for any matrix: each distinct bit pattern is formatted once."""
    # sorting the bit patterns, not the values, keeps -0.0 apart from 0.0;
    # a sort and a search are cheaper than np.unique's inverse, an argsort
    bits = a.view(np.int64).ravel()
    ordered = np.sort(bits)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    index = np.searchsorted(distinct, bits)
    texts = np.array([_float_text(x) for x in distinct.view(float).tolist()], dtype=object)
    rows = texts[index].reshape(a.shape).tolist()
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def write_json(path, obj):
    opcore.write_atomic(path, _json_text(obj) + "\n")


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
        return self._get_number(key, default, required, positive, float, "a number")

    def get_int(self, key, default=None, required=False, positive=False):
        return self._get_number(key, default, required, positive, lambda raw: int(str(raw)), "an integer")

    def _get_number(self, key, default, required, positive, parse, noun):
        """``parse`` of the value, or None when absent and not required; a finite value, ``> 0`` if ``positive``."""
        raw = self.get(key, default, required)
        if raw is None:
            return None
        try:
            val = parse(raw)
        except (TypeError, ValueError):
            raise InputFormatError(f"config key '{key}' is not {noun}: {raw!r}")
        if isinstance(val, float) and not math.isfinite(val):
            raise InputFormatError(f"config key '{key}' must be finite")
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


def _kappa_max(cfg):
    kappa_max = cfg.get_float("kappa_max", weightsolve.KAPPA_MAX_DEFAULT)
    if kappa_max < 1.0:
        raise InputFormatError("config key 'kappa_max' must be >= 1")
    return kappa_max


def cmd_constant(cfg, out):
    A = cfg.load_matrix("matrix")
    mode = cfg.get("mode", "joint")
    tol = cfg.get_float("tol", 1e-4, positive=True)
    kappa_max = _kappa_max(cfg)
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
    kappa_max = _kappa_max(cfg)
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
        write_csv(os.path.join(out, "curve_time.csv"), _CURVE_HEADER, report.time_curve.rows())
        write_csv(os.path.join(out, "curve_resolvent.csv"), _CURVE_HEADER, report.resolvent_curve.rows())
    if report.family_curve:
        write_csv(
            os.path.join(out, "curve_family.csv"),
            _CURVE_HEADER,
            [(p, c, "finite" if math.isfinite(c) else "infeasible", "") for p, c in report.family_curve],
        )
    return EXIT_INFEASIBLE if report.case == "BudgetExhausted" else EXIT_OK


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


def _worst(*values):
    """The largest of ``values``, NaN if any is NaN.

    Python's ``max`` keeps whichever of a NaN and a number comes first, so
    a NaN residual would otherwise never reach :func:`_check`.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


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
        if j_kind not in ("Z", "Zplus", "Zminus"):
            raise InputFormatError(f"unknown index set J '{j_kind}' (Z|Zplus|Zminus)")
        a = gallery.DyadicSequence.powers_of_two(j_kind, window)
        if j_kind == "Zminus":
            sem = gallery.packel_nilpotent_compression(a, 1.0, refine=max(1, m // 2 ** window))
        else:
            sem = gallery.packel_semigroup(a, gallery.GridSpace(max(a.values), m))
        suite = _packel_suite(sem, a)
    elif kind == "bhat":
        m = cfg.get_int("m", 128, positive=True)
        t_scalar = cfg.get_float("T", 0.5)
        T = np.array([[t_scalar]])
        tpath = cfg.get_path("T_matrix") if cfg.has("T_matrix") else None
        if tpath:
            T = opcore.load_matrix(tpath)
        sem, P = gallery.bhat_skeide_semigroup(T, m)
        suite = _bhat_suite(sem, T, P)
    elif kind == "riemann":
        m = cfg.get_int("m", 256, positive=True)
        space = gallery.GridSpace(1.0, m)
        sem = gallery.riemann_liouville_semigroup(space)
        suite = _riemann_suite(sem, space)
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


def _sparse_values(sem, ks, step):
    """``{k: sem.eval(k * step)}`` over the grid indices ``ks``, as CSR arrays (:func:`_csr`)."""
    return {k: _csr(sem.eval(k * step)) for k in sorted(ks)}


def _csr(X):
    """``csr_array(X)`` of a 2-D array, its nonzero entries found in one scan.

    The array keeps ``X``'s dtype, float64 for the wrap and the Packel
    couplings, and stores the entries ``csr_array(X)`` stores, NaN
    included, in the same order.  ``scipy.sparse`` is imported here, not
    with the package.
    """
    from scipy.sparse import csr_array

    rows, cols = X.shape
    flat = X.ravel()
    nonzero = np.flatnonzero(flat != 0)  # a bool scan: flatnonzero of floats is ten times slower
    index = np.int32 if flat.size <= np.iinfo(np.int32).max else np.int64  # csr_array's choice
    indptr = np.searchsorted(nonzero, np.arange(rows + 1) * cols).astype(index)
    return csr_array((flat[nonzero], (nonzero % cols).astype(index), indptr), shape=X.shape)


def _w_suite(sem):
    """Checks of the wrap coupling ``W = [[R_p, V], [0, R]]``, read from ``sem``'s blocks.

    The fill and unit-time identities hold exactly on the aligned grid;
    their residuals are Schur bounds (:func:`opcore.norm_upper_bound`),
    never below the norm and equal to it on partial permutations, zero
    included.  Every grid time the checks read is evaluated once, in one
    ascending pass over ``k = 0 ... max(3m, 2 max(ks))``, grid membership
    tested arithmetically; each sample is read, in this order, as a CSR
    array for the fill check (:func:`_csr`), by the integrated-fill probe,
    by the unit-time check at ``k = m``, and last by the contraction
    check, which edits it in place, so no dense sample outlives its step.
    The fill check forms every pair's ``R_p(s) V(t) + V(s) R(t)`` in one
    block sparse product: block ``(s, t)`` of ``vstack(W(s)[:m]) @
    hstack(W(t)[:, m:])``.  While the diagonal blocks are partial
    permutations, each entry of that product is a sum of at most two
    products with a unit factor, whatever ``V`` holds, and it is the entry
    the pair's own product would give.  The product is compared with the
    block-Hankel matrix of the fill blocks ``W(s+t)[:m, m:]``, each
    distinct one sliced once and placed at every position it fills; a
    pair whose block of the difference has no nonzero entry has residual
    0, and only the other blocks of the difference are densified and
    bounded.  Each entry of such a block is the subtraction the pair's
    dense ``W(s+t)[:m, m:] - (R_p(s) V(t) + V(s) R(t))`` does, up to the
    sign of a zero, which the bound does not read, so every value is the
    dense one bit for bit.  The contraction in the weight ``P = Lambda*
    Lambda``, ``Lambda = [[I, I], [0, I]]``, is checked in ``Lambda``
    coordinates: ``norm(P^{1/2} W P^{-1/2}) = norm(Lambda W
    Lambda^{-1})`` because ``Lambda P^{-1/2}`` is unitary.  For ``W =
    [[a, b], [c, d]]`` that matrix is ``[[a + c, (b + d) - (a + c)], [c,
    d - c]]``; its entries are small integers, so its Schur bound is exact
    arithmetic up to the final square root, with no ``P^{1/2}`` formed.
    ``sem.eval`` must return a fresh array on every call, as
    :func:`gallery.w_semigroup`'s sampler does; its real samples keep
    each pass over them at float64 size.  Every maximum is NaN if one of
    its values is.
    """
    from scipy.sparse import bmat, hstack, vstack

    m = sem.dim // 2
    bound = opcore.norm_upper_bound
    ks = range(0, 2 * m + 1, max(1, m // 8))
    probe_step = max(1, m // 16)
    W = {}
    intq, contraction, probe = 0.0, -math.inf, None
    for k in range(max(3 * m, 2 * ks[-1]) + 1):
        on_fill = k % ks.step == 0  # every i + j of ks x ks
        if k > 3 * m and not on_fill:
            continue
        X = sem.eval(k / m)
        if on_fill:
            W[k] = _csr(X)
        if k <= 2 * m and k % probe_step == 0:
            if probe is None:
                # built after the first sample, so a size numpy refuses fails
                # there, before these O(m) vectors are allocated
                space = gallery.GridSpace(1.0, m)
                probe = gallery.integration_functional(space), space.embed_indicator(0.5)
            Q, half = probe
            t = k / m
            expect = 0.0 if t <= 0.5 else (t - 0.5 if t <= 1.0 else 0.5)
            intq = _worst(intq, abs(complex((Q @ X[:m, m:] @ half)[0]).real - expect))
        if k == m:
            endpoint = _worst(bound(X[:m, :m] - np.eye(m)), bound(X[:m, m:] - np.eye(m)))
        if k <= 3 * m:
            X[:m] += X[m:]  # Lambda W: add the second leg's rows to the first's
            X[:, m:] -= X[:, :m]  # (Lambda W) Lambda^{-1}: subtract the first leg's columns
            contraction = _worst(contraction, bound(X) - 1.0)
    fill = {k: Wk[:m, m:] for k, Wk in W.items()}  # each distinct block sliced once
    hankel = bmat([[fill[i + j] for j in ks] for i in ks], format="csr")
    top = vstack([W[k][:m] for k in ks], format="csr")
    diff = (hankel - top @ hstack([W[k][:, m:] for k in ks], format="csr")).tocsr()
    rows, cols = diff.nonzero()
    worst = 0.0
    for b in np.unique(rows // m * len(ks) + cols // m).tolist():
        i, j = divmod(b, len(ks))
        worst = _worst(worst, bound(diff[i * m : (i + 1) * m, j * m : (j + 1) * m].toarray()))
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
    which its scale ``max(1, ...)`` only lowers.  As in :func:`_w_suite`,
    each time of the pair loop is evaluated once, as a sparse matrix, and
    ``T(s) T(t)`` is one sparse product; with partial-permutation
    diagonal blocks its entries are again sums of at most two products
    with a unit factor, so every value is the dense one bit for bit.
    Every maximum is NaN if one of its values is.
    """
    m, step = sem.dim // 2, sem.step
    bound = opcore.norm_upper_bound
    lo = min(a.values)
    ks = [int(round((lo + i * step) / step)) for i in range(0, m, max(1, m // 6))]
    T = _sparse_values(sem, {i + j for i in ks for j in ks}.union(ks), step)
    worst = law = 0.0
    for i in ks:
        for j in ks:
            D = (T[i + j] - T[i] @ T[j]).toarray()
            worst = _worst(worst, bound(D[:m, m:]))
            law = _worst(law, bound(D))
    vnorm = _worst(*(bound(sem.eval(k * step)[:m, m:]) for k in range(1, 2 * m)))
    return _suite_result(
        {
            "reflection_identity_residual": _check(worst, 1e-12),
            "reflection_norm_excess": _check(_worst(0.0, vnorm - 1.0), 1e-12),
            "semigroup_law_residual": _check(law, 1e-12),
        }
    )


def _bhat_suite(sem, T, P):
    """Checks of the circle interpolant ``sem`` of ``T``'s powers, read with its weight ``P``."""
    m = sem.dim // T.shape[0]
    interp = 0.0
    for n in (1, 2, 3):
        exact = np.kron(np.eye(m), np.linalg.matrix_power(T, n))
        interp = _worst(interp, opcore.operator_norm(sem.eval(float(n)) - exact))
    S, Sinv = opcore.weight_factors(P)
    tnorm = opcore.operator_norm(T)
    excess = -math.inf
    for t in np.arange(0.1, 0.95, 0.1):
        wn = opcore.operator_norm(S @ sem.eval(float(t)) @ Sinv)
        excess = _worst(excess, wn - math.sqrt(1.0 / (1.0 - t) + t * tnorm * tnorm))
    slack = 16.0 * max(1.0, tnorm * tnorm) / m
    return _suite_result(
        {
            "integer_interpolation": _check(interp, 1e-12),
            "envelope_excess": _check(_worst(0.0, excess), slack),
        }
    )


def _riemann_suite(sem, space):
    """Checks of the fractional-integration family ``sem`` on ``space``, from four evaluations."""
    T = {t: sem.eval(t) for t in (0.25, 0.5, 1.0, 1.5)}
    tol = 4.0 * space.step ** 0.25
    checks = {
        f"law({s},{t})": _check(opcore.operator_norm(T[s] @ T[t] - T[s + t]), tol)
        for s, t in ((0.25, 0.25), (0.5, 0.5), (1.0, 0.5))
    }
    checks["spectral_radius_t_half"] = _check(opcore.spectral_radius(T[0.5]), 1.0)
    return _suite_result(checks)


def _lemerdy_suite(sem):
    law = _worst(
        *(opcore.semigroup_law_residual(sem, s, t) for s, t in ((0.3, 0.7), (1.0, 2.0)))
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
        samples[_fmt(float(t))] = {"snap_distance": snap, "matrix": opcore._matrix_fields(M)}
    write_json(os.path.join(out, "gallery.json"), {"kind": kind, "dim": sem.dim, "suite": suite})
    write_json(os.path.join(out, "samples.json"), samples)
    return EXIT_OK if suite["passed"] else EXIT_AUDIT


def cmd_audit(cfg, out):
    A = cfg.load_matrix("matrix")
    lam = cfg.get_float("lam", 1.0, positive=True)
    tau = cfg.get_float("tau", 1.0, positive=True)
    horizon = cfg.get_int("horizon", 8, positive=True)
    # the joint-bound audit solves C(T(tau)) once; the Holbrook audit reuses it
    audit, T, one_time = criteria._simconst_bound_audit(A, lam, tau)
    audits = [audit]
    if one_time.finite:
        fact = criteria.factorization_from_certificate(T, one_time.certificate, horizon)
        audits.append(criteria._holbrook_bound_audit(T, fact, one_time))
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


@functools.cache
def _parser():
    """The command-line parser, built once per process.

    ``parse_intermixed_args`` edits it while it parses and restores it
    after, also on a usage error, so consecutive calls see the same
    parser; concurrent calls from several threads would need a lock.
    """
    parser = argparse.ArgumentParser(
        prog="simgroup",
        description="similarity-to-contraction certificates, gallery checks, and observability reports",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("overrides", nargs="*", help="key=value overrides")
    return parser


def main(argv=None):
    args = _parser().parse_intermixed_args(argv)

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
    except MemoryError as exc:
        # a size numpy refuses to allocate, such as gallery m=10**8
        print(f"simgroup: input error: too large for memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StabilityError as exc:
        print(f"simgroup: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SimgroupError as exc:
        print(f"simgroup: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
