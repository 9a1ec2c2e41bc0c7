"""Span tracing for the traced benchmark run.

The tracer wraps every public function (each module's ``__all__``) of the
six ``simgroup`` modules and the numpy/scipy linear-algebra entry points
the program calls, and rebinds the wrappers at every ``simgroup`` import
site.  Each call becomes a span ``(name, start, end, parent)`` kept in
memory; :func:`layer_table` turns the spans into per-layer counts and self
times.  Classes in ``__all__`` are left alone: the program tests
``isinstance`` against them, and a wrapper function would break that.
Private functions are not patched, so time spent in them is charged to
the public caller.
"""

import functools
import inspect
import sys
import time

import numpy as np
import scipy.linalg

#: The package modules, each one layer.
MODULE_LAYERS = ("opcore", "weightsolve", "gallery", "criteria", "control", "cli")

#: numpy/scipy entry points the program calls, grouped by the kernel that
#: dominates them.  ``trsyl`` is reached through ``get_lapack_funcs``, and
#: ``numpy.linalg.norm`` counts as ``svd`` only for the matrix 2-norm.
LINALG_GROUPS = {
    "eigh": [(np.linalg, "eigh"), (np.linalg, "eigvalsh")],
    "svd": [(np.linalg, "cond"), (scipy.linalg, "svdvals")],
    "lu_solve": [
        (scipy.linalg, "lu_factor"),
        (scipy.linalg, "lu_solve"),
        (np.linalg, "solve"),
        (np.linalg, "inv"),
        (np.linalg, "det"),
    ],
    "schur": [(scipy.linalg, "schur")],
    "expm": [(scipy.linalg, "expm")],
    "lyapunov": [
        (scipy.linalg, "solve_continuous_lyapunov"),
        (scipy.linalg, "solve_discrete_lyapunov"),
        (scipy.linalg, "solve_sylvester"),
    ],
    "eig": [(np.linalg, "eig"), (np.linalg, "eigvals")],
    "other": [(np.linalg, "lstsq"), (np.linalg, "matrix_power")],
}

#: Groups reported as ``linalg.<group>.{calls,s}`` metrics.
LINALG_REPORTED = ("eigh", "svd", "lu_solve", "trsyl", "schur", "expm", "lyapunov", "eig")

HARNESS = "harness"


class Tracer:
    """In-memory span recorder.  Spans nest strictly (one thread)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.nbytes = []
        self._stack = []
        self._program = []

    def in_program(self):
        """True while the innermost open span is a program call."""
        return bool(self._program) and self._program[-1]

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self.nbytes.append(0)
        self._stack.append(idx)
        self._program.append(layer_of(name) != HARNESS)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        self._program.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def close_through(self, idx):
        """Close ``idx`` and any span an interrupted call left open above it."""
        while self._stack and self._stack[-1] != idx:
            self.close(self._stack[-1])
        self.close(idx)

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,bytes\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{self.nbytes[i]}\n")


def _operand_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_operand_bytes(o) for o in obj)
    return 0


def _wrap_program(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _wrap_kernel(tracer, name, fn):
    """Span a numpy/scipy call made from inside the program.

    Calls the harness makes itself are not the program's and stay in
    harness time.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.in_program():
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.close(idx)
            tracer.nbytes[idx] = (
                _operand_bytes(args) + _operand_bytes(list(kwargs.values())) + _operand_bytes(out)
            )

    return traced


class Patcher:
    """Rebinds attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _simgroup_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "simgroup" or name.startswith("simgroup."))]


def rebind(patcher, sites, fn, wrapped):
    """Point every name bound to ``fn`` in the ``sites`` modules at ``wrapped``."""
    for site in sites:
        for attr, value in list(vars(site).items()):
            if value is fn:
                patcher.set(site, attr, wrapped)


#: The public calls that each return one similarity verdict.
VERDICT_FUNCTIONS = ("discrete_similarity_constant", "joint_similarity_constant", "quasi_similarity_constant")


class VerdictClock:
    """Wall time of each outermost verdict call, wherever the program makes it.

    Only the three verdict functions are wrapped, once per call, so the
    untraced run can time single verdicts -- including those inside
    curves, classifications, audits and the command line -- at the cost
    of two clock reads per verdict.
    """

    def __init__(self):
        self.times = []
        self._depth = 0

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.times.append(time.perf_counter() - start)

        return timed

    def install(self, patcher):
        import simgroup  # noqa: F401  (make sure every module is loaded)

        from simgroup import weightsolve

        sites = _simgroup_modules()
        for name in VERDICT_FUNCTIONS:
            fn = getattr(weightsolve, name)
            rebind(patcher, sites, fn, self._wrap(fn))


def install(tracer, patcher):
    """Wrap the public program functions and the linalg entry points."""
    import simgroup  # noqa: F401  (make sure every module is loaded)

    sites = _simgroup_modules()
    for layer in MODULE_LAYERS:
        mod = sys.modules[f"simgroup.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                rebind(patcher, sites, fn, _wrap_program(tracer, f"{layer}:{name}", fn))
    for group, entries in LINALG_GROUPS.items():
        for owner, attr in entries:
            fn = getattr(owner, attr)
            label = f"linalg.{group}:{owner.__name__}.{attr}"
            patcher.set(owner, attr, _wrap_kernel(tracer, label, fn))

    norm = np.linalg.norm
    matrix_norm = _wrap_kernel(tracer, "linalg.svd:numpy.linalg.norm", norm)
    other_norm = _wrap_kernel(tracer, "linalg.other:numpy.linalg.norm", norm)

    @functools.wraps(norm)
    def traced_norm(x, ord=None, *args, **kwargs):
        spanned = matrix_norm if ord == 2 and np.ndim(x) == 2 else other_norm
        return spanned(x, ord, *args, **kwargs)

    patcher.set(np.linalg, "norm", traced_norm)

    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    @functools.wraps(get_lapack_funcs)
    def traced_get_lapack_funcs(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        single = isinstance(names, str)
        out = []
        for f in ([funcs] if single else funcs):
            base = f.__name__[1:] if f.__name__[:1] in "sdcz" else f.__name__
            group = "trsyl" if base == "trsyl" else "other"
            out.append(_wrap_kernel(tracer, f"linalg.{group}:lapack.{f.__name__}", f))
        return out[0] if single else tuple(out)

    patcher.set(scipy.linalg, "get_lapack_funcs", traced_get_lapack_funcs)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with parent
    ``-1`` for a root.  Child intervals are clipped to the parent and
    merged, so overlapping children are not counted twice.
    """
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_of(name):
    """``weightsolve:foo`` -> ``weightsolve``; ``linalg.eigh:...`` -> ``linalg``."""
    return name.split(":", 1)[0].split(".", 1)[0]


def layer_table(spans, nbytes=None):
    """Per-layer and per-linalg-group counts and times from the spans.

    Returns a dict of metric name -> value.  ``<layer>.self_s`` over all
    layers, ``harness`` included, adds up to the root spans' duration.
    """
    selfs = self_times(spans)
    table = {}
    for layer in MODULE_LAYERS + ("linalg", HARNESS):
        table[f"{layer}.calls"] = 0
        table[f"{layer}.self_s"] = 0.0
    for group in LINALG_REPORTED:
        table[f"linalg.{group}.calls"] = 0
        table[f"linalg.{group}.s"] = 0.0
    table["linalg.bytes_computed"] = 0
    table["weightsolve.certificate_check_s"] = 0.0
    for i, ((name, start, end, _), self_s) in enumerate(zip(spans, selfs)):
        layer = layer_of(name)
        table[f"{layer}.calls"] = table.get(f"{layer}.calls", 0) + 1
        table[f"{layer}.self_s"] = table.get(f"{layer}.self_s", 0.0) + self_s
        if layer == "linalg":
            group = name.split(":", 1)[0].split(".", 1)[1]
            if group in LINALG_REPORTED:
                table[f"linalg.{group}.calls"] += 1
                table[f"linalg.{group}.s"] += end - start
            if nbytes is not None:
                table["linalg.bytes_computed"] += nbytes[i]
        elif name == "weightsolve:certificate_check":
            table["weightsolve.certificate_check_s"] += end - start
    return table


#: ``verdict_s_tail`` is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    That is the ``100 * (n - TAIL_BEYOND) / n``-th percentile of ``n``
    samples, taken by nearest rank, or the maximum when ``n <=
    TAIL_BEYOND``.  Returns ``(value, percentile, n)``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
