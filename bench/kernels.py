"""Stand-alone dense-kernel timings (the ``kernel`` rows).

Each row times one numpy/scipy kernel on real float64 operands of the
shapes the solver uses, in the same process environment as the
workloads.  The interleaved row alternates numpy's ``eigh`` with scipy's
``lu_solve``: the two libraries carry separate OpenBLAS thread pools, and
switching between them costs far more than either kernel alone.
"""

import statistics
import time

import numpy as np
import scipy.linalg

SIZES = (8, 32, 128)
INTERLEAVED_SIZES = (32, 128)
#: Seconds spent timing each row, split over ``BATCHES`` batches.
BUDGET_S = 0.2
BATCHES = 5


def _operands(n, rng):
    M = rng.standard_normal((n, n))
    sym = M + M.T
    lu = scipy.linalg.lu_factor(M + n * np.eye(n))
    rhs = rng.standard_normal((n, n))
    theta, _ = scipy.linalg.schur(M - (np.max(np.linalg.eigvals(M).real) + 1.0) * np.eye(n))
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (theta,))
    return {
        "eigh": lambda: np.linalg.eigh(sym),
        "lu_solve": lambda: scipy.linalg.lu_solve(lu, rhs),
        "trsyl": lambda: trsyl(theta, theta, rhs, trana="T", tranb="N", isgn=1),
        "expm": lambda: scipy.linalg.expm(0.1 * M),
        "eigh_lu_interleaved": lambda: (np.linalg.eigh(sym), scipy.linalg.lu_solve(lu, rhs)),
    }


def _per_call_us(fn):
    """Median over ``BATCHES`` of the mean time per call, in microseconds."""
    fn()
    t0 = time.perf_counter()
    fn()
    one = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BUDGET_S / BATCHES / one))
    per = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(per)


def kernel_rows(seed):
    """``kernel.<name>.n<size>_us`` for every kernel and size."""
    rng = np.random.default_rng(seed)
    rows = {}
    for n in SIZES:
        ops = _operands(n, rng)
        for name in ("eigh", "lu_solve", "trsyl", "expm"):
            rows[f"kernel.{name}.n{n}_us"] = _per_call_us(ops[name])
        if n in INTERLEAVED_SIZES:
            rows[f"kernel.eigh_lu_interleaved.n{n}_us"] = _per_call_us(ops["eigh_lu_interleaved"])
    return rows
