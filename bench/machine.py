"""Machine and environment record printed with every benchmark run.

The harness sets no BLAS thread variable; it records what is in effect.
Two OpenBLAS copies are loaded (numpy's ILP64 build and scipy's own), so
the effective thread count is read from each through ctypes.
"""

import ctypes
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas():
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                base = os.path.basename(line.split()[-1])
                if "openblas" in base and ".so" in base:
                    paths.add(line.split()[-1])
    except OSError:
        pass
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = restype
        return fn()
    return None


def blas_pools():
    """One record per loaded OpenBLAS copy: file, configuration, threads."""
    pools = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call(
            lib,
            ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config64_", "openblas_get_config"),
            ctypes.c_char_p,
        )
        threads = _call(
            lib,
            (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ),
            ctypes.c_int,
        )
        pools.append(
            {
                "library": os.path.basename(path),
                "config": config.decode() if config else None,
                "threads": threads,
            }
        )
    return pools


def record():
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
        "openblas": blas_pools(),
    }
