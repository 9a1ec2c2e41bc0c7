"""Helper process that times a fixed calibration loop on request.

Started by ``run.py`` (class ``HostSpeed``) with one BLAS thread, so it
has no worker threads of its own to compete with the program.  For every
line read on standard input it runs the loop once and prints its wall
time in seconds; it ends when its standard input closes.  The loop calls
numpy's ``eigh`` and scipy's ``lu_solve`` on 6x6 operands with a little
interpreter work in between, the mix the program spends its time in.  It
does not import ``simgroup``, so the program's own settings cannot change
it.
"""

import sys
import time

import numpy as np
import scipy.linalg

ITERATIONS = 200


def main():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6))
    sym = M + M.T
    lu = scipy.linalg.lu_factor(M + 6.0 * np.eye(6))
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(ITERATIONS):
            np.linalg.eigh(sym)
            scipy.linalg.lu_solve(lu, M)
            sum(i * i for i in range(200))
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()
