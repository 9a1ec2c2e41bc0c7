"""Pytest plugin: log every condition-number SDP solve of a test run.

Run the suite with the plugin loaded and a log path::

    PYTHONPATH=src:tests python -m pytest -q -p replay_solves --solve-log=solves.log

Write the option with ``=``: pytest picks its root directory from the
paths on the command line before it knows the option, so an existing
log given as a separate word moves the root, and the run loses the
configured ``testpaths``.

Each call of ``simgroup._condition_sdp.solve`` made in the test process
writes one line: the test's node id, hashes of the form, the seed, ``tol``
and ``budget``, then the result's ``kappa``, ``lower``, ``iterations``,
``barrier_steps`` and a hash of its weight.  Floats are written in hex,
so two runs agree line for line only where every solve returned the same
bits.  Comparing the logs of two checkouts with ``cmp`` checks that a
change to the engine keeps its iterates bit-identical; run the same tests
against both sources (``PYTHONPATH=<other>/src:tests``) so that the
calls match.  Solves in subprocesses (the demos) are not logged.

The file is not named ``test_*``, so the suite never collects it; without
``--solve-log`` it changes nothing.
"""

import hashlib

import numpy as np
import pytest

from simgroup import _condition_sdp


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"none;")
        elif isinstance(part, np.ndarray) or np.ndim(part):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape};".encode())
            h.update(a.tobytes())
        else:
            h.update(f"{float(part).hex()};".encode())
    return h.hexdigest()[:16]


def _hex(x):
    return "none" if x is None else float(x).hex()


class _SolveLog:
    """Wraps ``_condition_sdp.solve`` for the session; writes the log at its end."""

    def __init__(self, path):
        self.path = path
        self.lines = []
        self.node = "<session>"
        self.solve = _condition_sdp.solve

    def logged(self, form, seed, tol, budget=None):
        res = self.solve(form, seed, tol, budget=budget)
        M, F, c = form
        self.lines.append(" ".join([
            self.node,
            _digest(M, F, c),
            _digest(seed),
            _hex(tol),
            _hex(budget),
            _hex(res.kappa),
            _hex(res.lower),
            str(res.iterations),
            str(res.barrier_steps),
            _digest(res.weight),
        ]))
        return res

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.node = item.nodeid
        yield
        self.node = "<session>"

    def pytest_unconfigure(self, config):
        _condition_sdp.solve = self.solve
        with open(self.path, "w") as f:
            f.writelines(line + "\n" for line in self.lines)


def pytest_addoption(parser):
    parser.addoption(
        "--solve-log",
        metavar="PATH",
        default=None,
        help="write one line per _condition_sdp.solve call to PATH",
    )


def pytest_configure(config):
    path = config.getoption("--solve-log")
    if path is not None:
        log = _SolveLog(path)
        _condition_sdp.solve = log.logged
        config.pluginmanager.register(log, "solve-log")
