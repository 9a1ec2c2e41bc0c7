"""What ``import simgroup`` loads in a fresh interpreter."""

import os
import subprocess
import sys


def test_import_leaves_scipy_sparse_unloaded():
    # the gallery suites import scipy.sparse when they run, not with the package
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, simgroup; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
