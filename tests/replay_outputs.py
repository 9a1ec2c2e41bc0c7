"""Run every shipped CLI config and print one sha256 per output file.

Run it from the repository root with an output directory::

    PYTHONPATH=src python tests/replay_outputs.py OUT_DIR > listing.txt

Each ``demos/configs/<command>_<name>.cfg`` runs through
:func:`simgroup.cli.main` as ``<command>``, writing into
``OUT_DIR/<command>_<name>/``.  Each output file then gives one line,
``<sha256>  <path relative to OUT_DIR>``, in sorted order; each config's
exit code goes to stderr.  Two checkouts whose listings agree
(``diff listing-a.txt listing-b.txt``) wrote the same bytes for every
config.  Run each checkout with its own ``src`` on ``PYTHONPATH`` and a
fresh ``OUT_DIR``.

The file is not named ``test_*``, so the suite never collects it.
"""

import glob
import hashlib
import os
import sys

from simgroup import cli

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos", "configs")


def replay(out):
    """Run every config into ``out``; return the ``(relative path, sha256)`` of each output."""
    for config in sorted(glob.glob(os.path.join(CONFIGS, "*.cfg"))):
        stem = os.path.splitext(os.path.basename(config))[0]
        code = cli.main([stem.split("_", 1)[0], "--config", config, "--out", os.path.join(out, stem)])
        print(f"exit {code}  {stem}", file=sys.stderr)
    listing = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                listing.append((os.path.relpath(path, out), hashlib.sha256(fh.read()).hexdigest()))
    return sorted(listing)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    for path, digest in replay(sys.argv[1]):
        print(f"{digest}  {path}")
