"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload constants_small --seeds 1-10 --seconds 50

Each seed runs ``bench/run.py`` in its own process, one after another,
from the current directory.  For every metric the script prints the
median of the per-seed values and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  Compare the spread with the metric's bound in
``BENCHMARK.json``.  The numeric fields of the ``# info`` line (raw
times, the host's slowness, sample counts) follow, marked ``info.``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="50")
    args = p.parse_args(argv)

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        info = next(json.loads(line[len("# info "):]) for line in lines if line.startswith("# info "))
        for name, value in info.items():
            if isinstance(value, (int, float)):
                values.setdefault(f"info.{name}", []).append(value)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:40s} median={med:.6g} spread={spread:.4f} values={[float(f'{v:.6g}') for v in vals]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
