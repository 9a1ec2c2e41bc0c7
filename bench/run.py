"""Benchmark entry point: one workload, one seed, one process.

Run from the repository root::

    python3 bench/run.py --workload constants_small --seed 1 --seconds 50 --trace 0

The run builds the workload's operations from the seed, sets up three
times (fresh-interpreter import of ``simgroup``, input generation and a
warm-up; the median is ``setup_s``), then cycles through the fixed
operation list for ``--seconds`` (at least one whole round).  The
end-to-end times are divided by the host's slowness, timed in a helper
process (``HostSpeed``); ``# info`` keeps the raw times.
Every operation runs under a deadline and through the correctness gate.
With ``--trace 1`` it instead times the dense kernels, runs one untraced
and one traced round, writes the spans and the per-layer table under
``.bench_out/trace/`` and reports the per-layer metrics.  ``NOTES.md``
describes the workloads, the metrics and the gate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the machine, the thread settings in effect and every failed
operation with its reason.  The exit code is 2 when ``src/simgroup`` is
not there to benchmark.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

EXIT_NO_PROGRAM = 2
SETUP_REPEATS = 5
#: No operation runs past this many seconds after the run starts, whatever
#: its own deadline, so a run that stalls still ends inside 180 seconds.
RUN_CAP_S = 150.0
#: Largest allowed gap between a traced round's wall time and the sum of
#: its layer self times.
ACCOUNTING_TOL_S = 1e-3
#: Time of the ``host_speed.py`` loop on the reference machine at full speed.
CAL_REF_S = 0.013
#: End-to-end metrics that are times, reported at reference host speed.
TIME_METRICS = ("wall_s", "cpu_s", "setup_s", "verdict_s_p50", "verdict_s_tail")


class DeadlineExceeded(BaseException):
    """Raised by the alarm when an operation overruns its deadline.

    It derives from ``BaseException`` because the curve helpers catch
    ``Exception`` per point and would swallow an ordinary one.
    """


class deadline:
    """Context manager arming a one-shot ``SIGALRM`` after ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise DeadlineExceeded(f"exceeded the {self.seconds:g} s deadline")

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


@dataclass
class Record:
    name: str
    seconds: float = 0.0
    kind: str = "ok"  # ok | check | deadline | error
    reason: str = ""
    cpu: float = 0.0
    constants: list = field(default_factory=list)
    files: dict = field(default_factory=dict)
    #: wall time of each outermost verdict call the operation made
    verdicts: list = field(default_factory=list)

    @property
    def ok(self):
        return self.kind == "ok"


@dataclass
class Round:
    wall: float
    cpu: float
    records: list


def cpu_seconds():
    t = os.times()
    return t.user + t.system


class HostSpeed:
    """How slow the host runs, timed by the ``host_speed.py`` helper.

    The reference machine's host runs the program up to 1.7 times slower
    for minutes at a time, so the raw times of ten runs spread by up to a
    third.  ``sample`` times the helper's loop once, while the program
    waits; ``slowness`` is the run's median sample over ``CAL_REF_S``, by
    which the run's times are divided.  The helper gets one BLAS thread;
    the program's process gets no thread variable.
    """

    def __init__(self):
        helper = os.path.join(os.path.dirname(os.path.abspath(__file__)), "host_speed.py")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, helper], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        self.samples = []
        self.sample()
        self.samples.clear()  # the first loop pays for lazy set-up

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))

    def slowness(self):
        return statistics.median(self.samples) / CAL_REF_S

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def run_op(op, env, tracer=None, cap_at=math.inf):
    from workloads import CheckFailed

    rec = Record(op.name)
    seconds = min(op.deadline_s, cap_at - time.perf_counter())
    if seconds <= 0:
        rec.kind, rec.reason = "deadline", f"not started: the run reached its {RUN_CAP_S:g} s cap"
        return rec
    span = tracer.open(f"harness:{op.name}") if tracer else None
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        with deadline(seconds):
            out = op.run(env)
        rec.constants, rec.files = out.constants, out.files
    except DeadlineExceeded as exc:
        rec.kind, rec.reason = "deadline", str(exc)
    except CheckFailed as exc:
        rec.kind, rec.reason = "check", str(exc)
    except Exception as exc:  # the workload must go on; the failure is reported
        rec.kind = "error"
        rec.reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        rec.seconds, rec.cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if span is not None:
            tracer.close_through(span)
    return rec


def run_round(ops, env, cap_at, tracer=None):
    # the clocks are read outside the root span, so a traced round's wall
    # time is measured independently of the spans it is checked against
    t0, c0 = time.perf_counter(), cpu_seconds()
    root = tracer.open("harness:round") if tracer else None
    records = [run_op(op, env, tracer, cap_at) for op in ops]
    if root is not None:
        tracer.close_through(root)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return Round(wall, cpu, records)


def run_rounds(ops, env, seconds, cap_at, host, clock=None):
    """Cycle through the operation list for ``seconds``.

    No operation starts after ``seconds`` once the first round is
    complete, so the last round may be partial.  Returns one list of
    records per round.  The host's speed is sampled after every
    operation.  With a ``VerdictClock``, each record also gets the times
    of the verdicts its operation made.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        records = []
        for op in ops:
            if rounds and time.perf_counter() - start >= seconds:
                break
            made = len(clock.times) if clock else 0
            rec = run_op(op, env, cap_at=cap_at)
            host.sample()
            if clock:
                rec.verdicts = clock.times[made:]
            records.append(rec)
        if rounds:
            compare_round(rounds[0], records)
        if not records:
            return rounds
        rounds.append(records)
        if len(records) < len(ops):
            return rounds


def child_import_seconds(root):
    """Time ``import simgroup`` in a fresh interpreter (startup excluded)."""
    code = "import time; t = time.perf_counter(); import simgroup; print(time.perf_counter() - t)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup(build, warmup, seed, env, root, host):
    """Median over repeats of import + input generation + warm-up."""
    totals = []
    ops = None
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds(root)
        t0 = time.perf_counter()
        ops = build(seed)
        warmup(env)
        totals.append(imported + time.perf_counter() - t0)
        host.sample()
    return statistics.median(totals), ops


def code_hash(root, thread_vars):
    """Digest keying CLI references: the program, its shipped configs, and
    the BLAS thread settings, since the thread count changes reduction
    order and with it the last digits the CLI writes."""
    h = hashlib.sha256(json.dumps({k: os.environ.get(k) for k in thread_vars}, sort_keys=True).encode())
    for sub in ("src", os.path.join("demos", "configs"), os.path.join("demos", "data")):
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def compare_round(first, later):
    """A later round's records must reproduce the first round's constants
    and bytes.

    The later round's output bytes are dropped once compared, so memory
    does not grow with the number of rounds a run fits.
    """
    ref = {rec.name: rec for rec in first}
    for rec in later:
        base = ref[rec.name]
        if rec.ok and base.ok and (rec.constants != base.constants or rec.files != base.files):
            rec.kind, rec.reason = "check", "output differs from the first round of this run"
        rec.files = {}


def compare_reference(records, ref_dir):
    """CLI outputs must match, byte for byte, the first run of this seed."""
    for rec in records:
        if not (rec.ok and rec.files):
            continue
        op_dir = os.path.join(ref_dir, rec.name)
        if not os.path.isdir(op_dir):
            os.makedirs(op_dir + ".tmp", exist_ok=True)
            for name, data in rec.files.items():
                with open(os.path.join(op_dir + ".tmp", name), "wb") as fh:
                    fh.write(data)
            os.replace(op_dir + ".tmp", op_dir)
            continue
        ref = {}
        for name in sorted(os.listdir(op_dir)):
            with open(os.path.join(op_dir, name), "rb") as fh:
                ref[name] = fh.read()
        if ref != rec.files:
            differing = sorted(n for n in set(ref) | set(rec.files) if ref.get(n) != rec.files.get(n))
            rec.kind = "check"
            rec.reason = f"output differs from the first run of this seed: {', '.join(differing)}"


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(rounds, setup_s, per_verdict):
    """The end-to-end metrics of an untraced run.

    ``wall_s`` and ``cpu_s`` add up each operation's median over the
    rounds, so a stall during one sample does not count.  ``verdict_s_*``
    are taken over each verdict's median over the rounds when
    ``per_verdict``, and over whole rounds otherwise.
    """
    from tracing import tail_percentile

    records = [rec for rnd in rounds for rec in rnd]
    by_op = {}
    for rec in records:
        by_op.setdefault(rec.name, []).append(rec)
    if per_verdict:
        # the k-th verdict of an operation is the same call in every round
        samples = {}
        for rec in records:
            for k, t in enumerate(rec.verdicts):
                samples.setdefault((rec.name, k), []).append(t)
        latencies = [statistics.median(ts) for ts in samples.values()]
    else:
        latencies = [sum(rec.seconds for rec in rnd) for rnd in rounds if len(rnd) == len(rounds[0])]
    tail, pct, count = tail_percentile(latencies)
    constants = [c for rec in rounds[0] if rec.ok for c in rec.constants]
    metrics = {
        "wall_s": (sum(statistics.median(r.seconds for r in recs) for recs in by_op.values()), "s"),
        "cpu_s": (sum(statistics.median(r.cpu for r in recs) for recs in by_op.values()), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (sum(rec.ok for rec in records) / len(records), "ratio"),
        "verdict_s_p50": (statistics.median(latencies), "s"),
        "verdict_s_tail": (tail, "s"),
        "constant_geomean": (geomean(constants) if constants else 0.0, "ratio"),
    }
    info = {
        "rounds": len(rounds),
        "latency_unit": "verdict" if per_verdict else "round",
        "latency_samples": count,
        "tail_percentile": pct,
        "constants": len(constants),
    }
    return metrics, info


def per_layer(ops, env, seed, trace_dir, cap_at):
    import kernels
    import tracing

    metrics = {name: (value, "us") for name, value in kernels.kernel_rows(seed).items()}
    untraced = run_round(ops, env, cap_at)
    tracer = tracing.Tracer()
    patcher = tracing.Patcher()
    tracing.install(tracer, patcher)
    try:
        traced = run_round(ops, env, cap_at, tracer)
    finally:
        patcher.restore()
    spans = tracer.spans()
    table = tracing.layer_table(spans, tracer.nbytes)
    layers = tracing.MODULE_LAYERS + ("linalg", tracing.HARNESS)
    gap = traced.wall - sum(table[f"{layer}.self_s"] for layer in layers)
    for name, value in table.items():
        unit = "count" if name.endswith(".calls") else ("bytes" if name.startswith("linalg.bytes") else "s")
        metrics[name] = (value, unit)
    metrics["cli.bytes_written"] = (
        sum(len(data) for rec in traced.records if rec.name.startswith("cli.") for data in rec.files.values()),
        "bytes",
    )
    compare_round(untraced.records, traced.records)
    metrics["trace.wall_s"] = (traced.wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics["process.cpu_per_wall"] = (untraced.cpu / untraced.wall, "ratio")

    os.makedirs(trace_dir, exist_ok=True)
    tracer.write_csv(os.path.join(trace_dir, "spans.csv"))
    with open(os.path.join(trace_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}, fh, indent=1)
        fh.write("\n")
    info = {"spans": len(spans), "accounting_gap_s": gap, "trace_dir": os.path.relpath(trace_dir, env.root)}
    # the harness clock brackets the root span, so the gap is the tracer's
    # own bookkeeping for it: microseconds unless spans went missing
    return metrics, [untraced.records, traced.records], info, 0.0 <= gap <= ACCOUNTING_TOL_S


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cap_at = time.perf_counter() + RUN_CAP_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "simgroup", "__init__.py")):
        print(f"bench: no simgroup sources under {src}; run from the repository root", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, src)
    # the program is imported before the harness touches numpy, so a thread
    # policy the program sets at import time takes effect as shipped
    import simgroup  # noqa: F401

    import machine
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    build, warmup, per_verdict = workloads.WORKLOADS[args.workload]
    out_root = os.path.join(root, ".bench_out")
    run_dir = os.path.join(out_root, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    env = workloads.Env(root, run_dir)
    print("# machine " + json.dumps(machine.record(), sort_keys=True))
    host = HostSpeed()
    try:
        setup_s, ops = setup(build, warmup, args.seed, env, root, host)
        if args.trace:
            trace_dir = os.path.join(out_root, "trace", f"{args.workload}-s{args.seed}")
            metrics, rounds, info, balanced = per_layer(ops, env, args.seed, trace_dir, cap_at)
        else:
            clock, patcher = tracing.VerdictClock(), tracing.Patcher()
            if per_verdict:
                clock.install(patcher)
            try:
                rounds = run_rounds(ops, env, args.seconds, cap_at, host, clock if per_verdict else None)
            finally:
                patcher.restore()
            balanced = True
        ref_dir = os.path.join(out_root, "ref", code_hash(root, machine.THREAD_VARS), f"{args.workload}-s{args.seed}")
        compare_reference(rounds[0], ref_dir)
        if not args.trace:
            metrics, info = end_to_end(rounds, setup_s, per_verdict)
            info["host_slowness"] = slowness = host.slowness()
            for name in TIME_METRICS:
                info[f"raw_{name}"] = metrics[name][0]
                metrics[name] = (metrics[name][0] / slowness, "s")
    finally:
        host.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    records = [rec for rnd in rounds for rec in rnd]
    failed = [rec for rec in records if not rec.ok]
    for rec in failed:
        print(f"# failed {rec.name} [{rec.kind}]: {rec.reason}")
    if not balanced:
        print(f"# failed trace accounting: layer self times miss the traced wall by {info['accounting_gap_s']!r} s")
    info["threads"] = {k: os.environ.get(k) for k in machine.THREAD_VARS}
    print("# info " + json.dumps(info, sort_keys=True))
    print("# ops " + json.dumps({rec.name: round(rec.seconds, 6) for rec in rounds[0]}))
    correct = balanced and all(rec.kind in ("ok", "deadline") for rec in records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
