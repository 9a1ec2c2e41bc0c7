"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest bench``.
"""

import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, OpOutput  # noqa: E402


def span(name, start, end, parent=-1):
    return (name, start, end, parent)


class TestSelfTimes:
    def test_nested_chain(self):
        spans = [
            span("harness:round", 0.0, 10.0),
            span("weightsolve:joint", 1.0, 9.0, 0),
            span("linalg.eigh:numpy.linalg.eigh", 2.0, 5.0, 1),
        ]
        assert tracing.self_times(spans) == pytest.approx([2.0, 5.0, 3.0])

    def test_siblings_are_summed(self):
        spans = [
            span("cli:main", 0.0, 10.0),
            span("opcore:operator_norm", 1.0, 2.0, 0),
            span("opcore:operator_norm", 4.0, 7.0, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 3.0])

    def test_overlapping_children_counted_once(self):
        spans = [
            span("criteria:classify", 0.0, 10.0),
            span("weightsolve:a", 1.0, 5.0, 0),
            span("weightsolve:b", 3.0, 6.0, 0),
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(5.0)

    def test_children_clipped_to_parent(self):
        spans = [span("gallery:w", 0.0, 4.0), span("opcore:x", 3.0, 6.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(3.0)

    def test_layer_self_times_add_up_to_the_root(self):
        spans = [
            span("harness:round", 0.0, 20.0),
            span("harness:api.joint", 0.5, 12.0, 0),
            span("weightsolve:joint_similarity_constant", 1.0, 11.0, 1),
            span("opcore:operator_norm", 2.0, 3.0, 2),
            span("linalg.svd:numpy.linalg.norm", 2.2, 2.9, 3),
            span("linalg.eigh:numpy.linalg.eigvalsh", 4.0, 6.0, 2),
            span("weightsolve:certificate_check", 7.0, 8.0, 2),
            span("cli:main", 13.0, 19.0, 0),
        ]
        table = tracing.layer_table(spans, [0, 0, 0, 0, 64, 128, 0, 0])
        layers = tracing.MODULE_LAYERS + ("linalg", tracing.HARNESS)
        assert sum(table[f"{layer}.self_s"] for layer in layers) == pytest.approx(20.0)
        assert table["weightsolve.calls"] == 2
        assert table["weightsolve.self_s"] == pytest.approx(10.0 - 1.0 - 2.0)
        assert table["weightsolve.certificate_check_s"] == pytest.approx(1.0)
        assert table["linalg.eigh.calls"] == 1
        assert table["linalg.svd.s"] == pytest.approx(0.7)
        assert table["linalg.bytes_computed"] == 192
        assert table["harness.self_s"] == pytest.approx((20.0 - 11.5 - 6.0) + (11.5 - 10.0))


class TestTailPercentile:
    def test_exactly_ten_samples_beyond(self):
        samples = [float(i) for i in range(40, 0, -1)]
        value, pct, count = tracing.tail_percentile(samples)
        assert count == 40
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(75.0)

    def test_eleven_samples_give_the_minimum(self):
        value, pct, count = tracing.tail_percentile(list(range(11)))
        assert (value, count) == (0, 11)
        assert pct == pytest.approx(100.0 * 1 / 11)

    def test_too_few_samples_give_the_maximum(self):
        assert tracing.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


class TestDeadline:
    def test_alarm_escapes_except_exception(self):
        def stubborn(env):
            while True:
                try:
                    time.sleep(0.01)
                except Exception:
                    pass

        rec = run.run_op(Op("stubborn", stubborn, 0.2), env=None)
        assert rec.kind == "deadline"
        assert 0.2 <= rec.seconds < 2.0

    def test_curve_helper_cannot_swallow_the_deadline(self):
        import numpy as np
        from simgroup import criteria

        A = np.array([[-1.0, 40.0], [0.0, -1.0]]) + 0.3j * np.eye(2)

        def curve(env):
            criteria.small_time_constants(A, np.geomspace(1e-4, 1.0, 50))
            return OpOutput()

        rec = run.run_op(Op("curve", curve, 0.05), env=None)
        assert rec.kind == "deadline"
        assert rec.seconds < 5.0

    def test_operation_past_the_run_cap_is_not_started(self):
        def never(env):
            raise AssertionError("started after the run cap")

        rec = run.run_op(Op("late", never, 5.0), env=None, cap_at=time.perf_counter())
        assert rec.kind == "deadline"
        assert "cap" in rec.reason

    def test_run_cap_shortens_the_deadline(self):
        def slow(env):
            time.sleep(5.0)

        rec = run.run_op(Op("slow", slow, 60.0), env=None, cap_at=time.perf_counter() + 0.2)
        assert rec.kind == "deadline"
        assert rec.seconds < 2.0

    def test_failed_check_is_reported_by_name(self):
        from workloads import require

        def wrong(env):
            require(False, "constant 3, closed form 2")

        rec = run.run_op(Op("api.known", wrong, 5.0), env=None)
        assert (rec.kind, rec.reason) == ("check", "constant 3, closed form 2")


class TestTracedProgram:
    def test_wrappers_record_and_restore(self):
        import numpy as np
        from simgroup import opcore, weightsolve

        original = (weightsolve.operator_norm, np.linalg.eigvalsh)
        tracer, patcher = tracing.Tracer(), tracing.Patcher()
        tracing.install(tracer, patcher)
        try:
            root = tracer.open("harness:round")
            weightsolve.joint_similarity_constant(np.array([[-1.0, 4.0], [0.0, -1.0]]), tol=1e-2)
            np.linalg.eigvalsh(np.eye(2))  # a harness call: not a program span
            tracer.close_through(root)
        finally:
            patcher.restore()
        assert (weightsolve.operator_norm, np.linalg.eigvalsh) == original
        assert opcore.operator_norm is weightsolve.operator_norm
        names = set(tracer.names)
        assert "weightsolve:joint_similarity_constant" in names
        assert "opcore:operator_norm" in names
        assert any(n.startswith("linalg.eigh:") for n in names)
        assert all(p != 0 for n, p in zip(tracer.names, tracer.parents) if n.startswith("linalg."))
        table = tracing.layer_table(tracer.spans(), tracer.nbytes)
        layers = tracing.MODULE_LAYERS + ("linalg", tracing.HARNESS)
        wall = tracer.ends[0] - tracer.starts[0]
        assert sum(table[f"{layer}.self_s"] for layer in layers) == pytest.approx(wall, abs=1e-9)

    def test_layer_self_times_match_the_harness_clock(self):
        import numpy as np
        from simgroup import weightsolve

        def joint(env):
            weightsolve.joint_similarity_constant(np.array([[-1.0, 4.0], [0.0, -1.0]]), tol=1e-2)
            return OpOutput()

        tracer, patcher = tracing.Tracer(), tracing.Patcher()
        tracing.install(tracer, patcher)
        try:
            rnd = run.run_round([Op("joint", joint, 30.0)], env=None, cap_at=time.perf_counter() + 30, tracer=tracer)
        finally:
            patcher.restore()
        table = tracing.layer_table(tracer.spans(), tracer.nbytes)
        layers = tracing.MODULE_LAYERS + ("linalg", tracing.HARNESS)
        gap = rnd.wall - sum(table[f"{layer}.self_s"] for layer in layers)
        assert 0.0 <= gap <= run.ACCOUNTING_TOL_S


class FakeHostSpeed:
    samples = 0

    def sample(self):
        self.samples += 1


class TestRounds:
    def test_last_round_is_partial_and_verdicts_are_attributed(self):
        clock = tracing.VerdictClock()

        def op(name, seconds, verdicts):
            def run_it(env):
                for _ in range(verdicts):
                    clock.times.append(seconds)
                time.sleep(seconds)
                return OpOutput()

            return Op(name, run_it, 5.0)

        ops = [op("a", 0.02, 1), op("b", 0.05, 2), op("c", 0.02, 0)]
        host = FakeHostSpeed()
        rounds = run.run_rounds(ops, None, 0.2, time.perf_counter() + 10, host, clock)
        assert [rec.name for rec in rounds[0]] == ["a", "b", "c"]
        assert host.samples == sum(len(rnd) for rnd in rounds)
        assert all(len(rnd) == 3 for rnd in rounds[:-1]) and 1 <= len(rounds[-1]) <= 3
        assert [len(rec.verdicts) for rec in rounds[0]] == [1, 2, 0]

    def test_wall_adds_per_operation_medians(self):
        rounds = [
            [run.Record("a", 1.0, cpu=2.0, verdicts=[1.0]), run.Record("b", 3.0, cpu=3.0)],
            [run.Record("a", 9.0, cpu=9.0, verdicts=[9.0]), run.Record("b", 3.5, cpu=3.0)],
            [run.Record("a", 1.2, cpu=2.0, verdicts=[1.2])],
        ]
        metrics, info = run.end_to_end(rounds, 0.5, per_verdict=True)
        assert metrics["wall_s"][0] == pytest.approx(1.2 + 3.25)
        assert metrics["cpu_s"][0] == pytest.approx(2.0 + 3.0)
        assert metrics["verdict_s_p50"][0] == pytest.approx(1.2)
        assert info["latency_samples"] == 1
        metrics, info = run.end_to_end(rounds, 0.5, per_verdict=False)
        assert metrics["verdict_s_p50"][0] == pytest.approx((4.0 + 12.5) / 2)
        assert (metrics["verdict_s_tail"][0], info["latency_samples"]) == (12.5, 2)


class TestHostSpeed:
    def test_helper_times_its_loop_and_ends(self):
        host = run.HostSpeed()
        try:
            host.sample()
            host.sample()
            assert len(host.samples) == 2 and host.slowness() > 0
        finally:
            host.close()
        assert host.proc.returncode == 0


class TestCompareRound:
    def test_differing_output_fails_and_later_bytes_are_dropped(self):
        first = [run.Record("a", constants=[2.0], files={"f": b"x"}),
                 run.Record("b", constants=[3.0], files={"g": b"y"})]
        later = [run.Record("a", constants=[2.0], files={"f": b"x"}),
                 run.Record("b", constants=[3.0], files={"g": b"z"})]
        run.compare_round(first, later)
        assert [rec.kind for rec in later] == ["ok", "check"]
        assert all(rec.files == {} for rec in later)
        assert first[1].files == {"g": b"y"}


class TestInputs:
    def test_basis_change_keeps_the_invariants(self):
        import numpy as np
        from workloads import DESIGN_SEED, in_basis, schur_design

        S = schur_design(np.random.default_rng(DESIGN_SEED), 5, complex_entries=True)
        A = in_basis(np.random.default_rng(3), S)
        B = in_basis(np.random.default_rng(3), S)
        assert np.array_equal(A, B)
        assert not np.allclose(A, S)
        assert np.sort_complex(np.linalg.eigvals(A)) == pytest.approx(np.sort_complex(np.diag(S)), abs=1e-10)
        assert np.linalg.svd(A, compute_uv=False) == pytest.approx(np.linalg.svd(S, compute_uv=False), rel=1e-12)


class TestVerdictClock:
    def test_times_each_outermost_verdict_at_every_import_site(self):
        import numpy as np
        from simgroup import criteria, weightsolve

        original = weightsolve.discrete_similarity_constant
        clock, patcher = tracing.VerdictClock(), tracing.Patcher()
        clock.install(patcher)
        try:
            weightsolve.joint_similarity_constant(np.array([[-1.0, 4.0], [0.0, -1.0]]), tol=1e-2)
            curve = criteria.small_time_constants(np.array([[-1.0, 4.0], [0.0, -1.0]]), [0.1, 0.5], tol=1e-2)
        finally:
            patcher.restore()
        assert weightsolve.discrete_similarity_constant is original
        assert criteria.discrete_similarity_constant is original
        assert len(curve.points) == 2
        assert len(clock.times) == 3
        assert all(t > 0 for t in clock.times)


def test_without_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "constants_small", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
