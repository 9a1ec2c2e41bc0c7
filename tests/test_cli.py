import json
import math
import os

import numpy as np
import pytest

from simgroup import cli, gallery, opcore
from simgroup.cli import main

DEMO = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def run(command, config, out, *overrides):
    return main([command, "--config", os.path.join(DEMO, config), "--out", str(out), *overrides])


class TestConstantCommand:
    def test_identity_matrix(self, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(
            json.dumps({"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2})
        )
        code = run("constant", "constant_discrete.cfg", tmp_path, f"matrix={path}")
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["status"] == "finite"
        assert abs(verdict["constant"] - 1.0) <= 1e-9

    def test_joint_fixture(self, tmp_path):
        assert run("constant", "constant_joint.cfg", tmp_path) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert abs(verdict["constant"] - 2.0) <= 1e-3

    def test_unbounded_exit_three(self, tmp_path):
        assert (
            run("constant", "constant_discrete.cfg", tmp_path, "matrix=../data/supercritical.json")
            == 3
        )

    def test_missing_file_exit_two(self, tmp_path):
        assert run("constant", "constant_discrete.cfg", tmp_path, "matrix=/nope.json") == 2

    def test_bad_mode_exit_two(self, tmp_path):
        assert run("constant", "constant_discrete.cfg", tmp_path, "mode=nonsense") == 2


class TestGalleryCommand:
    def test_wrap_suite_passes(self, tmp_path):
        assert run("gallery", "gallery_w.cfg", tmp_path, "m=32") == 0
        payload = json.loads((tmp_path / "gallery.json").read_text())
        assert payload["suite"]["passed"]
        assert (tmp_path / "samples.json").exists()

    def test_bhat_suite(self, tmp_path):
        assert run("gallery", "gallery_bhat.cfg", tmp_path, "m=64") == 0
        payload = json.loads((tmp_path / "gallery.json").read_text())
        checks = payload["suite"]["checks"]
        assert checks["integer_interpolation"]["pass"]
        assert checks["envelope_excess"]["pass"]

    def test_riemann_suite_reports_law(self, tmp_path):
        assert run("gallery", "gallery_riemann.cfg", tmp_path, "m=128") == 0
        payload = json.loads((tmp_path / "gallery.json").read_text())
        assert any(k.startswith("law(") for k in payload["suite"]["checks"])

    def test_unknown_kind_exit_two(self, tmp_path):
        assert run("gallery", "gallery_w.cfg", tmp_path, "kind=nope") == 2

    @pytest.mark.parametrize("times", ["-0.5", "nan", "inf"])
    def test_bad_time_exit_two(self, tmp_path, times):
        assert run("gallery", "gallery_w.cfg", tmp_path, "m=16", f"times={times}") == 2

    def test_snap_distance_reported(self, tmp_path):
        assert run("gallery", "gallery_w.cfg", tmp_path, "m=16", "times=0.13") == 0
        samples = json.loads((tmp_path / "samples.json").read_text())
        (entry,) = samples.values()
        assert entry["snap_distance"] > 0


def _corrupted(sem, edit):
    """``sem`` with ``edit`` applied in place to every value."""

    def ev(t):
        X = sem.eval(t)
        edit(X)
        return X

    return opcore.sampled_semigroup(sem.dim, ev, "corrupted " + sem.description, step=sem.step)


class TestGallerySuitesCanFail:
    def test_w_suite_exact_on_the_coupling(self):
        suite = cli._w_suite(gallery.w_semigroup(16))
        assert suite["passed"]
        assert suite["checks"]["coupling_contraction_excess"]["value"] == 0.0

    def test_w_suite_without_fill(self):
        m = 16

        def drop_fill(X):
            X[:m, m:] = 0.0

        suite = cli._w_suite(_corrupted(gallery.w_semigroup(m), drop_fill))
        excess = suite["checks"]["coupling_contraction_excess"]
        assert abs(excess["value"] - (math.sqrt(2.0) - 1.0)) <= 1e-15
        assert not excess["pass"]
        assert not suite["passed"]

    def test_packel_suite_with_a_moved_reflection_entry(self):
        a = gallery.DyadicSequence.powers_of_two("Zplus", 2)
        m = 32
        sem = gallery.packel_semigroup(a, gallery.GridSpace(max(a.values), m))
        assert cli._packel_suite(sem, a)["passed"]

        def move_entry(X):
            rows, cols = np.nonzero(X[:m, m:])
            if rows.size:
                X[rows[0], m + cols[0]] = 0.0
                X[rows[0], m + (cols[0] + 1) % m] = 1.0

        suite = cli._packel_suite(_corrupted(sem, move_entry), a)
        assert not suite["checks"]["reflection_identity_residual"]["pass"]
        assert not suite["passed"]


class TestAuditCommand:
    def test_jordan_all_satisfied(self, tmp_path):
        assert run("audit", "audit_jordan.cfg", tmp_path) == 0
        audits = json.loads((tmp_path / "audits.json").read_text())
        assert audits and all(a["satisfied"] for a in audits)


class TestObserveAndNaboko:
    def test_scalar_infinite_gramian(self, tmp_path):
        assert run("observe", "observe_stable.cfg", tmp_path) == 0
        payload = json.loads((tmp_path / "gramian.json").read_text())
        assert payload["horizon"] == "inf"
        assert abs(payload["gramian"]["re"][0][0] - 1.0) <= 1e-9
        assert payload["duality_residual"] <= 1e-9

    def test_infinite_horizon_precondition_exit_five(self, tmp_path):
        assert (
            run("observe", "observe_stable.cfg", tmp_path, "system=../data/system_skew.json")
            == 5
        )

    @pytest.mark.parametrize("horizon", ["abc", "-1"])
    def test_bad_horizon_exit_two(self, tmp_path, horizon):
        assert run("observe", "observe_stable.cfg", tmp_path, f"horizon={horizon}") == 2

    def test_nan_eps_exit_two(self, tmp_path):
        assert run("naboko", "naboko_skew.cfg", tmp_path, "eps=0.1,nan") == 2

    def test_naboko_curve(self, tmp_path):
        assert run("naboko", "naboko_skew.cfg", tmp_path, "eps=0.05,0.1") == 0
        lines = (tmp_path / "naboko.csv").read_text().splitlines()
        assert lines[0] == "eps,quad_min,quad_max,plancherel_min,plancherel_max,relative_gap"
        assert len(lines) == 3
        vals = [float(x) for x in lines[1].split(",")]
        assert abs(vals[2] - np.pi) <= 0.1


class TestClassifyCommand:
    def test_matrix_input(self, tmp_path):
        assert run("classify", "constant_joint.cfg", tmp_path, "t_grid=0.01,0.1,1.0") == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["case"] == "SimilarContraction"
        rows = (tmp_path / "curve_time.csv").read_text().splitlines()
        assert rows[0] == "parameter,constant,status,residual"
        assert len(rows) == 4

    def test_gallery_family_reports_no_case(self, tmp_path):
        # a family has no single generator: only the family curve is reported
        assert run("classify", "classify_packel.cfg", tmp_path) == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["case"] is None and payload["joint"] is None
        assert [p for p, _ in payload["family_curve"]] == [0.0, 1.0, 2.0]
        assert payload["family_diverging"]
        assert sorted(os.listdir(tmp_path)) == ["classification.json", "curve_family.csv"]

    def test_bad_gallery_name_exit_two(self, tmp_path):
        assert run("classify", "classify_packel.cfg", tmp_path, "gallery=unknown") == 2


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "command,config,override",
        [
            ("constant", "constant_joint.cfg", "tol=inf"),
            ("constant", "constant_joint.cfg", "kappa_max=inf"),
            ("constant", "constant_joint.cfg", "mode=quasi shift=inf"),
            ("constant", "constant_joint.cfg", "mode=quasi shift=-inf"),
            ("naboko", "naboko_skew.cfg", "xi_max=inf"),
            ("audit", "audit_jordan.cfg", "lam=inf"),
        ],
    )
    def test_exit_two(self, tmp_path, command, config, override):
        assert run(command, config, tmp_path, *override.split()) == 2
        assert os.listdir(tmp_path) == []


class TestByteStability:
    @pytest.mark.parametrize(
        "command,config",
        [
            ("constant", "constant_joint.cfg"),
            ("constant", "constant_discrete.cfg"),
            ("gallery", "gallery_bhat.cfg"),
            ("observe", "observe_stable.cfg"),
            ("naboko", "naboko_skew.cfg"),
        ],
    )
    def test_two_runs_identical_bytes(self, tmp_path, command, config):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert run(command, config, out1) == run(command, config, out2)
        files1 = sorted(os.listdir(out1))
        assert files1 == sorted(os.listdir(out2))
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
