import json
import math
import os

import numpy as np
import pytest

from simgroup import cli, criteria, gallery, opcore, weightsolve
from simgroup.cli import main

DEMO = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def run(command, config, out, *overrides):
    return main([command, "--config", os.path.join(DEMO, config), "--out", str(out), *overrides])


def test_replay_outputs_lists_every_output_file(tmp_path, capsys):
    import replay_outputs

    listing = replay_outputs.replay(str(tmp_path))
    written = sorted(
        os.path.relpath(os.path.join(root, name), tmp_path)
        for root, _, files in os.walk(tmp_path)
        for name in files
    )
    assert [path for path, _ in listing] == written
    assert len(written) == 14
    assert all(len(digest) == 64 for _, digest in listing)
    exits = capsys.readouterr().err.splitlines()
    assert len(exits) == len(os.listdir(DEMO)) and all(line.startswith("exit 0 ") for line in exits)


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

    def test_quasi_mode_weight_is_certified(self, tmp_path):
        assert run("constant", "constant_joint.cfg", tmp_path, "mode=quasi", "shift=-0.5") == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["status"] == "finite"
        A = opcore.load_matrix(os.path.join(DEMO, "..", "data", "jordan_shifted.json"))
        target = weightsolve.LyapunovTarget(A, -0.5)
        P = opcore.matrix_from_json(verdict["P"])
        cert = weightsolve.WeightCertificate(P, verdict["constant"], 0.0)
        rep = weightsolve.certificate_check(cert, target)
        assert rep.worst <= 1e-8 * target.scale()
        assert rep.kappa == pytest.approx(verdict["constant"], rel=1e-9)

    def test_budget_below_the_norm_floor_exit_four(self, tmp_path):
        assert run("constant", "constant_joint.cfg", tmp_path, "kappa_max=1.5") == 4
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["status"] == "infeasible"
        assert verdict["lower"] == pytest.approx(1.558, abs=1e-3)

    @pytest.mark.parametrize("command", ["constant", "classify"])
    def test_budget_below_one_exit_two(self, tmp_path, command):
        assert run(command, "constant_joint.cfg", tmp_path, "kappa_max=0.5") == 2

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

    def test_lemerdy_suite_passes(self, tmp_path):
        assert run("gallery", "gallery_w.cfg", tmp_path, "kind=lemerdy") == 0
        assert json.loads((tmp_path / "gallery.json").read_text())["suite"]["passed"]

    @pytest.mark.parametrize("index_set", ["Zplus", "Z", "Zminus"])
    def test_packel_suite_passes(self, tmp_path, index_set):
        overrides = ("kind=packel", f"J={index_set}", "m=32")
        assert run("gallery", "gallery_w.cfg", tmp_path, *overrides) == 0
        assert json.loads((tmp_path / "gallery.json").read_text())["suite"]["passed"]

    def test_unknown_kind_exit_two(self, tmp_path):
        assert run("gallery", "gallery_w.cfg", tmp_path, "kind=nope") == 2

    def test_unknown_packel_index_set_exit_two(self, tmp_path, capsys):
        assert run("gallery", "gallery_w.cfg", tmp_path, "kind=packel", "J=foo") == 2
        assert "J 'foo'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("times", ["-0.5", "nan", "inf"])
    def test_bad_time_exit_two(self, tmp_path, times):
        assert run("gallery", "gallery_w.cfg", tmp_path, "m=16", f"times={times}") == 2

    def test_size_numpy_refuses_exit_two(self, tmp_path, capsys):
        # 10**8 cells ask for a 568 PiB array, which numpy refuses before allocating
        assert run("gallery", "gallery_w.cfg", tmp_path, "m=100000000") == 2
        err = capsys.readouterr().err
        assert err.startswith("simgroup: input error: too large for memory")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_snap_distance_reported(self, tmp_path):
        assert run("gallery", "gallery_w.cfg", tmp_path, "m=16", "times=0.13") == 0
        samples = json.loads((tmp_path / "samples.json").read_text())
        (entry,) = samples.values()
        assert entry["snap_distance"] > 0


def _corrupted(sem, edit, k=None):
    """``sem`` with ``edit`` applied in place to every value, or only to the one at time ``k * sem.step``."""

    def ev(t):
        X = sem.eval(t).astype(complex)
        if k is None or round(t / sem.step) == k:
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
        suite = cli._packel_suite(_corrupted(sem, _move_first_entry(m)), a)
        assert not suite["checks"]["reflection_identity_residual"]["pass"]
        assert not suite["passed"]

    def test_w_suite_with_a_moved_fill_entry(self):
        m = 16
        suite = cli._w_suite(_corrupted(gallery.w_semigroup(m), _move_first_entry(m)))
        fill = suite["checks"]["fill_identity_residual"]
        assert fill["value"] == math.sqrt(2.0)
        assert not fill["pass"]
        assert not suite["passed"]

    def test_w_suite_with_a_dense_fill_matches_dense_products(self):
        m = 16
        E = _dense_perturbation(m, seed=7)
        sem = _corrupted(gallery.w_semigroup(m), _add_to_corner(E))
        values = {k: c["value"] for k, c in cli._w_suite(sem)["checks"].items()}
        assert values == _dense_w_values(sem)
        assert values["fill_identity_residual"] > 1e-3

    def test_w_suite_with_one_corrupted_fill_time_matches_dense_products(self):
        # the fill residual then comes from a few densified pairs of the block product
        m = 16
        E = _dense_perturbation(m, seed=3)
        sem = _corrupted(gallery.w_semigroup(m), _add_to_corner(E), k=6)
        values = {k: c["value"] for k, c in cli._w_suite(sem)["checks"].items()}
        assert values == _dense_w_values(sem)
        assert values["fill_identity_residual"] > 1e-3

    def test_w_suite_with_a_corrupted_bottom_left_block_matches_dense_products(self):
        # the fill products never read that block; the contraction loop does
        m = 16
        E = _dense_perturbation(m, seed=5)
        sem = _corrupted(gallery.w_semigroup(m), _add_to_bottom_left(E))
        values = {k: c["value"] for k, c in cli._w_suite(sem)["checks"].items()}
        assert values == _dense_w_values(sem)
        assert values["fill_identity_residual"] == 0.0
        assert values["coupling_contraction_excess"] > 1e-3

    @pytest.mark.parametrize("index_set", ["Zplus", "Zminus"])
    def test_packel_suite_with_a_dense_reflection_matches_dense_products(self, index_set):
        a = gallery.DyadicSequence.powers_of_two(index_set, 2)
        m = 32
        if index_set == "Zminus":
            base = gallery.packel_nilpotent_compression(a, 1.0, refine=m // 4)
        else:
            base = gallery.packel_semigroup(a, gallery.GridSpace(max(a.values), m))
        E = _dense_perturbation(m, seed=11)
        sem = _corrupted(base, _add_to_corner(E))
        values = {k: c["value"] for k, c in cli._packel_suite(sem, a)["checks"].items()}
        assert values == _dense_packel_values(sem, a)
        assert values["reflection_identity_residual"] > 1e-3


def _move_first_entry(m):
    """Edit moving the fill block's first nonzero entry one column to the right."""

    def move_entry(X):
        rows, cols = np.nonzero(X[:m, m:])
        if rows.size:
            X[rows[0], m + cols[0]] = 0.0
            X[rows[0], m + (cols[0] + 1) % m] = 1.0

    return move_entry


def _dense_perturbation(m, seed):
    rng = np.random.default_rng(seed)
    return 1e-3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))


def _add_to_corner(E):
    """Edit adding ``E`` to the upper-right (coupling) block."""
    m = E.shape[0]

    def add(X):
        X[:m, m:] += E

    return add


def _add_to_bottom_left(E):
    """Edit adding ``E`` to the lower-left block, zero in every coupling."""
    m = E.shape[0]

    def add(X):
        X[m:, :m] += E

    return add


def _dense_w_values(sem):
    """The values of :func:`cli._w_suite`, from dense products of every evaluation."""
    m = sem.dim // 2
    bound = opcore.norm_upper_bound
    grid = [k / m for k in range(0, 2 * m + 1, max(1, m // 8))]
    worst = 0.0
    for s in grid:
        Ws = sem.eval(s)
        for t in grid:
            Wt = sem.eval(t)
            rhs = Ws[:m, :m] @ Wt[:m, m:] + Ws[:m, m:] @ Wt[m:, m:]
            worst = max(worst, bound(sem.eval(s + t)[:m, m:] - rhs))
    W1 = sem.eval(1.0)
    space = gallery.GridSpace(1.0, m)
    Q, half = gallery.integration_functional(space), space.embed_indicator(0.5)
    intq = 0.0
    for k in range(0, 2 * m + 1, max(1, m // 16)):
        t = k / m
        expect = 0.0 if t <= 0.5 else (t - 0.5 if t <= 1.0 else 0.5)
        intq = max(intq, abs(complex((Q @ sem.eval(t)[:m, m:] @ half)[0]).real - expect))
    Lam = np.block([[np.eye(m), np.eye(m)], [np.zeros((m, m)), np.eye(m)]])
    Laminv = np.block([[np.eye(m), -np.eye(m)], [np.zeros((m, m)), np.eye(m)]])
    contraction = max(bound(Lam @ sem.eval(k / m) @ Laminv) - 1.0 for k in range(3 * m + 1))
    return {
        "fill_identity_residual": worst,
        "unit_time_identity": max(bound(W1[:m, :m] - np.eye(m)), bound(W1[:m, m:] - np.eye(m))),
        "integrated_fill_values": intq,
        "coupling_contraction_excess": contraction,
    }


def _dense_packel_values(sem, a):
    """The values of :func:`cli._packel_suite`, from dense products of every evaluation."""
    m, step = sem.dim // 2, sem.step
    bound = opcore.norm_upper_bound
    lo = min(a.values)
    ks = [int(round((lo + i * step) / step)) for i in range(0, m, max(1, m // 6))]
    worst = law = 0.0
    for i in ks:
        for j in ks:
            D = sem.eval((i + j) * step) - sem.eval(i * step) @ sem.eval(j * step)
            worst = max(worst, bound(D[:m, m:]))
            law = max(law, bound(D))
    vnorm = max(bound(sem.eval(k * step)[:m, m:]) for k in range(1, 2 * m))
    return {
        "reflection_identity_residual": worst,
        "reflection_norm_excess": max(0.0, vnorm - 1.0),
        "semigroup_law_residual": law,
    }


class TestAuditCommand:
    def test_jordan_all_satisfied(self, tmp_path):
        assert run("audit", "audit_jordan.cfg", tmp_path) == 0
        audits = json.loads((tmp_path / "audits.json").read_text())
        assert audits and all(a["satisfied"] for a in audits)

    def test_one_time_constant_is_solved_once(self, tmp_path, monkeypatch):
        solve = weightsolve.discrete_similarity_constant
        calls = []

        def spy(T, *args, **kwargs):
            calls.append(np.array(T, copy=True))
            return solve(T, *args, **kwargs)

        monkeypatch.setattr(criteria, "discrete_similarity_constant", spy)
        monkeypatch.setattr(weightsolve, "discrete_similarity_constant", spy)
        assert run("audit", "audit_jordan.cfg", tmp_path) == 0
        monkeypatch.undo()
        # audit_jordan.cfg: lam = tau = 1, horizon 8
        A = opcore.load_matrix(os.path.join(DEMO, "..", "data", "jordan_shifted.json"))
        T = opcore.expm_semigroup(A, 1.0)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], T)
        # the same file as the public audits composed by hand, each solving C(T(tau))
        fact = criteria.factorization_from_certificate(T, solve(T, tol=1e-3).certificate, 8)
        audits = [criteria.simconst_bound_audit(A, 1.0, 1.0), criteria.holbrook_bound_audit(T, fact)]
        cli.write_json(str(tmp_path / "expected.json"), [a.to_json() for a in audits])
        assert (tmp_path / "audits.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


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

    def test_overflowed_gramian_exit_two(self, tmp_path, capsys):
        system = tmp_path / "system.json"
        A = opcore.matrix_to_json(np.diag([400.0, 1.0]))
        system.write_text(json.dumps({"A": A, "C": opcore.matrix_to_json(np.eye(2))}))
        out = tmp_path / "out"
        assert run("observe", "observe_stable.cfg", out, f"system={system}", "horizon=1.0") == 2
        assert "overflows" in capsys.readouterr().err
        assert os.listdir(out) == []

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

    def test_budget_exhausted_exit_four(self, tmp_path):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(opcore.matrix_to_json(np.array([[-1e-3, 5.0], [0.0, -1e-3]]))))
        assert run("classify", "constant_joint.cfg", tmp_path, f"matrix={path}", "kappa_max=1e3") == 4
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["case"] == "BudgetExhausted"
        assert payload["joint"]["status"] == "infeasible"

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


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command,config,override,message",
        [
            ("gallery", "gallery_w.cfg", "m=1.5", "'m' is not an integer"),
            ("gallery", "gallery_w.cfg", "m=0", "'m' must be positive"),
            ("classify", "constant_joint.cfg", "t_grid=a,b", "'t_grid' is not a comma list"),
            ("classify", "constant_joint.cfg", "t_grid=,", "'t_grid' is empty"),
            ("constant", "constant_joint.cfg", "tol", "override 'tol' is not key=value"),
        ],
    )
    def test_exit_two(self, tmp_path, capsys, command, config, override, message):
        assert run(command, config, tmp_path, override) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_config_line_without_equals_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = joint\nmatrix ../data/jordan_shifted.json\n")
        assert main(["constant", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bad.cfg:2: expected 'key = value'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.cfg"]

    def test_missing_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "nope.cfg"
        assert main(["constant", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "payload,message",
        [("{not json", "invalid JSON"), ('{"C": {"n": 1, "re": [[1.0]]}}', "bad system payload")],
    )
    @pytest.mark.parametrize(
        "command,config", [("observe", "observe_stable.cfg"), ("naboko", "naboko_skew.cfg")]
    )
    def test_bad_system_file_exit_two(self, tmp_path, capsys, command, config, payload, message):
        system = tmp_path / "system.json"
        system.write_text(payload)
        out = tmp_path / "out"
        assert run(command, config, out, f"system={system}") == 2
        assert message in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "C,message",
        [
            ({"rows": 1, "cols": 2, "re": [[math.nan, 1.0]]}, "non-finite"),
            ({"rows": 1, "cols": 2, "re": [[1.0, math.inf]]}, "non-finite"),
            ({"rows": 1, "cols": 2, "re": [[1.0, 1.0]], "im": [[-math.inf, 0.0]]}, "non-finite"),
            ({"rows": 5, "cols": 7, "re": [[1.0, 1.0]]}, "re must be 5 rows of 7 entries"),
            ({"rows": 1, "cols": 3, "re": [[1.0, 1.0, 1.0]]}, "with 2 columns"),
        ],
        ids=["nan", "inf", "imag_inf", "rows_cols", "columns"],
    )
    @pytest.mark.parametrize(
        "command,config", [("observe", "observe_stable.cfg"), ("naboko", "naboko_skew.cfg")]
    )
    def test_bad_observation_exit_two(self, tmp_path, capsys, command, config, C, message):
        # json writes and reads NaN and Infinity; neither reaches a solver
        system = tmp_path / "system.json"
        A = {"n": 2, "re": [[-1.0, 0.0], [0.0, -2.0]]}
        system.write_text(json.dumps({"A": A, "C": C}))
        out = tmp_path / "out"
        assert run(command, config, out, f"system={system}") == 2
        assert message in capsys.readouterr().err
        assert os.listdir(out) == []


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


def _old_jsonable(obj):
    """The tree ``write_json`` encoded with ``json.dumps(..., sort_keys=True)`` before."""
    if isinstance(obj, dict):
        return {k: _old_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list) and set(map(type, obj)) <= {float} and not any(map(math.isinf, obj)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_old_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return ("inf" if x > 0 else "-inf") if math.isinf(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _old_jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _old_json_text(obj):
    return json.dumps(_old_jsonable(obj), sort_keys=True)


#: float64 values whose formatting differs in kind: signed zeros, the
#: smallest subnormal, an integer-valued float printed in exponent form,
#: an inexact decimal, and the non-finite values
ODD_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1, math.inf, -math.inf, math.nan)


class TestJsonWriter:
    def test_scalar_fields(self):
        for x in ODD_FLOATS:
            for value in (x, np.float64(x), [x], (x, 1), {"v": x}, complex(x, -x)):
                obj = {"b": value, "a": [1, np.int64(2), "s", None, True]}
                assert cli._json_text(obj) == _old_json_text(obj), value

    def test_matrices(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((7, 7))
        few = rng.choice(np.array(ODD_FLOATS), (9, 9))
        for M in (dense, few, np.zeros((3, 3)), np.array([[0.0, -0.0], [5e-324, -0.0]])):
            for obj in (opcore.matrix_to_json(np.where(np.isfinite(M), M, 0.0)),
                        {"re": M.tolist()}, M, [M.tolist(), M.tolist()]):
                assert cli._json_text(obj) == _old_json_text(obj)

    @pytest.mark.parametrize("shape", [(1, 1), (256, 256)])
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, math.inf])
    def test_one_value_matrix_as_the_general_path(self, value, shape):
        M = np.full(shape, value)
        text = cli._matrix_text(M)
        assert text == cli._distinct_values_text(M)
        assert text == _old_json_text(M)

    def test_not_matrices(self):
        arrays = (np.ones((2, 2), dtype=np.float32) / 3, np.arange(4).reshape(2, 2), np.zeros((2, 0)),
                  np.array([[1j, -0.0]]), np.array([0.1, -0.0]))
        lists = ([], [[]], [[1.0], [2.0, 3.0]], [[1.0, 2]], [[1.0], (2.0,)], [[np.float64(1.0)]])
        for obj in arrays + lists:
            assert cli._json_text(obj) == _old_json_text(obj)

    @pytest.mark.parametrize(
        "command,config,overrides",
        [
            ("gallery", "gallery_w.cfg", ()),
            ("gallery", "gallery_bhat.cfg", ()),
            ("gallery", "gallery_riemann.cfg", ()),
            ("gallery", "gallery_w.cfg", ("kind=packel", "m=32")),
            ("constant", "constant_discrete.cfg", ()),
            ("classify", "classify_packel.cfg", ()),
            ("observe", "observe_stable.cfg", ()),
            ("naboko", "naboko_skew.cfg", ()),
        ],
    )
    def test_command_outputs(self, tmp_path, monkeypatch, command, config, overrides):
        written = {}
        write_json = cli.write_json

        def record(path, obj):
            written[path] = obj
            write_json(path, obj)

        monkeypatch.setattr(cli, "write_json", record)
        run(command, config, tmp_path, *overrides)
        assert written
        for path, obj in written.items():
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == _old_json_text(obj) + "\n", path
