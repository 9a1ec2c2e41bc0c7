import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simgroup import weightsolve
from simgroup.exceptions import DimensionError, SaturationError
from simgroup.gallery import DyadicSequence, lemerdy_semigroup, packel_nilpotent_compression
from simgroup.opcore import expm_semigroup, numerical_abscissa, operator_norm, resolvent
from simgroup.weightsolve import (
    LyapunovTarget,
    SteinTarget,
    certificate_check,
    discrete_similarity_constant,
    joint_similarity_constant,
    lyapunov_feasible,
    min_quasi_shift,
    quasi_similarity_constant,
    stein_feasible,
)

from conftest import random_stable
from oracles import grid_similarity_constant

JORDAN = np.array([[-1.0, 4.0], [0.0, -1.0]])
RANK_ONE = np.array([[0.0, 2.0], [0.0, 0.0]])


class TestSteinFeasible:
    def test_contraction_at_unit_budget(self):
        T = 0.5 * np.eye(3)
        res = stein_feasible([T], 1.0)
        assert res and res.certificate.kappa <= 1.0 + 1e-12
        assert res.certificate.residual <= 1e-12

    def test_hand_checked_weight(self):
        res = stein_feasible([RANK_ONE], 2.0)
        assert res
        rep = certificate_check(res.certificate, SteinTarget((RANK_ONE.astype(complex),)))
        assert rep.kappa <= 2.0 + 1e-9
        assert rep.worst <= 1e-9

    def test_distinct_leftzero_idempotents_absent(self):
        E1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        E2 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        res = stein_feasible([E1, E2], 1e6)
        assert not res
        assert res.best_residual >= 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            stein_feasible([np.eye(2), np.eye(3)], 2.0)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            stein_feasible([np.eye(2)], 0.5)

    def test_monotone_replay(self, rng):
        T = 0.8 * random_stable(rng, 4, margin=0.0)
        T = 0.9 * T / max(1.0, operator_norm(T))
        res = stein_feasible([T], 1.5)
        if res:
            # the same weight must verify inside every larger box
            rep = certificate_check(res.certificate, SteinTarget((T,)))
            for bigger in (3.0, 30.0):
                assert rep.kappa <= bigger
                assert rep.worst <= 2e-8


class TestLyapunovFeasible:
    def test_skew_identity_weight(self):
        K = np.array([[1j, 0.0], [0.0, -0.5j]])
        res = lyapunov_feasible(K, 0.0, 1.0)
        assert res and res.certificate.residual <= 1e-10

    def test_jordan_near_critical_budget(self):
        # the optimal weight diag(1,4) sits exactly on the budget kappa=2;
        # a slightly enlarged budget must certify, and probing the exact
        # boundary must still surface a certificate within a fraction of
        # a percent of it (first-order solvers cannot pin the boundary)
        res = lyapunov_feasible(JORDAN, 0.0, 2.001)
        assert res
        rep = certificate_check(res.certificate, LyapunovTarget(JORDAN.astype(complex), 0.0))
        assert rep.worst <= 1e-7
        assert rep.kappa <= 2.001 * (1 + 1e-9)
        boundary = lyapunov_feasible(JORDAN, 0.0, 2.0)
        assert boundary.nearest is not None
        assert boundary.nearest.kappa <= 2.0 * (1 + 5e-3)

    def test_unstable_absent(self):
        A = np.diag([1.0, 0.0])
        res = lyapunov_feasible(A, 0.0, 100.0)
        assert not res


class TestDiscreteConstant:
    def test_contraction_is_one(self):
        v = discrete_similarity_constant(0.3 * np.eye(2))
        assert v.finite and abs(v.constant - 1.0) <= 1e-9

    def test_rank_one_analytic(self):
        v = discrete_similarity_constant(RANK_ONE, tol=1e-5)
        assert v.finite
        assert abs(v.constant - 2.0) <= 1e-4

    def test_supercritical_radius_unbounded(self):
        v = discrete_similarity_constant(np.diag([1.1, 0.0]))
        assert v.status == "unbounded"
        assert "radius" in v.evidence

    def test_defective_unimodular_unbounded(self):
        v = discrete_similarity_constant(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert v.status == "unbounded"

    def test_constant_dominates_norm(self, rng):
        for _ in range(6):
            T = expm_semigroup(random_stable(rng, 5), 1.0)
            v = discrete_similarity_constant(T, tol=1e-3)
            assert v.finite
            assert v.constant >= operator_norm(T) * (1 - 1e-6)

    def test_certificate_within_twice_tol(self, rng):
        T = expm_semigroup(random_stable(rng, 6), 0.7)
        feas_tol = 1e-8
        v = discrete_similarity_constant(T, tol=1e-3, feas_tol=feas_tol)
        rep = certificate_check(v.certificate, SteinTarget((T,)))
        assert rep.worst <= 2 * max(feas_tol, 1e-8 * operator_norm(T) ** 2)


class TestJointConstant:
    def test_skew_is_one(self):
        v = joint_similarity_constant(np.array([[0.4j, 0], [0, -1.2j]]))
        assert v.finite and abs(v.constant - 1.0) <= 1e-9

    def test_jordan_analytic(self):
        v = joint_similarity_constant(JORDAN, tol=1e-4)
        assert v.finite
        assert abs(v.constant - 2.0) <= 1e-3

    def test_nilpotent_unbounded(self):
        v = joint_similarity_constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert v.status == "unbounded"

    def test_continuous_norm_floor(self, rng):
        A = random_stable(rng, 4)
        v = joint_similarity_constant(A, tol=1e-3)
        sup_norm = max(operator_norm(expm_semigroup(A, t)) for t in np.geomspace(0.01, 5, 25))
        assert v.constant >= sup_norm * (1 - 1e-6)


class TestQuasiConstant:
    def test_above_abscissa_is_one(self, rng):
        A = random_stable(rng, 4)
        v = quasi_similarity_constant(A, numerical_abscissa(A) + 0.1)
        assert v.finite and abs(v.constant - 1.0) <= 1e-9

    def test_jordan_zero_shift(self):
        v = quasi_similarity_constant(JORDAN, 0.0, tol=1e-4)
        assert abs(v.constant - 2.0) <= 1e-3

    def test_nilpotent_unit_shift(self):
        v = quasi_similarity_constant(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        assert v.finite and v.constant <= 2.0 + 1e-6
        assert v.certificate.residual <= 1e-6


class TestMinQuasiShift:
    def test_normal_matrix_reaches_growth_bound(self):
        A = np.diag([-1.0, -3.0])
        assert abs(min_quasi_shift(A, 5.0) - (-1.0)) <= 1e-3

    def test_jordan_budget_two(self):
        assert abs(min_quasi_shift(JORDAN, 2.0)) <= 1e-3

    def test_jordan_budget_one(self):
        assert abs(min_quasi_shift(JORDAN, 1.0) - 1.0) <= 1e-3

    def test_empty_bracket_returns_endpoint(self):
        A = np.diag([-2.0 + 0j])
        assert min_quasi_shift(A, 3.0) == -2.0

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            min_quasi_shift(JORDAN, 0.9)


class TestCertificateCheck:
    def test_identity_on_contraction(self):
        from simgroup.weightsolve import WeightCertificate

        cert = WeightCertificate(np.eye(2), 1.0, 0.0)
        rep = certificate_check(cert, SteinTarget((0.5 * np.eye(2),)))
        assert rep.residual == 0.0 and abs(rep.kappa - 1.0) < 1e-12

    def test_hand_lyapunov(self):
        from simgroup.weightsolve import WeightCertificate

        cert = WeightCertificate(np.diag([1.0, 4.0]).astype(complex), 2.0, 0.0)
        rep = certificate_check(cert, LyapunovTarget(JORDAN.astype(complex), 0.0))
        assert rep.residual <= 1e-12
        assert abs(rep.kappa - 2.0) <= 1e-12

    def test_identity_weight_on_rank_one(self):
        from simgroup.weightsolve import WeightCertificate

        cert = WeightCertificate(np.eye(2), 1.0, 0.0)
        rep = certificate_check(cert, SteinTarget((RANK_ONE.astype(complex),)))
        assert abs(rep.residual - 3.0) <= 1e-12


class TestGridOracleAgreement:
    def test_all_small_integer_matrices(self):
        """Exhaustive 2x2 sweep with integer entries in {-2..2}.

        The solver and the weight-grid oracle must agree within 1e-2 on
        every instance they both decide finite, and the verdict's
        certified lower bound must not exceed the oracle; solver-unbounded
        instances must yield an empty oracle grid.
        """
        vals = (-2, -1, 0, 1, 2)
        checked = 0
        for entries in itertools.product(vals, repeat=4):
            T = np.array(entries, dtype=float).reshape(2, 2)
            v = discrete_similarity_constant(T, tol=3e-3)
            oracle = grid_similarity_constant(T, kind="stein")
            if v.finite:
                checked += 1
                assert math.isfinite(oracle), f"oracle missed feasible weight for {entries}"
                assert v.lower <= oracle * (1.0 + 1e-7), (entries, v.lower, oracle)
                assert abs(v.constant - oracle) <= 1e-2 * max(1.0, oracle), (
                    entries,
                    v.constant,
                    oracle,
                )
            else:
                assert not math.isfinite(oracle), (entries, oracle)
        assert checked > 80


def _packel_step(k):
    N = packel_nilpotent_compression(DyadicSequence.powers_of_two("Zminus", k), 1.0)
    return N.eval(N.step)


_RAND3 = np.array([[0.5, 3.0, 1.0], [0.0, -0.4, 2.0], [0.0, 0.0, 0.2]])


def _assert_bracket(v, tol):
    assert v.finite
    assert v.lower <= v.constant <= (1.0 + tol) * v.lower


def _feasibility_tol(target, kappa):
    return max(1e-8 * target.scale(), 8e-16 * target.scale() * kappa * kappa)


class TestConditionEngine:
    """Exact SDP engine on strictly stable single-operator targets, n <= 32."""

    @pytest.mark.parametrize("kind", ["stein", "lyapunov"])
    def test_grid_oracle_within_tol(self, kind):
        rng = np.random.default_rng(31)
        tol = 1e-4
        decided = 0
        for _ in range(8):
            a, b = rng.uniform(-0.9, 0.9, 2)
            c = rng.uniform(2.0, 6.0)
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            M = Q @ np.array([[a, c], [0.0, b]]) @ Q.T
            if kind == "stein":
                v = discrete_similarity_constant(M, tol=tol)
            else:
                M = M - np.eye(2)
                v = joint_similarity_constant(M, tol=tol)
            oracle = grid_similarity_constant(M, kind=kind)
            _assert_bracket(v, tol)
            # the oracle minimizes over grid weights feasible to 1e-11, so
            # up to its grid refinement it is an upper bound as well
            assert v.lower <= oracle * (1.0 + 1e-7)
            assert abs(v.constant - oracle) <= tol * oracle
            decided += v.constant > 1.0 + 1e-6
        assert decided >= 6

    @pytest.mark.parametrize(
        "make, exact, tol",
        [
            (lambda: discrete_similarity_constant(_packel_step(3), tol=1e-4), 2.1538, 1e-4),
            (lambda: discrete_similarity_constant(_packel_step(4), tol=1e-4), 2.3685, 1e-4),
            (lambda: joint_similarity_constant(lemerdy_semigroup(8).generator, tol=1e-3), 1.5260, 1e-3),
        ],
        ids=["packel_k3", "packel_k4", "lemerdy_8_joint"],
    )
    def test_exact_values_pinned(self, make, exact, tol):
        v = make()
        _assert_bracket(v, tol)
        # ``exact`` is rounded to four decimals
        assert v.lower <= exact + 5e-5
        assert v.constant >= exact - 5e-5

    def test_feasible_budget_just_above_constant(self):
        # the bisection solver found no certificate at 1.01 times a
        # feasible kappa for this operator
        T = _packel_step(3)
        res = stein_feasible([T], 1.01 * 2.1538)
        assert res
        rep = certificate_check(res.certificate, SteinTarget((T.real,)))
        assert rep.kappa <= 1.01 * 2.1538
        assert rep.worst <= _feasibility_tol(SteinTarget((T.real,)), rep.kappa)
        assert not stein_feasible([T], 0.99 * 2.1538)

    def test_unreachable_tol_reports_engine_bracket(self):
        # float64 iterates cannot close a bracket of relative width 1e-14
        T = _packel_step(3)
        v = discrete_similarity_constant(T, tol=1e-14)
        assert v.finite
        assert v.evidence.startswith("engine bracket")
        assert v.lower <= v.constant <= discrete_similarity_constant(T, tol=1e-9).constant
        assert abs(v.lower - 2.1538) <= 5e-5
        target = SteinTarget((T.real,))
        rep = certificate_check(v.certificate, target)
        assert rep.worst <= _feasibility_tol(target, v.constant)

    def test_engine_weight_off_the_cone_is_not_returned(self, monkeypatch):
        solve = weightsolve._condition_sdp.solve

        def off_cone(terms, seed, tol, budget=None):
            res = solve(terms, seed, tol, budget=budget)
            res.weight = np.eye(len(seed))
            return res

        monkeypatch.setattr(weightsolve._condition_sdp, "solve", off_cone)
        T = _RAND3
        v = discrete_similarity_constant(T, tol=1e-4)
        assert v.finite
        assert v.evidence.startswith("engine bracket")
        assert v.lower <= v.constant
        rep = certificate_check(v.certificate, SteinTarget((T,)))
        assert rep.worst <= _feasibility_tol(SteinTarget((T,)), v.constant)
        assert abs(rep.kappa - v.constant) <= 1e-9 * v.constant

    def test_stalled_bracket_decides_feasibility(self, monkeypatch):
        def stalled(terms, seed, tol, budget=None):
            return weightsolve._condition_sdp.SdpResult(seed, weightsolve._kappa_of(seed), 1.0, 1)

        monkeypatch.setattr(weightsolve._condition_sdp, "solve", stalled)
        T = _RAND3
        constant = discrete_similarity_constant(T, tol=1e-4)
        assert constant.evidence.startswith("engine bracket")
        assert constant.lower <= constant.constant
        monkeypatch.setattr(
            weightsolve, "_solve_feasibility", lambda *a, **k: pytest.fail("searched")
        )
        # one budget above the stalled bracket, one inside it
        inside = math.sqrt(constant.lower * constant.constant)
        for budget in (1.05 * constant.constant, inside):
            res = stein_feasible([T], budget)
            assert res or res.nearest is not None
            cert = res.certificate if res else res.nearest
            rep = certificate_check(cert, SteinTarget((T,)))
            assert rep.worst <= _feasibility_tol(SteinTarget((T,)), rep.kappa)
            if res:
                assert rep.kappa <= budget * (1.0 + 1e-9)

    def test_near_identity_resolvent_closes(self):
        # 1e4 R(1e4) of a criterion-8 corpus member: the Newton matrix is
        # numerically indefinite at a ridge of 1e-10, which used to leave
        # the bracket at width 3.3e-4
        rng = np.random.default_rng(906)
        for i in range(3):
            n = int(rng.integers(2, 9))
            M = rng.standard_normal((n, n))
            if i % 2:
                M = M + 1j * rng.standard_normal((n, n))
        A = M - (np.max(np.linalg.eigvals(M).real) + 0.4) * np.eye(n)
        tol = 1e-4
        v = discrete_similarity_constant(1e4 * resolvent(A, 1e4), tol=tol)
        assert v.finite
        assert v.evidence == ""
        assert v.constant <= (1.0 + tol) * v.lower

    def test_n32_within_five_seconds(self):
        rng = np.random.default_rng(32)
        M = rng.standard_normal((32, 32)) / math.sqrt(32)
        A = M - (np.max(np.linalg.eigvals(M).real) + 0.3) * np.eye(32)
        start = time.perf_counter()
        v = joint_similarity_constant(A, tol=1e-3)
        elapsed = time.perf_counter() - start
        _assert_bracket(v, 1e-3)
        assert v.constant > 1.0 + 1e-3
        assert elapsed < 5.0

    def test_verdict_json_carries_lower(self):
        v = joint_similarity_constant(JORDAN, tol=1e-4)
        out = v.to_json()
        assert out["lower"] == v.lower
        assert 2.0 * (1 - 1e-4) <= v.lower <= 2.0 <= v.constant

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        complex_entries=st.booleans(),
        discrete=st.booleans(),
        margin=st.floats(0.05, 1.0),
    )
    def test_bracket_properties(self, seed, n, complex_entries, discrete, margin):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n)) * 2.0 / math.sqrt(n)
        if complex_entries:
            M = M + 1j * rng.standard_normal((n, n)) * 2.0 / math.sqrt(n)
        A = M - (np.max(np.linalg.eigvals(M).real) + margin) * np.eye(n)
        tol = 1e-3
        if discrete:
            T = expm_semigroup(A, 0.5)
            v = discrete_similarity_constant(T, tol=tol)
            target = SteinTarget((T,))
            floor = operator_norm(T)
        else:
            v = joint_similarity_constant(A, tol=tol)
            target = LyapunovTarget(A, 0.0)
            floor = max(operator_norm(expm_semigroup(A, t)) for t in np.geomspace(0.01, 10, 30))
        _assert_bracket(v, tol)
        rep = certificate_check(v.certificate, target)
        assert rep.worst <= 2.0 * _feasibility_tol(target, v.constant)
        assert abs(rep.kappa - v.constant) <= 1e-6 * v.constant
        assert v.constant >= floor * (1.0 - 1e-9)
        seed_weight = weightsolve._equation_seed(weightsolve._realified(target))
        assert v.constant <= weightsolve._kappa_of(seed_weight) * (1.0 + 1e-9)


class TestNormFloorErrors:
    def _failing_semigroup(self, monkeypatch, exc):
        class Failing:
            def eval(self, t):
                raise exc

        monkeypatch.setattr(weightsolve, "semigroup_from_generator", lambda A: Failing())

    def test_other_errors_propagate(self, monkeypatch):
        self._failing_semigroup(monkeypatch, RuntimeError("solver bug"))
        with pytest.raises(RuntimeError, match="solver bug"):
            joint_similarity_constant(JORDAN)

    def test_saturation_is_growth_evidence(self, monkeypatch):
        self._failing_semigroup(monkeypatch, SaturationError("overflow"))
        v = joint_similarity_constant(JORDAN)
        assert v.status == "unbounded"


class TestTargetScale:
    def test_scale_computed_once(self, monkeypatch):
        assert SteinTarget((RANK_ONE,)).scale() == 4.0
        target = LyapunovTarget(JORDAN, 0.5)
        expected = max(1.0, 2.0 * operator_norm(JORDAN) + 1.0)
        assert target.scale() == expected
        monkeypatch.setattr(weightsolve, "operator_norm", lambda T: pytest.fail("recomputed"))
        assert target.scale() == expected
