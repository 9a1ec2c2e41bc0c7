import math

import numpy as np
import pytest
import scipy.linalg

from simgroup.criteria import (
    average_renorm,
    average_renorm_factor_audit,
    classify,
    factorization_from_certificate,
    holbrook_bound_audit,
    liapunov_renorm,
    local_commutation_slope,
    nagy_isometry_test,
    post_widder,
    resolvent_constants,
    simconst_bound_audit,
    small_time_constants,
    sup_norm_on_interval,
)
from simgroup.exceptions import InvalidWeightError, NearSingularError, StabilityError
from simgroup.gallery import (
    DyadicSequence,
    HolbrookFactorization,
    packel_nilpotent_compression,
    packel_nilpotent_lower_bound,
    schaeffer_compression,
    schaeffer_dilation,
)
from simgroup.opcore import (
    expm_semigroup,
    operator_norm,
    sampled_semigroup,
    semigroup_from_generator,
    weight_factors,
)
from simgroup.weightsolve import (
    LyapunovTarget,
    certificate_check,
    discrete_similarity_constant,
    joint_similarity_constant,
)

from conftest import random_stable
from oracles import simpson_weight_average

JORDAN = np.array([[-1.0, 4.0], [0.0, -1.0]])


class TestSmallTimeCurve:
    def test_skew_is_constant_one(self):
        K = np.array([[0.5j, 0.0], [0.0, -1.0j]])
        curve = small_time_constants(K, [0.01, 0.1, 1.0])
        assert all(abs(p.constant - 1.0) <= 1e-9 for p in curve.points)

    def test_jordan_limit_is_joint_constant(self):
        curve = small_time_constants(JORDAN, np.geomspace(1e-3, 1.0, 5), tol=1e-4)
        assert curve.sup_constant <= 2.0 * (1 + 1e-3)
        assert abs(curve.limit_estimate - 2.0) <= 2e-3

    def test_supercritical_all_points_unbounded(self):
        # an eigenvalue at +0.1 puts r(exp(tA)) above 1 for every t > 0,
        # so each per-time constant is unbounded on spectral evidence
        A = np.diag([0.1, -1.0])
        curve = small_time_constants(A, [0.05, 40.0])
        for p in curve.points:
            assert p.verdict.status == "unbounded"


class TestResolventCurve:
    def test_skew_resolvents_contractive(self):
        K = np.array([[0.5j, 0.0], [0.0, -1.0j]])
        curve = resolvent_constants(K, [1.0, 10.0])
        assert all(abs(p.constant - 1.0) <= 1e-9 for p in curve.points)

    def test_jordan_increases_toward_joint(self):
        curve = resolvent_constants(JORDAN, [4.0, 16.0, 64.0, 256.0], tol=1e-4)
        vals = [p.constant for p in curve.points]
        assert all(b >= a * (1 - 1e-6) for a, b in zip(vals, vals[1:]))
        assert abs(curve.limit_estimate - 2.0) <= 0.05 * 2.0

    def test_spectrum_point_reports_error(self):
        A = np.diag([2.0, -1.0])
        curve = resolvent_constants(A, [2.0, 50.0])
        assert curve.points[0].error
        assert curve.points[1].verdict is not None


class TestClassify:
    def test_dissipative(self):
        rep = classify(np.diag([-1.0, -2.0]))
        assert rep.case == "SimilarContraction"
        assert abs(rep.joint.constant - 1.0) <= 1e-9

    def test_consistency_invariant(self):
        rep = classify(JORDAN, t_grid=np.geomspace(1e-3, 1.0, 5))
        assert rep.case == "SimilarContraction"
        assert abs(rep.time_curve.sup_constant - rep.joint.constant) <= 0.02 * rep.joint.constant

    def test_packel_family_diverges(self):
        fam = [
            packel_nilpotent_compression(DyadicSequence.powers_of_two("Zminus", k), 1.0)
            for k in (2, 3, 4)
        ]
        rep = classify(np.diag([-0.5 + 0j]), family=fam)
        assert rep.family_diverging
        for k, (_, c) in zip((2, 3, 4), rep.family_curve):
            assert c >= packel_nilpotent_lower_bound(
                DyadicSequence.powers_of_two("Zminus", k), 1.0
            )

    def test_finite_lemerdy_section_collapses(self):
        from simgroup.gallery import lemerdy_semigroup

        rep = classify(lemerdy_semigroup(8).generator, tol=1e-3)
        assert rep.case == "SimilarContraction"
        assert rep.joint.finite


class TestPostWidder:
    def test_zero_generator(self):
        for n in (1, 7):
            assert operator_norm(post_widder(np.zeros((2, 2)), 1.0, n) - np.eye(2)) == 0.0

    def test_scalar_value(self):
        val = post_widder(np.diag([-1.0]), 1.0, 64)[0, 0]
        assert abs(val - (1 + 1 / 64) ** (-64)) <= 1e-14

    def test_monotone_refinement(self, stable_corpus):
        for A in stable_corpus[:4]:
            E = expm_semigroup(A, 1.0)
            errs = [operator_norm(post_widder(A, 1.0, 2**k) - E) for k in (5, 7, 10)]
            assert errs[0] > errs[1] > errs[2]

    def test_spectrum_hit_raises(self):
        with pytest.raises(NearSingularError):
            post_widder(np.diag([4.0, -1.0]), 1.0, 4)  # shift n/t = 4 in spectrum


class TestAverageRenorm:
    def test_skew_average_is_scalar(self):
        K = np.array([[1j, 0.0], [0.0, 1j]])
        cert = average_renorm(K, np.eye(2), 1.0)
        assert abs(cert.kappa - 1.0) <= 1e-9

    def test_jordan_certificate(self):
        cert = average_renorm(JORDAN, np.diag([1.0, 4.0]), 1.0)
        assert cert.residual <= 1e-6
        rep = certificate_check(cert, LyapunovTarget(JORDAN.astype(complex), 0.0))
        assert rep.residual <= 1e-6

    def test_quadrature_against_reference(self):
        cert = average_renorm(JORDAN, np.diag([1.0, 4.0]), 1.0)
        sem = semigroup_from_generator(JORDAN)
        M = sup_norm_on_interval(sem, 1.0, inflate=0.0)
        ref = simpson_weight_average(JORDAN, np.diag([1.0, 4.0]), 1.0) / (M * M)
        assert operator_norm(cert.weight - ref) <= 1e-9 * operator_norm(ref)

    def test_stiff_against_lyapunov_closed_form(self):
        # spectrum from -0.1 to -40: exp(-tau1 A*) reaches e^40 at tau1 = 1
        rng = np.random.default_rng(7)
        X = np.eye(8) + 0.3 * rng.standard_normal((8, 8)) / math.sqrt(8)
        A = np.linalg.solve(X, np.diag(-np.linspace(0.1, 40.0, 8)) @ X)
        P_eq = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(8))
        cert = average_renorm(A, P_eq, 1.0)
        Y = scipy.linalg.solve_continuous_lyapunov(A.T, -P_eq)
        E = expm_semigroup(A, 1.0)
        M = sup_norm_on_interval(semigroup_from_generator(A), 1.0, inflate=0.0)
        ref = (Y - E.T @ Y @ E) / (M * M)
        assert operator_norm(cert.weight - ref) <= 1e-9 * operator_norm(ref)

    def test_residual_is_lyapunov_defect(self):
        cert = average_renorm(JORDAN, np.diag([1.0, 4.0]), 1.0)
        rep = certificate_check(cert, LyapunovTarget(JORDAN.astype(complex), 0.0))
        assert cert.residual == rep.residual
        assert cert.kappa == rep.kappa

    def test_invalid_precondition(self):
        with pytest.raises(InvalidWeightError):
            average_renorm(JORDAN, np.eye(2), 1.0)  # identity does not certify tau=1

    def test_factor_audit_pattern(self):
        aud = average_renorm_factor_audit(JORDAN, np.diag([1.0, 4.0]), 1.0)
        assert aud.satisfied


class TestLiapunovRenorm:
    def test_nilpotent_group_half_rate(self):
        cert = liapunov_renorm(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
        assert cert.kappa < 50

    def test_normal_above_spectrum(self):
        cert = liapunov_renorm(np.diag([-1.0, -2.0]), -0.5)
        assert abs(cert.kappa - 1.0) <= 1e-9

    def test_below_growth_bound_raises(self):
        with pytest.raises(StabilityError):
            liapunov_renorm(np.diag([0.5, -1.0]), 0.0)

    def test_bad_certificate_rejected(self, monkeypatch):
        # the identity weight misses the rate -0.5 of this Jordan block
        def identity_verdict(A, shift, tol):
            return joint_similarity_constant(np.diag([-1.0, -1.0]), tol=tol)

        monkeypatch.setattr("simgroup.criteria.quasi_similarity_constant", identity_verdict)
        with pytest.raises(StabilityError, match="violates the envelope"):
            liapunov_renorm(JORDAN, -0.5)


class TestSimconstAudit:
    def test_dissipative_arithmetic(self):
        aud = simconst_bound_audit(np.diag([-1.0, -2.0]), 1.0, 1.0)
        assert aud.satisfied
        assert abs(aud.lhs - 1.0) <= 1e-9
        base = math.sqrt(2) * (math.e**2 - 1) / 2 + 2 * math.sqrt(2)
        assert aud.rhs == pytest.approx(base, rel=0.03)

    def test_rhs_floor(self, stable_corpus):
        for A in stable_corpus[:3]:
            aud = simconst_bound_audit(A, 1.0, 1.0)
            assert aud.rhs >= 3 * math.sqrt(2) - 1e-12

    def test_jordan_satisfied(self):
        aud = simconst_bound_audit(JORDAN, 1.0, 1.0)
        assert aud.satisfied

    def test_vacuous_when_unbounded(self):
        aud = simconst_bound_audit(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 1.0)
        assert aud.status == "vacuous"


class TestHolbrookAudit:
    def test_contraction_trivial_factorization(self):
        T = 0.6 * np.eye(2)
        inner = sampled_semigroup(
            2, lambda t: np.linalg.matrix_power(T, int(round(t))), "powers", step=1.0
        )
        fact = HolbrookFactorization(np.eye(2), np.eye(2), inner, 6)
        aud = holbrook_bound_audit(T, fact)
        assert aud.satisfied
        assert aud.lhs == pytest.approx(1.0, abs=1e-9)
        assert aud.rhs == pytest.approx(1.0, abs=1e-9)

    def test_schaeffer_compression_fixture(self, rng):
        M = rng.standard_normal((3, 3))
        S0 = 0.8 * M / operator_norm(M)
        U = schaeffer_dilation(S0, 6)
        d = 3
        amap = np.zeros((d, U.shape[0]), dtype=complex)
        amap[:, 6 * d : 7 * d] = np.eye(d)
        bmap = amap.conj().T
        inner = sampled_semigroup(
            U.shape[0], lambda t: np.linalg.matrix_power(U, int(round(t))), "dilation", step=1.0
        )
        fact = HolbrookFactorization(amap, bmap, inner, 6)
        aud = holbrook_bound_audit(S0, fact)
        assert aud.satisfied
        assert aud.rhs == pytest.approx(1.0, abs=1e-9)  # defects vanish, norms are 1

    def test_explicit_rank_one_fixture(self):
        T = np.array([[0.0, 2.0], [0.0, 0.0]])
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        inner = sampled_semigroup(
            2, lambda t: np.linalg.matrix_power(S, int(round(t))), "shift", step=1.0
        )
        fact = HolbrookFactorization(
            np.diag([2.0, 1.0]).astype(complex), np.diag([0.5, 1.0]).astype(complex), inner, 6
        )
        aud = holbrook_bound_audit(T, fact)
        assert aud.rhs >= 2.0 - 1e-12
        assert aud.satisfied

    def test_certificate_factorization(self, rng):
        T = expm_semigroup(random_stable(rng, 4), 1.0)
        v = discrete_similarity_constant(T, tol=1e-4)
        fact = factorization_from_certificate(T, v.certificate, 8)
        aud = holbrook_bound_audit(T, fact)
        assert aud.satisfied


class TestIsometryAndSlope:
    def test_skew_hermitian(self):
        rep = nagy_isometry_test(np.array([[0.7j, 0], [0, -0.2j]]))
        assert rep.positive
        assert abs(rep.alpha - 1.0) <= 1e-9 and abs(rep.beta - 1.0) <= 1e-9
        assert rep.defect <= 1e-10

    def test_nilpotent_negative(self):
        rep = nagy_isometry_test(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not rep.positive

    def test_transformed_skew_weight_condition(self):
        S = np.array([[1.0, 0.6], [0.0, 1.0]])
        A = S @ np.diag([1j, -0.7j]) @ np.linalg.inv(S)
        rep = nagy_isometry_test(A, t_grid=np.linspace(0.25, 60.0, 70))
        assert rep.positive
        kS = math.sqrt(np.linalg.cond(S.conj().T @ S))
        assert rep.kappa <= kS * (1 + 1e-6)

    def test_defect_is_worst_over_all_vectors(self):
        rng = np.random.default_rng(3)
        X = np.eye(6) + 0.8 * np.triu(rng.standard_normal((6, 6)), 1)
        A = np.linalg.solve(X, np.diag(1j * np.array([0.3, -0.7, 1.1, 1.9, -1.4, 0.5])) @ X)
        rep = nagy_isometry_test(A)
        assert rep.positive
        S, Sinv = weight_factors(rep.weight)
        sem = semigroup_from_generator(A)
        worst = 0.0
        for t in np.linspace(0.25, 20.0, 33):
            E = sem.eval(t)
            _, _, Vh = np.linalg.svd(S @ E @ Sinv)
            # the extreme right singular vectors, pulled back to orbit vectors
            for h in (Sinv @ Vh[0].conj(), Sinv @ Vh[-1].conj()):
                ratio = np.linalg.norm(S @ (E @ h)) / np.linalg.norm(S @ h)
                worst = max(worst, abs(ratio - 1.0))
        assert worst > 0.1
        assert rep.defect == pytest.approx(worst, rel=1e-9)

    def test_slope_identical_semigroups(self):
        sem = semigroup_from_generator(JORDAN)
        rep = local_commutation_slope(sem, sem, np.eye(2), np.geomspace(1e-3, 0.05, 6))
        assert rep.linear
        assert abs(rep.slope) <= 1e-12

    def test_slope_estimates_generator_gap(self):
        B = np.array([[-1.0, 0.5], [0.0, -2.0]])
        Ts = semigroup_from_generator(B)
        Ss = semigroup_from_generator(B + 0.3 * np.eye(2))
        rep = local_commutation_slope(Ts, Ss, np.eye(2), np.geomspace(1e-3, 0.03, 8))
        assert rep.slope == pytest.approx(0.3, rel=0.05)

    def test_exact_intertwiner(self):
        A = JORDAN
        S = np.array([[2.0, 1.0], [0.0, 1.0]])
        B = np.linalg.inv(S) @ A @ S
        Ts = semigroup_from_generator(A)
        Ss = semigroup_from_generator(B)
        rep = local_commutation_slope(Ts, Ss, S, np.geomspace(1e-3, 0.05, 6))
        assert rep.linear and abs(rep.slope) <= 1e-9
