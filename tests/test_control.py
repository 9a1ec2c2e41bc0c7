import math

import numpy as np
import pytest
import scipy.linalg

from simgroup.control import (
    ObservedSystem,
    _gramian_identity_residual,
    cesaro_orbit_mean,
    defect_observation,
    duality_check,
    finite_time_observability_test,
    gramian_integral,
    infinite_gramian,
    naboko_integral,
    observability_gramian,
    system_from_json,
)
from simgroup.exceptions import DimensionError, StabilityError
from simgroup.opcore import expm_semigroup, matrix_to_json, operator_norm
from simgroup.weightsolve import LyapunovTarget, certificate_check

from conftest import random_stable

JORDAN = np.array([[-1.0, 4.0], [0.0, -1.0]])


class TestObservabilityGramian:
    def test_zero_observation(self, rng):
        A = random_stable(rng, 3)
        rep = observability_gramian(ObservedSystem(A, np.zeros((1, 3))), 1.5)
        assert operator_norm(rep.gramian) <= 1e-14
        E = expm_semigroup(A, 1.5)
        lam_min = float(np.linalg.eigvalsh(E.conj().T @ E)[0])
        assert rep.alpha == pytest.approx(lam_min, rel=1e-9)
        assert not rep.exactly_observable

    def test_constant_orbits(self):
        rep = observability_gramian(ObservedSystem(np.zeros((2, 2)), np.eye(2)), 2.0)
        assert operator_norm(rep.gramian - 2.0 * np.eye(2)) <= 1e-12
        assert rep.alpha == pytest.approx(3.0, abs=1e-12)
        assert rep.beta == pytest.approx(3.0, abs=1e-12)

    def test_scalar_infinite_limit(self):
        rep = observability_gramian(ObservedSystem(np.diag([-1.0]), np.eye(1)), 40.0)
        assert rep.gramian[0, 0].real == pytest.approx(0.5, abs=1e-10)

    def test_cocycle_identity(self, stable_corpus):
        for A in stable_corpus[:4]:
            n = A.shape[0]
            C = np.arange(1, n + 1, dtype=float).reshape(1, n) / n
            Q = C.T @ C
            s, t = 0.6, 1.1
            Gs = gramian_integral(A, Q, s)
            Gt = gramian_integral(A, Q, t)
            Gst = gramian_integral(A, Q, s + t)
            Es = expm_semigroup(A, s)
            assert operator_norm(Gst - (Gs + Es.conj().T @ Gt @ Es)) <= 1e-9

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            ObservedSystem(np.eye(2), np.eye(3))

    def test_full_observation_long_horizon(self):
        # the stiff mode's exp(-tau A*) reaches e^40 on this horizon
        A = np.array([[-0.5, 1.0], [0.0, -4.0]])
        rep = observability_gramian(ObservedSystem(A, np.eye(2)), 10.0)
        P = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
        E = expm_semigroup(A, 10.0)
        H = E.conj().T @ E + P - E.conj().T @ P @ E
        assert rep.beta == pytest.approx(float(np.linalg.eigvalsh(H)[-1]), rel=1e-12)
        assert rep.exactly_observable


class TestFiniteTimeTest:
    def test_full_observation_positive(self, rng):
        A = random_stable(rng, 3)
        out = finite_time_observability_test(ObservedSystem(A, np.eye(3)), 1.0)
        assert out["positive"] and out["consistent"]

    def test_jordan_pair_observable(self):
        sys_obj = ObservedSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]]))
        out = finite_time_observability_test(sys_obj, 1.0)
        assert out["positive"]
        assert math.isfinite(out["quasi_constant"])

    def test_unobservable_direction(self):
        sys_obj = ObservedSystem(np.zeros((2, 2)), np.array([[1.0, 0.0]]))
        rep = observability_gramian(sys_obj, 1.0)
        assert not rep.exactly_observable


class TestInfiniteGramian:
    def test_scalar(self):
        rep = infinite_gramian(ObservedSystem(np.diag([-1.0]), np.array([[math.sqrt(2.0)]])))
        assert rep.gramian[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert rep.exactly_observable
        assert rep.certificate.residual <= 1e-9

    def test_zero_observation_degenerate(self):
        rep = infinite_gramian(ObservedSystem(np.diag([-1.0, -2.0]), np.zeros((1, 2))))
        assert operator_norm(rep.gramian) <= 1e-14
        assert not rep.exactly_observable
        assert rep.certificate is None

    def test_requires_strict_stability(self):
        with pytest.raises(StabilityError):
            infinite_gramian(ObservedSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)))

    def test_residual_is_lyapunov_defect(self, rng):
        A = random_stable(rng, 5)
        rep = infinite_gramian(ObservedSystem(A, rng.standard_normal((5, 5))))
        check = certificate_check(rep.certificate, LyapunovTarget(A, 0.0))
        assert rep.certificate.residual == check.residual


class TestDefectObservation:
    def test_skew_zero_defect(self):
        C = defect_observation(np.array([[0.9j, 0], [0, -0.4j]]), np.eye(2))
        assert operator_norm(C) <= 1e-12

    def test_scalar(self):
        C = defect_observation(np.diag([-1.0]), np.eye(1))
        assert C[0, 0].real == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_jordan_weight(self):
        C = defect_observation(JORDAN, np.diag([1.0, 4.0]))
        assert operator_norm(C.conj().T @ C - np.array([[2.0, -4.0], [-4.0, 8.0]])) <= 1e-12

    def test_round_trip(self, stable_corpus):
        for A in stable_corpus[:4]:
            n = A.shape[0]
            X = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
            # strict Lyapunov weight via the equation
            import scipy.linalg

            P = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -(X @ X.T + np.eye(n)))
            P = 0.5 * (P + P.conj().T)
            P = P / np.linalg.eigvalsh(P)[0]
            C = defect_observation(A, P)
            rep = infinite_gramian(ObservedSystem(A, C))
            assert operator_norm(rep.gramian - P) <= 1e-8 * operator_norm(P)

    def test_gramian_identity(self):
        P = np.diag([1.0, 4.0])
        C = defect_observation(JORDAN, P)
        for t in (0.3, 1.0, 2.5):
            G = gramian_integral(JORDAN, C.conj().T @ C, t)
            E = expm_semigroup(JORDAN, t)
            assert operator_norm(G - (P - E.conj().T @ P @ E)) <= 1e-8

    def test_not_dissipative_raises(self):
        with pytest.raises(StabilityError):
            defect_observation(JORDAN, np.eye(2))


class TestDuality:
    def test_spectra_match(self, stable_corpus):
        for A in stable_corpus[:4]:
            n = A.shape[0]
            C = np.ones((2, n)) / n
            d = duality_check(ObservedSystem(A, C), 1.0)
            assert d["residual"] <= 1e-10

    def test_zero_both_zero(self):
        d = duality_check(ObservedSystem(np.diag([-1.0, -1.0]), np.zeros((1, 2))), 1.0)
        assert d["residual"] <= 1e-14
        assert max(d["obs_eigs"]) <= 1e-14

    def test_identity_case(self):
        d = duality_check(ObservedSystem(np.zeros((2, 2)), np.eye(2)), 1.0)
        assert max(abs(x - 1.0) for x in d["obs_eigs"]) <= 1e-12

    def test_perturbed_gramian_fails(self, stable_corpus):
        for A in stable_corpus[:4]:
            n = A.shape[0]
            C = np.ones((2, n)) / n
            Q = C.T @ C
            G = gramian_integral(A, Q, 1.0)
            assert _gramian_identity_residual(A, Q, G, 1.0) <= 1e-10
            bumped = G + 1e-6 * operator_norm(G) * np.eye(n)
            assert _gramian_identity_residual(A, Q, bumped, 1.0) >= 1e-8

    def test_gramian_dimension_checked(self):
        with pytest.raises(DimensionError):
            _gramian_identity_residual(JORDAN, np.eye(2), np.eye(3), 1.0)


class TestNaboko:
    def test_skew_approaches_pi(self):
        pts = naboko_integral(1j * np.diag([0.3, -0.7, 1.1]), [0.05])
        p = pts[0]
        assert abs(p.quad_max - math.pi) <= 0.02 * math.pi
        assert abs(p.quad_min - math.pi) <= 0.02 * math.pi

    def test_stable_scalar_closed_form(self):
        for eps in (0.05, 0.1, 0.5):
            p = naboko_integral(np.diag([-1.0]), [eps])[0]
            assert p.plancherel_max == pytest.approx(
                2 * math.pi * eps / (2 * eps + 2), rel=1e-9
            )

    def test_quadrature_matches_plancherel(self):
        for A in (1j * np.diag([0.3, -0.7]), np.array([[-1.0, 0.5], [0.0, -2.0]])):
            for p in naboko_integral(A, [0.05, 0.1, 0.5]):
                assert p.relative_gap <= 0.01

    def test_right_half_plane_rejected(self):
        with pytest.raises(StabilityError):
            naboko_integral(np.diag([0.5]), [0.1])


class TestCesaro:
    def test_skew_means_one(self):
        out = cesaro_orbit_mean(1j * np.diag([0.4, -1.0]), t_max=40.0)
        assert out["liminf_estimate"] == pytest.approx(1.0, abs=1e-9)
        assert out["limsup_estimate"] == pytest.approx(1.0, abs=1e-9)

    def test_stable_means_vanish(self):
        out = cesaro_orbit_mean(np.diag([-1.0]), t_max=80.0)
        assert out["limsup_estimate"] <= 0.02

    def test_stable_means_ordered(self, rng):
        # G_t <= P with A* P + P A = -I, so every mean lies in [0, |P| / t]
        A = random_stable(rng, 16, complex_entries=False)
        out = cesaro_orbit_mean(A)
        P = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(16))
        cap = float(np.linalg.eigvalsh(P)[-1]) / 25.0
        assert 0.0 <= out["liminf_estimate"] <= out["limsup_estimate"] <= cap * (1 + 1e-9)

    def test_zero_observation(self):
        out = cesaro_orbit_mean(1j * np.diag([0.4]), C=np.zeros((1, 1)), t_max=10.0)
        assert out["limsup_estimate"] <= 1e-14

    def test_extremes_are_exact(self):
        # C T(s) = diag(d) e^{s Lambda} U*, so every mean is h* U |d|^2 U* h
        # exactly, with extremes min d^2 and max d^2 on rotated vectors
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        A = U @ np.diag(1j * np.array([0.3, -0.7, 1.1, 1.9, -1.4, 0.5])) @ U.conj().T
        d = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 3.0])
        out = cesaro_orbit_mean(A, C=np.diag(d) @ U.conj().T, t_max=40.0)
        assert out["liminf_estimate"] == pytest.approx(0.04, abs=1e-9)
        assert out["limsup_estimate"] == pytest.approx(9.0, abs=1e-9)

    def test_positive_mean_implies_isometry_verdict(self):
        from simgroup.criteria import nagy_isometry_test

        A = 1j * np.diag([0.4, -1.0])
        out = cesaro_orbit_mean(A, t_max=40.0)
        assert out["liminf_estimate"] > 0.5
        assert nagy_isometry_test(A).positive


class TestSystemJson:
    def test_round_trip(self):
        sys_obj = ObservedSystem(JORDAN, np.array([[1.0, 2.0]]))
        back = system_from_json(sys_obj.to_json())
        assert operator_norm(back.A - sys_obj.A) == 0.0
        assert operator_norm(back.C - sys_obj.C) == 0.0

    def test_square_observation_schema(self):
        obj = {"A": matrix_to_json(JORDAN), "C": matrix_to_json(np.eye(2))}
        sys_obj = system_from_json(obj)
        assert sys_obj.C.shape == (2, 2)
