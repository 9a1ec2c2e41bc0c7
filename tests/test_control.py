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
from simgroup.exceptions import DimensionError, InputFormatError, SaturationError, StabilityError
from simgroup.opcore import expm_semigroup, matrix_to_json, operator_norm, semigroup_from_generator
from simgroup.weightsolve import LyapunovTarget, certificate_check

from conftest import fixed_examples, random_stable

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

    @pytest.mark.parametrize(
        "C",
        [[[np.nan, 1.0]], [[1.0, np.inf]], [[1.0, 1.0 - np.inf * 1j]], np.ones((1, 1, 2)), [[1.0, 2.0, 3.0]]],
        ids=["nan", "inf", "imag_inf", "three_dims", "columns"],
    )
    def test_observation_is_checked_in_every_entry_point(self, C):
        A = -np.eye(2)
        with pytest.raises(DimensionError):
            ObservedSystem(A, C)
        with pytest.raises(DimensionError):
            naboko_integral(A, [0.1], C=C)
        with pytest.raises(DimensionError):
            cesaro_orbit_mean(A, C=C)

    def test_full_observation_long_horizon(self):
        # the stiff mode's exp(-tau A*) reaches e^40 on this horizon
        A = np.array([[-0.5, 1.0], [0.0, -4.0]])
        rep = observability_gramian(ObservedSystem(A, np.eye(2)), 10.0)
        P = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
        E = expm_semigroup(A, 10.0)
        H = E.conj().T @ E + P - E.conj().T @ P @ E
        assert rep.beta == pytest.approx(float(np.linalg.eigvalsh(H)[-1]), rel=1e-12)
        assert rep.exactly_observable

    def test_constants_match_the_eigen_route(self):
        # T(tau) from the Gramian's doublings against exp(tau A) evaluated
        # through the eigenbasis
        for example in fixed_examples(
            21,
            20,
            seed=(0, 2**32 - 1),
            n=(1, 16),
            complex_entries=(False, True),
            margin=(1e-2, 1.0),
            tau=(1e-2, 10.0),
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            A = random_stable(rng, n, margin=example["margin"], complex_entries=example["complex_entries"])
            C = rng.standard_normal((max(1, n // 2), n))
            rep = observability_gramian(ObservedSystem(A, C), example["tau"])
            E = semigroup_from_generator(A).eval(example["tau"])
            H = E.conj().T @ E + rep.gramian
            ev = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
            assert rep.alpha == pytest.approx(float(ev[0]), rel=1e-12)
            assert rep.beta == pytest.approx(float(ev[-1]), rel=1e-12)

    def test_takes_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition taken")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        rep = observability_gramian(ObservedSystem(np.diag([-1.0, -2.0]), np.eye(2)), 1.0)
        # e^{-2 lam} + (1 - e^{-2 lam}) / (2 lam) for the rates lam = 1, 2
        assert rep.alpha == pytest.approx((1.0 + 3.0 * math.exp(-4.0)) / 4.0, rel=1e-14)
        assert rep.beta == pytest.approx((1.0 + math.exp(-2.0)) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("C", [np.eye(2), np.array([[0.0, 1.0]])])
    def test_overflow_raises_saturation(self, C):
        # with C = (0 1) the Gramian is finite, but T(tau)* T(tau) is not
        with pytest.raises(SaturationError, match="overflows"):
            observability_gramian(ObservedSystem(np.diag([400.0, 1.0]), C), 1.0)


class TestFiniteTimeTest:
    def test_full_observation_positive(self, rng):
        A = random_stable(rng, 3)
        out = finite_time_observability_test(ObservedSystem(A, np.eye(3)), 1.0)
        assert out["positive"]

    def test_jordan_pair_observable(self):
        sys_obj = ObservedSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]]))
        out = finite_time_observability_test(sys_obj, 1.0)
        assert out["positive"]

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

    @pytest.mark.parametrize(
        "A",
        [
            np.diag([-1.0, 0.0]),
            np.array([[0.0, 2.0], [-2.0, 0.0]]),
            np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, -3.0, 0.0]]),
        ],
        ids=["zero-eigenvalue", "rotation", "rotation-block"],
    )
    def test_marginal_spectrum_raises(self, A):
        # a real rotation is one standardized 2x2 Schur block with zero diagonal
        with pytest.raises(StabilityError, match="growth bound"):
            infinite_gramian(ObservedSystem(A, np.eye(A.shape[0])))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_gramian_is_the_scipy_solve(self, rng, complex_entries):
        A = random_stable(rng, 9, complex_entries=complex_entries)
        C = rng.standard_normal((4, 9))
        rep = infinite_gramian(ObservedSystem(A, C))
        P = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -(C.T @ C))
        assert rep.gramian.dtype == P.dtype
        assert np.array_equal(rep.gramian, 0.5 * (P + P.conj().T))

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


def _naboko_per_node(A, eps, xi_max=200.0, quad_m=32):
    """Quadrature extremes of :func:`naboko_integral` with one resolvent solve per node.

    The same Gauss rules, panels, halving and ``1e-6`` panel test, each
    node evaluated on its own.
    """
    n = A.shape[0]
    rules = [np.polynomial.legendre.leggauss(k) for k in (8, 16)]

    def integrate(f, a, b, depth=0):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        coarse, fine = (half * sum(w * f(mid + half * x) for x, w in zip(*rule)) for rule in rules)
        if abs(fine - coarse) <= 1e-6 * max(abs(fine), 1e-300) or depth >= 12:
            return fine
        return integrate(f, a, mid, depth + 1) + integrate(f, mid, b, depth + 1)

    edges = np.linspace(-xi_max, xi_max, max(4, quad_m // 8) + 1)
    vals = []
    for h in np.eye(n):

        def f(xi, h=h):
            r = np.linalg.solve((eps + 1j * xi) * np.eye(n) - A, h)
            return float(np.vdot(r, r).real)

        vals.append(eps * sum(integrate(f, a, b) for a, b in zip(edges[:-1], edges[1:])))
    return min(vals), max(vals)


def _naboko_per_probe(A, eps_list, xi_max=200.0, quad_m=32):
    """:func:`naboko_integral` as it integrated each probe alone, one recursion per probe.

    The reference for the shared panels: every probe's panels, halvings
    and sums are its own, so the batched extremes must agree.
    """
    n = A.shape[0]
    coarse_rule = np.polynomial.legendre.leggauss(8)
    fine_rule = np.polynomial.legendre.leggauss(16)
    nodes = np.concatenate([coarse_rule[0], fine_rule[0]])
    w_eig, V = np.linalg.eig(A)
    Vinv = np.linalg.inv(V)
    use_eig = np.linalg.cond(V) < 1e8
    I = np.eye(n)

    def columns(z, j):
        if use_eig:
            return V @ (Vinv[:, j, None] / (z[None, :] - w_eig[:, None]))
        rhs = np.broadcast_to(I[:, j, None], (z.size, n, 1))
        return np.linalg.solve(z[:, None, None] * I - A, rhs)[..., 0].T

    def integrate(f, a, b, depth=0):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = f(mid + half * nodes)
        coarse = half * float(coarse_rule[1] @ vals[:8])
        fine = half * float(fine_rule[1] @ vals[8:])
        if abs(fine - coarse) <= 1e-6 * max(abs(fine), 1e-300) or depth >= 12:
            return fine
        return integrate(f, a, mid, depth + 1) + integrate(f, mid, b, depth + 1)

    panels = max(4, quad_m // 8)
    edges = np.linspace(-xi_max, xi_max, panels + 1)
    out = []
    for eps in eps_list:
        vals = []
        for j in range(n):

            def f(xi, j=j):
                R = columns(eps + 1j * xi, j)
                return (R.real**2 + R.imag**2).sum(axis=0)

            vals.append(eps * sum(integrate(f, edges[i], edges[i + 1]) for i in range(panels)))
        out.append((min(vals), max(vals)))
    return use_eig, out


class TestNaboko:
    @pytest.mark.parametrize(
        "A, use_eig",
        [
            (1j * np.diag([0.3, -0.7, 1.1, 0.05]), True),
            (np.array([[-0.2, 3.0, 0.0], [0.0, -0.5 + 1j, 1.0], [0.0, 0.0, -1.0]]), True),
            (np.diag([-0.3] * 3) + np.diag([1.0, 1.0], 1), False),
        ],
        ids=["skew", "non-normal", "defective"],
    )
    def test_shared_panels_match_per_probe_integration(self, A, use_eig):
        eps_list = (0.05, 0.1, 0.5)
        route, ref = _naboko_per_probe(A, eps_list)
        assert route == use_eig
        for p, (lo, hi) in zip(naboko_integral(A, eps_list), ref):
            assert p.quad_min == pytest.approx(lo, rel=1e-14, abs=0.0)
            assert p.quad_max == pytest.approx(hi, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "A",
        [
            # diagonalizable: the eigendecomposition path
            np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
            @ np.diag([0.7j, -0.4 + 1.1j, -1.3])
            @ np.linalg.inv(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])),
            # one Jordan block: the stacked-solve path
            np.diag([-0.3] * 3) + np.diag([1.0, 1.0], 1),
        ],
        ids=["diagonalizable", "defective"],
    )
    def test_batched_nodes_match_per_node_evaluation(self, A):
        for eps in (0.1, 0.5):
            p = naboko_integral(A, [eps])[0]
            lo, hi = _naboko_per_node(A, eps)
            assert p.quad_min == pytest.approx(lo, rel=1e-12)
            assert p.quad_max == pytest.approx(hi, rel=1e-12)

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

    @pytest.mark.parametrize("name, kwargs", [
        ("eps", {"eps_list": [0.1, math.nan]}),
        ("eps", {"eps_list": [math.inf]}),
        ("eps", {"eps_list": [0.0]}),
        ("xi_max", {"eps_list": [0.1], "xi_max": math.nan}),
        ("xi_max", {"eps_list": [0.1], "xi_max": math.inf}),
        ("xi_max", {"eps_list": [0.1], "xi_max": -5.0}),
    ])
    def test_bad_scalars_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            naboko_integral(np.diag([-1.0]), **kwargs)


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

    def test_per_horizon_matches_independent_integrals(self):
        for example in fixed_examples(
            22,
            20,
            seed=(0, 2**32 - 1),
            n=(1, 16),
            complex_entries=(False, True),
            margin=(1e-3, 1.0),
            t_max=(1e-2, 1e2),
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            A = random_stable(rng, n, margin=example["margin"], complex_entries=example["complex_entries"])
            C = rng.standard_normal((n, n))
            out = cesaro_orbit_mean(A, C=C, t_max=example["t_max"])
            assert [tau for tau, _, _ in out["per_horizon"]] == [
                0.5 * example["t_max"], 0.75 * example["t_max"], example["t_max"]
            ]
            for tau, low, high in out["per_horizon"]:
                w = np.linalg.eigvalsh(gramian_integral(A, C.T @ C, tau) / tau)
                assert low == pytest.approx(float(w[0]), rel=1e-12)
                assert high == pytest.approx(float(w[-1]), rel=1e-12)

    def test_one_block_exponential(self, monkeypatch):
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda M: calls.append(M.shape) or expm(M))
        cesaro_orbit_mean(1j * np.diag([0.4, -1.0, 2.0]), t_max=40.0)
        assert calls == [(6, 6)]

    @pytest.mark.parametrize("t_max", [0.0, -10.0])
    def test_non_positive_horizon_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            cesaro_orbit_mean(np.diag([-1.0, -2.0]), t_max=t_max)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            cesaro_orbit_mean(np.diag([-1.0, -2.0]), t_max=t_max)

    def test_overflow_raises_saturation(self):
        # the block exponential at t_max/4 = 1 is finite (about e^400);
        # the composed horizons reach e^800
        with pytest.raises(SaturationError, match="overflows"):
            cesaro_orbit_mean(np.diag([200.0, 1.0]), t_max=4.0)

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

    @pytest.mark.parametrize(
        "C",
        [
            {"rows": 5, "cols": 7, "re": [[1.0, 1.0]]},
            {"rows": 1, "cols": 2, "re": [[1.0, 1.0], [1.0, 1.0]]},
            {"rows": 1, "cols": 2, "re": [[1.0, 1.0]], "im": [[0.0]]},
            {"rows": 0, "cols": 2, "re": []},
            {"re": [[1.0, 1.0]]},
        ],
        ids=["rows_cols", "extra_row", "ragged_im", "no_rows", "no_shape"],
    )
    def test_rectangular_shape_is_checked(self, C):
        with pytest.raises(InputFormatError):
            system_from_json({"A": matrix_to_json(JORDAN), "C": C})

    def test_non_finite_observation_is_rejected(self):
        C = {"rows": 1, "cols": 2, "re": [[float("nan"), 1.0]]}
        with pytest.raises(DimensionError, match="non-finite"):
            system_from_json({"A": matrix_to_json(JORDAN), "C": C})

    def test_square_observation_schema(self):
        obj = {"A": matrix_to_json(JORDAN), "C": matrix_to_json(np.eye(2))}
        sys_obj = system_from_json(obj)
        assert sys_obj.C.shape == (2, 2)
