import inspect
import math
import re

import numpy as np
import pytest
import scipy.linalg

from simgroup import criteria
from simgroup.criteria import (
    TrichotomyReport,
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
    _eig_cached,
    expm_semigroup,
    numerical_abscissa,
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
NEAR_MARGINAL_JORDAN = ((1 - 1e-5, 0.5), (1 - 1e-5, 1.0), (1 - 1e-5, 4.0), (1 - 1e-6, 0.1))


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

    @pytest.mark.parametrize("r, b", NEAR_MARGINAL_JORDAN)
    def test_near_marginal_jordan_step_is_a_verdict_point(self, r, b):
        # exp(A) = [[r, b], [0, r]] up to rounding
        A = np.array([[math.log(r), b / r], [0.0, math.log(r)]])
        (p,) = small_time_constants(A, [1.0]).points
        assert not p.error
        assert p.verdict.finite


class TestCurvesPropagateCrashes:
    """Only a package error becomes an ``error`` point; a crash propagates."""

    @pytest.fixture
    def crashing_solver(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("solver crash")

        monkeypatch.setattr(criteria, "discrete_similarity_constant", crash)

    def test_small_time_curve(self, crashing_solver):
        with pytest.raises(RuntimeError, match="solver crash"):
            small_time_constants(JORDAN, [0.1])

    def test_resolvent_curve(self, crashing_solver):
        with pytest.raises(RuntimeError, match="solver crash"):
            resolvent_constants(JORDAN, [2.0])


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

    def test_family_of_generators_and_of_generator_semigroups(self):
        # matrices and generator semigroups both get their joint constant
        gens = [np.diag([-1.0, -2.0]), JORDAN]
        expected = [
            (float(i), joint_similarity_constant(A, tol=1e-3).constant) for i, A in enumerate(gens)
        ]
        for fam in (gens, [semigroup_from_generator(A) for A in gens]):
            rep = classify(None, family=fam)
            assert list(rep.family_curve) == expected
            assert rep.family_diverging

    def test_budget_exhaustion_is_not_never_similar(self):
        # strictly stable, joint constant 2500.08: beyond the budget, not never
        rep = classify(np.array([[-1e-3, 5.0], [0.0, -1e-3]]), kappa_max=1e3)
        assert rep.joint.status == "infeasible"
        assert rep.case == "BudgetExhausted"
        assert repr(rep.joint.lower) in rep.notes

    def test_unbounded_joint_is_never_similar(self):
        rep = classify(np.diag([0.1, -1.0]))
        assert rep.joint.status == "unbounded"
        assert rep.case == "NeverSimilar"

    def test_docstring_names_the_cases_classify_assigns(self):
        documented = set(re.findall(r"``([A-Z][a-z]+[A-Z]\w*)``", TrichotomyReport.__doc__))
        assigned = set(re.findall(r'case = "(\w+)"', inspect.getsource(classify)))
        assert documented == assigned == {"SimilarContraction", "NeverSimilar", "BudgetExhausted"}

    def test_finite_lemerdy_section_collapses(self):
        from simgroup.gallery import lemerdy_semigroup

        rep = classify(lemerdy_semigroup(8).generator)
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

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            post_widder(JORDAN, t, 4)

    @pytest.mark.parametrize("n", [2.7, math.nan, math.inf, 0, -3])
    def test_bad_order_rejected(self, n):
        # 2.7 used to give the n = 2 approximant, nan an unnamed int() error
        with pytest.raises(ValueError, match="n must be an integer"):
            post_widder(JORDAN, 1.0, n)

    def test_integral_float_order_is_that_integer(self):
        np.testing.assert_array_equal(post_widder(JORDAN, 1.0, 4.0), post_widder(JORDAN, 1.0, 4))


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

    @pytest.mark.parametrize("tau1", [math.nan, math.inf, 0.0])
    def test_bad_horizon_rejected(self, tau1):
        with pytest.raises(ValueError, match="tau1"):
            average_renorm(JORDAN, np.eye(2), tau1)
        with pytest.raises(ValueError, match="tau2"):
            average_renorm_factor_audit(JORDAN, np.diag([1.0, 4.0]), 1.0, tau1)

    def test_factor_audit_pattern(self):
        aud = average_renorm_factor_audit(JORDAN, np.diag([1.0, 4.0]), 1.0)
        assert aud.satisfied

    def test_factor_audit_takes_one_supremum(self, monkeypatch):
        calls = []
        sup = criteria.sup_norm_on_interval
        monkeypatch.setattr(criteria, "sup_norm_on_interval", lambda *a, **k: calls.append(1) or sup(*a, **k))
        aud = average_renorm_factor_audit(JORDAN, np.diag([1.0, 4.0]), 1.0)
        assert len(calls) == 1
        assert aud.inputs["M"] == sup(semigroup_from_generator(JORDAN), 1.0)


def _full_grid_sup(sem, tau):
    """Raw :func:`sup_norm_on_interval`, every one of its 65 + 15 samples evaluated."""
    ts = np.linspace(0.0, tau, 65)
    norms = [operator_norm(sem.eval(t)) for t in ts]
    k = int(np.argmax(norms))
    refine = np.linspace(ts[max(0, k - 1)], ts[min(64, k + 1)], 17)[1:-1]
    return max(norms + [operator_norm(sem.eval(float(t))) for t in refine])


def _dissipative(rng, n, complex_entries):
    """``K - B B* / n - 0.1 I`` with ``K`` skew: numerical abscissa at most ``-0.1``."""
    B = rng.standard_normal((n, n))
    K = rng.standard_normal((n, n))
    if complex_entries:
        B = B + 1j * rng.standard_normal((n, n))
        K = K + 1j * rng.standard_normal((n, n))
    return (K - K.conj().T) - B @ B.conj().T / n - 0.1 * np.eye(n)


def _skew(rng, n):
    K = rng.standard_normal((n, n))
    return K - K.T


#: label -> (generator, whether the omega bound skips every sample after T(0))
_SUP_NORM_GENERATORS = {
    "dissipative-real": (_dissipative(np.random.default_rng(1), 6, False), True),
    "dissipative-complex": (_dissipative(np.random.default_rng(2), 6, True), True),
    "skew": (_skew(np.random.default_rng(3), 6), False),
    "jordan": (JORDAN, False),
    "slow-fast": (np.array([[-0.1, 10.0], [0.0, -2.0]]), False),
    # defective: the eigenbasis is refused, every time is scaling-and-squaring
    "defective-dissipative": (np.array([[-1.0, 0.5], [0.0, -1.0]]), True),
    # eigenbasis condition about 1e5
    "ill-conditioned": (np.array([[-1.0, 10.0], [0.0, -1.0002]]), False),
    # a growing oscillation: the norm dips, then climbs past its first peak
    "growing-oscillator": (np.array([[0.05, 50.0], [-0.5, 0.05]]), False),
}


class TestSupNorm:
    def test_refinement_skips_grid_points(self):
        # the refinement's end points are grid points: 65 + 15 evaluations
        # give the maximum that 65 + 17 gave
        for A in (JORDAN, np.array([[-0.1, 10.0], [0.0, -2.0]]), np.diag([-1.0, -2.0])):
            sem = semigroup_from_generator(A)
            times = []
            counted = sampled_semigroup(2, lambda t: times.append(t) or sem.eval(t), "counted")
            M = sup_norm_on_interval(counted, 1.0, inflate=0.0)
            assert len(times) == 80
            ts = np.linspace(0.0, 1.0, 65)
            norms = [operator_norm(sem.eval(t)) for t in ts]
            k = int(np.argmax(norms))
            refine = np.linspace(ts[max(0, k - 1)], ts[min(64, k + 1)], 17)
            norms += [operator_norm(sem.eval(float(t))) for t in refine]
            assert M == max(norms)

    @pytest.mark.parametrize(
        "A, skips_all", list(_SUP_NORM_GENERATORS.values()), ids=list(_SUP_NORM_GENERATORS)
    )
    def test_omega_skips_keep_the_full_grid_maximum(self, A, skips_all, monkeypatch):
        sem = semigroup_from_generator(A)
        ref = _full_grid_sup(semigroup_from_generator(A), 1.0)
        times = []
        ev = sem.eval
        monkeypatch.setattr(sem, "eval", lambda t: times.append(t) or ev(t))
        assert sup_norm_on_interval(sem, 1.0, inflate=0.0) == ref
        assert (times == [0.0]) == skips_all

    def test_ill_conditioned_case_keeps_its_eigenbasis(self):
        # the eigenvector route, not scaling-and-squaring, with cond near 1e5
        _, _, _, cond = _eig_cached(_SUP_NORM_GENERATORS["ill-conditioned"][0])
        assert 3e4 <= cond <= 3e5

    def test_skew_generator_evaluates_every_sample(self, monkeypatch):
        A = _SUP_NORM_GENERATORS["skew"][0]
        assert numerical_abscissa(A) == 0.0
        sem = semigroup_from_generator(A)
        times = []
        ev = sem.eval
        monkeypatch.setattr(sem, "eval", lambda t: times.append(t) or ev(t))
        sup_norm_on_interval(sem, 1.0)
        assert len(times) == 80

    def test_dissipative_generator_evaluates_the_identity_only(self, monkeypatch):
        sem = semigroup_from_generator(_SUP_NORM_GENERATORS["dissipative-real"][0])
        times, eigs = [], []
        ev = sem.eval
        eig = np.linalg.eig
        monkeypatch.setattr(sem, "eval", lambda t: times.append(t) or ev(t))
        monkeypatch.setattr(np.linalg, "eig", lambda M: eigs.append(1) or eig(M))
        assert sup_norm_on_interval(sem, 1.0, inflate=0.0) == 1.0
        assert times == [0.0]
        assert eigs == []

    def test_zero_interval_is_the_identity(self):
        assert sup_norm_on_interval(semigroup_from_generator(JORDAN), 0.0, inflate=0.0) == 1.0

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_bad_interval_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            sup_norm_on_interval(semigroup_from_generator(JORDAN), tau)


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

    @pytest.mark.parametrize(
        "lam, tau, name",
        [(math.inf, 1.0, "lam"), (math.nan, 1.0, "lam"), (0.0, 1.0, "lam"),
         (1.0, math.inf, "tau"), (1.0, math.nan, "tau"), (1.0, -1.0, "tau")],
    )
    def test_bad_scalars_rejected(self, lam, tau, name):
        with pytest.raises(ValueError, match=name):
            simconst_bound_audit(JORDAN, lam, tau)


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

    @staticmethod
    def _powers_of(S, horizon=6):
        n = S.shape[0]
        inner = sampled_semigroup(
            n, lambda t: np.linalg.matrix_power(S, int(round(t))), "powers", step=1.0
        )
        return HolbrookFactorization(np.eye(n), np.eye(n), inner, horizon)

    def test_unbounded_target_is_vacuous(self):
        aud = holbrook_bound_audit(1.5 * np.eye(2), self._powers_of(0.5 * np.eye(2)))
        assert aud.status == "vacuous"
        assert aud.lhs == aud.rhs == math.inf
        assert not aud.satisfied

    def test_defect_tail_above_the_floor_is_inconclusive(self):
        aud = holbrook_bound_audit(0.9 * np.eye(2), self._powers_of(0.5 * np.eye(2)))
        assert aud.status == "inconclusive"
        assert aud.inputs["tail"] == pytest.approx(0.9**4 - 0.5**4, rel=1e-12)
        assert aud.lhs == pytest.approx(1.0, abs=1e-9)

    def test_non_contractive_inner_family_rejected(self):
        with pytest.raises(InvalidWeightError):
            holbrook_bound_audit(0.5 * np.eye(2), self._powers_of(2.0 * np.eye(2)))


class TestIsometryAndSlope:
    def test_skew_hermitian(self):
        rep = nagy_isometry_test(np.array([[0.7j, 0], [0, -0.2j]]))
        assert rep.positive
        assert abs(rep.alpha - 1.0) <= 1e-9 and abs(rep.beta - 1.0) <= 1e-9
        assert rep.defect <= 1e-10

    def test_nilpotent_negative(self):
        rep = nagy_isometry_test(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not rep.positive

    @pytest.mark.parametrize(
        "t_grid", [[0.0], [], [1.0, math.nan], [1.0, math.inf], [-1.0, 2.0]], ids=repr
    )
    def test_bad_grid_rejected(self, t_grid):
        with pytest.raises(ValueError, match="t_grid"):
            nagy_isometry_test(np.array([[0.7j, 0], [0, -0.2j]]), t_grid)

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

    def test_orbit_bounds_match_two_svds_per_time(self):
        rng = np.random.default_rng(11)
        X = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        generators = [
            random_stable(rng, 5, complex_entries=False),
            random_stable(rng, 5, complex_entries=True),
            np.linalg.solve(X, np.diag(1j * np.array([0.3, -0.7, 1.1, 1.9, -1.4])) @ X),
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
        ]
        grid = np.linspace(0.25, 20.0, 33)
        for A in generators:
            rep = nagy_isometry_test(A, grid)
            sem = semigroup_from_generator(A)
            # the old route: two complex SVDs of each complex-typed value
            values = [sem.eval(t) for t in grid]
            alpha = min(float(scipy.linalg.svdvals(E)[-1]) for E in values)
            beta = max(float(np.linalg.norm(E, 2)) for E in values)
            assert rep.beta == pytest.approx(beta, rel=1e-14)
            assert abs(rep.alpha - alpha) <= 1e-14 * beta

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
