import itertools
import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from simgroup import weightsolve
from simgroup.exceptions import DimensionError, SaturationError
from simgroup.gallery import DyadicSequence, lemerdy_semigroup, packel_nilpotent_compression
from simgroup.opcore import (
    as_matrix,
    expm_semigroup,
    growth_bound,
    numerical_abscissa,
    operator_norm,
    resolvent,
    semigroup_from_generator,
)
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

from conftest import fixed_examples, random_stable, schur_design
from oracles import grid_similarity_constant

JORDAN = np.array([[-1.0, 4.0], [0.0, -1.0]])
#: a budget between JORDAN's constant 2 and its seed's kappa 2 + sqrt 5,
#: where the joint verdict still samples its norm floor up front
JORDAN_FLOOR_BUDGET = 3.0
RANK_ONE = np.array([[0.0, 2.0], [0.0, 0.0]])
#: ``(r, b)`` of strictly stable ``[[r, b], [0, r]]`` whose Stein defect
#: ``T*PT - P`` cancels to a ``(1 - r)``-relative remainder; the engine
#: closes them in the pair form.  The first four once met a non-finite
#: Newton matrix, and all read about twice the constant
NEAR_MARGINAL_JORDAN = (
    (1 - 1e-5, 0.5),
    (1 - 1e-5, 1.0),
    (1 - 1e-5, 4.0),
    (1 - 1e-6, 0.1),
    (1 - 1e-4, 0.5),
    (1 - 1e-4, 4.0),
    (1 - 1e-5, 2.0),
    (1 - 1e-6, 1.0),
)
#: nearer the circle, where the bracket stopped wide at about twice the
#: constant until the engine started from the balanced Gramian mean
NEARER_MARGINAL_JORDAN = ((1 - 1e-6, 0.5), (1 - 1e-7, 0.1))
#: the shift on C^8, whose ``N - eps I`` has norms far above ``1 / eps``
SHIFT8 = np.eye(8, k=1)


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

    def test_empty_family_rejected(self):
        with pytest.raises(DimensionError):
            stein_feasible([], 2.0)

    def test_mixed_family_takes_the_complex_field(self):
        res = stein_feasible([0.5 * np.eye(2), 0.5j * np.eye(2)], 1.0)
        assert res.certificate.weight.dtype == np.complex128

    def test_no_certificate_from_a_budget_sized_tolerance(self):
        # I has defect 2.0e-4, within the tolerance at kappa 1e6 but not at
        # its own kappa 1; the spectral radius is 1.0001
        res = stein_feasible([np.diag([1.0001, 0.5])], 1e6)
        assert not res

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

    def test_no_certificate_from_a_budget_sized_tolerance(self):
        res = lyapunov_feasible(np.diag([1e-4, -1.0]), 0.0, 1e6)
        assert not res

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_feasible(JORDAN, 0, 0.5)


@pytest.mark.parametrize(
    "probe",
    [
        lambda: lyapunov_feasible(-np.eye(2), 0.0, math.nan),
        lambda: stein_feasible([[[0.5, 1.0], [0.0, 0.5]]], math.nan),
        lambda: lyapunov_feasible([[-1.0, 1.0], [0.0, -1.0]], math.nan, 2.0),
        lambda: lyapunov_feasible([[-1.0, 1.0], [0.0, -1.0]], math.inf, 2.0),
        lambda: min_quasi_shift([[-1.0, 4.0], [0.0, -1.0]], math.nan),
    ],
    ids=["lyapunov_kappa", "stein_kappa", "lyapunov_shift_nan", "lyapunov_shift_inf", "min_quasi_shift_budget"],
)
def test_probes_reject_nan_budgets_and_non_finite_shifts(probe):
    with pytest.raises(ValueError, match="must be"):
        probe()


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
        v = discrete_similarity_constant(T, tol=1e-3)
        rep = certificate_check(v.certificate, SteinTarget((T,)))
        assert rep.worst <= 2 * max(1e-8, 1e-8 * operator_norm(T) ** 2)

    def test_budget_below_the_seed_met_by_a_probe_at_the_budget(self):
        # n = 34 is bisected.  The equation seed's kappa (2.04) and the
        # first probe's nearest certificate (1.43) exceed the budget, but
        # each 2x2 block has constant 4/3, so a weight within it exists.
        T = np.kron(np.eye(17), np.array([[0.5, 1.0], [0.0, 0.5]]))
        seed = scipy.linalg.solve_discrete_lyapunov(T.T, np.eye(34))
        kappa_max = 1.4
        assert math.sqrt(np.linalg.cond(seed)) > kappa_max
        v = discrete_similarity_constant(T, kappa_max=kappa_max)
        assert v.finite
        assert v.lower <= v.constant <= kappa_max
        rep = certificate_check(v.certificate, SteinTarget((T,)))
        assert rep.worst <= 2 * max(1e-8, 1e-8 * operator_norm(T) ** 2)


    def test_budget_below_the_power_norm_floor_is_infeasible(self):
        # strictly stable with constant 4/3: a power norm above the budget
        # bounds the constant from below, it is no growth evidence
        v = discrete_similarity_constant(np.array([[0.5, 1.0], [0.0, 0.5]]), kappa_max=1.2)
        assert v.status == "infeasible"
        assert 1.2 < v.lower <= 4.0 / 3.0

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="kappa_max"):
            discrete_similarity_constant(RANK_ONE, kappa_max=0.99)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
         ({"kappa_max": math.nan}, "kappa_max")],
        ids=["negative_tol", "nan_tol", "inf_tol", "nan_budget"],
    )
    def test_bad_tol_or_budget_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            discrete_similarity_constant(RANK_ONE, **kwargs)

    @pytest.mark.parametrize("r, b", NEAR_MARGINAL_JORDAN)
    def test_near_marginal_jordan_block_reports_its_bracket(self, r, b):
        T = np.array([[r, b], [0.0, r]])
        tol = 1e-4
        v = discrete_similarity_constant(T, tol=tol)
        assert v.finite and v.evidence == ""
        assert v.lower <= v.constant <= (1.0 + tol) * v.lower
        assert v.constant == pytest.approx(b / (2.0 * (1.0 - r)), rel=1e-3)
        rep = certificate_check(v.certificate, SteinTarget((T,)))
        assert rep.worst <= 2 * 1e-8 * operator_norm(T) ** 2
        assert rep.kappa == pytest.approx(v.constant, rel=1e-6)

    @pytest.mark.parametrize("r, b", NEARER_MARGINAL_JORDAN)
    def test_nearer_marginal_jordan_block_reports_its_wide_bracket(self, r, b):
        # the bracket these rows once reported wide now closes to tol
        T = np.array([[r, b], [0.0, r]])
        tol = 1e-4
        v = discrete_similarity_constant(T, tol=tol)
        assert v.finite and v.evidence == ""
        assert 1.0 <= v.lower <= v.constant <= (1.0 + tol) * v.lower
        assert v.constant == pytest.approx(b / (2.0 * (1.0 - r)), rel=1e-3)
        rep = certificate_check(v.certificate, SteinTarget((T,)))
        assert rep.worst <= 2 * 1e-8 * operator_norm(T) ** 2
        assert rep.kappa == pytest.approx(v.constant, rel=1e-6)

    def test_eigenvalue_minus_one_needs_no_cayley_solve(self):
        # T + I is singular: the pencil (T - I, T + I) has an infinite
        # eigenvalue, so no equation context is built from it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = discrete_similarity_constant(np.diag([-1.0, 0.5]))
        assert v.finite and v.constant == 1.0

    @pytest.mark.parametrize("lam", [1 - 1e-12, -(1 - 1e-12)])
    def test_stability_margin_is_the_same_around_the_circle(self, lam):
        # within 1e-9 of the unit circle, at 1 or at -1, a defective
        # eigenvalue counts as peripheral: no equation context
        T = np.array([[lam, 0.1], [0.0, lam]])
        assert SteinTarget((T,))._context is None
        v = discrete_similarity_constant(T)
        assert v.status == "unbounded" and "defective" in v.evidence

    def test_strictly_stable_power_norms_over_budget_are_infeasible(self):
        # the equation seed of this target is not positive definite in
        # float64, but its spectrum, 0.951, is strictly stable
        T = scipy.linalg.expm(SHIFT8 - 0.05 * np.eye(8))
        v = discrete_similarity_constant(T)
        assert v.status == "infeasible" and v.evidence == ""
        assert v.lower == pytest.approx(1.444e6, rel=1e-3)


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

    def test_budget_below_the_semigroup_norm_floor_is_infeasible(self):
        # the constant is 2; exp(tA) reaches norm 1.558 on the floor's grid
        v = joint_similarity_constant(JORDAN, kappa_max=1.5)
        assert v.status == "infeasible" and v.evidence == ""
        assert v.lower == pytest.approx(1.558, abs=1e-3)
        assert joint_similarity_constant(JORDAN, kappa_max=1.99).status == "infeasible"

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="kappa_max"):
            joint_similarity_constant(JORDAN, kappa_max=0.5)
        with pytest.raises(ValueError, match="kappa_max"):
            quasi_similarity_constant(JORDAN, 0.5, kappa_max=0.5)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
         ({"kappa_max": math.nan}, "kappa_max")],
        ids=["negative_tol", "nan_tol", "inf_tol", "nan_budget"],
    )
    def test_bad_tol_or_budget_rejected(self, kwargs, name):
        # tol = inf used to return the equation seed's 4.236 as finite
        with pytest.raises(ValueError, match=name):
            joint_similarity_constant(JORDAN, **kwargs)
        with pytest.raises(ValueError, match=name):
            quasi_similarity_constant(JORDAN, 0.5, **kwargs)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="shift"):
            quasi_similarity_constant(JORDAN, shift)

    def test_strictly_stable_semigroup_norms_over_budget_are_infeasible(self):
        v = joint_similarity_constant(SHIFT8 - 0.05 * np.eye(8))
        assert v.status == "infeasible" and v.evidence == ""
        assert v.lower == pytest.approx(1.356e6, rel=1e-3)

    def test_no_certificate_from_a_budget_sized_tolerance(self):
        # norm(exp(tA)) reaches 1.7e14; at the semigroup-norm floor the
        # budget's tolerance would have let I certify with residual 1.87
        v = joint_similarity_constant(SHIFT8 - 0.00705 * np.eye(8), kappa_max=1e300)
        assert v.status == "infeasible"
        assert v.lower >= 1e14

    def test_continuous_norm_floor(self, rng):
        A = random_stable(rng, 4)
        v = joint_similarity_constant(A, tol=1e-3)
        sup_norm = max(operator_norm(expm_semigroup(A, t)) for t in np.geomspace(0.01, 5, 25))
        assert v.constant >= sup_norm * (1 - 1e-6)
        assert v.lower >= min(_full_grid_floor(A, 0.0, weightsolve.KAPPA_MAX_DEFAULT), v.constant)


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

    @pytest.mark.parametrize(
        "A,budget,omega",
        [([[0.0, 1e-4], [0.0, 0.0]], 2.0, 2.5e-5), ([[-1.0, 5e-4], [0.0, -1.0]], 1.0, None)],
        ids=["nilpotent", "jordan"],
    )
    def test_narrow_bracket_shift_is_certified(self, A, budget, omega):
        # numerical abscissa and growth bound lie within 1e-3, and no weight
        # within the budget certifies the growth bound; the bisection still
        # narrows that bracket to 1e-4 of its width and never goes below the
        # true minimum.  The weight diag(1, p^2) turns b E_12 into (b/p) E_12,
        # so that minimum is r + b/(2 kappa); at kappa 1 only P = I is
        # allowed, and the minimum is the numerical abscissa itself
        A = np.array(A)
        shift = min_quasi_shift(A, budget)
        assert lyapunov_feasible(A, shift, budget)
        if omega is None:
            assert shift == numerical_abscissa(A)
        else:
            assert omega <= shift <= omega + 1e-4 * (numerical_abscissa(A) - growth_bound(A))

    def test_bisected_jordan_blocks_keep_their_tradeoff(self):
        # n = 34 is past the engine: each shift is a bisection-regime probe,
        # warm-started from the previous certificate.  The true minimum is
        # 2/1.5 - 1 = 1/3; without the warm start the search stalls at 0.3687
        shift = min_quasi_shift(np.kron(np.eye(17), JORDAN), 1.5)
        assert 1.0 / 3.0 <= shift <= 0.366

    @pytest.mark.parametrize("budget", [1.0, 1.2, 1.5])
    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_jordan_tradeoff_at_every_scale(self, c, budget):
        # diag(1, p^2) turns 4 E_12 into (4/p) E_12, so the minimal shift
        # of cJ at condition kappa in [1, 2] is c (2/kappa - 1); the
        # returned shift lies in the bisection width above it
        A = c * JORDAN
        shift = min_quasi_shift(A, budget)
        omega = c * (2.0 / budget - 1.0)
        assert omega <= shift <= omega + 1e-4 * (numerical_abscissa(A) - growth_bound(A))


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

    def test_weight_of_another_dimension_rejected(self):
        from simgroup.weightsolve import WeightCertificate

        with pytest.raises(DimensionError):
            certificate_check(WeightCertificate(np.eye(3), 1.0, 0.0), SteinTarget((RANK_ONE,)))


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

    @pytest.mark.parametrize(
        "target",
        [
            SteinTarget((np.array([[0.1, -1.5], [0.0, -0.8]]),)),
            LyapunovTarget(np.array([[-0.3, -0.8], [0.0, -0.5]]), 0.0),
        ],
        ids=["stein", "lyapunov"],
    )
    def test_diagonalizer_certified_budget_takes_no_newton_step(self, target):
        # at 1.01 times the constant the clipped seed fails and the
        # clipped diagonalizer certifies; the engine once ran 8-9 steps
        if isinstance(target, SteinTarget):
            constant = discrete_similarity_constant(target.operators[0], tol=1e-6).constant
            probe = lambda kappa: stein_feasible(target.operators, kappa)
        else:
            constant = joint_similarity_constant(target.generator, tol=1e-6).constant
            probe = lambda kappa: lyapunov_feasible(target.generator, 0.0, kappa)
        budget = 1.01 * constant
        assert weightsolve._closed_form_probe(target, budget, (target._seed,))[0] is None
        res = probe(budget)
        assert res and res.iterations == 0
        rep = certificate_check(res.certificate, target)
        assert rep.kappa <= budget * (1.0 + 1e-9)
        assert rep.worst <= _feasibility_tol(target, rep.kappa)
        assert not probe(0.99 * constant)

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

    def test_engine_seed_answers_when_the_cone_restoration_fails(self, monkeypatch):
        solve = weightsolve._condition_sdp.solve

        def off_cone(terms, seed, tol, budget=None):
            res = solve(terms, seed, tol, budget=budget)
            res.weight = np.eye(len(seed))
            return res

        monkeypatch.setattr(weightsolve._condition_sdp, "solve", off_cone)
        monkeypatch.setattr(weightsolve, "_cone_certificate", lambda target, P: None)
        target = SteinTarget((_RAND3,))
        v = discrete_similarity_constant(_RAND3, tol=1e-4)
        assert v.finite
        np.testing.assert_array_equal(v.certificate.weight, target._seed)
        rep = certificate_check(v.certificate, target)
        assert rep.worst <= _feasibility_tol(target, rep.kappa)
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
            weightsolve, "_qspace_rounds", lambda *a, **k: pytest.fail("searched")
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

    def test_bracket_properties(self):
        for example in fixed_examples(
            4,
            30,
            seed=(0, 2**32 - 1),
            n=(2, 6),
            complex_entries=(False, True),
            discrete=(False, True),
            margin=(0.05, 1.0),
        ):
            self._check_bracket(**example)

    @staticmethod
    def _check_bracket(seed, n, complex_entries, discrete, margin):
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
        seed_weight = target._seed
        assert v.constant <= weightsolve._kappa_of(seed_weight) * (1.0 + 1e-9)


def _full_grid_floor(A, shift, kappa_max):
    """The continuous norm floor over all 41 grid times, without the seed stop."""
    A = as_matrix(A)
    sem = semigroup_from_generator(A - shift * np.eye(A.shape[0]))
    lb = 1.0
    for t in np.logspace(-2, 8, 41):
        lb = max(lb, operator_norm(sem.eval(t)))
        if lb > kappa_max:
            break
    return lb


def _seed_stopped_floor(A, shift, kappa_max):
    target = LyapunovTarget(as_matrix(A), float(shift))
    return weightsolve._continuous_norm_floor(target, kappa_max)


class TestContinuousNormFloor:
    """The seed stop ends the grid early and leaves the floor bit-identical."""

    @staticmethod
    def _assert_full_grid_floor(A, shift=0.0):
        for kappa_max in (1e3, 1e6):
            assert _seed_stopped_floor(A, shift, kappa_max) == _full_grid_floor(A, shift, kappa_max)

    def test_random_stable_generators(self):
        for example in fixed_examples(
            11, 16, seed=(0, 2**32 - 1), n=(2, 16), complex_entries=(False, True), gap=(1e-4, 1.0)
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            M = rng.standard_normal((n, n)) * 2.0 / math.sqrt(n)
            if example["complex_entries"]:
                M = M + 1j * rng.standard_normal((n, n)) * 2.0 / math.sqrt(n)
            gap = example["gap"]
            self._assert_full_grid_floor(M - (np.max(np.linalg.eigvals(M).real) + gap) * np.eye(n))

    def test_jordan_blocks(self):
        for example in fixed_examples(12, 16, eps=(1e-6, 1.0), b=(1e-2, 100.0)):
            eps, b = example["eps"], example["b"]
            self._assert_full_grid_floor(np.array([[-eps, b], [0.0, -eps]]))

    def test_nilpotents_at_a_quasi_shift(self):
        for example in fixed_examples(13, 16, eps=(1e-6, 1.0), b=(1e-2, 100.0)):
            eps, b = example["eps"], example["b"]
            self._assert_full_grid_floor(np.array([[0.0, b], [0.0, 0.0]]), eps)

    def test_shift_operator_minus_eps(self):
        N = np.eye(8, k=1)
        for example in fixed_examples(14, 8, eps=(1e-6, 1.0)):
            self._assert_full_grid_floor(N - example["eps"] * np.eye(8))

    def test_stops_once_the_seed_bounds_the_tail(self, monkeypatch):
        times = []

        def counting(A):
            sem = semigroup_from_generator(A)
            ev = sem.eval
            sem.eval = lambda t: times.append(t) or ev(t)
            return sem

        monkeypatch.setattr(weightsolve, "semigroup_from_generator", counting)
        assert joint_similarity_constant(JORDAN, kappa_max=JORDAN_FLOOR_BUDGET).finite
        # the floor's grid has 41 times up to 1e8; exp(tA) has decayed below
        # floor/(2 kappa_seed) by t = 10
        assert len(times) <= 15 and max(times) <= 10.0


class TestNormFloorErrors:
    def _failing_semigroup(self, monkeypatch, exc):
        class Failing:
            def eval(self, t):
                raise exc

        monkeypatch.setattr(weightsolve, "semigroup_from_generator", lambda A: Failing())

    def test_other_errors_propagate(self, monkeypatch):
        self._failing_semigroup(monkeypatch, RuntimeError("solver bug"))
        with pytest.raises(RuntimeError, match="solver bug"):
            joint_similarity_constant(JORDAN, kappa_max=JORDAN_FLOOR_BUDGET)

    def test_saturation_is_growth_evidence(self, monkeypatch):
        self._failing_semigroup(monkeypatch, SaturationError("overflow"))
        v = joint_similarity_constant(JORDAN, kappa_max=JORDAN_FLOOR_BUDGET)
        assert v.status == "unbounded"


class TestFloorRule:
    """The joint verdict samples its norm floor only where the floor can decide."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        floor = weightsolve._continuous_norm_floor

        def spy(target, kappa_max):
            calls.append(target.dim)
            return floor(target, kappa_max)

        monkeypatch.setattr(weightsolve, "_continuous_norm_floor", spy)
        return calls

    @pytest.mark.parametrize("A", [JORDAN, lemerdy_semigroup(8).generator], ids=["jordan", "lemerdy8"])
    def test_engine_regime_within_budget_samples_no_grid(self, sampled, A):
        v = joint_similarity_constant(A, tol=1e-4)
        assert v.finite and v.evidence == ""
        assert v.constant <= (1.0 + 1e-4) * v.lower
        assert sampled == []

    def test_dissipative_generator_is_exact_without_a_grid(self, sampled):
        A = np.array([[-1.0, 0.5], [-0.5, -2.0]])
        v = joint_similarity_constant(A)
        assert v.constant == v.lower == v.searched_kappa_max == 1.0
        assert sampled == []

    def test_seed_over_the_budget_samples_the_grid(self, sampled):
        assert LyapunovTarget(JORDAN, 0.0)._seed_kappa > 1.5
        v = joint_similarity_constant(JORDAN, kappa_max=1.5)
        assert v.status == "infeasible"
        assert v.lower == pytest.approx(1.558, abs=1e-3)
        assert sampled == [2]

    def test_marginal_generator_samples_the_grid(self, sampled):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert joint_similarity_constant(skew).constant == 1.0
        assert joint_similarity_constant(RANK_ONE).status == "unbounded"
        assert sampled == [2, 2]

    def test_bisection_regime_samples_the_grid(self, sampled):
        v = joint_similarity_constant(-np.eye(34))
        assert v.constant == 1.0
        assert sampled == [34]

    def test_wide_bracket_samples_the_grid_after_the_solve(self, sampled):
        v = joint_similarity_constant(JORDAN, tol=0.0)
        assert v.evidence.startswith("engine bracket")
        assert sampled == [2]

    @staticmethod
    def _generators():
        for n in range(2, 13):
            for complex_ in (False, True):
                yield schur_design(np.random.default_rng(1000 * n + complex_), n, complex_)
        for example in fixed_examples(12, 16, eps=(1e-6, 1.0), b=(1e-2, 100.0)):
            yield np.array([[-example["eps"], example["b"]], [0.0, -example["eps"]]])
        yield lemerdy_semigroup(8).generator

    @pytest.mark.parametrize("tol", [1e-3, 1e-4, 0.0])
    def test_verdicts_match_the_sampled_floor(self, tol):
        # status, constant and lower as where the floor is sampled up front
        kappa_max = weightsolve.KAPPA_MAX_DEFAULT
        for A in self._generators():
            v = joint_similarity_constant(A, tol=tol)
            target = LyapunovTarget(as_matrix(A), 0.0)
            floor = weightsolve._continuous_norm_floor(target, kappa_max)
            explicit = weightsolve._constant_verdict(target, floor, tol, kappa_max, "")
            assert target._regime == "engine"
            assert (v.status, v.constant, v.lower, v.evidence) == (
                explicit.status,
                explicit.constant,
                explicit.lower,
                explicit.evidence,
            )


class TestPairForm:
    """One constraint form ``L(X) = c (M* X F + F* X M)`` for both targets."""

    @staticmethod
    def _random_targets():
        for example in fixed_examples(
            15, 12, seed=(0, 2**32 - 1), n=(1, 8), complex_entries=(False, True), shift=(0.01, 2.0)
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            M = rng.standard_normal((n, n))
            if example["complex_entries"]:
                M = M + 1j * rng.standard_normal((n, n))
            mu = np.linalg.eigvals(M)
            shift = example["shift"]
            # strictly stable: r(T) = 0.9, and A - shift I has abscissa -2 shift
            yield SteinTarget((0.9 * M / np.max(np.abs(mu)),)), rng
            yield LyapunovTarget(M - (np.max(mu.real) + shift) * np.eye(n), shift), rng

    def test_terms_reproduce_the_defect(self):
        for target, rng in self._random_targets():
            n = target.dim
            X = rng.standard_normal((n, n))
            if np.iscomplexobj(target._form[0]):
                X = X + 1j * rng.standard_normal((n, n))
            X = X + X.conj().T
            L = weightsolve._condition_sdp._PairMap(target._form, X.dtype).defect(X)
            (D,) = weightsolve._defects(target, X)
            scale = target.scale() * np.linalg.norm(X, 2)
            assert np.linalg.norm(L - D, 2) <= 1e-13 * scale

    def test_context_solves_the_defect_equation(self):
        for target, rng in self._random_targets():
            assert target._context is not None
            n = target.dim
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T
            X = target._context.solve(Q)
            (D,) = weightsolve._defects(target, X)
            assert np.linalg.norm(D + Q, 2) <= 1e-8 * target.scale() * np.linalg.norm(X, 2)

    def test_margin_reads_the_pencil_spectrum_off_the_schur_form(self, monkeypatch):
        # the eigenvalues of the Schur form that the solves use are those
        # of the pencil (M, F); no separate eigenvalue solve runs
        seen = []
        monkeypatch.setattr(scipy.linalg, "eigvals", lambda *a, **k: seen.append(a))
        for target, _ in self._random_targets():
            ctx = target._context
            assert ctx is not None
            M, F, _ = target._form
            mu = weightsolve._schur_eigenvalues(ctx._theta)
            ref = np.linalg.eigvals(M if F is None else np.linalg.solve(F.T, M.T).T)
            np.testing.assert_allclose(np.sort_complex(mu), np.sort_complex(ref), rtol=1e-10, atol=1e-12)
        assert seen == []

    def test_complex_pairs_of_a_real_schur_form(self):
        theta = np.array([[-1.0, 3.0, 0.5], [-2.0, -1.0, 0.25], [0.0, 0.0, -4.0]])
        mu = weightsolve._schur_eigenvalues(theta)
        np.testing.assert_array_equal(mu, [-1.0 + np.sqrt(6.0) * 1j, -1.0 - np.sqrt(6.0) * 1j, -4.0])

    def test_several_operators_have_no_form(self):
        target = SteinTarget((0.5 * np.eye(2), 0.25 * np.eye(2)))
        assert target._form is None and target._context is None and target._seed is None

    def test_seed_is_positive_definite_at_float64_resolution(self):
        # L^{-1}(-I) is positive definite in exact arithmetic, but its
        # float64 solution has eigenvalues [-2.17e9, 3.95e29]
        target = LyapunovTarget(SHIFT8 - 0.00705 * np.eye(8), 0.0)
        assert target._context is not None
        assert target._seed is None


class TestTargetScale:
    def test_scale_computed_once(self, monkeypatch):
        assert SteinTarget((RANK_ONE,)).scale() == 4.0
        target = LyapunovTarget(JORDAN, 0.5)
        expected = max(1.0, 2.0 * operator_norm(JORDAN) + 1.0)
        assert target.scale() == expected
        monkeypatch.setattr(weightsolve, "operator_norm", lambda T: pytest.fail("recomputed"))
        assert target.scale() == expected

    def test_solver_state_computed_once_per_verdict(self, monkeypatch):
        # n = 34 is bisected: every probe reads the target's context, seed
        # and spectral weights, which are computed once
        counts = {"context": 0, "spectral": 0}

        def counted(key, fn):
            def call(*args):
                counts[key] += 1
                return fn(*args)

            return call

        context = weightsolve._EquationContext
        monkeypatch.setattr(context, "for_target", counted("context", context.for_target))
        monkeypatch.setattr(
            weightsolve, "_spectral_seeds", counted("spectral", weightsolve._spectral_seeds)
        )
        T = np.kron(np.eye(17), np.array([[0.5, 1.0], [0.0, 0.5]]))
        v = discrete_similarity_constant(T, tol=1e-2)
        assert v.finite
        assert counts == {"context": 1, "spectral": 1}


#: ``[[0.5, 1], [0, 0.5]]`` seventeen times: n = 34 is past the engine, so bisected
BISECTED_JORDAN = np.kron(np.eye(17), np.array([[0.5, 1.0], [0.0, 0.5]]))


class TestBisectRegime:
    def test_floor_certified_by_the_first_probe(self):
        v = discrete_similarity_constant(0.5 * np.eye(34))
        assert v.finite
        assert v.constant == v.lower == v.searched_kappa_max == 1.0

    def test_no_certificate_up_to_the_budget_is_infeasible(self):
        # the power-norm floor (1 + sqrt 2)/2 is below the budget and the
        # constant (about 1.343) above it
        v = discrete_similarity_constant(BISECTED_JORDAN, kappa_max=1.25)
        assert v.status == "infeasible"
        assert v.certificate is None
        assert v.lower == 1.2071067811865475
        assert v.searched_kappa_max == 1.25


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


class TestOneCertificateRule:
    """Every returned certificate, and every ``nearest``, passed ``_certifies``."""

    @pytest.fixture
    def accepted(self, monkeypatch):
        accepted = []
        certifies = weightsolve._certifies

        def spy(target, cert, at=None):
            ok = certifies(target, cert, at=at)
            if ok:
                accepted.append(cert)
            return ok

        monkeypatch.setattr(weightsolve, "_certifies", spy)
        return accepted

    @staticmethod
    def _returned(outcomes):
        certs = []
        for out in outcomes:
            certs.append(out.certificate)
            certs.append(getattr(out, "nearest", None))
        return [c for c in certs if c is not None]

    def _check(self, accepted, regime, target, outcomes):
        assert target._regime == regime
        returned = self._returned(outcomes)
        assert returned
        for cert in returned:
            assert any(cert is ok for ok in accepted)

    def test_engine(self, accepted):
        target = SteinTarget((_RAND3,))
        v = discrete_similarity_constant(_RAND3, tol=1e-4)
        probes = [stein_feasible([_RAND3], k) for k in (3.0, 1.01, 1.01 * v.constant)]
        assert probes[-1]
        self._check(accepted, "engine", target, [v, *probes])

    def test_no_seed(self, accepted):
        T = np.zeros((3, 3))
        T[:2, :2] = _rotation(0.3)
        T[:2, 2] = 1.0
        T[2, 2] = 0.5
        v = discrete_similarity_constant(T)
        assert v.finite
        self._check(accepted, "no seed", SteinTarget((T,)), [v])
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = lyapunov_feasible(skew, 0.0, 2.0)
        self._check(accepted, "no seed", LyapunovTarget(skew, 0.0), [res])

    def test_bisect(self, accepted):
        target = SteinTarget((BISECTED_JORDAN,))
        v = discrete_similarity_constant(BISECTED_JORDAN, tol=1e-2)
        res = stein_feasible([BISECTED_JORDAN], 1.5)
        diagonal = discrete_similarity_constant(0.5 * np.eye(34))
        self._check(accepted, "bisect", target, [v, res, diagonal])
