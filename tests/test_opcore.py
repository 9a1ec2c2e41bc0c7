import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from simgroup import exceptions
from simgroup.opcore import (
    as_matrix,
    expm_semigroup,
    gramian_integral,
    growth_bound,
    matrix_from_json,
    matrix_to_json,
    min_singular_value,
    norm_upper_bound,
    numerical_abscissa,
    operator_norm,
    resolvent,
    semigroup_from_generator,
    semigroup_law_residual,
    spectral_radius,
    weighted_norm,
)

from conftest import random_stable


class TestExpm:
    def test_zero_generator(self):
        E = expm_semigroup(np.zeros((3, 3)), 5.0)
        assert operator_norm(E - np.eye(3)) == 0.0

    def test_nilpotent_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.1, 1.0, 7.5):
            expected = np.array([[1.0, t], [0.0, 1.0]])
            assert operator_norm(expm_semigroup(A, t) - expected) < 1e-12 * (1 + t)

    def test_scalar(self):
        E = expm_semigroup(np.diag([-1.0]), math.log(2.0))
        assert abs(E[0, 0] - 0.5) < 1e-14

    def test_matches_eigendecomposition(self, rng):
        A = random_stable(rng, 6)
        w, V = np.linalg.eig(A)
        direct = (V * np.exp(1.3 * w)) @ np.linalg.inv(V)
        assert operator_norm(expm_semigroup(A, 1.3) - direct) < 1e-10

    def test_saturation(self):
        with pytest.raises(exceptions.SaturationError):
            expm_semigroup(np.diag([2.0]), 1e4)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            expm_semigroup(np.eye(2), -1.0)


def _lyapunov_orbit_integral(A, Q, tau):
    """``P - T(tau)* P T(tau)`` with ``A* P + P A = -Q``, for stable ``A``."""
    P = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -Q)
    T = scipy.linalg.expm(tau * A)
    return P - T.conj().T @ P @ T, P, T


class TestGramianIntegral:
    def test_long_horizon_closed_form(self):
        # exp(-tau A*) reaches e^40 here: one block exponential over the
        # whole horizon loses the integral in rounding
        A = np.array([[-0.5, 1.0], [0.0, -4.0]])
        ref, _, _ = _lyapunov_orbit_integral(A, np.eye(2), 10.0)
        G = gramian_integral(A, np.eye(2), 10.0)
        assert operator_norm(G - ref) <= 1e-12 * operator_norm(ref)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        complex_entries=st.booleans(),
        margin=st.floats(0.05, 1.0),
        tau=st.floats(1e-2, 1e2),
    )
    def test_matches_closed_form(self, seed, n, complex_entries, margin, tau):
        rng = np.random.default_rng(seed)
        A = random_stable(rng, n, margin=margin, complex_entries=complex_entries)
        B = rng.standard_normal((n, n))
        Q = B @ B.T
        ref, P, T = _lyapunov_orbit_integral(A, Q, tau)
        G = gramian_integral(A, Q, tau)
        # the closed form itself carries rounding of order eps |P| (1 + |T|^2)
        scale = operator_norm(P) * (1.0 + operator_norm(T) ** 2)
        assert operator_norm(G - ref) <= 1e-12 * scale
        assert np.linalg.eigvalsh(G)[0] >= -1e-12 * scale


class TestResolvent:
    def test_zero_generator(self):
        X = resolvent(np.zeros((2, 2)), 2.0)
        assert operator_norm(X - 0.5 * np.eye(2)) < 1e-14

    def test_scalar(self):
        X = resolvent(np.diag([-1.0]), 1.0)
        assert abs(X[0, 0] - 0.5) < 1e-14

    def test_resolvent_identity(self, rng):
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        z, w = 20.0, 15.0 + 1j
        Rz, Rw = resolvent(A, z), resolvent(A, w)
        assert operator_norm(Rz - Rw - (w - z) * (Rz @ Rw)) <= 1e-10

    def test_near_singular(self):
        with pytest.raises(exceptions.NearSingularError):
            resolvent(np.diag([1.0, 2.0]), 1.0)


class TestNorms:
    def test_identity(self):
        I = np.eye(3)
        assert operator_norm(I) == 1.0
        assert min_singular_value(I) == 1.0
        assert spectral_radius(I) == 1.0

    def test_rank_one_nilpotent(self):
        T = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert operator_norm(T) == 2.0
        assert min_singular_value(T) == 0.0
        assert spectral_radius(T) < 1e-12

    def test_diagonal(self):
        T = np.diag([0.5, 0.25])
        assert operator_norm(T) == 0.5
        assert spectral_radius(T) == 0.5

    def test_weighted_identity_weight(self, rng):
        T = rng.standard_normal((4, 4))
        assert weighted_norm(T, np.eye(4)) == operator_norm(T)

    def test_weighted_hand_example(self):
        T = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert abs(weighted_norm(T, np.diag([1.0, 4.0])) - 1.0) < 1e-12

    def test_scalar_weight_is_isometric_rescaling(self):
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        assert abs(weighted_norm(U, 7.0 * np.eye(2)) - 1.0) < 1e-12

    def test_weight_must_be_pd(self):
        with pytest.raises(exceptions.InvalidWeightError):
            weighted_norm(np.eye(2), np.diag([1.0, -1.0]))

    def test_spectral_radius_below_any_weighted_norm(self, rng):
        for _ in range(12):
            T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            B = rng.standard_normal((5, 5))
            P = B @ B.T + 0.1 * np.eye(5)
            assert spectral_radius(T) <= weighted_norm(T, P) * (1 + 1e-10)


class TestNormUpperBound:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9))
    def test_bounds_the_operator_norm(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert norm_upper_bound(X) >= operator_norm(X) * (1 - 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
    def test_exact_on_scaled_partial_permutations(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n)
        scale[rng.random(n) < 0.3] = 0.0
        X = np.zeros((n, n), dtype=complex)
        X[np.arange(n), rng.permutation(n)] = scale
        norm = operator_norm(X)
        assert abs(norm_upper_bound(X) - norm) <= 1e-15 * norm

    def test_row_and_column_sums(self):
        # norm(X, 1) = 1 and norm(X, inf) = 2: the bound sqrt(2) is the norm here
        assert norm_upper_bound(np.array([[1.0, 1.0]])) == math.sqrt(2.0)
        assert norm_upper_bound(np.zeros((3, 3))) == 0.0


class TestGrowthQuantities:
    def test_growth_bound_diagonal(self):
        assert growth_bound(np.diag([-1.0, -2.0])) == -1.0

    def test_growth_bound_nilpotent(self):
        assert abs(growth_bound(np.array([[0.0, 1.0], [0.0, 0.0]]))) < 1e-12

    def test_growth_bound_matches_log_spectral_radius(self, rng):
        A = random_stable(rng, 8)
        assert abs(growth_bound(A) - math.log(spectral_radius(expm_semigroup(A, 1.0)))) <= 1e-10

    def test_abscissa_skew(self):
        K = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert abs(numerical_abscissa(K)) < 1e-12

    def test_abscissa_jordan_shifted(self):
        assert abs(numerical_abscissa(np.array([[-1.0, 4.0], [0.0, -1.0]])) - 1.0) < 1e-12

    def test_abscissa_scalar(self):
        assert numerical_abscissa(np.diag([-3.0])) == -3.0

    def test_abscissa_envelope(self, rng):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        om = numerical_abscissa(A)
        for t in np.arange(0.1, 3.05, 0.35):
            assert operator_norm(expm_semigroup(A, t)) <= math.exp(om * t) * (1 + 1e-9)


class TestSemigroupValue:
    def test_identity_at_zero(self, rng):
        sem = semigroup_from_generator(random_stable(rng, 5))
        assert operator_norm(sem.eval(0.0) - np.eye(5)) <= 1e-12

    def test_law_16x16(self, rng):
        M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        A = 5.0 * M / operator_norm(M)
        sem = semigroup_from_generator(A)
        for s, t in ((0.3, 1.1), (2.0, 2.0), (0.05, 1.7)):
            assert semigroup_law_residual(sem, s, t) <= 1e-10

    def test_snap_reporting(self):
        from simgroup.opcore import sampled_semigroup

        sem = sampled_semigroup(2, lambda t: np.eye(2), "const", step=0.25)
        _, dist = sem.eval_with_snap(0.3)
        assert abs(dist - 0.05) < 1e-12


class TestMatrixJson:
    def test_round_trip(self, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = matrix_from_json(matrix_to_json(M))
        assert operator_norm(M - back) < 1e-15

    def test_rejects_ragged(self):
        bad = {"n": 2, "re": [[1.0, 2.0], [3.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(exceptions.InputFormatError):
            matrix_from_json(bad)

    def test_rejects_non_square(self):
        bad = {"n": 2, "re": [[1.0, 2.0]], "im": [[0.0, 0.0]]}
        with pytest.raises(exceptions.InputFormatError):
            matrix_from_json(bad)

    def test_rejects_missing_fields(self):
        with pytest.raises(exceptions.InputFormatError):
            matrix_from_json({"re": [[1.0]]})

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(exceptions.DimensionError):
            as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
