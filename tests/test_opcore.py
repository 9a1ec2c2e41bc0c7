import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from simgroup import exceptions
from simgroup.gallery import lemerdy_semigroup, w_semigroup
from simgroup.opcore import (
    _orbit_integral,
    as_matrix,
    expm_semigroup,
    gramian_integral,
    growth_bound,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    min_singular_value,
    norm_upper_bound,
    numerical_abscissa,
    operator_norm,
    resolvent,
    save_matrix,
    semigroup_from_generator,
    semigroup_law_residual,
    spectral_radius,
    weighted_norm,
    write_atomic,
)

from conftest import fixed_examples, random_stable


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


def _van_loan_orbit_integral(A, Q, tau):
    """The orbit integral through one dense ``2n x 2n`` Van Loan ``expm`` per step.

    The same step rule (``h norm(A) <= 1/2``) and the same doublings as
    ``gramian_integral``; an independent route to the step's integral.
    ``Q`` enters the block scaled by a power of two to ``A``'s size, and
    the result is scaled back: otherwise ``expm`` would choose its own
    squarings by ``norm(Q)`` and lose ``exp(hA)`` in them.
    """
    n = A.shape[0]
    k = max(0, math.ceil(math.log2(max(2.0 * tau * np.linalg.norm(A, 2), 1.0))))
    s = 2.0 ** round(math.log2(max(np.linalg.norm(A, 2), 1e-3) / np.linalg.norm(Q, 2)))
    M = np.zeros((2 * n, 2 * n), dtype=np.result_type(A, Q))
    M[:n, :n] = -A.conj().T
    M[:n, n:] = s * Q
    M[n:, n:] = A
    E = scipy.linalg.expm((tau / 2**k) * M)
    T = E[n:, n:]
    G = T.conj().T @ E[:n, n:]
    for _ in range(k):
        G = G + T.conj().T @ G @ T
        T = T @ T
    return 0.5 * (G + G.conj().T) / s, T


def _orbit_corpus_generator(rng, n, kind, complex_entries):
    """A stable, skew (isometric), near-skew or Jordan generator, in a random basis."""
    M = rng.standard_normal((n, n))
    if complex_entries:
        M = M + 1j * rng.standard_normal((n, n))
    if kind == "stable":
        return random_stable(rng, n, complex_entries=complex_entries)
    if kind == "jordan":
        J = np.diag(np.full(n - 1, 1.0), 1) - 0.5 * np.eye(n)
        U, _ = np.linalg.qr(M)
        return U @ J @ U.conj().T
    S = (M - M.conj().T) / (2.0 * math.sqrt(n))
    return S if kind == "skew" else S + 1e-3 * (rng.standard_normal((n, n)) - 2.0 * np.eye(n))


class TestGramianIntegral:
    def test_matches_dense_van_loan(self):
        kinds = ("stable", "skew", "near_skew", "jordan")
        for example in fixed_examples(
            41,
            24,
            seed=(0, 2**32 - 1),
            n=(1, 128),
            complex_entries=(False, True),
            kind=(0, 3),
            tau=(1e-3, 50.0),
            q_ratio=(1e-8, 1e8),
            definite=(False, True),
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            A = _orbit_corpus_generator(rng, n, kinds[example["kind"]], example["complex_entries"])
            B = rng.standard_normal((n, n))
            if example["complex_entries"]:
                B = B + 1j * rng.standard_normal((n, n))
            Q = B @ B.conj().T if example["definite"] else B + B.conj().T
            Q = 0.5 * (Q + Q.conj().T)
            q = example["q_ratio"] * max(np.linalg.norm(A, 2), 1e-3)
            Q *= q / np.linalg.norm(Q, 2)
            tau = example["tau"]
            G, T = _orbit_integral(A, Q, tau)
            G_ref, T_ref = _van_loan_orbit_integral(A, Q, tau)
            # either route's rounding is relative to the integral of norm(Q) I,
            # not to G, which cancels for indefinite Q
            scale = np.linalg.norm(_van_loan_orbit_integral(A, q * np.eye(n), tau)[0], 2)
            assert np.linalg.norm(G - G_ref, 2) <= 1e-12 * scale, example
            assert np.linalg.norm(T - T_ref, 2) <= 1e-12 * max(1.0, np.linalg.norm(T_ref, 2)), example

    @pytest.mark.parametrize("j", [-20, 20])
    def test_power_of_two_weight_scales_the_integral_exactly(self, j):
        # neither the step nor the doublings read Q, so the result is
        # linear in Q bit for bit
        rng = np.random.default_rng(6)
        for complex_entries in (False, True):
            A = random_stable(rng, 6, complex_entries=complex_entries)
            B = rng.standard_normal((6, 6))
            Q = B @ B.T
            G = gramian_integral(A, Q, 1.7)
            assert np.array_equal(gramian_integral(A, 2.0**j * Q, 1.7), 2.0**j * G)

    def test_non_hermitian_weight_rejected(self):
        # quadrature gives [[0, 0.2454], [0, 0.0792]]; the Hermitian part's
        # integral, [[0, 0.1227], [0.1227, 0.0792]], answers another question
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        with pytest.raises(ValueError, match="Q must be Hermitian"):
            gramian_integral(A, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rounding_level_asymmetry_accepted(self):
        rng = np.random.default_rng(8)
        C = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
        Q = C.conj().T @ C
        A = random_stable(rng, 5)
        G = gramian_integral(A, Q, 2.0)
        assert np.array_equal(G, gramian_integral(A, 0.5 * (Q + Q.conj().T), 2.0))

    def test_weight_of_another_shape_rejected(self):
        with pytest.raises(exceptions.DimensionError, match="Q must have the generator's shape"):
            gramian_integral(np.diag([-1.0, -2.0]), np.eye(3), 1.0)

    def test_long_horizon_closed_form(self):
        # exp(-tau A*) reaches e^40 here: one block exponential over the
        # whole horizon loses the integral in rounding
        A = np.array([[-0.5, 1.0], [0.0, -4.0]])
        ref, _, _ = _lyapunov_orbit_integral(A, np.eye(2), 10.0)
        G = gramian_integral(A, np.eye(2), 10.0)
        assert operator_norm(G - ref) <= 1e-12 * operator_norm(ref)

    def test_matches_closed_form(self):
        for example in fixed_examples(
            1,
            40,
            seed=(0, 2**32 - 1),
            n=(1, 6),
            complex_entries=(False, True),
            margin=(0.05, 1.0),
            tau=(1e-2, 1e2),
        ):
            self._check_closed_form(**example)

    @staticmethod
    def _check_closed_form(seed, n, complex_entries, margin, tau):
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

    def test_overflow_raises_saturation(self):
        # exp(400) squared is past float64: the doublings overflow, and
        # RuntimeWarnings are errors under pytest
        with pytest.raises(exceptions.SaturationError, match="overflows"):
            gramian_integral(np.diag([400.0, 1.0]), np.eye(2), 1.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="tau >= 0"):
            gramian_integral(np.diag([-1.0, -2.0]), np.eye(2), -1.0)

    def test_zero_horizon_is_zero(self):
        G = gramian_integral(np.diag([-1.0, -2.0]), np.eye(2), 0.0)
        assert not G.any()

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            gramian_integral(np.diag([-1.0, -2.0]), np.eye(2), tau)


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

    @pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13j])
    def test_near_singular_at_the_disc_edge(self, offset):
        # the eigenvalue 3 sits on the rim |z| = norm(A, 1) = 3, where the
        # spectrum must be computed
        A = np.array([[3.0, 0.0], [0.0, -1.0]])
        with pytest.raises(exceptions.NearSingularError, match="within 1e-12"):
            resolvent(A, 3.0 + offset)

    def test_spectrum_only_inside_the_disc(self, rng, monkeypatch):
        A = random_stable(rng, 8)
        norm1 = float(np.abs(A).sum(axis=0).max())
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
        # the Post-Widder shifts n / t of exp(A) are past norm(A, 1)
        for n in (32, 1024):
            assert n > norm1
            resolvent(A, float(n))
        assert calls == []
        for z in (0.5 * norm1, 0.9 * norm1 * 1j, norm1):
            X = resolvent(A, z)
            assert operator_norm((z * np.eye(8) - A) @ X - np.eye(8)) <= 1e-10
        assert len(calls) == 3

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_point_rejected(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            resolvent(np.diag([-1.0, -2.0]), z)


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


class TestOperatorNorm:
    """One top eigenvalue of the power-of-two-scaled Gram matrix gives the norm."""

    def test_matches_the_svd_norm(self):
        for example in fixed_examples(
            6,
            40,
            seed=(0, 2**32 - 1),
            n=(1, 256),
            complex_entries=(False, True),
            scale=(1e-300, 1e300),
            kind=(0, 2),
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            X = rng.standard_normal((n, n))
            if example["complex_entries"]:
                X = X + 1j * rng.standard_normal((n, n))
            if example["kind"] == 1:  # rank one
                X = np.outer(X[:, 0], X[0, :])
            elif example["kind"] == 2:
                X = np.zeros_like(X)
            X = example["scale"] * X
            ref = np.linalg.norm(X, 2)
            assert abs(operator_norm(X) - ref) <= 4 * n * np.finfo(float).eps * ref

    def test_extreme_entries_stay_in_range(self):
        # the Gram matrix of either would overflow or underflow unscaled
        assert operator_norm(np.array([[1e300, 1e300], [0.0, 0.0]])) == pytest.approx(
            math.sqrt(2) * 1e300, rel=1e-15
        )
        assert operator_norm(np.array([[5e-324]])) == 5e-324
        assert operator_norm(np.full((2, 2), 1.5e308)) == math.inf

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_non_finite_entry_gives_inf(self, bad):
        X = np.array([[bad, 0.0], [0.0, 1.0]])
        assert operator_norm(X) == math.inf

    def test_rectangular(self):
        assert operator_norm(np.ones((1, 5))) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert operator_norm(np.ones((5, 1))) == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_takes_no_singular_value_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("singular value decomposition taken")

        for owner, name in ((np.linalg, "norm"), (np.linalg, "svd"), (scipy.linalg, "svdvals")):
            monkeypatch.setattr(owner, name, refuse)
        assert operator_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == pytest.approx(5.0, rel=1e-15)


class TestRealKernels:
    """Real-valued data takes the real kernels, with the complex kernels' values."""

    def test_norms_of_real_valued_complex_input_match_the_complex_svd(self):
        for example in fixed_examples(
            4, 40, seed=(0, 2**32 - 1), n=(1, 48), scale=(1e-3, 1e3), rank_deficient=(False, True)
        ):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            M = example["scale"] * rng.standard_normal((n, n))
            if example["rank_deficient"]:
                M[:, 0] = 0.0
            M = M.astype(complex)
            sv = np.linalg.svd(M, compute_uv=False)
            assert operator_norm(M) == pytest.approx(sv[0], rel=1e-14)
            assert abs(min_singular_value(M) - sv[-1]) <= 1e-14 * sv[0]

    def test_real_generator_values_are_real(self):
        jordan = np.array([[-1.0, 4.0], [0.0, -1.0]])  # scaling-and-squaring route
        for example in fixed_examples(
            5, 20, seed=(0, 2**32 - 1), n=(1, 24), t=(1e-3, 1e2), jordan=(False, True)
        ):
            if example["jordan"]:
                A = jordan
            else:
                rng = np.random.default_rng(example["seed"])
                A = random_stable(rng, example["n"], complex_entries=False)
            E = semigroup_from_generator(A).eval(example["t"])
            assert E.dtype == np.float64
            assert not E.imag.any()
            ref = scipy.linalg.expm(example["t"] * A)
            assert operator_norm(E - ref) <= 1e-10 * max(1.0, operator_norm(ref))

    def test_expm_of_real_generator_is_real_in_complex_storage(self):
        # real spectra leave a real eigenbasis, whose product is real
        rng = np.random.default_rng(11)
        real_spectrum = np.triu(rng.standard_normal((6, 6)), 1) - np.diag(np.arange(1.0, 7.0))
        rotation = np.array([[-0.5, 2.0], [-2.0, -0.5]])
        jordan = np.array([[-1.0, 4.0], [0.0, -1.0]])
        for A in (real_spectrum, rotation, jordan, random_stable(rng, 12, complex_entries=False)):
            for t in (1e-3, 0.7, 30.0):
                E = expm_semigroup(A, t)
                assert E.dtype == np.float64
                assert not E.imag.any()
                ref = scipy.linalg.expm(t * A)
                assert operator_norm(E - ref) <= 1e-10 * max(1.0, operator_norm(ref))

    def test_real_generator_factorized_in_real_arithmetic(self, monkeypatch):
        seen = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda M: seen.append(M.dtype) or eig(M))
        semigroup_from_generator(np.array([[-1.0, 2.0], [0.0, -3.0]], dtype=complex)).eval(1.0)
        semigroup_from_generator(np.array([[-1.0, 2.0j], [0.0, -3.0]])).eval(1.0)
        assert seen == [np.dtype(float), np.dtype(complex)]

    def test_complex_generator_values_keep_their_imaginary_part(self):
        A = np.array([[1j, 1.0], [0.0, -1.0]])
        assert semigroup_from_generator(A).eval(1.0).imag.any()

    def test_real_orbit_integral_keeps_complex_storage(self):
        A = np.array([[-0.5, 1.0], [0.0, -4.0]])
        G = gramian_integral(A, np.eye(2), 3.0)
        assert G.dtype == np.float64
        assert not G.imag.any()


class TestNormUpperBound:
    def test_bounds_the_operator_norm(self):
        for example in fixed_examples(2, 60, seed=(0, 2**32 - 1), rows=(1, 9), cols=(1, 9)):
            rng = np.random.default_rng(example["seed"])
            rows, cols = example["rows"], example["cols"]
            X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            assert norm_upper_bound(X) >= operator_norm(X) * (1 - 1e-12)

    def test_exact_on_scaled_partial_permutations(self):
        for example in fixed_examples(3, 60, seed=(0, 2**32 - 1), n=(1, 9)):
            rng = np.random.default_rng(example["seed"])
            n = example["n"]
            scale = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            scale = scale * 10.0 ** rng.uniform(-3, 3, n)
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

    def test_refused_eigenbasis_takes_one_growth_bound(self, monkeypatch):
        # a Jordan block's eigenbasis is refused: every time takes
        # scaling-and-squaring, whose saturation check needs the growth bound
        A = np.array([[-1.0, 4.0], [0.0, -1.0]])
        times = np.logspace(-2, 8, 41)
        expected = [expm_semigroup(A, t) for t in times]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
        sem = semigroup_from_generator(A)
        for t, E in zip(times, expected):
            assert np.array_equal(sem.eval(t), E)
        assert len(calls) == 1
        calls.clear()
        expm_semigroup(A, 1.0)
        assert len(calls) == 1

    def test_eigenbasis_factorized_at_first_positive_time(self, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(1) or eig(M))
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sem = semigroup_from_generator(A)
        assert np.array_equal(sem.eval(0.0), np.eye(2))
        assert calls == []
        for t in (0.5, 1.0, 2.0):
            assert np.array_equal(sem.eval(t), expm_semigroup(A, t))
        # expm_semigroup factorizes per call; the semigroup once
        assert len(calls) == 4

    def test_snap_reporting(self):
        from simgroup.opcore import sampled_semigroup

        sem = sampled_semigroup(2, lambda t: np.eye(2), "const", step=0.25)
        _, dist = sem.eval_with_snap(0.3)
        assert abs(dist - 0.05) < 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda t: expm_semigroup(np.array([[-1.0, 4.0], [0.0, -1.0]]), t),
            lambda t: semigroup_from_generator(np.array([[0.5, 0.0], [0.0, -1.0]])).eval(t),
            lambda t: w_semigroup(2).eval(t),
            lambda t: w_semigroup(2).eval_with_snap(t),
        ],
        ids=["expm_semigroup", "generator", "gridded", "gridded_with_snap"],
    )
    def test_non_finite_time_is_rejected(self, evaluate, t):
        with pytest.raises(ValueError, match="t must be finite"):
            evaluate(t)

    def test_generator_is_carried_by_generated_semigroups_only(self):
        from simgroup.opcore import sampled_semigroup

        A = np.array([[-1.0, 4.0], [0.0, -1.0]])
        assert semigroup_from_generator(A).generator is A
        lemerdy = lemerdy_semigroup(3)
        assert operator_norm(scipy.linalg.expm(0.4 * lemerdy.generator) - lemerdy.eval(0.4)) <= 1e-12
        assert sampled_semigroup(2, lambda t: np.eye(2), "const").generator is None
        assert w_semigroup(2).generator is None


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

    def test_real_fields_are_those_of_the_complex_cast(self):
        from simgroup.opcore import _matrix_fields

        X = np.array([[-0.0, 1.0, 0.5], [2.0, 0.0, -3.0], [0.0, -0.0, 1e-300]])
        real, cast = _matrix_fields(X), _matrix_fields(X.astype(complex))
        assert real["n"] == cast["n"] == 3
        assert real["re"] is X
        for key in ("re", "im"):
            assert real[key].dtype == np.float64
            assert real[key].view(np.int64).tolist() == cast[key].view(np.int64).tolist()
        assert matrix_to_json(X) == matrix_to_json(X.astype(complex))

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((0, 0)), np.array([[np.nan]])])
    def test_real_fields_keep_the_checks(self, bad):
        from simgroup.opcore import _matrix_fields

        with pytest.raises(exceptions.DimensionError):
            _matrix_fields(bad)

    @pytest.mark.parametrize("field", [float, complex])
    def test_save_load_round_trip_is_exact(self, tmp_path, rng, field):
        M = rng.standard_normal((4, 4))
        if field is complex:
            M = M + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "m.json"
        save_matrix(M, str(path))
        back = load_matrix(str(path))
        assert back.dtype == M.dtype
        assert back.tobytes() == M.tobytes()
        assert os.listdir(tmp_path) == ["m.json"]

    def test_missing_imaginary_part_reads_real(self):
        M = matrix_from_json({"n": 2, "re": [[1.0, 2.0], [3.0, 4.0]]})
        assert M.dtype == np.float64
        assert M.imag.dtype == np.float64 and not M.imag.any()
        assert M.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "bad", [[[1.0]], {"n": 0, "re": [], "im": []}, {"n": -1, "re": [[1.0]]}]
    )
    def test_rejects_non_object_and_non_positive_n(self, bad):
        with pytest.raises(exceptions.InputFormatError):
            matrix_from_json(bad)

    @pytest.mark.parametrize(
        "payload",
        [
            {"re": [[1.0, -0.0], [2.0, 3.0]], "im": [[0.0, 0.0], [-1.5, 0.0]]},
            {"re": [[-0.0, 1.0], [0.5, 2.0]]},
        ],
        ids=["complex", "real_with_negative_zero"],
    )
    def test_square_and_rectangular_schemas_decode_alike(self, payload):
        from simgroup.opcore import _matrix_payload

        square = matrix_from_json({"n": 2, **payload})
        rect = _matrix_payload({"rows": 2, "cols": 2, **payload}, "matrix")
        assert square.tobytes() == as_matrix(rect).tobytes()
        # the decoder keeps every sign bit, so a saved matrix reads back exactly
        assert matrix_to_json(square) == {"n": 2, "re": payload["re"], "im": payload.get("im", [[0.0] * 2] * 2)}

    def test_infinite_imaginary_part_is_rejected_without_a_warning(self):
        bad = {"n": 1, "re": [[1.0]], "im": [[math.inf]]}
        with pytest.raises(exceptions.DimensionError, match="non-finite"):
            matrix_from_json(bad)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "re": [[1.0')
        with pytest.raises(exceptions.InputFormatError, match="not valid JSON"):
            load_matrix(str(path))

    def test_write_atomic_leaves_no_temp_file_when_the_write_fails(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(TypeError):
            write_atomic(str(path), 12345)  # neither text nor bytes
        assert os.listdir(tmp_path) == []


#: Variables OpenBLAS reads its thread count from.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: Prints the thread count of each OpenBLAS pool (numpy's, scipy's) that
#: a ``*openblas_get_num_threads*`` symbol reads.
_READ_POOLS = """
import ctypes, json
import numpy
import simgroup
import scipy.linalg
counts = []
for module in (numpy.linalg._umath_linalg, scipy.linalg._fblas):
    lib = ctypes.CDLL(module.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            counts.append(getattr(lib, name)())
            break
print(json.dumps(counts))
"""


def _pool_threads(**thread_vars):
    """Pool thread counts after ``import numpy; import simgroup`` in a clean process."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(thread_vars)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _READ_POOLS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    if not counts:
        pytest.skip("no OpenBLAS pool found")
    return counts


class TestBlasThreadPolicy:
    def test_import_sets_one_thread_per_pool(self):
        # numpy loads its pool first; the import still reaches it
        assert set(_pool_threads()) == {1}

    def test_thread_variable_wins(self):
        assert set(_pool_threads(OPENBLAS_NUM_THREADS="2")) == {2}
