"""Kernels of the condition-number SDP engine, checked against their definitions."""

import numpy as np
import pytest
import scipy.linalg

from simgroup import _condition_sdp
from simgroup._condition_sdp import _HermitianBasis, _line_search


def _random(rng, shape, complex_):
    X = rng.standard_normal(shape)
    if complex_:
        X = X + 1j * rng.standard_normal(shape)
    return X


def _basis_matrices(basis):
    return [basis.matrix(e) for e in np.eye(basis.dim)]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestHermitianBasis:
    def test_quadratic_matches_trace_loop(self, n, complex_):
        rng = np.random.default_rng(10 * n + complex_)
        basis = _HermitianBasis(n, complex_)
        As = _random(rng, (3, n, n), complex_)
        Bs = _random(rng, (3, n, n), complex_)
        E = _basis_matrices(basis)
        expected = np.array([
            [sum(np.real(np.trace(Ek @ A @ El @ B)) for A, B in zip(As, Bs)) for El in E]
            for Ek in E
        ])
        np.testing.assert_allclose(basis.quadratic(As, Bs), expected, rtol=1e-12, atol=1e-12)

    def test_coords_is_adjoint_of_matrix(self, n, complex_):
        rng = np.random.default_rng(20 * n + complex_)
        basis = _HermitianBasis(n, complex_)
        G = _random(rng, (n, n), complex_)
        for x in rng.standard_normal((4, basis.dim)):
            P = basis.matrix(x)
            np.testing.assert_array_equal(P, P.conj().T)
            expected = np.real(np.trace(G @ P))
            assert basis.coords(G) @ x == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_dimension_counts_real_coordinates(self, n, complex_):
        basis = _HermitianBasis(n, complex_)
        assert basis.dim == (n * n if complex_ else n * (n + 1) // 2)
        E = np.array([M.ravel() for M in _basis_matrices(basis)])
        assert np.linalg.matrix_rank(np.concatenate([E.real, E.imag], axis=1)) == basis.dim


def _slope(slope_t, d, a):
    return slope_t - np.sum(d / (1.0 + a * d))


class TestLineSearch:
    @pytest.mark.parametrize(
        "slope_t, d",
        [
            (0.5, np.array([-2.0, -0.5, 0.3, 1.0, 4.0])),
            (2.0, np.array([-0.1, 3.0, 3.0])),
            (0.5, np.array([0.25, 1.0, 2.0, 3.0])),
        ],
        ids=["mixed", "one_negative", "all_positive"],
    )
    def test_derivative_vanishes_inside_the_domain(self, slope_t, d):
        assert _slope(slope_t, d, 0.0) < 0.0
        neg = d[d < 0.0]
        a_max = -1.0 / neg.min() if neg.size else np.inf
        a = _line_search(slope_t, d)
        assert 0.0 <= a <= min(0.99 * a_max, 1e6)
        assert abs(_slope(slope_t, d, a)) <= 1e-10 * (abs(slope_t) + np.abs(d).sum())

    def test_all_positive_direction_is_capped(self):
        # f keeps decreasing for every a > 0: the step stops at the cap
        d = np.array([0.5, 1.0, 2.0])
        a = _line_search(0.0, d)
        assert 0.99e6 <= a <= 1e6
        assert _slope(0.0, d, a) < 0.0

    def test_root_beyond_the_boundary_margin(self):
        # the minimizer lies in (0.99 a_max, a_max): the step stops at 0.99 a_max
        d = np.array([-1.0, 1e3])
        slope_t = -100.0
        assert _slope(slope_t, d, 0.99) < 0.0
        assert _line_search(slope_t, d) == pytest.approx(0.99, rel=1e-12)


def _lyapunov_terms(A):
    I = np.eye(len(A))
    return [(A, I, 1.0), (I, A, 1.0)]


class TestSolve:
    def test_indefinite_defect_block_stops_at_the_seed(self):
        # L(P) = A*P + PA is indefinite at P = diag(1, 2): the stacked
        # positivity test must refuse the first iterate
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        seed = np.diag([1.0, 2.0])
        assert np.linalg.eigvalsh(A.T @ seed + seed @ A)[-1] > 0.0
        res = _condition_sdp.solve(_lyapunov_terms(A), seed, 1e-6)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.weight, seed)
        assert res.kappa == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert res.lower == 1.0

    def test_feasible_seed_closes_the_bracket(self):
        # the same generator from its equation seed L^{-1}(-I)
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        X = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
        seed = X / np.linalg.eigvalsh(X)[0]
        res = _condition_sdp.solve(_lyapunov_terms(A), seed, 1e-6)
        assert res.iterations > 1
        assert res.lower <= res.kappa <= (1.0 + 1e-6) * res.lower
        assert res.kappa < np.sqrt(np.linalg.cond(seed))
