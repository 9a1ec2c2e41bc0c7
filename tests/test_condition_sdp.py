"""Kernels of the condition-number SDP engine, checked against their definitions."""

import numpy as np
import pytest
import scipy.linalg

from simgroup import _condition_sdp
from simgroup._condition_sdp import _cholesky, _HermitianBasis, _line_search


def _random(rng, shape, complex_):
    X = rng.standard_normal(shape)
    if complex_:
        X = X + 1j * rng.standard_normal(shape)
    return X


def _basis_matrices(basis):
    return [basis.matrix(e) for e in np.eye(basis.dim)]


def _kron_gather(basis, As, Bs):
    """``quadratic`` as row and column gathers of the permuted ``sum kron(A_r, B_r^T)``."""
    n = basis.n
    T = np.tensordot(As, Bs, axes=(0, 0)).transpose(0, 3, 1, 2).reshape(n * n, n * n)
    (fr, fi), (br, bi) = basis._fwd, basis._bwd
    Y = basis._w[:, None] * (T[br] + T[fr])
    if basis.complex:
        Y = np.concatenate([Y, 1j * (T[bi] - T[fi])])
    H = basis._w * np.real(Y[:, fr] + Y[:, br])
    if basis.complex:
        H = np.concatenate([H, -np.imag(Y[:, fi] - Y[:, bi])], axis=1)
    return H


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
class TestHermitianBasis:
    def test_quadratic_matches_trace_loop(self, n, complex_):
        # six factor pairs, as many as the engine stacks per Newton step
        rng = np.random.default_rng(10 * n + complex_)
        basis = _HermitianBasis(n, complex_)
        As = _random(rng, (6, n, n), complex_)
        Bs = _random(rng, (6, n, n), complex_)
        E = _basis_matrices(basis)
        expected = np.array([
            [sum(np.real(np.trace(Ek @ A @ El @ B)) for A, B in zip(As, Bs)) for El in E]
            for Ek in E
        ])
        H = basis.quadratic(As, Bs)
        np.testing.assert_allclose(H, expected, rtol=1e-12, atol=1e-12)
        # the flat gather rounds each entry exactly as the row and column gathers do
        np.testing.assert_array_equal(H, _kron_gather(basis, As, Bs))

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


def _lyapunov_form(A):
    return (A, None, 1.0)


def _equation_seed(A):
    X = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -np.eye(len(A)))
    X = 0.5 * (X + X.conj().T)
    return X / np.linalg.eigvalsh(X)[0]


def _same_result(a, b):
    return (
        a.weight.dtype == b.weight.dtype
        and a.weight.tobytes() == b.weight.tobytes()
        and (a.kappa, a.lower, a.iterations) == (b.kappa, b.lower, b.iterations)
    )


class _SpyPotrf:
    def __init__(self):
        self.potrf = scipy.linalg.get_lapack_funcs("potrf", dtype=np.float64)
        self.args = []
        self.calls = []

    def __call__(self, H, **kwargs):
        self.args.append(H)
        self.calls.append(np.array(H, copy=True))
        return self.potrf(H, **kwargs)


class TestCholesky:
    def test_first_attempt_is_unridged(self):
        H = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 1.0]])
        spy = _SpyPotrf()
        c = _cholesky(H, spy)
        assert len(spy.calls) == 1
        assert spy.args[0] is H
        np.testing.assert_allclose(np.triu(c).T @ np.triu(c), H, rtol=1e-15, atol=1e-15)

    def test_ridge_ladder_engages_on_a_numerically_indefinite_matrix(self):
        # singular, so the unridged factorization fails; the smallest ridge restores it
        H = np.array([[1.0, 1.0], [1.0, 1.0]])
        spy = _SpyPotrf()
        assert _cholesky(H, spy) is not None
        assert len(spy.calls) == 2
        np.testing.assert_array_equal(spy.calls[1], H + 1e-14 * np.eye(2))

    def test_indefinite_matrix_exhausts_the_ladder(self):
        spy = _SpyPotrf()
        assert _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), spy) is None
        assert len(spy.calls) == 6


_GENERATORS = {
    "jordan": np.array([[-1.0, 10.0], [0.0, -1.0]]),
    "real2": np.array([[-2.0, 3.0], [0.5, -1.0]]),
    "real3": np.array([[-1.0, 3.0, 0.5], [0.0, -0.5, 2.0], [0.05, 0.0, -2.0]]),
    "complex4": np.array([
        [-1.0 + 0.5j, 2.0, 0.0, 1.0j],
        [0.0, -0.5 - 1.0j, 3.0, 0.0],
        [0.0, 0.0, -0.75, 1.0 + 1.0j],
        [0.05, 0.0, 0.0, -1.5 + 0.25j],
    ]),
}


class TestSolve:
    def test_indefinite_defect_block_stops_at_the_seed(self):
        # L(P) = A*P + PA is indefinite at P = diag(1, 2): the stacked
        # positivity test must refuse the first iterate
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        seed = np.diag([1.0, 2.0])
        assert np.linalg.eigvalsh(A.T @ seed + seed @ A)[-1] > 0.0
        res = _condition_sdp.solve(_lyapunov_form(A), seed, 1e-6)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.weight, seed)
        assert res.kappa == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert res.lower == 1.0

    def test_feasible_seed_closes_the_bracket(self):
        # the same generator from its equation seed L^{-1}(-I)
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        seed = _equation_seed(A)
        res = _condition_sdp.solve(_lyapunov_form(A), seed, 1e-6)
        assert res.iterations > 1
        assert res.lower <= res.kappa <= (1.0 + 1e-6) * res.lower
        assert res.kappa < np.sqrt(np.linalg.cond(seed))

    @pytest.mark.parametrize("name", list(_GENERATORS))
    def test_identity_factor_is_skipped_bit_for_bit(self, name):
        # F = None skips the identity products of a Lyapunov pair; the
        # iterates must be the ones an explicit identity factor gives
        A = _GENERATORS[name]
        seed = _equation_seed(A)
        implicit = _condition_sdp.solve(_lyapunov_form(A), seed, 1e-6)
        explicit = _condition_sdp.solve((A, np.eye(len(A), dtype=A.dtype), 1.0), seed, 1e-6)
        assert implicit.iterations > 1
        assert _same_result(implicit, explicit)

    def test_interleaved_solves_share_no_state(self, monkeypatch):
        # two solves, one of the outer solve's size and field, run to
        # completion inside the first one's line search: all three must
        # match the same solves run alone
        forms = {name: _lyapunov_form(A) for name, A in _GENERATORS.items()}
        seeds = {name: _equation_seed(A) for name, A in _GENERATORS.items()}
        alone = {name: _condition_sdp.solve(forms[name], seeds[name], 1e-6) for name in forms}
        search = _condition_sdp._line_search
        inner = {}

        def interleaving(slope_t, d):
            monkeypatch.setattr(_condition_sdp, "_line_search", search)
            for name in ("real2", "complex4"):
                inner[name] = _condition_sdp.solve(forms[name], seeds[name], 1e-6)
            return search(slope_t, d)

        monkeypatch.setattr(_condition_sdp, "_line_search", interleaving)
        outer = _condition_sdp.solve(forms["jordan"], seeds["jordan"], 1e-6)
        assert set(inner) == {"real2", "complex4"}
        assert _same_result(outer, alone["jordan"])
        for name, res in inner.items():
            assert _same_result(res, alone[name])
