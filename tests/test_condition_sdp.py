"""Kernels of the condition-number SDP engine, checked against their definitions."""

import numpy as np
import pytest
import scipy.linalg

from simgroup import _condition_sdp
from simgroup._condition_sdp import _cholesky, _coupling_bound, _HermitianBasis, _line_search, _PairMap

from conftest import schur_design


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


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("identity", [False, True], ids=["pair", "lyapunov"])
def test_newton_factors_are_the_defect_block_schur_terms(complex_, identity):
    # the four pairs give Re tr(L(E_k) X L(E_l) W) for two different
    # Hermitian X and W, as the primal-dual Schur complement needs
    n = 3
    rng = np.random.default_rng(5 + 2 * complex_ + identity)
    M = _random(rng, (n, n), complex_)
    F = None if identity else _random(rng, (n, n), complex_)
    L = _PairMap((M, F, 0.5), complex if complex_ else float)
    G, K = _random(rng, (2, n, n), complex_)
    X, W = G @ G.conj().T, K @ K.conj().T
    AB = np.zeros((2, 6, n, n), dtype=L.M.dtype)
    L.newton_factors(X, W, 0.25, AB)
    basis = _HermitianBasis(n, complex_)
    LE = [L.defect(E) for E in _basis_matrices(basis)]
    expected = np.array([[np.real(np.trace(Lk @ X @ Ll @ W)) for Ll in LE] for Lk in LE])
    np.testing.assert_allclose(basis.quadratic(AB[0, 2:], AB[1, 2:]), expected, rtol=1e-12, atol=1e-12)


def _pd(rng, n, complex_):
    G = _random(rng, (n, n), complex_)
    return G @ G.conj().T + 0.1 * np.eye(n)


def _newton_point(rng, n, complex_, kind):
    """A form and a point ``(P, t)`` whose three slack blocks are positive definite."""
    Q = _pd(rng, n, complex_)
    Q = 0.5 * (Q + Q.conj().T)
    if kind == "stein":
        # T* P T - P <= -P / 2 where norm(T)^2 cond(P) <= 1/2
        w = np.linalg.eigvalsh(Q)
        T = _random(rng, (n, n), complex_)
        T *= np.sqrt(0.5 * w[0] / w[-1]) / np.linalg.norm(T, 2)
        form = _stein_form(T)
        P = Q
    else:
        A = _random(rng, (n, n), complex_) - 3.0 * np.sqrt(n) * np.eye(n)
        form = _lyapunov_form(A)
        P = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -Q)
        P = 0.5 * (P + P.conj().T)
    w = np.linalg.eigvalsh(P)
    P = P * (1.5 / w[0])
    return form, P, 1.5 * w[-1] / w[0] + rng.uniform(0.1, 2.0)


@pytest.mark.parametrize("same", [False, True], ids=["X", "X=W"])
@pytest.mark.parametrize("kind", ["stein", "lyapunov"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_schur_matrix_matches_trace_loop(n, complex_, kind, same):
    # the unscaled Newton matrix sum_b tr(A_bi X_b A_bj W_b) of the three
    # slack blocks P - I, t I - P and -nu L(P), in the coordinates (Z, t)
    # of P = R Z R, R = P^(1/2), against the explicit basis matrices
    rng = np.random.default_rng(1000 * n + 100 * complex_ + 10 * (kind == "stein") + same)
    form, P, t = _newton_point(rng, n, complex_, kind)
    seed = P / np.linalg.eigvalsh(P)[0]
    sdp = _condition_sdp._Problem(form, seed, 1e-6, None)
    best = _condition_sdp.SdpResult(seed, np.inf, 1.0, 0)
    assert sdp.factor(P, t, best, 3)
    X = sdp.W if same else np.array([_pd(rng, n, complex_) for _ in range(3)])
    assert sdp.schur(X)

    S = [P - np.eye(n), t * np.eye(n) - P, -sdp.nu * sdp.L.defect(P)]
    for Sb, Wb in zip(S, sdp.W):
        np.testing.assert_allclose(Wb, np.linalg.inv(Sb), rtol=1e-9, atol=1e-9 * np.abs(Wb).max())
    wP, UP = np.linalg.eigh(P)
    R = (UP * np.sqrt(wP)) @ UP.conj().T
    zero, I = np.zeros((n, n)), np.eye(n)
    # the blocks' derivatives along each coordinate, then along t
    A = [(R @ E @ R, -R @ E @ R, -sdp.nu * sdp.L.defect(R @ E @ R)) for E in _basis_matrices(sdp.basis)]
    A.append((zero, I, zero))
    expected = np.array([
        [sum(np.real(np.trace(Ai[b] @ X[b] @ Aj[b] @ sdp.W[b])) for b in range(3)) for Aj in A]
        for Ai in A
    ])
    assert sdp.H.shape == expected.shape == (sdp.basis.dim + 1,) * 2
    np.testing.assert_allclose(sdp.H, expected, rtol=1e-9, atol=1e-11 * np.abs(expected).max())


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
        # L(P) = A*P + PA is indefinite at P = diag(1, 2): the primal-dual
        # loop refuses its start, and the barrier loop its first iterate
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        seed = np.diag([1.0, 2.0])
        assert np.linalg.eigvalsh(A.T @ seed + seed @ A)[-1] > 0.0
        res = _condition_sdp.solve(_lyapunov_form(A), seed, 1e-6)
        assert (res.iterations, res.barrier_steps) == (1, 1)
        np.testing.assert_array_equal(res.weight, seed)
        assert res.kappa == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert res.lower == 1.0

    def test_feasible_seed_closes_the_bracket(self):
        # the same generator from its equation seed L^{-1}(-I)
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        seed = _equation_seed(A)
        res = _condition_sdp.solve(_lyapunov_form(A), seed, 1e-6)
        assert res.iterations > 1 and res.barrier_steps == 0
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
        # completion inside the first one's first primal-dual step: all
        # three must match the same solves run alone
        forms = {name: _lyapunov_form(A) for name, A in _GENERATORS.items()}
        seeds = {name: _equation_seed(A) for name, A in _GENERATORS.items()}
        alone = {name: _condition_sdp.solve(forms[name], seeds[name], 1e-6) for name in forms}
        bound = _condition_sdp._coupling_bound
        inner = {}

        def interleaving(wX, r, n):
            monkeypatch.setattr(_condition_sdp, "_coupling_bound", bound)
            for name in ("real2", "complex4"):
                inner[name] = _condition_sdp.solve(forms[name], seeds[name], 1e-6)
            return bound(wX, r, n)

        monkeypatch.setattr(_condition_sdp, "_coupling_bound", interleaving)
        outer = _condition_sdp.solve(forms["jordan"], seeds["jordan"], 1e-6)
        assert set(inner) == {"real2", "complex4"}
        assert _same_result(outer, alone["jordan"])
        for name, res in inner.items():
            assert _same_result(res, alone[name])


def _stein_form(T):
    n = len(T)
    return (T - np.eye(n), T + np.eye(n), 0.5)


def _stein_seed(T):
    X = scipy.linalg.solve_discrete_lyapunov(T.conj().T, np.eye(len(T)))
    X = 0.5 * (X + X.conj().T)
    return X / np.linalg.eigvalsh(X)[0]


#: Targets with a closed-form constant: the Jordan generator -I + 10 N has
#: the diagonal weight diag(1, 25) and constant 5, [[-1, 4], [0, -1]] has
#: 2, and the discrete [[0, 2], [0, 0]] has 2.
_KNOWN = {
    "jordan10": (_lyapunov_form(_GENERATORS["jordan"]), _equation_seed(_GENERATORS["jordan"]), 5.0),
    "jordan4": (_lyapunov_form(np.array([[-1.0, 4.0], [0.0, -1.0]])),
                _equation_seed(np.array([[-1.0, 4.0], [0.0, -1.0]])), 2.0),
    "rank_one": (_stein_form(np.array([[0.0, 2.0], [0.0, 0.0]])),
                 _stein_seed(np.array([[0.0, 2.0], [0.0, 0.0]])), 2.0),
}


def _blocks_bound(form, X1, X2, X3, nu=1.0):
    L = _PairMap(form, X1.dtype)
    wX = np.array([np.linalg.eigvalsh(X) for X in (X1, X2, X3)])
    return _coupling_bound(wX, X1 - X2 - nu * L.adjoint(X3), len(X1))


class TestCouplingBound:
    @pytest.mark.parametrize("name", list(_KNOWN))
    def test_every_iterate_stays_below_the_constant(self, name, monkeypatch):
        form, seed, constant = _KNOWN[name]
        bound = _condition_sdp._coupling_bound
        seen = []

        def spy(wX, r, n):
            seen.append(bound(wX, r, n))
            return seen[-1]

        monkeypatch.setattr(_condition_sdp, "_coupling_bound", spy)
        res = _condition_sdp.solve(form, seed, 1e-9)
        assert res.barrier_steps == 0
        assert len(seen) == res.iterations
        assert max(seen) <= constant
        # and the iterates close on the constant from both sides
        assert res.lower == max(seen) >= (1.0 - 1e-6) * constant
        assert res.kappa <= (1.0 + 1e-6) * constant

    @pytest.mark.parametrize("name", list(_KNOWN))
    def test_random_positive_blocks_stay_below_the_constant(self, name):
        # any positive semidefinite blocks bound the constant, however far
        # off the coupling: the residual's positive part pays for it
        form, _, constant = _KNOWN[name]
        rng = np.random.default_rng(7)
        for _ in range(200):
            G = rng.standard_normal((3, 2, 2))
            X1, X2, X3 = G @ G.transpose(0, 2, 1) * rng.uniform(0.0, 30.0, (3, 1, 1))
            assert _blocks_bound(form, X1, X2, X3) <= constant

    def test_a_negative_block_gives_no_bound(self):
        # X3 = -Z with A Z + Z A* = (X1 - X2): the coupling holds exactly,
        # and tr X1 / tr X2 = 100 would claim a constant of 10 for a
        # generator whose constant is 5
        form, _, constant = _KNOWN["jordan10"]
        A = form[0]
        X1, X2 = 100.0 * np.eye(2), np.eye(2)
        X3 = scipy.linalg.solve_continuous_lyapunov(A, X1 - X2)
        assert np.linalg.eigvalsh(X3)[-1] < 0.0
        wX = np.array([np.linalg.eigvalsh(X) for X in (X1, X2, X3)])
        assert np.sqrt(wX[0].sum() / wX[1].sum()) > constant
        assert _blocks_bound(form, X1, X2, X3) == 1.0
        assert _blocks_bound(form, X1, -X2, np.eye(2)) == 1.0

    def test_a_negative_first_block_is_charged(self):
        # a negative eigenvalue -eps of X1 costs eps n on both sides
        wX = np.array([[-0.5, 50.0], [0.5, 0.5], [1.0, 1.0]])
        r = np.zeros((2, 2))
        assert _coupling_bound(wX, r, 2) == pytest.approx(np.sqrt(50.5 / 2.0), rel=1e-15)


class TestHandOver:
    def test_forced_stall_keeps_the_better_end_of_each_bracket(self, monkeypatch):
        # three primal-dual steps cannot close 1e-6: the barrier takes over
        # from the seed, and the result is never worse than either loop
        form, seed, constant = _KNOWN["jordan10"]
        monkeypatch.setattr(_condition_sdp, "MAX_PD_STEPS", 3)
        entered = []
        barrier = _condition_sdp._barrier

        def spy(sdp, best):
            entered.append((best.kappa, best.lower, best.iterations))
            barrier(sdp, best)

        monkeypatch.setattr(_condition_sdp, "_barrier", spy)
        res = _condition_sdp.solve(form, seed, 1e-6)
        (pd_kappa, pd_lower, pd_steps), = entered
        assert pd_steps == 3 and pd_kappa > (1.0 + 1e-6) * pd_lower
        assert res.barrier_steps > 0 and res.iterations == 3 + res.barrier_steps
        assert res.kappa <= pd_kappa and res.lower >= pd_lower
        assert res.lower <= constant <= res.kappa <= (1.0 + 1e-6) * res.lower
        # the barrier alone, run from the seed, ends no better than the result
        monkeypatch.setattr(_condition_sdp, "MAX_PD_STEPS", 0)
        alone = _condition_sdp.solve(form, seed, 1e-6)
        assert alone.iterations == alone.barrier_steps
        assert res.kappa <= alone.kappa and res.lower >= alone.lower

    @pytest.mark.parametrize("tol, budget", [(0.0, None), (1e-12, None), (1e-13, None), (0.0, 5.0)])
    def test_stall_at_the_float64_floor_is_not_handed_over(self, tol, budget):
        # the primal-dual loop stalls about 4e-12 wide: the barrier loop
        # from the seed cannot close tol below 1e-9, or decide a budget
        # equal to the constant, either
        form, seed, constant = _KNOWN["jordan10"]
        res = _condition_sdp.solve(form, seed, tol, budget=budget)
        assert res.barrier_steps == 0
        assert res.lower <= constant <= res.kappa <= (1.0 + 1e-9) * res.lower

    def test_failed_factorization_hands_over(self, monkeypatch):
        # a Newton matrix that fails Cholesky at every ridge in the
        # primal-dual loop ends it; the barrier loop still closes the bracket
        form, seed, constant = _KNOWN["jordan10"]
        cholesky = _condition_sdp._cholesky
        calls = []

        def failing_first(H, potrf):
            calls.append(len(H))
            return None if len(calls) == 1 else cholesky(H, potrf)

        monkeypatch.setattr(_condition_sdp, "_cholesky", failing_first)
        res = _condition_sdp.solve(form, seed, 1e-6)
        assert res.iterations == 1 + res.barrier_steps and res.barrier_steps > 1
        assert res.lower <= constant <= res.kappa <= (1.0 + 1e-6) * res.lower


class TestStepCount:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
    def test_schur_designs_close_in_sixteen_steps(self, n, complex_):
        # the joint constant and the constant of exp(A / 2), at tol = 1e-3
        rng = np.random.default_rng(100 * n + complex_)
        A = schur_design(rng, n, complex_)
        T = scipy.linalg.expm(0.5 * A)
        for form, seed in ((_lyapunov_form(A), _equation_seed(A)), (_stein_form(T), _stein_seed(T))):
            res = _condition_sdp.solve(form, seed, 1e-3)
            assert res.barrier_steps == 0
            assert res.iterations <= 16
            assert res.kappa <= (1.0 + 1e-3) * res.lower


def _index_arrays(basis):
    for value in vars(basis).values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                yield a


class TestBasisCache:
    @pytest.mark.parametrize("n, complex_", [(1, False), (4, True), (12, True), (18, False), (13, True)])
    def test_small_bases_are_shared_and_read_only(self, n, complex_):
        basis = _condition_sdp._basis(n, complex_)
        assert _condition_sdp._basis(n, complex_) is basis
        assert (basis.n, basis.complex) == (n, complex_)
        arrays = list(_index_arrays(basis))
        assert len(arrays) >= 6
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0

    @pytest.mark.parametrize("n, complex_", [(19, False), (14, True)])
    def test_large_bases_are_built_per_solve(self, n, complex_):
        basis = _condition_sdp._basis(n, complex_)
        assert basis._gather.nbytes >= _condition_sdp._BASIS_CACHE_BYTES
        assert _condition_sdp._basis(n, complex_) is not basis
        assert (n, complex_) not in _condition_sdp._BASES

    @pytest.mark.parametrize("name", list(_GENERATORS))
    def test_solves_on_a_cached_basis_are_bit_identical(self, name, monkeypatch):
        A = _GENERATORS[name]
        form, seed = _lyapunov_form(A), _equation_seed(A)
        cached = [_condition_sdp.solve(form, seed, 1e-6) for _ in range(2)]
        assert (len(A), np.iscomplexobj(A)) in _condition_sdp._BASES
        monkeypatch.setattr(_condition_sdp, "_BASES", {})
        monkeypatch.setattr(_condition_sdp, "_BASIS_CACHE_BYTES", 0)
        fresh = _condition_sdp.solve(form, seed, 1e-6)
        assert _condition_sdp._BASES == {}
        for res in cached:
            assert _same_result(res, fresh)
