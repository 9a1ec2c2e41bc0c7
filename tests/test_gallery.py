import itertools
import math

import numpy as np
import pytest

from simgroup import gallery
from simgroup.exceptions import NotContractionError, WindowError
from simgroup.gallery import (
    DyadicSequence,
    GridSpace,
    bhat_skeide,
    bhat_skeide_semigroup,
    evolution_semigroup,
    indicator_embedding,
    integration_functional,
    left_shift,
    leftzero_idempotents,
    lemerdy_semigroup,
    packel_nilpotent_compression,
    packel_nilpotent_lower_bound,
    packel_reflection,
    packel_semigroup,
    periodic_shift,
    riemann_liouville,
    right_shift,
    schaeffer_compression,
    schaeffer_dilation,
    w_semigroup,
    wrap_coupling_weight,
    wrap_fill,
)
from simgroup.opcore import (
    operator_norm,
    semigroup_from_generator,
    semigroup_law_residual,
    spectral_radius,
    weight_factors,
    weighted_norm,
)
from simgroup.weightsolve import discrete_similarity_constant, joint_similarity_constant


class TestShifts:
    def test_identity_at_zero_and_nilpotency(self):
        sp = GridSpace(2.0, 32, lam=0.5)
        R = right_shift(sp)
        assert operator_norm(R.eval(0.0) - np.eye(32)) == 0.0
        assert operator_norm(R.eval(2.0)) == 0.0
        assert operator_norm(R.eval(2.5)) == 0.0

    def test_weighted_envelopes_exact(self):
        sp = GridSpace(1.0, 64, lam=0.7)
        R, L = right_shift(sp), left_shift(sp)
        for k in (1, 5, 20):
            t = k * sp.step
            assert abs(operator_norm(R.eval(t)) - math.exp(-0.7 * t)) <= 1e-12
            assert abs(operator_norm(L.eval(t)) - math.exp(0.7 * t)) <= 1e-11

    def test_unweighted_shift_norm_one(self):
        sp = GridSpace(1.0, 16)
        R = right_shift(sp)
        for k in range(1, 16):
            assert abs(operator_norm(R.eval(k * sp.step)) - 1.0) <= 1e-14

    def test_snap_distance_reported(self):
        sp = GridSpace(1.0, 10)
        R = right_shift(sp)
        _, dist = R.eval_with_snap(0.13)
        assert abs(dist - 0.03) < 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_snap_rejects_a_bad_time(self, t):
        # nan and inf once raised bare errors from int()
        with pytest.raises(ValueError, match="t must be finite"):
            GridSpace(1.0, 4).snap(t)


class TestEvolution:
    def test_identity_inner_reduces_to_shift(self):
        sp = GridSpace(1.0, 16)
        ident = semigroup_from_generator(np.zeros((1, 1)))
        ev = evolution_semigroup(ident, sp)
        R = right_shift(sp)
        for k in (0, 3, 9):
            assert operator_norm(ev.eval(k * sp.step) - R.eval(k * sp.step)) <= 1e-12

    def test_nilpotency_inherited(self):
        sp = GridSpace(1.0, 8)
        inner = semigroup_from_generator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        ev = evolution_semigroup(inner, sp)
        assert operator_norm(ev.eval(1.0)) == 0.0

    def test_dissipative_inner_contractive(self):
        sp = GridSpace(1.0, 16)
        A = np.array([[-0.5, 0.3], [-0.3, -0.2]])  # numerical abscissa <= 0
        inner = semigroup_from_generator(A)
        ev = evolution_semigroup(inner, sp)
        for k in range(0, 17, 4):
            assert operator_norm(ev.eval(k * sp.step)) <= 1.0 + 1e-12


class TestIntegrationFunctional:
    def test_norms_match_closed_forms(self):
        for lam in (0.0, 0.4):
            sp = GridSpace(2.0, 512, lam=lam)
            Q = integration_functional(sp)
            F = indicator_embedding(sp)
            if lam == 0.0:
                q_exact, f_exact = math.sqrt(2.0), 1.0
            else:
                q_exact = math.sqrt((math.exp(2 * lam * 2.0) - 1) / (2 * lam))
                f_exact = math.sqrt((1 - math.exp(-2 * lam)) / (2 * lam))
            assert abs(operator_norm(Q) - q_exact) <= 4.0 * sp.step * q_exact
            assert abs(operator_norm(F) - f_exact) <= 4.0 * sp.step * f_exact

    def test_q_of_f_is_one(self):
        sp = GridSpace(3.0, 96)
        val = complex((integration_functional(sp) @ indicator_embedding(sp))[0, 0])
        assert abs(val - 1.0) <= 1e-12

    def test_three_regime_identity(self):
        # integral of the shifted unit indicator: 1, then nu - t, then 0
        nu, m = 3.0, 96
        sp = GridSpace(nu, m)
        Q = integration_functional(sp)
        F = indicator_embedding(sp)
        R = right_shift(sp)
        for k in range(0, int(1.2 * m), 7):
            t = k * sp.step
            expect = max(0.0, min(t + 1.0, nu) - min(t, nu))
            val = complex((Q @ R.eval(t) @ F)[0, 0]).real
            assert abs(val - expect) <= 1e-12


class TestPackel:
    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            DyadicSequence("Zplus", (1.0, 1.5))
        with pytest.raises(ValueError):
            DyadicSequence("Zplus", (1.0, -2.0))
        with pytest.raises(ValueError):
            DyadicSequence("weird", (1.0, 2.0))

    def test_reflection_zero_at_zero_and_contraction(self):
        a = DyadicSequence.powers_of_two("Zplus", 2)
        sp = GridSpace(4.0, 64)
        V = packel_reflection(a, sp)
        assert operator_norm(V.eval(0.0)) == 0.0
        assert max(operator_norm(V.eval(k * sp.step)) for k in range(1, 129)) <= 1.0

    def test_coupling_identity_exact_zplus(self):
        a = DyadicSequence.powers_of_two("Zplus", 2)
        sp = GridSpace(4.0, 64)
        V = packel_reflection(a, sp)
        L, R = left_shift(sp), right_shift(sp)
        worst = 0.0
        for i, j in itertools.product(range(0, 129, 8), repeat=2):
            s, t = i * sp.step, j * sp.step
            worst = max(
                worst,
                operator_norm(V.eval(s + t) - (L.eval(s) @ V.eval(t) + V.eval(s) @ R.eval(t))),
            )
        assert worst <= 1e-12

    def test_zminus_vanishes_past_twice_largest(self):
        a = DyadicSequence.powers_of_two("Zminus", 3)
        sp = GridSpace(1.0, 16)
        V = packel_reflection(a, sp)
        assert operator_norm(V.eval(2.0)) == 0.0
        assert operator_norm(V.eval(2.5)) == 0.0

    def test_semigroup_law_exact(self):
        a = DyadicSequence.powers_of_two("Zplus", 2)
        sp = GridSpace(4.0, 48)
        sem = packel_semigroup(a, sp)
        for i, j in itertools.product(range(0, 64, 9), repeat=2):
            assert (
                semigroup_law_residual(sem, i * sp.step, j * sp.step) <= 1e-12
            )

    def test_window_error(self):
        a = DyadicSequence.powers_of_two("Zplus", 3)  # reaches 8
        with pytest.raises(WindowError):
            packel_reflection(a, GridSpace(4.0, 64))

    def test_nilpotent_compression(self):
        a = DyadicSequence.powers_of_two("Zminus", 3)
        N = packel_nilpotent_compression(a, 1.0)
        assert operator_norm(N.eval(2.0)) == 0.0
        for i, j in itertools.product(range(0, 18, 5), repeat=2):
            assert semigroup_law_residual(N, i * N.step, j * N.step) <= 1e-12

    def test_lower_bound_oracle(self):
        for k in (2, 3):
            a = DyadicSequence.powers_of_two("Zminus", k)
            assert abs(packel_nilpotent_lower_bound(a, 1.0) - math.sqrt(k + 1) / 2) < 1e-14

    def test_compression_requires_zminus(self):
        a = DyadicSequence.powers_of_two("Zplus", 2)
        with pytest.raises(WindowError):
            packel_nilpotent_compression(a, 8.0)


class TestWrapCoupling:
    def test_fill_identity_exact(self):
        m = 48
        Rp, V = periodic_shift(m), wrap_fill(m)
        R = right_shift(GridSpace(1.0, m))
        for i, j in itertools.product(range(0, 2 * m + 1, 11), repeat=2):
            s, t = i / m, j / m
            resid = operator_norm(
                V.eval(s + t) - (Rp.eval(s) @ V.eval(t) + V.eval(s) @ R.eval(t))
            )
            assert resid == 0.0

    def test_unit_time_identities(self):
        m = 48
        assert operator_norm(periodic_shift(m).eval(1.0) - np.eye(m)) == 0.0
        assert operator_norm(wrap_fill(m).eval(1.0) - np.eye(m)) == 0.0

    def test_coupling_contractive_in_triangular_weight(self):
        m = 32
        W = w_semigroup(m)
        S, Sinv = weight_factors(wrap_coupling_weight(m))
        for k in range(0, 3 * m + 1, 5):
            assert operator_norm(S @ W.eval(k / m) @ Sinv) <= 1.0 + 1e-10

    @pytest.mark.parametrize("m", [1, 2, 7, 16, 64])
    def test_samplers_are_fresh_real_index_maps(self, m):
        space = GridSpace(1.0, m)
        samplers = {
            "periodic": periodic_shift(m),
            "fill": wrap_fill(m),
            "right": right_shift(space),
            "left": left_shift(space),
            "w": w_semigroup(m),
        }
        for k in range(4 * m + 1):
            expected = _wrap_index_maps(m, k)
            for name, sem in samplers.items():
                X, Y = sem.eval(k / m), sem.eval(k / m)
                assert X.dtype == np.float64 and not np.shares_memory(X, Y), (name, k)
                assert X.shape == expected[name].shape and (X == expected[name]).all(), (name, k)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 16])
    def test_w_samples_are_the_blocks_of_the_three_samplers(self, m):
        W = w_semigroup(m)
        Rp, V, R = periodic_shift(m), wrap_fill(m), right_shift(GridSpace(1.0, m))
        for k in range(4 * m + 1):
            t = k / m
            expected = np.block([[Rp.eval(t), V.eval(t)], [np.zeros((m, m)), R.eval(t)]])
            _assert_fresh_and_bitwise(W, t, expected)

    @pytest.mark.parametrize(
        "kind,window,nu,m",
        [("Zplus", 0, 1.0, m) for m in (1, 2, 3, 5, 16)]
        + [("Zplus", 2, 4.0, 16), ("Z", 1, 2.0, 16), ("Zminus", 2, 1.0, 16)],
    )
    def test_packel_samples_are_the_blocks_of_the_three_samplers(self, kind, window, nu, m):
        a = DyadicSequence.powers_of_two(kind, window)
        space = GridSpace(nu, m)
        sem = packel_semigroup(a, space)
        L, Va, R = left_shift(space), packel_reflection(a, space), right_shift(space)
        for k in range(4 * m + 1):
            t = k * space.step
            expected = np.block([[L.eval(t), Va.eval(t)], [np.zeros((m, m)), R.eval(t)]])
            _assert_fresh_and_bitwise(sem, t, expected)

    def test_values_share_no_memory(self):
        # cli._w_suite edits each value in place
        W = w_semigroup(8)
        assert not np.shares_memory(W.eval(0.25), W.eval(0.25))

    def test_tensored_inner(self):
        inner = semigroup_from_generator(np.array([[-0.2 + 0.9j]]))
        m = 16
        Wt = w_semigroup(m, inner=inner)
        assert Wt.dim == 2 * m
        assert semigroup_law_residual(Wt, 4 * Wt.step, 3 * Wt.step) <= 1e-10


def _assert_fresh_and_bitwise(sem, t, expected):
    """``sem.eval(t)`` is ``expected`` bit for bit, float64, and a fresh array at every call."""
    X = sem.eval(t)
    assert X.dtype == np.float64 and X.shape == expected.shape, t
    assert X.tobytes() == expected.tobytes(), t
    X[...] = -1.0  # an edit of one value must leave the next one unchanged
    assert sem.eval(t).tobytes() == expected.tobytes(), t


def _unit_entries(m, rows, cols):
    X = np.zeros((m, m))
    X[rows, cols] = 1.0
    return X


def _wrap_index_maps(m, k):
    """The wrap family's blocks at grid time ``k / m``, built from their index maps."""
    i = np.arange(m)
    periodic = _unit_entries(m, i, (i - k) % m)
    # V(t) = R_p(t - 1) from t = 1 on; before, the wrapped tail lands on [0, t)
    fill = periodic.copy() if k >= m else _unit_entries(m, i[:k], i[:k] - k + m)
    right = _unit_entries(m, i[k:], i[k:] - k)
    left = _unit_entries(m, i[: max(m - k, 0)], i[: max(m - k, 0)] + k)
    w = np.block([[periodic, fill], [np.zeros((m, m)), right]])
    return {"periodic": periodic, "fill": fill, "right": right, "left": left, "w": w}


class TestLemerdy:
    def test_identity_basis_is_normal_contraction(self):
        sem = lemerdy_semigroup(4, basis=np.eye(4))
        assert joint_similarity_constant(sem.generator).constant == pytest.approx(1.0, abs=1e-9)

    def test_law_and_identity(self):
        sem = lemerdy_semigroup(6)
        assert operator_norm(sem.eval(0.0) - np.eye(6)) == 0.0
        assert semigroup_law_residual(sem, 0.4, 1.3) <= 1e-12

    def test_underflow_flushes_to_zero(self):
        sem = lemerdy_semigroup(10)
        M = sem.eval(500.0)
        assert np.all(np.isfinite(M))

    def test_constants_nondecreasing(self):
        consts = []
        for n in range(2, 13):
            sem = lemerdy_semigroup(n)
            consts.append(joint_similarity_constant(sem.generator, tol=1e-3).constant)
        for lo, hi in zip(consts, consts[1:]):
            assert hi >= lo * (1 - 1e-6)
        assert consts[-1] > consts[0]


class TestRiemannLiouville:
    def test_order_one_is_cumulative_integration(self):
        sp = GridSpace(1.0, 64)
        T1 = riemann_liouville(sp, 1.0)
        ones = np.ones(64)
        assert np.max(np.abs((T1 @ ones).real - sp.midpoints)) <= 1e-13

    def test_law_residual_refines_at_documented_order(self):
        resid = {}
        for m in (64, 256):
            sp = GridSpace(1.0, m)
            for s, t in ((0.25, 0.25), (0.5, 0.5)):
                Ts, Tt = riemann_liouville(sp, s), riemann_liouville(sp, t)
                resid[(m, s)] = operator_norm(Ts @ Tt - riemann_liouville(sp, s + t))
        # observed order in the grid step is at least min(s, t, 1)
        for s in (0.25, 0.5):
            order = math.log(resid[(64, s)] / resid[(256, s)]) / math.log(4.0)
            assert order >= min(s, 1.0) - 0.05

    def test_quasinilpotent_trend(self):
        radii = [
            spectral_radius(riemann_liouville(GridSpace(1.0, m), 0.5)) for m in (32, 128, 512)
        ]
        assert radii[0] > radii[1] > radii[2]

    def test_domain_error(self):
        with pytest.raises(ValueError):
            riemann_liouville(GridSpace(1.0, 8), 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_order_rejected(self, t):
        # nan once gave NaN entries, inf the zero matrix
        with pytest.raises(ValueError, match="t must be positive and finite"):
            riemann_liouville(GridSpace(1.0, 4), t)


class TestBhatSkeide:
    def test_integer_times_interpolate_exactly(self):
        for T in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.3, 2.0])):
            for n in (1, 2, 3):
                B, _ = bhat_skeide(T, 64, float(n))
                assert (
                    operator_norm(B - np.kron(np.eye(64), np.linalg.matrix_power(T, n)))
                    <= 1e-12
                )

    def test_fractional_norm_identity(self):
        T = np.diag([0.3, 2.0])
        for t in (0.2, 0.5, 0.8):
            B, _ = bhat_skeide(T, 64, t)
            assert abs(operator_norm(B) - 2.0) <= 1e-12

    def test_envelope_weight(self):
        T = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = 128
        _, P = bhat_skeide(T, m, 0.0)
        S, Sinv = weight_factors(P)
        for t in np.arange(0.1, 0.95, 0.2):
            B, _ = bhat_skeide(T, m, float(t))
            bound = math.sqrt(1.0 / (1.0 - t) + t * operator_norm(T) ** 2)
            assert operator_norm(S @ B @ Sinv) <= bound + 16.0 / m

    def test_semigroup_wrapper_law(self):
        sem, _ = bhat_skeide_semigroup(np.array([[0.5]]), 32)
        assert semigroup_law_residual(sem, 5 / 32, 9 / 32) <= 1e-12

    @pytest.mark.parametrize("T", [np.array([[0.5]]), np.array([[0.3, 1.0], [-0.2, 0.7j]])])
    def test_semigroup_evaluates_the_interpolant(self, T):
        sem, P = bhat_skeide_semigroup(T, 16)
        for t in (0.0, 0.3, 1.0, 2.5):
            B, P_t = bhat_skeide(T, 16, t)
            assert sem.eval(t).tobytes() == B.tobytes()
            assert P.tobytes() == P_t.tobytes()

    def test_semigroup_builds_its_weight_once(self, monkeypatch):
        calls = []
        build = gallery._bhat_skeide_weight
        monkeypatch.setattr(gallery, "_bhat_skeide_weight", lambda *a: calls.append(a) or build(*a))
        sem, _ = bhat_skeide_semigroup(np.array([[0.5]]), 16)
        for k in range(10):
            sem.eval(k / 4)
        assert len(calls) == 1

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_bad_time_rejected(self, t):
        # inf once raised a bare OverflowError and nan a bare ValueError from int()
        with pytest.raises(ValueError, match="t must be finite"):
            bhat_skeide(0.5 * np.eye(2), 4, t)


class TestLeftZeroIdempotents:
    def test_idempotency_and_absorption(self):
        E = leftzero_idempotents(3)
        for En in E:
            assert operator_norm(En @ En - En) == 0.0
        for Em, En in itertools.product(E, repeat=2):
            assert operator_norm(Em @ En - Em) == 0.0

    def test_single_idempotent_similar_to_projection(self):
        E = leftzero_idempotents(1, blocks=[np.array([[1e-5]])])[0]
        v = discrete_similarity_constant(E)
        assert v.finite


class TestSchaefferDilation:
    def test_unitary_and_compressions(self, rng):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        T = 0.85 * M / operator_norm(M)
        U = schaeffer_dilation(T, 5)
        assert operator_norm(U.conj().T @ U - np.eye(U.shape[0])) <= 1e-12
        worst = max(
            operator_norm(schaeffer_compression(U, 4, k) - np.linalg.matrix_power(T, k))
            for k in range(6)
        )
        assert worst <= 1e-10

    def test_unitary_input_zero_defect(self):
        theta = 0.7
        Q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        U = schaeffer_dilation(Q, 2)
        assert operator_norm(U.conj().T @ U - np.eye(10)) <= 1e-13
        assert operator_norm(schaeffer_compression(U, 2, 2) - Q @ Q) <= 1e-13

    def test_zero_contraction_blocks(self):
        U = schaeffer_dilation(np.zeros((2, 2)), 2)
        for k in (1, 2):
            assert operator_norm(schaeffer_compression(U, 2, k)) <= 1e-14

    def test_rejects_expansion(self):
        with pytest.raises(NotContractionError):
            schaeffer_dilation(1.5 * np.eye(2), 3)
