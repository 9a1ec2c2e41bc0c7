"""The public functions of the package, their parameters and the field of their results.

Every public function in ``dir(simgroup)`` is listed with its parameter
names, in order.  A parameter that is added, removed or renamed changes
this map, so the change shows up in the test diff.

Every public function that returns a matrix gives float64 for real
input, bit for bit the same whether the input is float64 or its complex
cast, and complex128 for genuinely complex input; a complex cast of a
real result anywhere on the way fails here.
"""

import inspect
import os
import tempfile

import numpy as np
import pytest

import simgroup

PUBLIC_FUNCTIONS = {
    "as_matrix": ("a", "name"),
    "average_renorm": ("A", "P_eq", "tau1"),
    "average_renorm_factor_audit": ("A", "P_eq", "tau1", "tau2"),
    "bhat_skeide": ("T", "circle_m", "t"),
    "bhat_skeide_semigroup": ("T", "circle_m"),
    "certificate_check": ("cert", "target"),
    "cesaro_orbit_mean": ("A", "C", "t_max"),
    "classify": ("generator", "t_grid", "kappa_max", "family"),
    "defect_observation": ("A", "P"),
    "discrete_similarity_constant": ("T", "tol", "kappa_max"),
    "duality_check": ("sys", "tau"),
    "evolution_semigroup": ("inner", "space"),
    "expm_semigroup": ("A", "t"),
    "factorization_from_certificate": ("T", "cert", "horizon"),
    "finite_time_observability_test": ("sys", "tau"),
    "growth_bound": ("A",),
    "holbrook_bound_audit": ("T", "fact"),
    "indicator_embedding": ("space",),
    "infinite_gramian": ("sys",),
    "integration_functional": ("space",),
    "joint_similarity_constant": ("A", "tol", "kappa_max"),
    "left_shift": ("space",),
    "leftzero_idempotents": ("count", "blocks"),
    "lemerdy_semigroup": ("n", "basis"),
    "liapunov_renorm": ("A", "a"),
    "load_matrix": ("path",),
    "local_commutation_slope": ("t_sem", "s_sem", "amap", "t_grid"),
    "lyapunov_feasible": ("A", "shift", "kappa"),
    "matrix_from_json": ("obj", "name"),
    "matrix_to_json": ("M",),
    "min_quasi_shift": ("A", "kappa_budget"),
    "min_singular_value": ("T",),
    "naboko_integral": ("A", "eps_list", "C", "xi_max", "quad_m"),
    "nagy_isometry_test": ("A", "t_grid"),
    "norm_upper_bound": ("X",),
    "numerical_abscissa": ("A",),
    "observability_gramian": ("sys", "tau"),
    "operator_norm": ("T",),
    "packel_nilpotent_compression": ("a", "b", "refine"),
    "packel_nilpotent_lower_bound": ("a", "b", "refine"),
    "packel_reflection": ("a", "space"),
    "packel_semigroup": ("a", "space"),
    "periodic_shift": ("m",),
    "post_widder": ("A", "t", "n"),
    "quasi_similarity_constant": ("A", "shift", "tol", "kappa_max"),
    "resolvent": ("A", "z"),
    "resolvent_constants": ("A", "lam_grid", "tol", "kappa_max"),
    "riemann_liouville": ("space", "t"),
    "riemann_liouville_semigroup": ("space",),
    "right_shift": ("space",),
    "sampled_semigroup": ("dim", "eval_fn", "description", "step"),
    "save_matrix": ("M", "path"),
    "schaeffer_compression": ("U", "dim", "k"),
    "schaeffer_dilation": ("T", "horizon"),
    "semigroup_from_generator": ("A",),
    "semigroup_law_residual": ("sem", "s", "t"),
    "simconst_bound_audit": ("A", "lam", "tau"),
    "small_time_constants": ("A", "t_grid", "tol", "kappa_max"),
    "spectral_radius": ("T",),
    "stein_feasible": ("operators", "kappa"),
    "summing_basis": ("n",),
    "sup_norm_on_interval": ("sem", "tau", "inflate"),
    "w_semigroup": ("m", "inner"),
    "weight_factors": ("P",),
    "weighted_norm": ("T", "P"),
    "wrap_coupling_weight": ("m",),
    "wrap_fill": ("m",),
}


def _public_functions():
    return {
        name: tuple(inspect.signature(getattr(simgroup, name)).parameters)
        for name in dir(simgroup)
        if not name.startswith("_") and inspect.isfunction(getattr(simgroup, name))
    }


def test_public_functions_and_their_parameters():
    assert _public_functions() == PUBLIC_FUNCTIONS


# ---------------------------------------------------------------------------
# the field of each matrix result

#: A stable generator with complex eigenvalues, so a real ``exp(tA)`` takes
#: the real part of a complex eigenbasis product.
_REAL = np.array([[-1.0, 4.0, 0.0], [0.0, -1.0, 0.5], [0.3, 0.0, -2.0]])
_COMPLEX = _REAL + 1j * np.array([[0.2, 0.0, -0.1], [0.1, 0.3, 0.0], [0.0, -0.2, 0.1]])


def _saved_and_loaded(X):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.json")
        simgroup.save_matrix(X, path)
        return simgroup.load_matrix(path)


def _weight(verdict):
    assert verdict.finite
    return verdict.certificate.weight


_SPACE = simgroup.GridSpace(nu=1.0, m=4)

#: Each public function that returns matrices, applied to a stable generator ``X``.
MATRIX_RESULTS = {
    "as_matrix": simgroup.as_matrix,
    "load_matrix": _saved_and_loaded,
    "expm_semigroup": lambda X: simgroup.expm_semigroup(X, 0.7),
    "semigroup_from_generator.eval": lambda X: simgroup.semigroup_from_generator(X).eval(0.7),
    "gramian_integral": lambda X: simgroup.opcore.gramian_integral(X, X.conj().T @ X, 1.0),
    "resolvent": lambda X: simgroup.resolvent(X, 2.0),
    "weight_factors": lambda X: simgroup.weight_factors(np.eye(3) + X.conj().T @ X),
    "observability_gramian": lambda X: simgroup.observability_gramian(
        simgroup.ObservedSystem(X, X[:1]), 1.0
    ).gramian,
    "infinite_gramian": lambda X: (
        simgroup.infinite_gramian(simgroup.ObservedSystem(X, X)).gramian,
        simgroup.infinite_gramian(simgroup.ObservedSystem(X, X)).certificate.weight,
    ),
    "average_renorm": lambda X: simgroup.average_renorm(X, np.eye(3, dtype=X.dtype), 5.0).weight,
    "discrete_similarity_constant": lambda X: _weight(simgroup.discrete_similarity_constant(0.3 * X)),
    "joint_similarity_constant": lambda X: _weight(simgroup.joint_similarity_constant(X)),
    "quasi_similarity_constant": lambda X: _weight(simgroup.quasi_similarity_constant(X, 0.1)),
    "bhat_skeide": lambda X: simgroup.bhat_skeide(X, 4, 0.3),
    "bhat_skeide_semigroup": lambda X: (
        simgroup.bhat_skeide_semigroup(X, 4)[0].eval(0.5),
        simgroup.bhat_skeide_semigroup(X, 4)[1],
    ),
    "lemerdy_semigroup": lambda X: (
        simgroup.lemerdy_semigroup(3, X).eval(0.4),
        simgroup.lemerdy_semigroup(3, X).generator,
    ),
    "leftzero_idempotents": lambda X: tuple(simgroup.leftzero_idempotents(2, [X[:1], X[1:2]])),
    "schaeffer_dilation": lambda X: simgroup.schaeffer_dilation(
        X / (2.0 * simgroup.operator_norm(X)), 2
    ),
    "evolution_semigroup": lambda X: tuple(
        simgroup.evolution_semigroup(simgroup.semigroup_from_generator(X), _SPACE).eval(t)
        for t in (0.0, 0.25)
    ),
}

_DYADIC = simgroup.DyadicSequence.powers_of_two("Zplus", 1)

#: Each gallery sampler with no matrix input: all real-valued.
REAL_SAMPLES = {
    "right_shift": lambda: simgroup.right_shift(_SPACE).eval(0.25),
    "left_shift": lambda: simgroup.left_shift(_SPACE).eval(0.25),
    "evolution_semigroup": lambda: (
        simgroup.evolution_semigroup(simgroup.right_shift(_SPACE), _SPACE).eval(0.25),
        # past the grid the value is zero, real whatever the inner semigroup
        simgroup.evolution_semigroup(simgroup.semigroup_from_generator(_COMPLEX), _SPACE).eval(1.0),
    ),
    "integration_functional": lambda: simgroup.integration_functional(_SPACE),
    "indicator_embedding": lambda: simgroup.indicator_embedding(_SPACE),
    "packel_reflection": lambda: simgroup.packel_reflection(
        _DYADIC, simgroup.GridSpace(nu=2.0, m=8)
    ).eval(0.5),
    "packel_semigroup": lambda: simgroup.packel_semigroup(
        _DYADIC, simgroup.GridSpace(nu=2.0, m=8)
    ).eval(0.5),
    "packel_nilpotent_compression": lambda: simgroup.packel_nilpotent_compression(
        simgroup.DyadicSequence.powers_of_two("Zminus", 2), 1.0
    ).eval(0.5),
    "periodic_shift": lambda: simgroup.periodic_shift(4).eval(0.25),
    "wrap_fill": lambda: simgroup.wrap_fill(4).eval(0.25),
    "w_semigroup": lambda: simgroup.w_semigroup(4).eval(0.25),
    "wrap_coupling_weight": lambda: simgroup.wrap_coupling_weight(4),
    "lemerdy_semigroup": lambda: simgroup.lemerdy_semigroup(3).eval(0.4),
    "summing_basis": lambda: simgroup.summing_basis(3),
    "riemann_liouville": lambda: simgroup.riemann_liouville(_SPACE, 0.5),
    "riemann_liouville_semigroup": lambda: (
        simgroup.riemann_liouville_semigroup(_SPACE).eval(0.0),
        simgroup.riemann_liouville_semigroup(_SPACE).eval(0.5),
    ),
}


def _arrays(result):
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("name", sorted(MATRIX_RESULTS))
def test_real_input_gives_float64_and_complex_input_complex128(name):
    fn = MATRIX_RESULTS[name]
    real, cast, cplx = (_arrays(fn(X)) for X in (_REAL, _REAL.astype(complex), _COMPLEX))
    for r, c in zip(real, cast):
        assert r.dtype == np.float64 and c.dtype == np.float64
        assert r.tobytes() == c.tobytes()
    assert all(z.dtype == np.complex128 for z in cplx)


@pytest.mark.parametrize("name", sorted(REAL_SAMPLES))
def test_real_valued_samples_are_float64(name):
    for M in _arrays(REAL_SAMPLES[name]()):
        assert M.dtype == np.float64


# ---------------------------------------------------------------------------
# weights

#: Each public entry point that reads a Hermitian weight, applied to ``P``.
WEIGHT_INPUTS = {
    "check_hermitian_pd": simgroup.opcore.check_hermitian_pd,
    "weight_factors": simgroup.weight_factors,
    "weighted_norm": lambda P: simgroup.weighted_norm(np.eye(2), P),
    "certificate_check": lambda P: simgroup.certificate_check(
        simgroup.WeightCertificate(P, 1.0, 0.0), simgroup.LyapunovTarget(-np.eye(2), 0.0)
    ),
    "defect_observation": lambda P: simgroup.defect_observation(-np.eye(2), P),
    "average_renorm": lambda P: simgroup.average_renorm(-np.eye(2), P, 1.0),
    "factorization_from_certificate": lambda P: simgroup.factorization_from_certificate(
        0.5 * np.eye(2), simgroup.WeightCertificate(P, 1.0, 0.0), 3
    ),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_INPUTS))
@pytest.mark.parametrize("P", [[[1.0, 5.0], [-3.0, 4.0]], [[1.0, 3.0], [-3.0, 1.0]]], ids=["general", "skew_part"])
def test_non_hermitian_weight_is_rejected(name, P):
    # the Hermitian parts are diag(1, 4) and I: a weight read as its
    # Hermitian part would pass every entry point
    with pytest.raises(simgroup.InvalidWeightError, match="must be Hermitian"):
        WEIGHT_INPUTS[name](np.array(P))
