"""The public functions of the package and their parameters.

Every public function in ``dir(simgroup)`` is listed with its parameter
names, in order.  A parameter that is added, removed or renamed changes
this map, so the change shows up in the test diff.
"""

import inspect

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
