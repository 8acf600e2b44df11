"""Package surface: every exported name exists, and the export list is pinned."""

import spde_lab

# Adding or removing a public name is a reviewed edit of this list.
PUBLIC_NAMES = [
    "BumpSpec", "CovarianceMatrix", "DalangConditionError", "Family", "Field",
    "InvariantViolation", "NoiseModel", "PathEnsemble", "RNG_ID",
    "RegionPartition", "Representation", "RkhsElement", "SpaceTimeLattice",
    "SpectralMeasure", "apply_multiplier", "assemble_covariance",
    "band_width_study", "bessel_potential", "column_gram_check",
    "conditional_cov_screen", "covariance_oracle", "dalang_condition",
    "density_integrable", "duality_check", "element_from_h",
    "forward_transform", "fourier_bound_check", "heat_column",
    "heat_kernel_closed_form", "inner0", "inverse_transform", "kernel_eval",
    "krylov_norm", "kunsch_decomposition", "kunsch_orthogonality", "l2_inner",
    "l2_norm", "laplacian_power", "localization_check", "markov_guarantee",
    "mc_covariance", "mc_isometry_batch", "mc_representer_field",
    "mixed_time_space_norm", "norm0", "norm_equivalence_study", "operator_J",
    "q_exponent", "radial_cutoff", "random_band_limited", "read_field",
    "refine_field", "region_partition", "remove_mean", "representer",
    "riemann_convergence_study", "riesz_derivative", "riesz_potential",
    "rkhs_inner", "simulate_u", "solve_backward", "solve_forward",
    "space_time_bump", "spatial_bump", "support_mask", "time_profile",
    "truncation_tail", "write_field",
]


def test_all_exports_resolve():
    missing = [name for name in spde_lab.__all__ if not hasattr(spde_lab, name)]
    assert missing == []


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(spde_lab.__all__) == PUBLIC_NAMES
