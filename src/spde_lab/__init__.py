"""spde-lab: spectral laboratory for the additive stochastic heat equation.

Simulates du/dt = Lap u + noise (white in time, spatially homogeneous with a
parametric spectral density) on periodic space-time lattices, computes the
covariance and reproducing-kernel structure of the solution field by exact
frequency quadrature, and runs numerical locality / conditional-independence
experiments on it.
"""

from .errors import DalangConditionError, InvariantViolation
from .spectral import (Family, SpectralMeasure, dalang_condition,
                       density_integrable, heat_kernel_closed_form, kernel_eval,
                       truncation_tail)
from .lattice import (Field, Representation, SpaceTimeLattice,
                      apply_multiplier, forward_transform, inner0,
                      inverse_transform, l2_inner, l2_norm, norm0,
                      random_band_limited, read_field, refine_field,
                      write_field)
from .bumps import (radial_cutoff, space_time_bump, spatial_bump,
                    support_mask, time_profile)
from .fracops import (bessel_potential, laplacian_power, localization_check,
                      mixed_time_space_norm, operator_J, q_exponent, remove_mean,
                      riesz_derivative, riesz_potential)
from .pde import (BumpSpec, fourier_bound_check, riemann_convergence_study,
                  solve_backward, solve_forward)
from .simulate import (NoiseModel, PathEnsemble, RNG_ID, mc_covariance,
                       mc_isometry_batch, mc_representer_field, simulate_u)
from .rkhs import (RkhsElement, duality_check, element_from_h, heat_column,
                   krylov_norm, markov_guarantee, norm_equivalence_study,
                   representer, rkhs_inner)
from .markov import (CovarianceMatrix, RegionPartition, assemble_covariance,
                     band_width_study, column_gram_check, conditional_cov_screen,
                     covariance_oracle, kunsch_decomposition,
                     kunsch_orthogonality, region_partition)

__version__ = "0.1.0"

__all__ = [
    "DalangConditionError", "InvariantViolation",
    "Family", "SpectralMeasure", "dalang_condition",
    "density_integrable", "kernel_eval",
    "heat_kernel_closed_form", "truncation_tail",
    "Field", "Representation", "SpaceTimeLattice",
    "forward_transform", "inverse_transform", "inner0", "norm0",
    "l2_inner", "l2_norm", "apply_multiplier",
    "random_band_limited", "refine_field", "read_field", "write_field",
    "spatial_bump", "space_time_bump", "time_profile", "radial_cutoff",
    "support_mask",
    "bessel_potential", "riesz_potential", "riesz_derivative",
    "laplacian_power", "operator_J", "remove_mean", "localization_check",
    "q_exponent", "mixed_time_space_norm",
    "BumpSpec", "solve_forward", "solve_backward",
    "fourier_bound_check", "riemann_convergence_study",
    "NoiseModel", "PathEnsemble", "RNG_ID", "simulate_u", "mc_isometry_batch",
    "mc_representer_field", "mc_covariance",
    "RkhsElement", "representer", "element_from_h", "heat_column",
    "rkhs_inner", "duality_check", "krylov_norm",
    "markov_guarantee", "norm_equivalence_study",
    "CovarianceMatrix", "RegionPartition", "covariance_oracle",
    "assemble_covariance", "region_partition", "conditional_cov_screen",
    "band_width_study", "kunsch_orthogonality", "kunsch_decomposition",
    "column_gram_check",
]
