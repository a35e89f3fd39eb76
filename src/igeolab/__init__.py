"""Desk-scale numerical laboratory for integral geometry.

Invariant measures on linear and affine subspaces, density families with
exact sections, marginal densities, symmetric decreasing rearrangement,
random-simplex functionals, and a battery of inequality and identity
checks with explicit Monte Carlo error control.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .geometry import Dimensions, bp_constant, simplex0_volume, \
    simplex_volume, unit_ball_volume, unit_volume_radius
from .grassmann import Flat, Subspace, flat_frames, grassmann_distance, \
    haar_bases, perturb_subspace, sample_subspace
from .densities import DensityModel, EllipsoidIndicator, GaussianDensity, \
    ProductDensity, RadialGridDensity, Step1D, TruncatedGaussian, \
    affine_image, marginal_density, restriction_stats, write_density_text
from .rearrange import LevelProfile, level_profile, rearrangement
from .functionals import ExponentSpec, affine_average_I, delta0_p, delta_p, \
    grassmann_average_I, section_norm, small_ball_probability
from .report import CheckReport, Estimate, mc_estimate, merge_estimates
from .verify import check_affine_invariance, check_bp_flat, \
    check_bp_subspace, check_grinberg_functional, check_linear_invariance, \
    check_rearrangement_monotonicity, check_schneider_functional, \
    gaussian_sharpness_experiment, marginal_bound_experiment, \
    perturbation_experiment
from .config import CheckJob, ConfigError, RunConfig, build_density, \
    check_names, load_config, read_density_text
from .runner import run_suite

# the public names, not the submodules that importing them binds
__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
