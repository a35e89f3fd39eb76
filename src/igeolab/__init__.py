"""Desk-scale numerical laboratory for integral geometry.

Invariant measures on linear and affine subspaces, density families with
exact sections, marginal densities, symmetric decreasing rearrangement,
random-simplex functionals, and a battery of inequality and identity
checks with explicit Monte Carlo error control.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .geometry import bp_constant, unit_ball_volume, unit_volume_radius
from .grassmann import flat_frames, haar_bases, perturb_subspace, \
    subspace_frames
from .densities import DensityModel, EllipsoidIndicator, GaussianDensity, \
    ProductDensity, RadialGridDensity, Step1D, TruncatedGaussian, \
    affine_image
from .rearrange import rearrangement
from .functionals import ExponentSpec, affine_average_I, \
    grassmann_average_I, simplex_moment
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
