"""Desk-scale numerical laboratory for integral geometry.

Invariant measures on linear and affine subspaces, density families with
exact sections, marginal densities, symmetric decreasing rearrangement,
random-simplex functionals, and a battery of inequality and identity
checks with explicit Monte Carlo error control.

Every public name, and every submodule, is imported the first time it is
read (PEP 562), so `import igeolab` compiles none of them.  Reading any
layer of the density stack (densities, functionals, grassmann, rearrange,
verify) loads the whole stack, as one unit, the way `import igeolab`
loaded it before.
"""

__version__ = "0.1.0"

import importlib as _importlib

# the public names, by the submodule that defines them
_SOURCES = {
    "geometry": ("unit_ball_volume", "unit_volume_radius"),
    "grassmann": ("flat_frames", "haar_bases", "perturb_subspace",
                  "subspace_frames"),
    "densities": ("DensityModel", "EllipsoidIndicator", "GaussianDensity",
                  "ProductDensity", "RadialGridDensity", "Step1D",
                  "TruncatedGaussian", "affine_image"),
    "rearrange": ("rearrangement",),
    "functionals": ("ExponentSpec", "affine_average_I", "grassmann_average_I",
                    "simplex_moment"),
    "report": ("CheckReport", "Estimate", "mc_estimate"),
    "verify": ("check_affine_invariance", "check_bp_flat",
               "check_bp_subspace", "check_grinberg_functional",
               "check_linear_invariance", "check_rearrangement_monotonicity",
               "check_schneider_functional", "marginal_bound_experiment",
               "perturbation_experiment"),
    "sharpness": ("gaussian_sharpness_experiment",),
    "config": ("CheckJob", "ConfigError", "RunConfig", "build_density",
               "check_names", "load_config"),
    "runner": ("run_suite",),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}
_SUBMODULES = {*_SOURCES, "rng"}
# verify imports every other layer of the density stack
_DENSITY_STACK = ("densities", "functionals", "grassmann", "rearrange",
                  "verify")

# the public names, not the submodules
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _DENSITY_STACK:
        _importlib.import_module(f"{__name__}.verify")
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
