"""Weighted intrinsic volumes of ball unions and the analytic gradient of
the weighted Gaussian curvature, with finite-difference, Monte Carlo and
Gauss-Bonnet verification oracles."""

from .geometry import BallSet
from .complexes import AlphaComplex, build_alpha_complex, euler
from .measures import FractionalMeasures, compute_measures, nu_ijk, sigma_i, \
    sigma_ij, sigma_ijk
from .intrinsic import IntrinsicVolumes, intrinsic_volumes, weighted_area, \
    weighted_gauss, weighted_mean, weighted_volume
from .gradient import GaussGradient, arc_endpoint_data, directional_derivative, \
    gauss_gradient, sigma_i_prime, sigma_ij_prime, term_d, term_e, term_f, term_h
from .oracles import fd_directional, fd_gradient, mc_boundary_integrals, nu_i_mc
from .pipeline import Evaluation, evaluate
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BallSet", "AlphaComplex", "build_alpha_complex", "euler", "FractionalMeasures",
    "compute_measures", "nu_i_mc", "nu_ijk", "sigma_i", "sigma_ij", "sigma_ijk",
    "IntrinsicVolumes", "intrinsic_volumes", "weighted_area",
    "weighted_gauss", "weighted_mean", "weighted_volume", "GaussGradient",
    "arc_endpoint_data", "directional_derivative", "gauss_gradient", "sigma_i_prime",
    "sigma_ij_prime", "term_d", "term_e", "term_f", "term_h", "fd_directional",
    "fd_gradient", "mc_boundary_integrals", "Evaluation", "evaluate", "errors",
    "__version__",
]
