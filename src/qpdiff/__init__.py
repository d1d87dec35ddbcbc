"""Quarter-plane diffraction via double Wiener-Hopf kernel factorisation.

The package stacks five layers:

* ``specfun``  -- branch-controlled square root / logarithm and the
  spectral kernel built from them;
* ``contour``  -- the indented inversion contours, their validity
  diagnostics and side classification;
* ``whfactor`` -- Cauchy sum-splits, multiplicative factorisation, the
  four quarter-plane kernel factors and their analytic continuation;
* ``farfield`` -- incidence handling, the closed-form (++) candidate,
  the compatibility residual, the diffraction coefficient and arc
  sweeps;
* ``portrait`` -- phase portraits (domain coloring) of any of the
  above, written as deterministic binary PPM.

``qpdiff.cli`` exposes the command-line surface and
``qpdiff.verification`` the acceptance checks behind ``qpdiff verify``.
"""

from .contour import (ContourSpec, ShiftedContour, branch_loci, classify_side,
                      contour_derivative, contour_point, contour_projection,
                      default_contour, loci_clearance, scaled_constants,
                      side_sign, sign_compatibility_scan, validate_contour)
from .errors import (BranchCrossingError, ContinuationError, ContourError,
                     DomainError, NonFiniteInputError, OnBranchCutError,
                     QpdiffError, QuadratureError, WindingError)
from .farfield import (AnsatzEvaluator, ArcSweepResult, Incidence,
                       Observation, g_pp, make_incidence)
from .portrait import PortraitSpec, render, write_image
from .quadrature import QuadratureConfig
from .specfun import (big_k, diag_log, fourth_root_down, gamma_fn,
                      half_factor, kappa, sqrt_down)
from .whfactor import (ALL_LABELS, MM, MP, PM, PP, FactorLabel,
                       cauchy_factorize, cauchy_split, continue_factor,
                       quarter_factor)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QpdiffError", "NonFiniteInputError", "OnBranchCutError", "DomainError",
    "ContourError", "QuadratureError", "WindingError", "BranchCrossingError",
    "ContinuationError",
    # specfun
    "sqrt_down", "diag_log", "kappa", "big_k", "gamma_fn", "half_factor",
    "fourth_root_down",
    # contour
    "ContourSpec", "ShiftedContour", "contour_point", "contour_derivative",
    "contour_projection", "side_sign", "classify_side",
    "sign_compatibility_scan", "branch_loci",
    "loci_clearance", "validate_contour", "default_contour",
    "scaled_constants",
    # quadrature / factors
    "QuadratureConfig", "FactorLabel", "PP", "PM", "MP", "MM", "ALL_LABELS",
    "cauchy_split", "cauchy_factorize", "quarter_factor", "continue_factor",
    # far field
    "Incidence", "Observation", "ArcSweepResult", "AnsatzEvaluator",
    "make_incidence", "g_pp",
    # portraits
    "PortraitSpec", "render", "write_image",
]
