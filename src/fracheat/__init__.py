"""Fundamental solutions of time-fractional heat equations via subordination.

The package evaluates p(t, z) = E[q(E_t, z)] for a spatial heat kernel q
time-changed by an inverse subordinator E, implements the closed-form
two-sided estimate shapes organized by the scalar Phi(z) * phi(1/t), and
carries the verification campaigns that certify the sandwich empirically.
"""

from .bernstein import (ConstructedCBF, LaplaceExponent, ScalingReport, Stable,
                        StableMixture, cbf_from_scale, parse_exponent,
                        scaling_report)
from .errors import (BracketError, DomainError, FracheatError, QuadratureError,
                     UnsupportedModelError)
from .estimates import EstimateModel, EstimateValue, explicit_near_diagonal
from .harness import (SandwichReport, SandwichRow, VerifyConfig, build_models,
                      verify_sandwich, write_report_csv)
from .kernels import (DerivativeReport, DiffusionSurrogate, ExactCauchy,
                      ExactGaussian, JumpSurrogate, SpatialKernel, parse_kernel,
                      time_derivative_report)
from .rng import RngStream
from .scale import (PiecewisePower, PowerLaw, parse_profile,
                    subgaussian_exponent, subordinated_exponent)
from .solution import (GaussianBump, SolutionEstimate, WeakFormReport,
                       caputo_weak_residual, density_fourier, density_laplace,
                       density_monte_carlo, density_quadrature, mass_residual,
                       mittag_leffler)
from .subordinator import (IdentityReport, SubordinatorModel, TailBoundsReport,
                           integrated_tail_identities, tail_bounds_report)

__version__ = "0.1.0"
