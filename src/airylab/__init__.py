"""Numerical laboratory for the lower-tail large deviations of the KPZ
equation: exact rate function, drift variational problem, stochastic Airy
and Hill spectra with Riccati explosion counting, Fredholm determinants,
localization sandwich and WKB spectral inequality.
"""

from .airy import ai_values
from .errors import (ConfigurationError, DomainError, IncompleteSpectrumError,
                     ResolutionError, UnderflowDiagnostic)
from .fredholm import (KernelParams, QuadratureGrid, determinant_vs_point_process,
                       fredholm_det, kernel_eval, kernel_grid, proxy_f)
from .hill import (Boundary, CellOperator, HillConfig, NoisePath, SpectrumSample,
                   counting_integral, hill_spectrum, linear_statistic, riccati_count_hill)
from .mc import McEstimate, spawn_rng
from .rate import phi_minus, phi_minus_scaled
from .sao import SaoConfig, ldp_estimate, riccati_count_sao, sandwich_check, sao_spectrum
from .variational import (DiscretizationParams, optimal_drift, riemann_sum_value,
                          variational_value)
from .wkb import (PotentialProfile, min_partial_sum, periodic_hill_pair, random_profile,
                  wkb_compare)

__version__ = "0.1.0"
