"""Real zeros of generalized Kac random polynomials and the limit cycles
they induce in randomly perturbed planar centers.

The package covers four pipelines around one family of random polynomials
f_n(x) = sum c_{m,n} xi_m x^m:

* exact coefficient schemes (perturbed center, Lienard, power law),
* reproducible Monte Carlo root-count statistics,
* Gaussian Kac-Rice expected-count quadrature with asymptotic predictors,
* Melnikov / Poincare-return limit-cycle counting for the ODE side.
"""

__version__ = "0.1.0"

from .coeffs import CoeffScheme, CoeffVector, coeff_vector, trig_moment
from .errors import (DegreeTooLargeError, DomainError, EscapeError,
                     InsufficientDataError, KaccyclesError, NonConvergentError,
                     NoReturnError, QuadratureFailureError, ZeroPolynomialError)
from .kacrice import (CoreInterval, KacRiceIntegrand, asymptotic_prediction,
                      core_interval, expected_roots_gaussian_with_error,
                      expected_roots_region)
from .melnikov import (LimitCycleReport, MelnikovPoly, PerturbedSystem,
                       build_melnikov, count_bifurcating_cycles,
                       melnikov_flux_quadrature, poincare_return,
                       verify_cycles_ode)
from .rootcount import (Interval, RootCountReport, count_in_interval, real_roots,
                        sturm_count, sweep_roots)
from .sampler import (NoiseDistribution, PerturbationCoefficients, SeedSpec,
                      melnikov_noise_from_lienard, melnikov_noise_from_perturbation,
                      noise_rows)
from .experiment import (EstimateRow, ExperimentConfig, ExperimentResult,
                         MomentRow, compare_to_theory, run_experiment)
