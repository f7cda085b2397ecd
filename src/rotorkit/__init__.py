"""Numerical cross-validation toolkit for a particle on the (D-1)-sphere.

The sphere is treated three independent ways and the routes are checked
against each other rather than against themselves:

* exact symbolic operators on closed-form test functions (operators),
* grid discretizations of the Hamiltonian and its exact eigenvalue ladder
  (spectra),
* classical constrained dynamics with Dirac brackets built from a
  canonical chart (dynamics),
* Euclidean time slicing in polar coordinates, exhibiting the
  hbar^2/(8 r^2) ordering potential (pathintegral).

Shared geometry (charts, metrics, measures) lives in geometry; exact
expression trees in expressions; quadrature rules in quadrature; the
command line front end in cli.
"""

__version__ = "0.1.0"

from .geometry import (ChartDomainError, ModelParams,
                       PoleSingularityError, curvilinear_inverse_metric,
                       from_hyperspherical, inverse_metric, lift, metric,
                       metric_determinant, sphere_area, to_hyperspherical)
from .operators import (OperatorTag, QuadratureSpec, TestFunction,
                        apply_operator, harmonic_polynomials,
                        hermiticity_defect, inner_product, operator_expr)
from .spectra import (NonConvergenceError, SpectralGrid, SpectrumResult,
                      assemble, compute_spectrum, extrapolate,
                      harmonic_multiplicity, reference_eigenvalues,
                      reference_spectrum, sector_spectrum)
from .dynamics import (ChartMarginError, Observable, PhaseState,
                       StepConvergenceError, Trajectory, dirac_bracket,
                       integrate_embedded_oracle, integrate_reduced)
from .pathintegral import (KernelWidthError, RadialGrid, RadialWavefunction,
                           SliceKernelSpec, extract_effective_potential,
                           slice_kernel, slice_step)

__all__ = [
    "__version__",
    "ModelParams", "ChartDomainError", "PoleSingularityError",
    "metric", "inverse_metric", "metric_determinant", "lift",
    "to_hyperspherical", "from_hyperspherical", "curvilinear_inverse_metric",
    "sphere_area",
    "TestFunction", "OperatorTag", "QuadratureSpec", "harmonic_polynomials",
    "apply_operator", "operator_expr", "inner_product", "hermiticity_defect",
    "SpectralGrid", "SpectrumResult", "NonConvergenceError", "assemble",
    "compute_spectrum", "sector_spectrum", "extrapolate",
    "reference_spectrum", "reference_eigenvalues", "harmonic_multiplicity",
    "PhaseState", "Trajectory", "Observable", "ChartMarginError",
    "StepConvergenceError", "integrate_reduced", "integrate_embedded_oracle",
    "dirac_bracket",
    "RadialGrid", "RadialWavefunction", "SliceKernelSpec", "KernelWidthError",
    "slice_kernel", "slice_step", "extract_effective_potential",
]
