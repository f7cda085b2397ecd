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

The package root exports only ``__version__``.  Import the library by
submodule (``from rotorkit.spectra import route_spectrum``), so a
program loads only the layers it runs: ``rotorkit.geometry`` needs numpy
alone, and ``rotorkit.dynamics`` adds only the expression engine.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
