"""Diffusion operators with orthogonal-polynomial eigenbases.

Submodules:
  poly        exact sparse multivariate polynomials and the text format
  linalg      exact rational elimination + the generalized symmetric eigensolver
  boundary    the admissibility linear system for factored boundaries
  operator    cometrics, measures, drifts, graded operator matrices
  catalog     the model registry (JSON descriptors)
  quadrature  Gauss rules, Monte Carlo sampling, moments, self-adjointness
  spectra     graded eigenvalues, orthonormal eigenbases, closed-form checks
  geometry    scalar curvature and pullback identity verification
  claims      the executable claim battery behind `polydiff verify`
  cli         command-line entry point
"""

__version__ = "0.1.0"
