"""Numerics for singular constant-curvature profiles of higher fractional order.

The package is organized bottom-up:

- ``params``       derived exponents and normalizing constants
- ``kernels``      cylindrical reduction of the Riesz kernel, quadrature, fixed-point check
- ``bubbles``      bubble profiles, towers, kernel modes
- ``delaunay``     periodic cylinder solutions from the Gamma-ratio symbol, neck diagnostics
- ``interactions`` interaction constants, the interaction function, cokernel Gram matrices
- ``balancing``    force-balance equations for multi-point configurations
- ``toda``         upper-banded interaction operators and their explicit inverses
- ``assembler``    glued approximate solutions, dual-operator application, residuals
- ``cli``          command-line front end
"""

from .params import Params, derive_params, gamma_fn

__all__ = ["Params", "derive_params", "gamma_fn"]

__version__ = "0.1.0"
