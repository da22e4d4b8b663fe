"""Exact annihilator systems for trace functions of polynomial roots.

The library builds, over exact rationals, the second-order differential
system killing all trace functions sum_j f(x_j) of the roots of
z^k + sum_h (-1)^h s_h z^(k-h), transports symmetric operators between
root and coefficient coordinates, decides left-ideal membership through
the characteristic variety, and cross-validates numerically with
contour integrals.
"""

__version__ = "1.0.0"

from .poly import Poly
from .spaces import (
    SpaceMismatchError,
    VarSpace,
    sigma_aux_space,
    sigma_eta_space,
    sigma_space,
    x_space,
    x_xi_space,
)
from .weyl import WeylOp

__all__ = [
    "Poly",
    "SpaceMismatchError",
    "VarSpace",
    "WeylOp",
    "__version__",
    "sigma_aux_space",
    "sigma_eta_space",
    "sigma_space",
    "x_space",
    "x_xi_space",
]
