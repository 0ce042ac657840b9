"""Exact resultants of monic integer polynomials and the complete
divisor-to-residue map of gcd(f(n), g(n)) for square-free resultants.

Coefficient order is leading-first everywhere: ``(1, 0, 3)`` is ``x^2 + 3``.
Each module's ``__all__`` lists its public names; the package re-exports them.
"""
from . import analysis, errors, linalg, modp, ntheory, oracle, poly, snf
from .analysis import *
from .errors import *
from .linalg import *
from .modp import *
from .ntheory import *
from .oracle import *
from .poly import *
from .snf import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, errors, linalg, modp, ntheory, oracle, poly, snf)
    for name in module.__all__
]
