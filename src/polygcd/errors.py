"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 1, cap overruns
exit 2, internal invariant breaches exit 3.
"""

__all__ = [
    "PolyGcdError",
    "ParseError",
    "InputError",
    "CapExceeded",
    "CriterionInapplicable",
    "InvariantBreach",
]


class PolyGcdError(Exception):
    """Base class for all package errors."""


class ParseError(PolyGcdError, ValueError):
    """Syntax error in a polynomial expression; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InputError(PolyGcdError, ValueError):
    """Invalid input: non-monic polynomial, degree 0, bad modulus, and so on."""


class CapExceeded(PolyGcdError, RuntimeError):
    """A work cap (brute-force period, divisor count, rho budget) was exceeded."""


class CriterionInapplicable(PolyGcdError):
    """No coprime witness exists: the prime ``prime`` <= min(deg f, deg g)
    divides gcd(f(n), g(n)) for every n.

    Then f and g share every residue mod p as a root, and p^p divides the
    resultant, which is how the paper's criterion fails.
    """

    def __init__(self, prime: int):
        super().__init__(f"criterion inapplicable: {prime}^{prime} divides the resultant")
        self.prime = prime


class InvariantBreach(PolyGcdError, RuntimeError):
    """An internal cross-check failed.  Indicates a bug, not bad input."""
