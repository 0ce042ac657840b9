"""Arithmetic in F_p[x]: gcds and extraction of the common root of two
polynomials reduced mod p.

The atlas reads its common roots from the subresultant chain; this module
finds them independently, for ``analyze --verify`` to check at every prime
of r.  Python integers are arbitrary precision, so the same code paths
serve word-sized primes and primes with dozens of digits.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .ntheory import is_prime
from .poly import IntPoly, MonicIntPoly

__all__ = [
    "PrimeFieldPoly",
    "poly_gcd_mod_p",
    "common_root_mod_p",
]


@dataclass(frozen=True)
class PrimeFieldPoly:
    """Polynomial over F_p, coefficients leading-first and reduced to [0, p).

    The zero polynomial is the empty tuple; otherwise the leading residue
    is nonzero.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise InputError(f"modulus must be >= 2, got {self.p}")
        reduced = tuple(int(c) % self.p for c in self.coeffs)
        object.__setattr__(self, "coeffs", _strip(reduced))

    @classmethod
    def from_int_poly(cls, poly: IntPoly, p: int) -> PrimeFieldPoly:
        return cls(p, poly.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> PrimeFieldPoly:
        if self.is_zero():
            return self
        inv = pow(self.coeffs[0], -1, self.p)
        return PrimeFieldPoly(self.p, tuple(c * inv % self.p for c in self.coeffs))


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def _divmod(num: tuple[int, ...], den: tuple[int, ...], p: int):
    # Quotient and remainder in F_p[x]; den nonzero.
    num_l = list(num)
    lead_inv = pow(den[0], -1, p)
    q_len = len(num_l) - len(den) + 1
    if q_len <= 0:
        return (), _strip(tuple(num_l))
    quotient = [0] * q_len
    for i in range(q_len):
        c = num_l[i] % p
        if c:
            scale = c * lead_inv % p
            quotient[i] = scale
            for k in range(len(den)):
                num_l[i + k] = (num_l[i + k] - scale * den[k]) % p
    return _strip(tuple(quotient)), _strip(tuple(num_l[q_len:]))


def poly_gcd_mod_p(f: PrimeFieldPoly, g: PrimeFieldPoly) -> PrimeFieldPoly:
    """Monic gcd in F_p[x] by the Euclidean algorithm."""
    if f.p != g.p:
        raise InputError(f"modulus mismatch: {f.p} vs {g.p}")
    p = f.p
    if f.is_zero() and g.is_zero():
        raise InputError("gcd of two zero polynomials is undefined")
    a, b = f.coeffs, g.coeffs
    while b:
        _, r = _divmod(a, b, p)
        a, b = b, r
    return PrimeFieldPoly(p, a).monic()


def common_root_mod_p(f: MonicIntPoly, g: MonicIntPoly, p: int) -> int | None:
    """The residue c with gcd(f, g) = x - c in F_p[x], or None.

    None means the gcd mod p does not have degree exactly 1; no root search
    is attempted for higher-degree gcds.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    d = poly_gcd_mod_p(
        PrimeFieldPoly.from_int_poly(f, p), PrimeFieldPoly.from_int_poly(g, p)
    )
    if d.degree != 1:
        return None
    return -d.coeffs[1] % p
