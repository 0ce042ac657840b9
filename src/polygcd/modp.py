"""The common root of two monic polynomials mod a prime, from their gcd in F_p[x].

The atlas reads the common root c of f and g mod each prime p | r from the
subresultant S_1; ``analyze --verify`` checks it against this module, which
finds it apart from the chain, by Euclid over F_p and not by the chain's
pseudo-remainders.  Polynomials are lists of residues, leading-first with
no leading zero (the zero polynomial is []); Python integers serve word-sized
primes and primes with dozens of digits alike.
"""
from __future__ import annotations

from .errors import InputError
from .ntheory import is_prime
from .poly import MonicIntPoly

__all__ = ["common_root_mod_p"]


def common_root_mod_p(f: MonicIntPoly, g: MonicIntPoly, p: int) -> int | None:
    """The residue c with gcd(f, g) = x - c in F_p[x], or None.

    None means the gcd mod p does not have degree exactly 1; no root search
    is attempted for higher-degree gcds.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    d = _gcd_mod_p(f.coeffs, g.coeffs, p)
    return -d[1] % p if len(d) == 2 else None


def _gcd_mod_p(a, b, p: int) -> list[int]:
    """The monic gcd in F_p[x] of two integer sequences, by Euclid; [] for 0, 0."""
    a, b = _monic(a, p), _monic(b, p)
    while b:
        a, b = b, _monic(_rem_mod_p(a, b, p), p)
    return a


def _monic(coeffs, p: int) -> list[int]:
    # The residues mod p without leading zeros, scaled to leading coefficient 1.
    out = [c % p for c in coeffs]
    while out and out[0] == 0:
        del out[0]
    inv = pow(out[0], -1, p) if out else 0
    return [c * inv % p for c in out]


def _rem_mod_p(num: list[int], den: list[int], p: int) -> list[int]:
    # The remainder of num by the monic den in F_p[x], leading zeros kept.
    num = list(num)
    q_len = max(len(num) - len(den) + 1, 0)
    for i in range(q_len):
        for k in range(1, len(den)):
            num[i + k] = (num[i + k] - num[i] * den[k]) % p
    return num[q_len:]
