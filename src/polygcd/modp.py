"""Common roots of two polynomials mod a prime, from their gcd in F_p[x].

The atlas reads the common root c of f and g mod each prime p | r from the
subresultant S_1; ``analyze --verify`` checks it against this module, which
finds it apart from the chain, by Euclid over F_p.  The non-square-free
profile's lifting tree takes all common roots mod p from here.  Polynomials
are lists of residues, leading-first with no leading zero (the zero
polynomial is []); Python integers serve word-sized primes and big ones alike.
"""
from __future__ import annotations

from .errors import InputError
from .ntheory import is_prime
from .poly import MonicIntPoly, _add, _mul

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
        a, b = b, _monic(_divmod_mod_p(a, b, p)[1], p)
    return a


def _common_roots_mod_p(a, b, p: int) -> list[int]:
    """The t in F_p, ascending, where two integer sequences, not both 0 mod p,
    vanish: the roots of their gcd h.  For p <= deg h each t is tried;
    otherwise gcd(h, x^p - x) keeps one linear factor per root, and gcds with
    (x + c)^((p-1)/2) - 1, c = 0, 1, ..., split it (Cantor-Zassenhaus)."""
    h = _gcd_mod_p(a, b, p)
    if len(h) > p:
        return [t for t in range(p) if _divmod_mod_p(h, [1, -t], p)[1][-1] == 0]
    pending, roots, c = [_gcd_mod_p(h, _add(_pow_mod(0, p, h, p), [-1, 0]), p)], [], 0
    while pending:
        h = pending.pop()
        if len(h) == 2:
            roots.append(-h[1] % p)
        elif len(h) > 2:
            d = _gcd_mod_p(h, _add(_pow_mod(c, (p - 1) // 2, h, p), [-1]), p)
            pending += [d, _divmod_mod_p(h, d, p)[0]] if 1 < len(d) < len(h) else [h]
            c += 1
    return sorted(roots)


def _monic(coeffs, p: int) -> list[int]:
    # The residues mod p without leading zeros, scaled to leading coefficient 1.
    out = [c % p for c in coeffs]
    while out and out[0] == 0:
        del out[0]
    inv = pow(out[0], -1, p) if out else 0
    return [c * inv % p for c in out]


def _divmod_mod_p(num, den: list[int], p: int) -> tuple[list[int], list[int]]:
    # Quotient and remainder of num by the monic den in F_p[x], leading zeros kept.
    num = [c % p for c in num]
    q_len = max(len(num) - len(den) + 1, 0)
    for i in range(q_len):
        for k in range(1, len(den)):
            num[i + k] = (num[i + k] - num[i] * den[k]) % p
    return num[:q_len], num[q_len:]


def _pow_mod(c: int, n: int, h: list[int], p: int) -> list[int]:
    # (x + c)^n mod the monic h in F_p[x], by squaring.
    out = [1]
    for bit in bin(n)[2:]:
        out = _mul(out, out)
        if bit == "1":
            out = _mul(out, [1, c])
        out = _divmod_mod_p(out, h, p)[1]
    return out
