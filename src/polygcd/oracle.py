"""Brute-force ground truth for gcd(f(n), g(n)) over one full period.

Everything here is deliberately naive: evaluate both polynomials exactly at
every residue and take integer gcds.  The point is to have an independent
check for the structured computations elsewhere in the package.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from typing import NamedTuple

from .errors import CapExceeded, InputError
from .linalg import resultant
from .poly import MonicIntPoly

__all__ = [
    "BRUTE_FORCE_CAP",
    "BruteForceProfile",
    "brute_force_profile",
]

BRUTE_FORCE_CAP = 10**6


class BruteForceProfile(NamedTuple):
    """gcd(f(n), g(n)) tabulated for every n in [0, modulus)."""

    modulus: int
    values: tuple[int, ...]
    histogram: dict[int, int]

    @property
    def gcd_range(self) -> tuple[int, ...]:
        return tuple(sorted(self.histogram))

    def residues_by_value(self) -> dict[int, tuple[int, ...]]:
        """Map each gcd value to the ascending residues where it occurs."""
        out: dict[int, list[int]] = {}
        for n, value in enumerate(self.values):
            out.setdefault(value, []).append(n)
        return {value: tuple(ns) for value, ns in out.items()}

    def minimal_period(self) -> int:
        """The smallest t | modulus with values[n] == values[(n + t) % modulus]."""
        m, values = self.modulus, self.values
        return next(
            t
            for t in range(1, m + 1)
            if m % t == 0 and all(values[n] == values[(n + t) % m] for n in range(m))
        )


def brute_force_profile(f: MonicIntPoly, g: MonicIntPoly) -> BruteForceProfile:
    """Tabulate gcd(f(n), g(n)) for n in [0, |r|).

    Requires a nonzero resultant with |r| <= BRUTE_FORCE_CAP.  The modulus
    comes from ``resultant(verify=True)``, so it rests on the Bareiss
    determinant as well as on the PRS that the production path uses.
    """
    r = resultant(f, g, verify=True)
    if r == 0:
        raise InputError("resultant is zero: the gcd values have no finite period")
    modulus = abs(r)
    if modulus > BRUTE_FORCE_CAP:
        try:
            shown = str(modulus)
        except ValueError:  # more digits than the interpreter prints
            shown = f"of more than {sys.get_int_max_str_digits()} digits"
        raise CapExceeded(f"period {shown} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    values = tuple(math.gcd(f.evaluate(n), g.evaluate(n)) for n in range(modulus))
    return BruteForceProfile(
        modulus=modulus, values=values, histogram=dict(Counter(values))
    )
