"""Brute-force ground truth for gcd(f(n), g(n)) over one full period.

Everything here is deliberately naive: evaluate both polynomials exactly at
every residue and take integer gcds.  The point is to have an independent
check for the structured computations elsewhere in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceeded, InputError
from .linalg import resultant
from .poly import MonicIntPoly

__all__ = [
    "BRUTE_FORCE_CAP",
    "BruteForceProfile",
    "brute_force_profile",
]

BRUTE_FORCE_CAP = 10**6
_CHUNK = 1 << 16


@dataclass(frozen=True)
class BruteForceProfile:
    """gcd(f(n), g(n)) tabulated for every n in [0, modulus)."""

    modulus: int
    values: tuple[int, ...]
    histogram: dict[int, int]
    gcd_range: tuple[int, ...]

    def residues_by_value(self) -> dict[int, tuple[int, ...]]:
        """Map each gcd value to the ascending residues where it occurs."""
        out: dict[int, list[int]] = {}
        for n, value in enumerate(self.values):
            out.setdefault(value, []).append(n)
        return {value: tuple(ns) for value, ns in out.items()}

    def to_json_dict(self) -> dict:
        return {
            "modulus": str(self.modulus),
            "histogram": {str(v): str(c) for v, c in self.histogram.items()},
            "range": [str(v) for v in self.gcd_range],
        }


def _scan_chunk(f: MonicIntPoly, g: MonicIntPoly, start: int, stop: int) -> list[int]:
    return [math.gcd(f.evaluate(n), g.evaluate(n)) for n in range(start, stop)]


def brute_force_profile(
    f: MonicIntPoly, g: MonicIntPoly, *, cap: int = BRUTE_FORCE_CAP
) -> BruteForceProfile:
    """Tabulate gcd(f(n), g(n)) for n in [0, |r|).

    The scan is partitioned into independent chunks whose merge is
    order-independent; requires a nonzero resultant with |r| <= cap.
    """
    r = resultant(f, g)
    if r == 0:
        raise InputError("resultant is zero: the gcd values have no finite period")
    modulus = abs(r)
    if modulus > cap:
        raise CapExceeded(f"period {modulus} exceeds the brute-force cap {cap}")
    values: list[int] = []
    histogram: dict[int, int] = {}
    for start in range(0, modulus, _CHUNK):
        chunk = _scan_chunk(f, g, start, min(start + _CHUNK, modulus))
        values.extend(chunk)
        for v in chunk:
            histogram[v] = histogram.get(v, 0) + 1
    return BruteForceProfile(
        modulus=modulus,
        values=tuple(values),
        histogram=histogram,
        gcd_range=tuple(sorted(histogram)),
    )
