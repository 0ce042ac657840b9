"""Shared test helpers: independent oracles kept deliberately naive.

Nothing in here calls back into the algorithm under test for the quantity
it checks; determinants are cofactor expansions, polynomial products are
schoolbook convolutions, and so on.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from polygcd import IntMatrix, IntPoly, MonicIntPoly, factor, is_squarefree, resultant


def naive_det(rows: list[list[int]]) -> int:
    """Cofactor-expansion determinant; fine up to ~6x6."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def naive_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of leading-first coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def minor_gcd_products(matrix: IntMatrix) -> list[int]:
    """g_i = gcd of all i x i minors, for i = 1 .. min(rows, cols).

    By the classical characterization, g_i equals d_1 * ... * d_i for the
    invariant factors d of the Smith normal form (with gcd() = 0 when all
    minors vanish).
    """
    rows = matrix.to_rows()
    r, c = matrix.rows, matrix.cols
    out = []
    for size in range(1, min(r, c) + 1):
        g = 0
        for row_idx in itertools.combinations(range(r), size):
            for col_idx in itertools.combinations(range(c), size):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                g = math.gcd(g, naive_det(sub))
        out.append(g)
    return out


def solve_mod_p(matrix_rows: list[list[int]], rhs: list[int], p: int):
    """Solve x * M = rhs over F_p; returns a solution list or None."""
    # Transpose to the column form M^T y = rhs and do Gaussian elimination.
    rows = len(matrix_rows)
    cols = len(matrix_rows[0])
    aug = [[matrix_rows[i][j] % p for i in range(rows)] + [rhs[j] % p] for j in range(cols)]
    pivots = []
    rank = 0
    for col in range(rows):
        pivot = next((i for i in range(rank, cols) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = pow(aug[rank][col], -1, p)
        aug[rank] = [v * inv % p for v in aug[rank]]
        for i in range(cols):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [(a - factor * b) % p for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, cols):
        if aug[i][rows]:
            return None  # inconsistent
    solution = [0] * rows
    for where, col in enumerate(pivots):
        solution[col] = aug[where][rows]
    return solution


def random_monic(rng: random.Random, max_degree: int = 4, coeff_bound: int = 9) -> MonicIntPoly:
    degree = rng.randint(1, max_degree)
    tail = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)]
    return MonicIntPoly(tuple([1] + tail))


@functools.cache
def acceptance_pair_pool() -> tuple[tuple[MonicIntPoly, MonicIntPoly, int], ...]:
    """The acceptance suite's deterministic stream of (f, g, r) triples.

    Random monic pairs (deg <= 4, coefficients in [-9, 9]); generation
    continues until at least 500 pairs pass criterion 5's filter: r nonzero,
    square-free and |r| <= 10^4.
    """
    rng = random.Random(0xACCE97)
    raw = []
    eligible = 0
    while eligible < 500:
        f = random_monic(rng, max_degree=4, coeff_bound=9)
        g = random_monic(rng, max_degree=4, coeff_bound=9)
        r = resultant(f, g)
        raw.append((f, g, r))
        if r != 0 and abs(r) <= 10**4 and is_squarefree(factor(r)):
            eligible += 1
    return tuple(raw)


def naive_minimal_period(values) -> int:
    """Smallest t dividing len(values) with values[n] == values[n + t] cyclically."""
    m = len(values)
    return next(
        t
        for t in range(1, m + 1)
        if m % t == 0 and all(values[n] == values[(n + t) % m] for n in range(m))
    )


def random_matrix(rng: random.Random, max_dim: int = 5, bound: int = 9) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def poly_divides_over_Z(d: IntPoly, f: IntPoly) -> bool:
    """Exact-division oracle: long division over Q, integral quotient, zero rem."""
    if d.is_zero():
        return f.is_zero()
    num = [Fraction(c) for c in f.coeffs]
    den = [Fraction(c) for c in d.coeffs]
    quot = []
    while len(num) >= len(den):
        q = num[0] / den[0]
        quot.append(q)
        for k in range(1, len(den)):
            num[k] -= q * den[k]
        num.pop(0)
    if any(num):
        return False
    return all(q.denominator == 1 for q in quot)
