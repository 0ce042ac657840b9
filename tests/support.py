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
from collections import Counter
from fractions import Fraction

from polygcd import (
    BRUTE_FORCE_CAP,
    IntMatrix,
    IntPoly,
    MonicIntPoly,
    factor,
    is_prime,
    is_squarefree,
    resultant,
    smith_normal_form,
)
from polygcd.errors import CapExceeded, InputError


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


def fraction_det(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over Q; any size, no exactness tricks."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            if ratio:
                a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def naive_first_subresultant(f: IntPoly, g: IntPoly) -> tuple[int, int]:
    """(s1, s0) with S_1 = s1*x + s0, from the defining determinants.

    The (k+l-2) x (k+l-1) matrix holds l-1 shifted rows of f and k-1 of g
    (k, l the degrees, both >= 2); s1 and s0 are the cofactor determinants
    of its first k+l-3 columns together with its column of x^1 or of x^0.
    """
    k, l = f.degree, g.degree
    width = k + l - 1
    rows = [[0] * i + list(f.coeffs) + [0] * (width - k - 1 - i) for i in range(l - 1)]
    rows += [[0] * j + list(g.coeffs) + [0] * (width - l - 1 - j) for j in range(k - 1)]
    return tuple(naive_det([r[: width - 2] + [r[col]] for r in rows]) for col in (-2, -1))


def naive_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of leading-first coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def naive_add(a: list[int], b: list[int]) -> list[int]:
    """Sum of leading-first coefficient lists, aligned at the constant term."""
    width = max(len(a), len(b))
    a, b = [0] * (width - len(a)) + list(a), [0] * (width - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Schoolbook product of two integer matrices."""
    assert a.cols == b.rows
    return IntMatrix.from_rows(
        [[sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]
    )


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


def naive_gcd_over_Q(f: IntPoly, g: IntPoly) -> list[Fraction]:
    """A gcd in Q[x] by Euclid with exact fractions, leading-first."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            q = rem[0] / b[0]
            for k in range(1, len(b)):
                rem[k] -= q * b[k]
            rem.pop(0)
        while rem and rem[0] == 0:
            rem.pop(0)
        a, b = b, rem
    return a


def primitive_part(coeffs_q: list[Fraction]) -> IntPoly:
    """The primitive integer multiple of a nonzero rational polynomial,
    with positive leading coefficient."""
    scale = functools.reduce(math.lcm, (c.denominator for c in coeffs_q), 1)
    ints = [int(c * scale) for c in coeffs_q]
    content = functools.reduce(math.gcd, ints, 0)
    sign = 1 if ints[0] > 0 else -1
    return IntPoly(tuple(sign * v // content for v in ints))


# ---------------------------------------------------------------------------
# Helpers that only the tests use.  They were once part of the public API;
# the acceptance criteria still check their claims through them.
# ---------------------------------------------------------------------------


def int_gcd(a: int, b: int) -> int:
    """Nonnegative gcd, with the convention gcd(0, 0) = 0."""
    return math.gcd(a, b)


def reduce_mod(p: IntPoly, m: int) -> tuple[int, ...]:
    """Coefficientwise canonical residues in [0, m); the length is preserved.

    The leading residue may be 0 for a general IntPoly (never for a
    MonicIntPoly with m >= 2), in which case the reduced polynomial has
    lower degree than ``p``.
    """
    if m < 2:
        raise InputError(f"modulus must be >= 2, got {m}")
    return tuple(c % m for c in p.coeffs)


def invariant_factors(matrix: IntMatrix) -> tuple[int, ...]:
    """The d-sequence of the Smith normal form."""
    return smith_normal_form(matrix).d


def check_divides(f: MonicIntPoly, g: MonicIntPoly, sample) -> bool:
    """True iff gcd(f(n), g(n)) divides the resultant for every n in sample.

    Works for a zero resultant too, since every integer divides 0.
    """
    r = resultant(f, g)
    for n in sample:
        d = math.gcd(f.evaluate(n), g.evaluate(n))
        if d == 0:
            if r != 0:
                return False
        elif r % d != 0:
            return False
    return True


def check_periodicity(
    f: MonicIntPoly, g: MonicIntPoly, *, cap: int = BRUTE_FORCE_CAP
) -> bool:
    """True iff the gcd values repeat with period |r|.

    Checks every n in [0, |r|) against n + |r|, plus negative samples
    n in {-1, ..., -min(16, |r|)} to exercise sign handling.
    """
    r = resultant(f, g)
    if r == 0:
        raise InputError("resultant is zero: periodicity check needs |r| > 0")
    modulus = abs(r)
    if modulus > cap:
        raise CapExceeded(f"period {modulus} exceeds the brute-force cap {cap}")

    def value(n: int) -> int:
        return math.gcd(f.evaluate(n), g.evaluate(n))

    for n in range(modulus):
        if value(n) != value(n + modulus):
            return False
    for n in range(-1, -min(16, modulus) - 1, -1):
        if value(n) != value(n + modulus):
            return False
    return True


def naive_local_profile(f: IntPoly, g: IntPoly, p: int, e: int) -> tuple[dict[int, int], int]:
    """gcd(f(n), g(n), p^e) tabulated for every n mod p^e: its histogram, and
    the least p^i with values[n] == values[n mod p^i] for every n."""
    q = p**e
    values = [math.gcd(f.evaluate(n), g.evaluate(n), q) for n in range(q)]
    period = next(
        p**i for i in range(e + 1) if all(v == values[n % p**i] for n, v in enumerate(values))
    )
    return dict(Counter(values)), period


def rank_mod_p(matrix: IntMatrix, p: int) -> int:
    """Rank of the matrix reduced mod p, by Gaussian elimination over F_p."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    a = [[v % p for v in row] for row in matrix.to_rows()]
    rows, cols = matrix.rows, matrix.cols
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        base = a[rank]
        for i in range(rank + 1, rows):
            factor = a[i][col] * inv % p
            if factor:
                row = a[i]
                for j in range(col, cols):
                    row[j] = (row[j] - factor * base[j]) % p
        rank += 1
        if rank == rows:
            break
    return rank
