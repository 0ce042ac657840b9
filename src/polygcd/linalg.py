"""Sylvester matrices and exact resultants by two independent algorithms.

The resultant of monic f (degree k) and g (degree l) is the determinant of
the (k+l)-square Sylvester matrix whose first l rows carry the coefficients
of f and last k rows those of g, each block shifted right one column per
row.  ``resultant`` computes it with the subresultant polynomial remainder
sequence (``resultant_prs``), which needs no matrix; under ``verify`` it
also evaluates the determinant with fraction-free Bareiss elimination
(``det_bareiss``), a structurally independent value to cross-check against.
Past the monic f block, Bareiss takes four columns per pass while six or
more remain, so each entry costs one exact division per four columns.  It
steps one column at a time where the 4x4 pivot block is singular, once fewer
than six columns remain, and in the f block, where a step skips the rows
that are 0 in its column.  The same pass leaves four (n-1)-minors in its
trailing 2x2 block, from which snf proves a cyclic Smith form.
The same walk of the sequence yields the first subresultant S_1, from which
the atlas reads its generator.
"""
from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InvariantBreach
from .poly import IntPoly, _content, _pseudo_rem

__all__ = [
    "IntMatrix",
    "sylvester_matrix",
    "det_bareiss",
    "resultant",
    "resultant_prs",
]


class IntMatrix(
    NamedTuple("IntMatrix", [("rows", int), ("cols", int), ("entries", tuple[int, ...])])
):
    """Dense rectangular integer matrix; entries are row-major."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        rows, cols = operator.index(rows), operator.index(cols)
        if rows < 1 or cols < 1:
            raise InputError("matrix dimensions must be positive")
        entries = tuple(map(operator.index, entries))
        if len(entries) != rows * cols:
            raise InputError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it validates too
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> IntMatrix:
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise InputError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("rows have unequal lengths")
        flat = tuple(v for r in rows for v in r)
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __str__(self) -> str:
        rows = self.to_rows()
        width = max((len(str(v)) for v in self.entries), default=1)
        return "\n".join(" ".join(f"{v:>{width}}" for v in row) for row in rows)


def sylvester_matrix(f: IntPoly, g: IntPoly) -> IntMatrix:
    """The (k+l)-square Sylvester matrix: l shifted rows of f, then k of g."""
    k, l = f.degree, g.degree
    if k < 1 or l < 1:
        raise InputError("sylvester matrix needs both degrees >= 1")
    n = k + l
    rows = []
    for i in range(l):
        rows.append([0] * i + list(f.coeffs) + [0] * (n - k - 1 - i))
    for j in range(k):
        rows.append([0] * j + list(g.coeffs) + [0] * (n - l - 1 - j))
    return IntMatrix.from_rows(rows)


def det_bareiss(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Column k's pivot pk is its first nonzero entry on or below row k.  When
    pk differs from the previous pivot prev and six or more columns
    remain, a pass takes columns k..k+3 (Bareiss's multistep form) with
    rows k..k+3 as the pivot block: the new pivot is c0 = det(block) /
    prev^3, and each row below, with x its four block entries, becomes
    (c0*a - sum(u_t*p_t)) / prev over its tail, where p_t is pivot row k+t
    and u_t = x . cof_t / prev for the block's row-t cofactors cof_t over
    prev^2: 5 products and one division per entry for all four columns.
    Otherwise, and when that block is singular, a one-column step makes
    each row below, with x its entry in column k, (pk*a - x*p) / prev over
    its tail, p the pivot row; with pk == prev (the monic f block of a
    Sylvester matrix) it touches only the columns where p is nonzero and
    skips the rows with x = 0, which it leaves as they are (any other step
    rescales them).  A column with no pivot makes the determinant 0, the
    last pivot is the determinant, and every division checks its remainder.
    By Sylvester's identity, the trailing 2x2 block at step k = n-2 holds the
    cofactors, up to sign, of entries (n, n), (n, n-1), (n-1, n) and
    (n-1, n-1) of the row-permuted matrix: smith_normal_form reads them.
    """
    return _bareiss(matrix)[0]


def _bareiss(matrix: IntMatrix) -> tuple[int, tuple[int, ...]]:
    # det_bareiss's elimination: (det, the trailing 2x2 block at the top of
    # step k = n-2, after its row swap), the block () when n < 2 or a column
    # has no pivot.  A four-column pass needs n-k >= 6, so none skips k = n-2.
    if matrix.rows != matrix.cols:
        raise InputError("determinant needs a square matrix")
    n = matrix.rows
    a = matrix.to_rows()
    sign = 1
    prev = 1
    k = 0
    minors = ()
    while k < n:
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0, ()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        if k == n - 2:
            minors = (*a[k][k:], *a[k + 1][k:])
        row_k = a[k]
        pk = row_k[k]
        if pk != prev and n - k >= 6:
            c0 = _four_columns(a, k, prev)
            if c0:
                prev = c0
                k += 4
                continue
        columns = range(k + 1, n) if pk != prev else [j for j in range(k + 1, n) if row_k[j]]
        for row_i in a[k + 1 :]:
            aik = row_i[k]
            if aik == 0 and pk == prev:
                continue
            for j in columns:
                row_i[j] = _exact_div(row_i[j] * pk - aik * row_k[j], prev)
            row_i[k] = 0
        prev = pk
        k += 1
    return sign * prev, minors  # k == n: the last step's pivot is the determinant


def _four_columns(a: list[list[int]], k: int, prev: int) -> int:
    # Bareiss's four-step pass over columns k..k+3, pivot rows k..k+3.
    # Returns the new pivot c0 = det(block) / prev^3, or 0 when the block is
    # singular, touching no lower row and computing only row 0's cofactors,
    # the four that c0 needs.  cof[t] holds the cofactors of the
    # block's row t over prev^2 (its 3x3 minors are multiples of prev^2), so
    # u_t = x . cof[t] / prev is exact for every lower row x: it is
    # det(block with row t replaced by x) / prev^3.
    block = [row[k : k + 4] for row in a[k : k + 4]]
    cof = []
    for t in range(4):
        others = block[:t] + block[t + 1 :]
        minors = (_det3([row[:s] + row[s + 1 :] for row in others]) for s in range(4))
        cof.append([(-1) ** (s + t) * _exact_div(m, prev * prev) for s, m in enumerate(minors)])
        if t == 0:
            c0 = _exact_div(sum(map(operator.mul, block[0], cof[0])), prev)
            if c0 == 0:
                return 0
    tails = [row[k + 4 :] for row in a[k : k + 4]]
    for row_i in a[k + 4 :]:
        x = row_i[k : k + 4]
        u0, u1, u2, u3 = (_exact_div(sum(map(operator.mul, x, c)), prev) for c in cof)
        tail = zip(row_i[k + 4 :], *tails)
        row_i[k + 4 :] = _exact_quotients(
            (c0 * y - u0 * p0 - u1 * p1 - u2 * p2 - u3 * p3 for y, p0, p1, p2, p3 in tail), prev
        )
        row_i[k : k + 4] = [0] * 4
    return c0


def _det3(m: list[list[int]]) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def resultant(f: IntPoly, g: IntPoly, *, verify: bool = False) -> int:
    """Resultant by the subresultant PRS.

    With ``verify=True`` the Bareiss determinant of the Sylvester matrix is
    computed as well and a mismatch raises InvariantBreach (it would
    indicate a bug).
    """
    value = resultant_prs(f, g)
    if verify:
        _check_bareiss(f, g, value)
    return value


def _check_bareiss(f: IntPoly, g: IntPoly, value: int) -> None:
    # The one comparison of the PRS resultant ``value`` with the Bareiss determinant.
    det = det_bareiss(sylvester_matrix(f, g))
    if det != value:
        raise InvariantBreach(f"resultant mismatch: bareiss gives {det}, prs gives {value}")


def resultant_prs(f: IntPoly, g: IntPoly) -> int:
    """Resultant by the subresultant polynomial remainder sequence."""
    if f.degree < 1 or g.degree < 1:
        raise InputError("resultant needs both degrees >= 1")
    return _subresultant_resultant(list(f.coeffs), list(g.coeffs))[0]


def _subresultant_resultant(a: list[int], b: list[int]) -> tuple[int, tuple[int, int]]:
    # Coefficient lists leading-first, both of degree >= 1.  Returns r and
    # (s1, s0), the first subresultant S_1 = s1*x + s0 of the primitive parts
    # up to sign (for two linear inputs, S_1 is the second one).
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            s = -s
    cont_a = _content(a)
    cont_b = _content(b)
    a = [c // cont_a for c in a]
    b = [c // cont_b for c in b]
    t = cont_a ** (len(b) - 1) * cont_b ** (len(a) - 1)
    g = h = 1
    s1 = s0 = 0  # S_1 = 0 when no block holds it: the chain skips degree 1
    while True:
        deg_a, deg_b = len(a) - 1, len(b) - 1
        if deg_b == 1 or (deg_a, deg_b) == (2, 0):
            # b is S_{deg_a - 1}, and its block of subresultants, which ends
            # with S_{deg_b} = (lc(b)/h)^(deg_a - deg_b - 1) * b, holds S_1.
            k = max(deg_a - 2, 0)
            s1, s0 = (_exact_div(b[0] ** k * c, h**k) for c in [0, *b][-2:])
        if deg_b == 0:
            break
        delta = deg_a - deg_b
        if deg_a % 2 == 1 and deg_b % 2 == 1:
            s = -s
        rem = _pseudo_rem(a, b)
        if not rem:
            return 0, (s1, s0)
        divisor = g * h**delta
        a, b = b, [_exact_div(c, divisor) for c in rem]
        g = a[0]
        if delta > 0:
            h = _exact_div(g**delta, h ** (delta - 1))
    return s * t * _exact_div(b[0] ** deg_a, h ** (deg_a - 1)), (s1, s0)


def _exact_quotients(numerators: Iterable[int], denominator: int) -> list[int]:
    quotients, remainders = zip(*[divmod(x, denominator) for x in numerators])
    if any(remainders):
        raise InvariantBreach(f"inexact division by {denominator} in an exact algorithm")
    return list(quotients)


def _exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise InvariantBreach(
            f"inexact division {numerator} / {denominator} in an exact algorithm"
        )
    return q
