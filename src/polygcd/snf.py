"""Smith normal form of integer matrices with unimodular transforms.

smith_normal_form(M) produces invariant factors d_1 | d_2 | ... (all
nonnegative) together with square unimodular U, V such that U*M*V is the
diagonal matrix of the d_i.  Every elimination re-verifies U*M*V = diag(d)
entry by entry and |det U| = |det V| = 1 before the result is returned:
for a square M with every d_i != 0 from prod(d) = |det M| (then det U *
det V = +-1), otherwise from the Bareiss determinants of U and V.  A
failure raises InvariantBreach since it can only mean a bug.

With transforms=False, U and V are None, and a square M with n >= 2 and
D = |det M| != 0 first tries a proof that d = (1, ..., 1, D) with no
elimination: the gcd of the (n-1)-minors, Delta_{n-1} = d_1 * ... *
d_{n-1}, divides every (n-1)-minor and D = Delta_n, so gcd(D, one
cofactor) = 1 forces Delta_{n-1} = 1 (Newman, Integral Matrices, ch. II).
It takes the gcd of D with the cofactors of entries (n, n), (n-1, n) and
(n, n-1) in turn, each a Bareiss determinant, and stops at 1.  Otherwise
the elimination runs as above, so each answer rests on that proof or on
the U*M*V check.

Elimination to a diagonal is one routine, which clears column t below the
pivot by row steps: on (A, U), then on the transposed trailing block of A
with V transposed, until row and column t are both clear.  A pass then
replaces each diagonal pair (a, b) that breaks divisibility by (gcd, lcm).
Step t pivots on the smallest nonzero entry of column t at or below row
t, and searches the whole trailing submatrix only when that part of the
column is zero: on Sylvester matrices this keeps the entries of U and V
smaller than a search of the whole submatrix does.  U and V are not
unique, d is.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import InvariantBreach
from .linalg import IntMatrix, det_bareiss
from .ntheory import ext_gcd

__all__ = ["SnfResult", "smith_normal_form"]


class SnfResult(NamedTuple):
    """Invariant factors d plus unimodular transforms with U*M*V = diag(d).

    U and V are None when smith_normal_form ran with transforms=False.
    """

    d: tuple[int, ...]
    U: IntMatrix | None
    V: IntMatrix | None


def smith_normal_form(matrix: IntMatrix, transforms: bool = True) -> SnfResult:
    """Smith normal form of any rectangular integer matrix.

    With transforms=False, U and V are None and a cyclic d may be proved
    from det M and a cofactor instead of by elimination.
    """
    if not transforms:
        cyclic = _cyclic_invariants(matrix)
        if cyclic is not None:
            return SnfResult(cyclic, None, None)
    rows, cols = matrix.rows, matrix.cols
    a = matrix.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    vt = IntMatrix.identity(cols).to_rows()  # V transposed: column steps are its row steps
    size = min(rows, cols)

    for t in range(size):
        pivot = _smallest_nonzero(a, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        vt[t], vt[pj] = vt[pj], vt[t]
        for row in a[t:]:  # rows and columns before t are finished
            row[t], row[pj] = row[pj], row[t]
        while True:
            _clear_column(a[t:], u[t:], t)
            if not any(a[t][t + 1 :]):
                break
            block = [list(col) for col in zip(*(row[t:] for row in a[t:]))]
            _clear_column(block, vt[t:], 0)
            for row, col in zip(a[t:], zip(*block)):
                row[t:] = col
        if a[t][t] < 0:  # row t of u is final now
            u[t] = [-x for x in u[t]]
    d = [abs(a[i][i]) for i in range(size)]

    # Divisibility fix: after the pass over pair (i, j), d[i] divides every
    # later entry, and later passes only shrink d[i] further.
    for i in range(size):
        for j in range(i + 1, size):
            da, db = d[i], d[j]
            if da == 0 or db % da == 0:  # zeros only trail, so db = 0 too
                continue
            g, x, y = ext_gcd(da, db)
            _combine_rows(u, i, j, x, y, -(db // g), da // g)
            _combine_rows(vt, i, j, 1, 1, -(y * db // g), x * da // g)
            d[i], d[j] = g, da * db // g

    result = SnfResult(tuple(d), IntMatrix.from_rows(u), IntMatrix.from_rows(zip(*vt)))
    _verify(matrix, result)
    return result if transforms else SnfResult(result.d, None, None)


def _cyclic_invariants(matrix):
    # (1, ..., 1, |det M|) when |det M| != 0 is coprime to one of the
    # cofactors of entries (n, n), (n-1, n), (n, n-1), else None.
    n = matrix.rows
    if n != matrix.cols or n < 2:
        return None
    det = abs(det_bareiss(matrix))
    if det == 0:
        return None
    a = matrix.to_rows()
    common = det
    for i, j in ((n - 1, n - 1), (n - 2, n - 1), (n - 1, n - 2)):
        minor = [row[:j] + row[j + 1 :] for r, row in enumerate(a) if r != i]
        common = math.gcd(common, det_bareiss(IntMatrix.from_rows(minor)))
        if common == 1:
            return (1,) * (n - 1) + (det,)
    return None


def _smallest_nonzero(a, t, rows, cols):
    # Position of the smallest |entry| != 0 in column t at or below row t;
    # only when that is all zero, the smallest in the trailing submatrix.
    for columns in ((t,), range(t + 1, cols)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in columns if a[i][j]]
        if entries:
            return min(entries)[1:]
    return None


def _clear_column(a, u, c):
    # Zero a[i][c] for every i > 0 by unimodular combinations of rows 0 and
    # i, applied to a from column c on and to the same rows of u.
    for i in range(1, len(a)):
        pivot, entry = a[0][c], a[i][c]
        if not entry:
            continue
        if entry % pivot == 0:
            w, x, y, z = 1, 0, -(entry // pivot), 1
        else:
            g, w, x = ext_gcd(pivot, entry)
            y, z = -(entry // g), pivot // g
        _combine_rows(a, 0, i, w, x, y, z, c)
        _combine_rows(u, 0, i, w, x, y, z)


def _combine_rows(mat, i, j, w, x, y, z, start=0):
    # rows i, j <- (w*row_i + x*row_j, y*row_i + z*row_j); wz - xy = +-1.
    ri, rj = mat[i], mat[j]
    if (w, x, z) == (1, 0, 1):  # row_j += y*row_i alone
        for k in range(start, len(ri)):
            if ri[k]:
                rj[k] += y * ri[k]
        return
    for k in range(start, len(ri)):
        ri[k], rj[k] = w * ri[k] + x * rj[k], y * ri[k] + z * rj[k]


def _verify(matrix: IntMatrix, result: SnfResult) -> None:
    product = _product(_product(result.U.to_rows(), matrix.to_rows()), result.V.to_rows())
    size = len(result.d)
    for i, row in enumerate(product):
        for j, entry in enumerate(row):
            expected = result.d[i] if i == j and i < size else 0
            if entry != expected:
                raise InvariantBreach("U*M*V does not reconstruct diag(d)")
    for i in range(size - 1):
        da, db = result.d[i], result.d[i + 1]
        if da == 0:
            if db != 0:
                raise InvariantBreach("invariant factor chain broken (0 before nonzero)")
        elif db % da != 0:
            raise InvariantBreach(f"invariant factor chain broken: {da} does not divide {db}")
    if any(x < 0 for x in result.d):
        raise InvariantBreach("invariant factors must be nonnegative")
    # det U * det M * det V = prod(d), so when M is square and nonsingular,
    # |det M| = prod(d) forces the integers det U and det V to be +-1.
    if matrix.rows == matrix.cols and all(result.d):
        unimodular = math.prod(result.d) == abs(det_bareiss(matrix))
    else:
        unimodular = abs(det_bareiss(result.U)) == 1 == abs(det_bareiss(result.V))
    if not unimodular:
        raise InvariantBreach("transform determinant is not +-1")


def _product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
