"""Smith normal form of integer matrices with unimodular transforms.

smith_normal_form(M) produces invariant factors d_1 | d_2 | ... (all
nonnegative) together with square unimodular U, V such that U*M*V is the
diagonal matrix of the d_i.  Every call re-verifies U*M*V = diag(d) entry
by entry and |det U| = |det V| = 1 before the result is returned: for a
square M with every d_i != 0 from prod(d) = |det M| (then det U * det V
= +-1), otherwise from the Bareiss determinants of U and V.  A failure
raises InvariantBreach since it can only mean a bug.

The algorithm is classic elimination to a diagonal using gcd row/column
combinations, followed by a divisibility-fixing pass that replaces each
offending diagonal pair (a, b) by (gcd, lcm) via unimodular moves.  Step
t takes its pivot from column t, the smallest nonzero entry at or below
row t, and searches the whole trailing submatrix only when that part of
the column is zero: on Sylvester matrices this keeps the entries of U and
V smaller than a search of the whole submatrix does.  U and V are not
unique, d is.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvariantBreach
from .linalg import IntMatrix, det_bareiss
from .ntheory import ext_gcd

__all__ = ["SnfResult", "smith_normal_form"]


class SnfResult(NamedTuple):
    """Invariant factors d plus unimodular transforms with U*M*V = diag(d)."""

    d: tuple[int, ...]
    U: IntMatrix
    V: IntMatrix


def smith_normal_form(matrix: IntMatrix) -> SnfResult:
    """Smith normal form of any rectangular integer matrix."""
    rows, cols = matrix.rows, matrix.cols
    a = matrix.to_rows()
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    size = min(rows, cols)

    for t in range(size):
        pivot = _smallest_nonzero(a, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            _swap_cols(a, t, pj)
            _swap_cols(v, t, pj)
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    _clear_column_entry(a, u, t, i)
            for j in range(t + 1, cols):
                if a[t][j]:
                    _clear_row_entry(a, v, t, j)
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                break

    d = [a[i][i] for i in range(size)]
    for i in range(size):
        if d[i] < 0:
            d[i] = -d[i]
            u[i] = [-x for x in u[i]]

    # Divisibility fix: after the pass over pair (i, j), d[i] divides every
    # later entry, and later passes only shrink d[i] further.
    for i in range(size):
        for j in range(i + 1, size):
            da, db = d[i], d[j]
            if da == 0 and db == 0:
                continue
            if da != 0 and db % da == 0:
                continue
            g, x, y = ext_gcd(da, db)
            _combine_rows(u, i, j, x, y, -(db // g), da // g)
            _combine_cols(v, i, j, 1, -(y * db // g), 1, x * da // g)
            d[i], d[j] = g, da * db // g

    result = SnfResult(
        tuple(d), IntMatrix.from_rows(u), IntMatrix.from_rows(v)
    )
    _verify(matrix, result)
    return result


def _smallest_nonzero(a, t, rows, cols):
    # Position of the smallest |entry| != 0 in column t at or below row t;
    # only when that is all zero, the smallest in the trailing submatrix.
    for columns in ((t,), range(t + 1, cols)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in columns if a[i][j]]
        if entries:
            return min(entries)[1:]
    return None


def _swap_cols(mat, j1, j2):
    for row in mat:
        row[j1], row[j2] = row[j2], row[j1]


def _combine_rows(mat, i, j, w, x, y, z):
    # rows i, j <- (w*row_i + x*row_j, y*row_i + z*row_j); wz - xy = +-1.
    ri, rj = mat[i], mat[j]
    for k in range(len(ri)):
        ri[k], rj[k] = w * ri[k] + x * rj[k], y * ri[k] + z * rj[k]


def _combine_cols(mat, i, j, w, x, y, z):
    # cols i, j <- (w*col_i + y*col_j, x*col_i + z*col_j) for column matrix
    # [[w, x], [y, z]] applied on the right; wz - xy = +-1.
    for row in mat:
        row[i], row[j] = w * row[i] + y * row[j], x * row[i] + z * row[j]


def _clear_column_entry(a, u, t, i):
    # Zero a[i][t] with a unimodular combination of rows t and i.
    pivot, entry = a[t][t], a[i][t]
    if pivot != 0 and entry % pivot == 0:
        q = entry // pivot
        for mat in (a, u):
            rt, ri = mat[t], mat[i]
            for k in range(len(ri)):
                ri[k] -= q * rt[k]
        return
    g, x, y = ext_gcd(pivot, entry)
    w, xx, yy, zz = x, y, -(entry // g), pivot // g
    _combine_rows(a, t, i, w, xx, yy, zz)
    _combine_rows(u, t, i, w, xx, yy, zz)


def _clear_row_entry(a, v, t, j):
    # Zero a[t][j] with a unimodular combination of columns t and j.
    pivot, entry = a[t][t], a[t][j]
    if pivot != 0 and entry % pivot == 0:
        q = entry // pivot
        for mat in (a, v):
            for row in mat:
                row[j] -= q * row[t]
        return
    g, x, y = ext_gcd(pivot, entry)
    # Column matrix [[x, -(entry//g)], [y, pivot//g]]: col_t <- x*col_t + y*col_j.
    _combine_cols(a, t, j, x, -(entry // g), y, pivot // g)
    _combine_cols(v, t, j, x, -(entry // g), y, pivot // g)


def _verify(matrix: IntMatrix, result: SnfResult) -> None:
    product = result.U @ matrix @ result.V
    size = len(result.d)
    for i in range(product.rows):
        for j in range(product.cols):
            expected = result.d[i] if i == j and i < size else 0
            if product.at(i, j) != expected:
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
