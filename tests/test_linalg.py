import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polygcd import (
    IntMatrix,
    IntPoly,
    MonicIntPoly,
    det_bareiss,
    gcd_over_Z,
    resultant,
    resultant_prs,
    sylvester_matrix,
)
import polygcd.linalg
from polygcd.errors import InputError, InvariantBreach

from support import (
    fraction_det,
    mat_mul,
    naive_add,
    naive_det,
    naive_first_subresultant,
    naive_mul,
    random_monic,
    solve_mod_p,
)

P52 = 8936582237915716659950962253358945635793453256935559


# ---------------------------------------------------------------------------
# IntMatrix basics
# ---------------------------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(InputError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(InputError):
        IntMatrix(0, 1, ())
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    for empty in [], [[]]:
        with pytest.raises(InputError, match="at least one row and one column"):
            IntMatrix.from_rows(empty)


@pytest.mark.parametrize("bad", [1.9, 1.0, "1", Fraction(1), Fraction(3, 2)])
def test_matrix_rejects_non_integer_entries_instead_of_truncating(bad):
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[bad, 2], [3, 4]])
    with pytest.raises(TypeError):
        IntMatrix(1, 2, (5, bad))


@pytest.mark.parametrize("bad", [2.0, "2", Fraction(2)])
def test_matrix_rejects_non_integer_dimensions_at_construction(bad):
    # Not later, in det_bareiss or to_rows.
    with pytest.raises(TypeError):
        IntMatrix(bad, 2, (1, 2, 3, 4))
    with pytest.raises(TypeError):
        IntMatrix(2, bad, (1, 2, 3, 4))


def test_matrix_accepts_bool_and_int_dimensions():
    m = IntMatrix(True, 2, (3, 4))
    assert (m.rows, m.cols) == (1, 2) and type(m.rows) is int
    assert det_bareiss(IntMatrix(1, True, (7,))) == 7


def test_matrix_accepts_bool_and_int_entries():
    m = IntMatrix.from_rows([[True, 2], [False, -(10**40)]])
    assert m.entries == (1, 2, 0, -(10**40))
    assert all(type(v) is int for v in m.entries)


def test_matrix_multiplication_and_identity():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert mat_mul(IntMatrix.identity(2), m) == m
    assert mat_mul(m, IntMatrix.from_rows([[0, 1], [1, 0]])).to_rows() == [[2, 1], [4, 3]]


def test_matrix_printing_is_rows_of_integers():
    m = IntMatrix.from_rows([[1, -10], [3, 4]])
    assert str(m).splitlines() == ["  1 -10", "  3   4"]


# ---------------------------------------------------------------------------
# Sylvester matrix layout
# ---------------------------------------------------------------------------


def test_sylvester_layout_worked_examples():
    f = MonicIntPoly.parse("x^2+3")
    g = MonicIntPoly.parse("x^2+2*x+4")
    assert sylvester_matrix(f, g).to_rows() == [
        [1, 0, 3, 0],
        [0, 1, 0, 3],
        [1, 2, 4, 0],
        [0, 1, 2, 4],
    ]
    assert sylvester_matrix(
        MonicIntPoly.parse("x^2-1"), MonicIntPoly.parse("x^2+1")
    ).to_rows() == [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1]]
    assert sylvester_matrix(
        MonicIntPoly.parse("x+1"), MonicIntPoly.parse("x-1")
    ).to_rows() == [[1, 1], [1, -1]]


def test_sylvester_rejects_degree_zero():
    with pytest.raises(InputError):
        sylvester_matrix(IntPoly((5,)), IntPoly((1, 0)))


def test_sylvester_is_k_plus_l_square_with_mixed_degrees():
    f = MonicIntPoly.parse("x^3+2*x-7")
    g = MonicIntPoly.parse("x^2+5")
    m = sylvester_matrix(f, g)
    assert (m.rows, m.cols) == (5, 5)
    assert m.to_rows() == [
        [1, 0, 2, -7, 0],
        [0, 1, 0, 2, -7],
        [1, 0, 5, 0, 0],
        [0, 1, 0, 5, 0],
        [0, 0, 1, 0, 5],
    ]


# ---------------------------------------------------------------------------
# Determinant
# ---------------------------------------------------------------------------


def test_det_worked_examples():
    assert det_bareiss(IntMatrix.from_rows([[1, 1], [1, -1]])) == -2
    f = MonicIntPoly.parse("x^2+3")
    g = MonicIntPoly.parse("x^2+2*x+4")
    assert det_bareiss(sylvester_matrix(f, g)) == 13
    assert (
        det_bareiss(
            sylvester_matrix(MonicIntPoly.parse("x^2-1"), MonicIntPoly.parse("x^2+1"))
        )
        == 4
    )


def test_det_rejects_non_square():
    with pytest.raises(InputError):
        det_bareiss(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_handles_zero_columns_and_singular_matrices():
    assert det_bareiss(IntMatrix.from_rows([[0, 1], [0, 2]])) == 0
    assert det_bareiss(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert det_bareiss(IntMatrix.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])) == 0
    # needs a row swap to find the pivot
    assert det_bareiss(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det_bareiss(IntMatrix.from_rows([[1]])) == 1


@settings(max_examples=150)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_cofactor_expansion(rows):
    assert det_bareiss(IntMatrix.from_rows(rows)) == naive_det(rows)


# Mostly zeros and units, so that rows skip pivots and unit pivots chain.
@settings(max_examples=150)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_fraction_elimination_on_sparse_matrices(rows):
    assert det_bareiss(IntMatrix.from_rows(rows)) == fraction_det(rows)


# Dense, so that pivots change: columns go four to a pass while six or
# more remain (n >= 6), then one at a time.
@settings(max_examples=150)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-99, 99), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_fraction_elimination_on_dense_matrices(rows):
    assert det_bareiss(IntMatrix.from_rows(rows)) == fraction_det(rows)


def _banded(rng, n):
    width = rng.randint(0, 3)
    return [
        [rng.randint(-9, 9) if abs(i - j) <= width else 0 for j in range(n)]
        for i in range(n)
    ]


def _sylvester_like(rng, n):
    # Leading coefficients other than 1 give pivots pk != prev between the
    # zero-padded rows; a leading 1 gives a chain of unit pivots.
    k = rng.randint(1, n - 1)
    f, g = (
        IntPoly((rng.choice([1, 1, -1, 2, 3]), *(rng.randint(-5, 5) for _ in range(d))))
        for d in (k, n - k)
    )
    return sylvester_matrix(f, g).to_rows()


def _unit_chain(rng, n):
    # Sparse rows with a unit on the diagonal, then dense rows, rows shuffled.
    units = rng.randint(1, n)
    rows = [
        [rng.choice([1, -1]) if j == i else rng.choice([0, 0, 0, rng.randint(-9, 9)]) for j in range(n)]
        for i in range(units)
    ]
    rows += [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - units)]
    rng.shuffle(rows)
    return rows


def _zero_leading_columns(rng, n):
    # A zero column, or a column equal to an earlier one, leaves a pivot
    # column with no nonzero entry on or below the diagonal.
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    j = rng.randrange(n)
    source = rng.randrange(j) if j and rng.random() < 0.5 else None
    for row in rows:
        row[j] = 0 if source is None else row[source]
    return rows


def _row_swaps(rng, n):
    # A triangular matrix with a nonzero diagonal, rows permuted.
    rows = [
        [rng.choice([-3, -2, 2, 5]) if j == i else rng.randint(-9, 9) * (j > i) for j in range(n)]
        for i in range(n)
    ]
    rng.shuffle(rows)
    return rows


def _singular(rng, n):
    # Row t is a combination of two other rows (or of one, twice).
    rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
    t = rng.randrange(n)
    i, j = (rng.choice([x for x in range(n) if x != t]) for _ in range(2))
    rows[t] = [2 * x - 3 * y for x, y in zip(rows[i], rows[j])]
    return rows


def _unit_pivots_then(rng, n, m):
    # Unit pivots in the first m columns leave the rows below untouched;
    # then a_mm != 1 = prev.
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        row[: min(i, m)] = [0] * min(i, m)
        if i < m:
            row[i] = 1
    rows[m][m] = rng.choice([-3, 2, 5])
    return rows


def _zero_pivot_pair(rng, n):
    # Row m+1, or every row below m, is a multiple of row m over columns m
    # and m+1, so the 2x2 minor is 0: a four-column pass at m steps over it,
    # while after a one-column step at m, column m+1 must swap a lower row
    # up or return 0.
    m = rng.randrange(n - 1)
    rows = _unit_pivots_then(rng, n, m)
    for row in rows[m + 1 : n if rng.random() < 0.5 else m + 2]:
        t = rng.choice([0, 1, -2, 3])
        row[m : m + 2] = [t * x for x in rows[m][m : m + 2]]
    return rows


def _singular_pivot_block(rng, n):
    # Six or more columns are left after the unit pivots, but row m+3 is a
    # combination of rows m..m+2 over columns m..m+3 only: the 4x4 pivot
    # block is singular while the matrix need not be, so a one-column step
    # with pk != prev runs.
    n = max(n, 6)
    m = rng.randrange(n - 5)
    rows = _unit_pivots_then(rng, n, m)
    s, t, v = (rng.choice([0, 1, -2, 3]) for _ in range(3))
    rows[m + 3][m : m + 4] = [
        s * x + t * y + v * z for x, y, z in zip(*(row[m : m + 4] for row in rows[m : m + 3]))
    ]
    return rows


def _two_singular_pivot_blocks(rng, n):
    # The construction above at m and at m+5, the second over columns
    # m..m+8, so that past the unit pivots the leading minors of orders 4
    # and 9 are 0.  The block is singular at pass m, so a one-column step
    # runs; unless another minor is 0 by chance (5 of the 150 draws), a
    # four-column pass takes columns m+1..m+4, the block is singular at
    # pass m+5, and another four-column pass follows.  The last row is 0 in
    # columns m..m+5, so each of the three passes before the one at m+6
    # only rescales it to its new pivot, as it goes.
    n = max(n, 6) + 6
    m = rng.randrange(n - 11)
    rows = _unit_pivots_then(rng, n, m)
    for r in (m, m + 5):
        s, t, v = (rng.choice([0, 1, -2, 3]) for _ in range(3))
        rows[r + 3][m : r + 4] = [
            s * x + t * y + v * z for x, y, z in zip(*(row[m : r + 4] for row in rows[r : r + 3]))
        ]
    rows[-1][m : m + 6] = [0] * 6
    return rows


@pytest.mark.parametrize(
    "build",
    [
        _banded,
        _sylvester_like,
        _unit_chain,
        _zero_leading_columns,
        _row_swaps,
        _singular,
        _zero_pivot_pair,
        _singular_pivot_block,
        _two_singular_pivot_blocks,
    ],
)
def test_det_matches_fraction_elimination_on_structured_matrices(build):
    rng = random.Random(build.__name__)
    for _ in range(150):
        rows = build(rng, rng.randint(2, 12))
        expected = fraction_det(rows)
        assert det_bareiss(IntMatrix.from_rows(rows)) == expected, rows
        if build in (_zero_leading_columns, _singular):
            assert expected == 0
        if build in (_row_swaps, _singular_pivot_block, _two_singular_pivot_blocks):
            assert expected != 0


@pytest.mark.parametrize("k, a", [(10, 7), (20, -3), (30, 5), (40, 9), (50, -58)])
def test_det_of_the_stress_family_sylvester_matrix_is_the_prs_resultant(k, a):
    f = MonicIntPoly.parse(f"x^{k}+{a}")
    g = MonicIntPoly.parse(f"(x+1)^{k}+{a}")
    assert det_bareiss(sylvester_matrix(f, g)) == resultant_prs(f, g) != 0


def test_det_divides_once_per_entry_for_each_four_columns(monkeypatch):
    # Strictly diagonally dominant, so every leading minor is nonzero and no
    # row is swapped.  One column per step divides each entry below and right
    # of every pivot, 11^2 + 10^2 + ... + 1^2 = 506 divisions, in no batch.
    # Four columns per pass while six or more remain divide each lower row's
    # tail once per pass, 8 + 4 batches, and with the multipliers u_t and the
    # block's cofactors take 113 + 49 divisions; the last four columns then go
    # one at a time, entry by entry, 9 + 4 + 1 more.
    rng = random.Random(12)
    rows = [[200 if i == j else rng.randint(-9, 9) for j in range(12)] for i in range(12)]
    batches, divisions = [], []
    quotients, div = polygcd.linalg._exact_quotients, polygcd.linalg._exact_div

    def counted_quotients(numerators, denominator):
        result = quotients(numerators, denominator)
        batches.append(denominator)
        divisions.extend([denominator] * len(result))
        return result

    def counted_div(numerator, denominator):
        divisions.append(denominator)
        return div(numerator, denominator)

    monkeypatch.setattr(polygcd.linalg, "_exact_quotients", counted_quotients)
    monkeypatch.setattr(polygcd.linalg, "_exact_div", counted_div)
    assert det_bareiss(IntMatrix.from_rows(rows)) == fraction_det(rows)
    assert len(batches) <= 16
    assert len(divisions) <= 506 // 2


# ---------------------------------------------------------------------------
# Resultants: worked examples and cross-validation
# ---------------------------------------------------------------------------


def test_resultant_worked_examples():
    assert resultant(MonicIntPoly.parse("x^2+3"), MonicIntPoly.parse("(x+1)^2+3")) == 13
    assert resultant(MonicIntPoly.parse("x^2+x+1"), MonicIntPoly.parse("x^2+x+1")) == 0
    r = resultant(MonicIntPoly.parse("x^17+9"), MonicIntPoly.parse("(x+1)^17+9"))
    assert abs(r) == P52
    # sign pinned by both algorithms (and a high-precision root-product check
    # during development): the value is positive.
    assert r == P52


def test_resultant_prs_worked_examples():
    assert resultant_prs(MonicIntPoly.parse("x^2+3"), MonicIntPoly.parse("x^2+2*x+4")) == 13
    assert resultant_prs(MonicIntPoly.parse("x+1"), MonicIntPoly.parse("x-1")) == -2
    assert resultant_prs(MonicIntPoly.parse("x^2-1"), MonicIntPoly.parse("x^2+1")) == 4


def test_resultant_verify_mode_cross_checks():
    f = MonicIntPoly.parse("x^17+9")
    g = MonicIntPoly.parse("(x+1)^17+9")
    assert resultant(f, g, verify=True) == P52


def test_verify_catches_a_bareiss_mismatch(monkeypatch):
    # The PRS is the resultant; Bareiss runs only under verify, as the check.
    det = polygcd.linalg.det_bareiss
    monkeypatch.setattr(polygcd.linalg, "det_bareiss", lambda m: det(m) + 1)
    f = MonicIntPoly.parse("x^2+3")
    g = MonicIntPoly.parse("(x+1)^2+3")
    assert resultant(f, g) == 13
    with pytest.raises(
        InvariantBreach, match="resultant mismatch: bareiss gives 14, prs gives 13"
    ):
        resultant(f, g, verify=True)


@pytest.mark.parametrize("verify", [False, True])
def test_resultant_rejects_degree_zero(verify):
    with pytest.raises(InputError):
        resultant(IntPoly((5,)), MonicIntPoly.parse("x+1"), verify=verify)
    with pytest.raises(InputError):
        resultant(MonicIntPoly.parse("x^2+1"), IntPoly((1,)), verify=verify)


def test_resultant_of_monic_linears_is_g_at_root_of_f():
    # res(x - a, x - b) = g(a) = a - b when both are monic linear.
    for a in range(-4, 5):
        for b in range(-4, 5):
            f = IntPoly((1, -a))
            g = IntPoly((1, -b))
            assert resultant(f, g) == a - b
            assert resultant_prs(f, g) == a - b


def test_bareiss_and_prs_agree_on_many_random_pairs():
    rng = random.Random(2024)
    for _ in range(400):
        f = random_monic(rng)
        g = random_monic(rng)
        assert det_bareiss(sylvester_matrix(f, g)) == resultant_prs(f, g)


def test_prs_handles_degree_collapse_inside_the_remainder_sequence():
    # Remainders whose degree drops by more than one exercise the deficient
    # pseudo-division scaling.
    f = MonicIntPoly((1, 0, 0, 0, 1, 1))  # x^5 + x + 1
    g = MonicIntPoly((1, 0, 0, 0, 0, 1))  # x^5 + 1
    assert det_bareiss(sylvester_matrix(f, g)) == resultant_prs(f, g)
    f2 = MonicIntPoly((1, 0, 0, 0))  # x^3
    g2 = MonicIntPoly((1, 0, 0, 0, 0, 0, 7))  # x^6 + 7
    assert det_bareiss(sylvester_matrix(f2, g2)) == resultant_prs(f2, g2)


# ---------------------------------------------------------------------------
# The first subresultant, from the same walk as the PRS resultant
# ---------------------------------------------------------------------------


def first_subresultant(f, g):
    return polygcd.linalg._subresultant_resultant(list(f.coeffs), list(g.coeffs))[1]


def assert_equal_up_to_sign(got, expected):
    assert got in (expected, tuple(-v for v in expected))


def test_first_subresultant_matches_the_determinants_on_random_pairs():
    rng = random.Random(0x5B1)
    checked = 0
    while checked < 80:
        f, g = random_monic(rng, max_degree=6), random_monic(rng, max_degree=6)
        if min(f.degree, g.degree) < 2:
            continue
        assert_equal_up_to_sign(first_subresultant(f, g), naive_first_subresultant(f, g))
        checked += 1


@pytest.mark.parametrize("g_text", ["x^3+2*x^2-5*x+3", "x^3-7", "x^3+x"])
def test_first_subresultant_across_a_degree_jump(g_text):
    # f = x*g + (u*x + v) makes the chain jump from g (degree 3) to u*x + v,
    # so S_1 = (u/h)^(3 - 2) * (u*x + v) with h = 1, not u*x + v itself.
    g = MonicIntPoly.parse(g_text)
    for u in (-3, -2, 2, 5):
        for v in (-4, 0, 1, 7):
            f = MonicIntPoly(naive_add(g.coeffs + (0,), (u, v)))
            assert_equal_up_to_sign(first_subresultant(f, g), (u * u, u * v))
            assert_equal_up_to_sign(first_subresultant(f, g), naive_first_subresultant(f, g))


@pytest.mark.parametrize(
    "f_text, g_text, expected",
    [
        # from degree 2 straight to a constant, which is S_1 itself
        ("x^2+6*x-6", "x^3+7*x^2-2", (0, 4)),
        # g = x*f + 5: from degree 3 straight to a constant, so S_1 = 0
        ("x^3+2*x+1", "x^4+2*x^2+x+5", (0, 0)),
    ],
)
def test_first_subresultant_when_the_chain_skips_degree_1(f_text, g_text, expected):
    f, g = MonicIntPoly.parse(f_text), MonicIntPoly.parse(g_text)
    assert naive_first_subresultant(f, g) == expected
    assert_equal_up_to_sign(first_subresultant(f, g), expected)


@pytest.mark.parametrize(
    "f_text, g_text, expected",
    [("x^3+2", "x+5", (1, 5)), ("x+5", "x^3+2", (1, 5)), ("x+1", "x", (1, 0))],
)
def test_first_subresultant_of_a_linear_input_is_that_input(f_text, g_text, expected):
    f, g = MonicIntPoly.parse(f_text), MonicIntPoly.parse(g_text)
    assert first_subresultant(f, g) == expected


def test_resultant_zero_iff_common_factor():
    rng = random.Random(5)
    zero_cases = nonzero_cases = 0
    for _ in range(300):
        f = random_monic(rng, max_degree=3)
        g = random_monic(rng, max_degree=3)
        r = resultant(f, g)
        common = gcd_over_Z(f, g)
        if r == 0:
            zero_cases += 1
            assert common.degree >= 1
        else:
            nonzero_cases += 1
            assert common.degree == 0
    # make sure both branches were exercised
    planted = MonicIntPoly.parse("(x+2)*(x+3)")
    planted2 = MonicIntPoly.parse("(x+2)*(x-5)")
    assert resultant(planted, planted2) == 0
    assert gcd_over_Z(planted, planted2) == IntPoly((1, 2))
    assert nonzero_cases > 0


# ---------------------------------------------------------------------------
# Structural properties from the corank/row-space characterization
# ---------------------------------------------------------------------------


def test_row_space_contains_combinations_phi_f_plus_psi_g():
    # Over F_p, the coefficient vector of phi*f + psi*g (deg phi < l,
    # deg psi < k) must be solvable as x * M = c.
    rng = random.Random(99)
    for p in (2, 3, 5, 13):
        for _ in range(25):
            f = random_monic(rng, max_degree=4)
            g = random_monic(rng, max_degree=4)
            k, l = f.degree, g.degree
            m = sylvester_matrix(f, g)
            phi = IntPoly(tuple(rng.randint(0, p - 1) for _ in range(l)))
            psi = IntPoly(tuple(rng.randint(0, p - 1) for _ in range(k)))
            combo = IntPoly(naive_add(naive_mul(phi.coeffs, f.coeffs), naive_mul(psi.coeffs, g.coeffs)))
            target = [0] * (k + l)
            for i, c in enumerate(combo.coeffs):
                target[(k + l) - (combo.degree + 1) + i] = c % p
            solution = solve_mod_p(m.to_rows(), target, p)
            assert solution is not None


def test_sylvester_times_power_column_is_componentwise_divisible():
    # M * (n^(k+l-1), ..., n, 1)^T has every coordinate divisible by f(n)
    # (first l rows) or g(n) (last k rows); hence by gcd(f(n), g(n)), which
    # therefore divides det M.
    rng = random.Random(17)
    for _ in range(60):
        f = random_monic(rng, max_degree=4)
        g = random_monic(rng, max_degree=4)
        k, l = f.degree, g.degree
        m = sylvester_matrix(f, g)
        r = resultant(f, g)
        for n in range(-6, 7):
            powers = [n**e for e in range(k + l - 1, -1, -1)]
            product = [
                sum(m.at(i, j) * powers[j] for j in range(k + l))
                for i in range(k + l)
            ]
            fn, gn = f.evaluate(n), g.evaluate(n)
            for i, coord in enumerate(product):
                expected = fn if i < l else gn
                if expected == 0:
                    assert coord == 0
                else:
                    assert coord % expected == 0
            d = math.gcd(fn, gn)
            if d:
                assert r % d == 0


def test_resultant_prs_zero_on_shared_factor():
    p = MonicIntPoly.parse("x^2+x+1")
    assert resultant_prs(p, p) == 0
    f = MonicIntPoly.parse("(x+2)*(x+3)")
    g = MonicIntPoly.parse("(x+2)*(x-5)")
    assert resultant_prs(f, g) == 0


# ---------------------------------------------------------------------------
# Differential tests against sympy
# ---------------------------------------------------------------------------


def test_resultant_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(0x5E5)
    for _ in range(600):
        f, g = random_monic(rng, max_degree=6), random_monic(rng, max_degree=6)
        k, l = f.degree, g.degree
        if k >= l:
            expected = sympy.resultant(sympy.Poly(f.coeffs, x), sympy.Poly(g.coeffs, x))
        else:
            # Res(f, g) = (-1)^(kl) Res(g, f).  sympy's own (f, g) order differs
            # in sign from the Sylvester determinant on 60 of these 266 pairs.
            swapped = sympy.resultant(sympy.Poly(g.coeffs, x), sympy.Poly(f.coeffs, x))
            expected = (-1) ** (k * l) * swapped
        assert resultant(f, g) == expected, (f, g)


def sympy_first_subresultant(f, g):
    # The rows x^i * f (i < l - 1) and x^j * g (j < k - 1), multiplied out by
    # sympy, in the basis x^(k+l-2), ..., x^0; s1 and s0 are the determinants
    # of their first k+l-3 columns with the column of x^1 or of x^0.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    k, l = f.degree, g.degree
    width = k + l - 1
    products = [sympy.Poly(f.coeffs, x) * sympy.Poly(x**i, x) for i in range(l - 1)]
    products += [sympy.Poly(g.coeffs, x) * sympy.Poly(x**j, x) for j in range(k - 1)]
    m = sympy.Matrix([[0] * (width - 1 - p.degree()) + p.all_coeffs() for p in products])
    minors = (m[:, : width - 2].row_join(m[:, col]) for col in (width - 2, width - 1))
    return tuple(int(minor.det(method="domain-ge")) for minor in minors)


def test_first_subresultant_matches_sympy_determinants():
    pytest.importorskip("sympy")
    rng = random.Random(0x5E6)
    checked = 0
    while checked < 400:
        f, g = random_monic(rng, max_degree=6), random_monic(rng, max_degree=6)
        if min(f.degree, g.degree) < 2:
            continue
        assert_equal_up_to_sign(first_subresultant(f, g), sympy_first_subresultant(f, g))
        checked += 1


def test_first_subresultant_on_a_defective_chain_matches_sympy_determinants():
    # The chain drops from degree 3 to 1 here; sympy.subresultants lists
    # 3x + 21 for that step, while the determinant subresultant is 9x + 63.
    f = MonicIntPoly.parse("x^4+5*x^3-5*x^2+5*x-3")
    g = MonicIntPoly.parse("x^3-x^2+x-4")
    assert_equal_up_to_sign(sympy_first_subresultant(f, g), (9, 63))
    assert_equal_up_to_sign(first_subresultant(f, g), (9, 63))
