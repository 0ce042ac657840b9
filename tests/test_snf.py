import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import polygcd.snf
from polygcd import (
    IntMatrix,
    MonicIntPoly,
    SnfResult,
    det_bareiss,
    resultant_prs,
    smith_normal_form,
    sylvester_matrix,
)
from polygcd.errors import InvariantBreach

from support import (
    fraction_det,
    invariant_factors,
    mat_mul,
    minor_gcd_products,
    naive_det,
    random_matrix,
    rank_mod_p,
    three_cofactor_certificate,
)


def assert_snf_contract(matrix, result):
    # reconstruction
    product = mat_mul(mat_mul(result.U, matrix), result.V)
    size = min(matrix.rows, matrix.cols)
    for i in range(product.rows):
        for j in range(product.cols):
            expected = result.d[i] if i == j and i < size else 0
            assert product.at(i, j) == expected
    # divisibility chain, nonnegative entries
    for a, b in zip(result.d, result.d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(x >= 0 for x in result.d)
    # unimodular transforms
    assert abs(fraction_det(result.U.to_rows())) == 1
    assert abs(fraction_det(result.V.to_rows())) == 1


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


def test_smith_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    result = smith_normal_form(m)
    assert result.d == (1, 6)
    assert_snf_contract(m, result)
    # oracle: gcd of entries is 1, d1*d2 = |det| = 6
    assert minor_gcd_products(m) == [1, 6]


def test_smith_identity():
    assert invariant_factors(IntMatrix.identity(3)) == (1, 1, 1)


def test_smith_sylvester_prime_resultant():
    m = sylvester_matrix(MonicIntPoly.parse("x^2+3"), MonicIntPoly.parse("x^2+2*x+4"))
    result = smith_normal_form(m)
    assert result.d == (1, 1, 1, 13)
    assert_snf_contract(m, result)
    assert minor_gcd_products(m) == [1, 1, 1, 13]


def test_smith_sylvester_example_4():
    m = sylvester_matrix(MonicIntPoly.parse("x^2-1"), MonicIntPoly.parse("x^2+1"))
    assert invariant_factors(m) == (1, 1, 2, 2)
    assert minor_gcd_products(m) == [1, 1, 2, 4]


def test_smith_zero_matrix():
    m = IntMatrix.from_rows([[0, 0], [0, 0]])
    result = smith_normal_form(m)
    assert result.d == (0, 0)
    assert_snf_contract(m, result)


def test_smith_2x2_worked_example():
    m = IntMatrix.from_rows([[1, 1], [1, -1]])
    assert invariant_factors(m) == (1, 2)


def test_smith_rectangular_shapes():
    wide = IntMatrix.from_rows([[2, 4, 6]])
    tall = IntMatrix.from_rows([[2], [4], [6]])
    assert smith_normal_form(wide).d == (2,)
    assert smith_normal_form(tall).d == (2,)
    assert_snf_contract(wide, smith_normal_form(wide))
    assert_snf_contract(tall, smith_normal_form(tall))


def test_smith_needs_divisibility_fix():
    # Diagonalizes to (2, 3) before the gcd/lcm pass.
    m = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 10]])
    result = smith_normal_form(m)
    assert result.d == (1, 2, 30)
    assert_snf_contract(m, result)


@pytest.mark.parametrize(
    "rows, t, pivot",
    [
        ([[5, 1], [-3, 2]], 0, (1, 0)),  # the 1 lies outside column 0
        ([[3, 1], [-3, 2]], 0, (0, 0)),  # a tie goes to the upper row
        ([[7, 0, 0], [0, 0, 4], [0, 0, -2]], 1, (2, 2)),  # column 1 is zero below row 1
        ([[1, 0], [0, 0]], 1, None),
    ],
)
def test_pivot_is_the_smallest_entry_of_the_current_column(rows, t, pivot):
    assert polygcd.snf._smallest_nonzero(rows, t, len(rows), len(rows[0])) == pivot


# ---------------------------------------------------------------------------
# The self-check: |det U| = |det V| = 1 from det M, or from U and V
# ---------------------------------------------------------------------------


def _diag(*entries):
    n = len(entries)
    return IntMatrix.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


# Each result reconstructs diag(d) and has a valid chain, but U or V has
# determinant 2.
NOT_UNIMODULAR = {
    "square, det M": (_diag(1, 1), SnfResult((1, 2), _diag(1, 2), _diag(1, 1))),
    "square, det M, bad V": (_diag(1, 1), SnfResult((1, 2), _diag(1, 1), _diag(1, 2))),
    "singular": (_diag(1, 0), SnfResult((1, 0), _diag(1, 2), _diag(1, 1))),
    "rectangular": (
        IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),
        SnfResult((1, 1), _diag(1, 1), _diag(1, 1, 2)),
    ),
}


@pytest.mark.parametrize("case", NOT_UNIMODULAR)
def test_verify_rejects_a_transform_of_determinant_2(case):
    matrix, result = NOT_UNIMODULAR[case]
    product = mat_mul(mat_mul(result.U, matrix), result.V)
    assert product.to_rows() == [
        [result.d[i] if i == j else 0 for j in range(product.cols)]
        for i in range(product.rows)
    ]
    with pytest.raises(InvariantBreach, match="transform determinant is not"):
        polygcd.snf._verify(matrix, result)


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4]], [[2, 4, 6], [1, 0, 3]], [[1], [2], [3]]])
def test_verify_rejects_a_result_that_does_not_reconstruct_diag_d(rows):
    matrix = IntMatrix.from_rows(rows)
    result = smith_normal_form(matrix)
    wrong = result._replace(d=(result.d[0] + 1,) + result.d[1:])
    with pytest.raises(InvariantBreach, match="does not reconstruct"):
        polygcd.snf._verify(matrix, wrong)


def count_eliminations(monkeypatch):
    # Records (name, matrix) for each Bareiss pass that smith_normal_form runs.
    seen = []
    for name in ("_bareiss", "det_bareiss"):
        run = getattr(polygcd.snf, name)
        monkeypatch.setattr(polygcd.snf, name, lambda m, name=name, run=run: seen.append((name, m)) or run(m))
    return seen


@pytest.mark.parametrize(
    "rows, determinants_of",
    [
        ([[2, 1], [4, 7]], "_bareiss(M)"),
        ([[2, 4], [1, 2]], "det_bareiss(U), det_bareiss(V)"),
        ([[2, 4, 6], [1, 0, 3]], "det_bareiss(U), det_bareiss(V)"),
    ],
    ids=["square", "singular", "rectangular"],
)
def test_verify_takes_det_m_only_when_m_is_square_and_nonsingular(monkeypatch, rows, determinants_of):
    matrix = IntMatrix.from_rows(rows)
    seen = count_eliminations(monkeypatch)
    result = smith_normal_form(matrix)
    names = {id(matrix): "M", id(result.U): "U", id(result.V): "V"}
    assert ", ".join(f"{name}({names[id(m)]})" for name, m in seen) == determinants_of


@pytest.mark.parametrize("transforms", [True, False])
@pytest.mark.parametrize(
    "rows, passes_over_m",
    [
        ([[2, 1], [4, 7]], (1, 1)),  # certified: gcd(10, 1) = 1
        ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], (1, 1)),  # declined: d = (1, 2, 6)
        ([[2, 4], [1, 2]], (0, 1)),  # singular: U and V prove unimodularity
    ],
    ids=["certified", "declined", "singular"],
)
def test_smith_normal_form_eliminates_a_square_m_at_most_once(monkeypatch, rows, passes_over_m, transforms):
    # Once when M is nonsingular, whether the certificate answers or not; a
    # singular M is eliminated only by the certificate's pass.
    matrix = IntMatrix.from_rows(rows)
    d = invariant_factors(matrix)
    seen = count_eliminations(monkeypatch)
    assert smith_normal_form(matrix, transforms=transforms).d == d
    assert sum(m is matrix for _, m in seen) == passes_over_m[not transforms]


@pytest.mark.parametrize("a", [5, -7])
def test_snf_of_a_34x34_sylvester_matrix_with_a_2_mod_3(a):
    # These inputs give U and V entries of 12 000 to 43 000 bits.
    f = MonicIntPoly.parse(f"x^17+{a}")
    g = MonicIntPoly.parse(f"(x+1)^17+{a}")
    result = smith_normal_form(sylvester_matrix(f, g))
    assert math.prod(result.d) == abs(resultant_prs(f, g)) != 0


# ---------------------------------------------------------------------------
# transforms=False: the cyclic certificate from det M and an (n-1)-minor
# ---------------------------------------------------------------------------


class Eliminated(Exception):
    pass


def certificate(rows):
    # d when smith_normal_form(transforms=False) proves it from the Bareiss
    # pass alone, None when it falls back to the elimination.
    def eliminate(*args):
        raise Eliminated

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polygcd.snf, "_smallest_nonzero", eliminate)
        try:
            return smith_normal_form(IntMatrix.from_rows(rows), transforms=False).d
        except Eliminated:
            return None


def assert_same_d_without_transforms(matrix):
    result = smith_normal_form(matrix, transforms=False)
    assert result.d == smith_normal_form(matrix).d
    assert result.U is None and result.V is None


# Few distinct entries, with small primes among them, so that non-cyclic
# forms and declined certificates come up; half the draws are singular.
@settings(max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, -6, 9]), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.booleans(),
        )
    )
)
def test_d_without_transforms_equals_d_of_the_elimination(case):
    rows, singular = case
    if singular and len(rows) > 1:  # one row a multiple of another
        rows[-1] = [2 * x for x in rows[0]]
    assert_same_d_without_transforms(IntMatrix.from_rows(rows))


@pytest.mark.parametrize(
    "rows",
    [
        [[-7]],
        [[2, 4, 6], [1, 0, 3]],
        [[2], [4], [6]],
        [[2, 0, 0], [0, 2, 0], [0, 0, 3]],
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0], [0, 1]],
        [[2, 4], [1, 2]],
        sylvester_matrix(MonicIntPoly.parse("x^17+9"), MonicIntPoly.parse("(x+1)^17+9")).to_rows(),
    ],
    ids=["1x1", "wide", "tall", "diag(2,2,3)", "cyclic, declined", "cyclic, certified", "singular", "x^17+9"],
)
def test_d_without_transforms_on_fixed_matrices(rows):
    assert_same_d_without_transforms(IntMatrix.from_rows(rows))


# No case needs a row swap, so the block holds the cofactors of M itself,
# and the named one is the first of the four that is coprime to |det M|.
@pytest.mark.parametrize(
    "rows, coprime, d",
    [
        ([[5, 3], [2, 1]], 0, (1, 1)),  # |det| = 1
        ([[3, -2, -2], [-2, 1, -2], [2, -2, 4]], 0, (1, 1, 12)),
        ([[1, 3, 1], [0, 6, 1], [6, -2, 2]], 1, (1, 1, 4)),
        ([[3, 2, 3], [2, 6, -2], [0, 3, 4]], 2, (1, 1, 92)),
        ([[1, 4, 1], [-2, 2, 0], [2, -2, 1]], 3, (1, 1, 10)),
        ([[2, 1], [2, 2]], 1, (1, 2)),
        ([[2, 0], [1, 1]], 2, (1, 2)),
        ([[2, 0], [0, 1]], 3, (1, 2)),  # 2 divides det and every other entry
    ],
    ids=[
        "|det| = 1",
        "(n, n)",
        "(n, n-1)",
        "(n-1, n)",
        "(n-1, n-1)",
        "2x2 (n, n-1)",
        "2x2 (n-1, n)",
        "2x2 (n-1, n-1)",
    ],
)
def test_certificate_takes_each_minor_of_the_trailing_block(rows, coprime, d):
    n, det = len(rows), naive_det(rows)
    cofactors = [
        naive_det([row[:j] + row[j + 1 :] for r, row in enumerate(rows) if r != i])
        for i, j in ((n - 1, n - 1), (n - 1, n - 2), (n - 2, n - 1), (n - 2, n - 2))
    ]
    assert [t for t, c in enumerate(cofactors) if math.gcd(det, c) == 1][:1] == [coprime]
    assert certificate(rows) == d


def test_certificate_answers_the_34x34_sylvester_matrix_without_elimination():
    f, g = MonicIntPoly.parse("x^17+9"), MonicIntPoly.parse("(x+1)^17+9")
    m = sylvester_matrix(f, g)
    expected = (1,) * 33 + (abs(resultant_prs(f, g)),)
    assert certificate(m.to_rows()) == expected


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0, 0], [0, 2, 0], [0, 0, 3]],  # d = (1, 2, 6) is not cyclic
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],  # cyclic, but 2 divides det and the block's four minors
        [[2, 4], [1, 2]],  # singular
        [[2, 4, 6], [1, 0, 3]],  # not square
        [[6]],  # 1x1
    ],
)
def test_certificate_declines(rows):
    assert certificate(rows) is None


# Dense and sparse, 2- to 9-square: on this sample the trailing block
# certifies all that the rule of an earlier version, the cofactors of
# entries (n, n), (n-1, n) and (n, n-1) in turn, certifies, with the
# elimination's d.  Not always: when the pivoting lifts one of the last two
# rows, the block holds other minors, and [[0, -3, -4], [8, 0, 0],
# [5, -8, 0]] is certified by the old (n-1, n) cofactor alone.
def test_certificate_certifies_all_that_three_fixed_cofactors_certify():
    rng = random.Random(32)
    only_the_block = 0
    for _ in range(320):
        n, zeros = rng.randint(2, 9), rng.choice([0, 0.3, 0.6, 0.85])
        rows = [[0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        old, new = three_cofactor_certificate(rows), certificate(rows)
        if old is not None:
            assert new == old
        if new is not None:
            assert new == invariant_factors(IntMatrix.from_rows(rows))
            only_the_block += old is None
    assert only_the_block > 0


# ---------------------------------------------------------------------------
# Randomized contract + oracle comparison
# ---------------------------------------------------------------------------


def test_smith_random_matrices_match_minor_gcd_oracle():
    rng = random.Random(31337)
    for _ in range(300):
        m = random_matrix(rng, max_dim=5, bound=9)
        result = smith_normal_form(m)
        assert_snf_contract(m, result)
        products = minor_gcd_products(m)
        acc = 1
        for d_i, expected in zip(result.d, products):
            if acc == 0:
                assert d_i == 0 and expected == 0
                continue
            acc *= d_i
            assert acc == expected
        if m.rows == m.cols:
            assert math.prod(result.d) == abs(det_bareiss(m))


# ---------------------------------------------------------------------------
# Invariant factors vs corank over F_p
# ---------------------------------------------------------------------------


def test_count_of_factors_divisible_by_p_equals_corank():
    rng = random.Random(55)
    primes = (2, 3, 5, 7)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        d = invariant_factors(m)
        for p in primes:
            divisible = sum(1 for x in d if x % p == 0)
            corank = n - rank_mod_p(m, p)
            assert divisible == corank


def test_at_most_p_minus_1_factors_divisible_when_no_p_power_p():
    rng = random.Random(56)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        det = det_bareiss(m)
        if det == 0:
            continue
        d = invariant_factors(m)
        for p in (2, 3, 5):
            if det % p**p != 0:
                assert sum(1 for x in d if x % p == 0) <= p - 1
        checked += 1


def test_exactly_one_factor_divisible_when_p_divides_det_once():
    rng = random.Random(57)
    found = 0
    while found < 80:
        n = rng.randint(2, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        det = det_bareiss(m)
        if det == 0:
            continue
        for p in (2, 3, 5, 7):
            if det % p == 0 and det % (p * p) != 0:
                d = invariant_factors(m)
                assert sum(1 for x in d if x % p == 0) == 1
                assert d[-1] % p == 0
                found += 1


# ---------------------------------------------------------------------------
# Differential test against sympy
# ---------------------------------------------------------------------------


def _sympy_matrices():
    family = [
        sylvester_matrix(MonicIntPoly.parse(f"x^{k}{a:+d}"), MonicIntPoly.parse(f"(x+1)^{k}{a:+d}"))
        for k in range(2, 13)
        for a in (-2, 1, 9)
    ]
    rng = random.Random(1914)
    return family + [random_matrix(rng, max_dim=6, bound=20) for _ in range(100)]


def test_nonzero_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

    for m in _sympy_matrices():
        expected = sympy_invariant_factors(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
        expected = [int(x) for x in expected if x]
        assert [x for x in smith_normal_form(m).d if x] == expected
        assert [x for x in smith_normal_form(m, transforms=False).d if x] == expected
