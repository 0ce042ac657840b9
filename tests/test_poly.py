import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from polygcd import IntPoly, MonicIntPoly, gcd_over_Z, parse_poly
from polygcd.errors import InputError, ParseError
from polygcd.poly import MAX_COEFF_BITS, MAX_DEGREE

from support import (
    naive_gcd_over_Q,
    naive_mul,
    poly_divides_over_Z,
    primitive_part,
    reduce_mod,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_simple_quadratic():
    assert parse_poly("x^2+3").coeffs == (1, 0, 3)


def test_parse_up_to_the_degree_cap():
    assert MAX_DEGREE == 100
    assert parse_poly("x^100").degree == 100
    assert parse_poly("(x^10)^10").degree == 100
    assert parse_poly("x^50*x^50 - x^100").coeffs == ()


def test_parse_up_to_the_coefficient_cap():
    # Every constant Python prints by default (at most 4300 digits) can be
    # written as a power or a product below the cap.
    assert MAX_COEFF_BITS >= (10**4300 - 1).bit_length()
    assert parse_poly("10^4299").coeffs == (10**4299,)
    assert parse_poly("3^9000").coeffs == (3**9000,)
    assert parse_poly(f"2^{MAX_COEFF_BITS}").coeffs == (2**MAX_COEFF_BITS,)
    assert parse_poly("(2^8192)*(2^8192)").coeffs == (2**MAX_COEFF_BITS,)
    # Bases whose coefficients sum to at most 1 in absolute value never grow.
    assert parse_poly("x+1^99999999999").coeffs == (1, 1)
    assert parse_poly("x+(-1)^99999999999").coeffs == (1, -1)
    assert parse_poly("x+0^99999999999").coeffs == (1, 0)
    assert parse_poly("x + (2^16000 - 2^16000 + 1)^99999999999").coeffs == (1, 1)


def test_parse_shifted_quadratic_expands():
    assert parse_poly("(x+1)^2+3").coeffs == (1, 2, 4)


def test_parse_degree_17_expansion_matches_repeated_multiplication():
    # Oracle: expand (x+1)^17 by naive repeated multiplication, then add 9.
    acc = [1]
    for _ in range(17):
        acc = naive_mul(acc, [1, 1])
    acc[-1] += 9
    parsed = parse_poly("(x+1)^17+9")
    assert parsed.coeffs == tuple(acc)
    assert parsed.degree == 17
    assert parsed.coeffs[-1] == 10
    assert all(parsed.coeffs[i] == math.comb(17, i) for i in range(17))


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("x", (1, 0)),
        ("-x", (-1, 0)),
        ("0", ()),
        ("7", (7,)),
        ("-  3", (-3,)),
        ("2*x^3 - x + 5", (2, 0, -1, 5)),
        ("(x-2)*(x+2)", (1, 0, -4)),
        ("x*x*x", (1, 0, 0, 0)),
        ("2^3", (8,)),
        ("x^0", (1,)),
        ("-(x+1)^2", (-1, -2, -1)),
        ("3-- 2", (5,)),
    ],
)
def test_parse_grammar_corners(text, coeffs):
    assert parse_poly(text).coeffs == coeffs


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("x^", 2),
        ("x^-2", 2),
        ("x^(2)", 2),
        ("x +", 3),
        ("(x+1", 4),
        ("x y", 2),
        ("3 @ 4", 2),
        ("x*)", 2),
        # integer literals are ASCII digits only
        ("x^\u0663+1", 2),  # ARABIC-INDIC DIGIT THREE
        ("x^2+\uff11", 4),  # FULLWIDTH DIGIT ONE
        ("x^\u00b2+1", 2),  # SUPERSCRIPT TWO
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse_poly(text)
    assert excinfo.value.position == position


def coeff_lists():
    return st.lists(st.integers(-99, 99), min_size=0, max_size=7)


@given(coeff_lists())
def test_parse_pretty_print_round_trip(coeffs):
    poly = IntPoly(tuple(coeffs))
    assert parse_poly(str(poly)) == poly


# ---------------------------------------------------------------------------
# IntPoly / MonicIntPoly construction and arithmetic
# ---------------------------------------------------------------------------


def test_leading_zeros_are_normalized():
    assert IntPoly((0, 0, 1, 2)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly(()).is_zero()
    with pytest.raises(InputError, match="the zero polynomial has no leading coefficient"):
        IntPoly(()).leading


@pytest.mark.parametrize("bad", [3.99, 3.0, "3", Fraction(3), Fraction(7, 2)])
def test_non_integer_coefficients_raise_instead_of_truncating(bad):
    # Truncation would turn x^2 + 3.99 into x^2 + 3, the r = 13 example.
    with pytest.raises(TypeError):
        IntPoly((1, 0, bad))
    with pytest.raises(TypeError):
        MonicIntPoly((1, 0, bad))


def test_bool_and_int_coefficients_are_accepted():
    poly = IntPoly((True, False, 3))
    assert poly.coeffs == (1, 0, 3)
    assert all(type(c) is int for c in poly.coeffs)
    assert MonicIntPoly((True, 10**40)).coeffs == (1, 10**40)


def test_monic_rejects_constants_and_nonmonic():
    with pytest.raises(InputError):
        MonicIntPoly((5,))
    with pytest.raises(InputError):
        MonicIntPoly((2, 1))
    with pytest.raises(InputError, match="leading coefficient is -1"):
        MonicIntPoly((-1, 0, 1))


def test_monic_equals_plain_poly_with_same_coeffs():
    assert MonicIntPoly((1, 2, 4)) == IntPoly((1, 2, 4))
    assert hash(MonicIntPoly((1, 2, 4))) == hash(IntPoly((1, 2, 4)))


@given(coeff_lists(), coeff_lists())
def test_arithmetic_matches_naive_oracles(a, b):
    # The parser is what expands sums, products and powers.
    pa, pb = IntPoly(tuple(a)), IntPoly(tuple(b))
    total, difference, negated, product = (
        parse_poly(text) for text in (f"({pa})+({pb})", f"({pa})-({pb})", f"-({pa})", f"({pa})*({pb})")
    )
    assert product.coeffs == IntPoly(tuple(naive_mul(pa.coeffs, pb.coeffs))).coeffs
    for n in (-3, 0, 2, 11):
        assert total.evaluate(n) == pa.evaluate(n) + pb.evaluate(n)
        assert difference.evaluate(n) == pa.evaluate(n) - pb.evaluate(n)
        assert negated.evaluate(n) == -pa.evaluate(n)
        assert product.evaluate(n) == pa.evaluate(n) * pb.evaluate(n)
    acc = [1]
    for k in range(4):
        assert parse_poly(f"({pa})^{k}") == IntPoly(tuple(acc))
        acc = naive_mul(acc, pa.coeffs)


def test_power_matches_repeated_multiplication():
    acc = [1]
    for e in range(8):
        assert parse_poly(f"(x + 1)^{e}") == IntPoly(tuple(acc))
        acc = naive_mul(acc, [1, 1])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_worked_values():
    assert parse_poly("x^2+3").evaluate(6) == 39
    assert parse_poly("(x+1)^2+3").evaluate(6) == 52


def test_eval_x2_x_1_is_odd_on_small_range():
    p = parse_poly("x^2+x+1")
    assert all(p.evaluate(n) % 2 == 1 for n in range(11))


@given(coeff_lists(), st.integers(-10**6, 10**6))
def test_eval_is_exact_for_large_points(coeffs, n):
    p = IntPoly(tuple(coeffs))
    expected = sum(c * n ** (p.degree - i) for i, c in enumerate(p.coeffs))
    assert p.evaluate(n) == expected


# ---------------------------------------------------------------------------
# reduce_mod
# ---------------------------------------------------------------------------


def test_reduce_mod_worked_examples():
    assert reduce_mod(parse_poly("x^2+3"), 13) == (1, 0, 3)
    assert reduce_mod(parse_poly("x^2+2*x+4"), 2) == (1, 0, 0)
    assert reduce_mod(parse_poly("x^2-1"), 2) == (1, 0, 1)


def test_reduce_mod_rejects_small_modulus():
    with pytest.raises(InputError):
        reduce_mod(parse_poly("x"), 1)


@given(coeff_lists(), st.integers(-50, 50), st.integers(2, 97))
def test_eval_commutes_with_reduction(coeffs, n, m):
    p = IntPoly(tuple(coeffs))
    reduced = reduce_mod(p, m)
    acc = 0
    for c in reduced:
        acc = (acc * (n % m) + c) % m
    assert p.evaluate(n) % m == acc


# ---------------------------------------------------------------------------
# gcd over Z[x]
# ---------------------------------------------------------------------------


def test_gcd_of_poly_with_itself():
    p = parse_poly("x^2+x+1")
    assert gcd_over_Z(p, p) == p


def test_gcd_of_coprime_pair_is_one():
    assert gcd_over_Z(parse_poly("x^2-1"), parse_poly("x^2+1")) == IntPoly((1,))


def test_gcd_finds_explicit_linear_factor():
    assert gcd_over_Z(parse_poly("x^2-1"), parse_poly("x+1")) == parse_poly("x+1")


def test_gcd_with_zero_and_sign_normalization():
    p = parse_poly("-2*x-2")
    assert gcd_over_Z(p, IntPoly(())) == parse_poly("x+1")
    assert gcd_over_Z(IntPoly(()), p) == parse_poly("x+1")
    with pytest.raises(InputError):
        gcd_over_Z(IntPoly(()), IntPoly(()))


@given(coeff_lists(), coeff_lists(), coeff_lists())
# x is a common factor that is not the planted one: the gcd is x^2 + x
@example([1, 0], [1, 0, 0], [1, 1])
def test_gcd_divides_both_inputs_and_detects_common_factors(a, b, c):
    common = IntPoly(tuple(c))
    pa = IntPoly(tuple(naive_mul(a, c)))
    pb = IntPoly(tuple(naive_mul(b, c)))
    if pa.is_zero() and pb.is_zero():
        return
    d = gcd_over_Z(pa, pb)
    assert not d.is_zero()
    assert d.leading > 0
    assert poly_divides_over_Z(d, pa)
    assert poly_divides_over_Z(d, pb)
    # greatest: no common factor over Q is missing
    assert d == primitive_part(naive_gcd_over_Q(pa, pb))
    if not common.is_zero() and common.degree >= 1 and not (pa.is_zero() or pb.is_zero()):
        # the primitive part of the planted factor must divide the gcd
        assert poly_divides_over_Z(gcd_over_Z(common, common), d)


def test_reduce_mod_can_drop_degree_for_general_polys():
    assert reduce_mod(IntPoly((2, 1)), 2) == (0, 1)


def test_exponent_chains_are_rejected():
    with pytest.raises(ParseError):
        parse_poly("x^2^3")
