import itertools
import random

import pytest

from polygcd import (
    IntMatrix,
    IntPoly,
    MonicIntPoly,
    common_root_mod_p,
    poly_gcd_mod_p,
    sylvester_matrix,
)
from polygcd.errors import InputError
from polygcd.modp import PrimeFieldPoly, _divmod

from support import (
    poly_ext_gcd_mod_p,
    poly_mul_mod_p,
    poly_sub_mod_p,
    random_monic,
    rank_mod_p,
)

P52 = 8936582237915716659950962253358945635793453256935559
N52 = 8424432925592889329288197322308900672459420460792433


def fp(text: str, p: int) -> PrimeFieldPoly:
    from polygcd import parse_poly

    return PrimeFieldPoly.from_int_poly(parse_poly(text), p)


# ---------------------------------------------------------------------------
# PrimeFieldPoly basics
# ---------------------------------------------------------------------------


def test_construction_reduces_and_strips():
    assert PrimeFieldPoly(5, (7, 3, -1)).coeffs == (2, 3, 4)
    assert PrimeFieldPoly(5, (10, 5, 1)).coeffs == (1,)
    assert PrimeFieldPoly(5, (0, 0)).is_zero()
    with pytest.raises(InputError):
        PrimeFieldPoly(1, (1,))


def test_monic_scaling():
    assert PrimeFieldPoly(7, (3, 1)).monic().coeffs == (1, 5)  # 3^-1 = 5 mod 7


def test_divmod_reconstructs():
    p = 13
    rng = random.Random(3)
    for _ in range(200):
        num = tuple(rng.randrange(p) for _ in range(rng.randint(0, 6)))
        den = (rng.randrange(1, p),) + tuple(
            rng.randrange(p) for _ in range(rng.randint(0, 3))
        )
        q, r = _divmod(num, den, p)
        # num == q*den + r in F_p[x]
        recon = poly_sub_mod_p(poly_mul_mod_p(q, den, p), tuple(-c % p for c in r), p)
        assert PrimeFieldPoly(p, num) == PrimeFieldPoly(p, recon)
        assert len(r) < len(den)


# ---------------------------------------------------------------------------
# gcd in F_p[x]
# ---------------------------------------------------------------------------


def test_gcd_mod_13_worked_example():
    d = poly_gcd_mod_p(fp("x^2+3", 13), fp("x^2+2*x+4", 13))
    assert d.coeffs == (1, 7)  # x + 7, i.e. x - 6


def test_gcd_with_zero_is_monic_scaling():
    p = fp("3*x^2+6", 7)
    zero = PrimeFieldPoly(7, ())
    assert poly_gcd_mod_p(p, zero) == p.monic()
    assert poly_gcd_mod_p(zero, p) == p.monic()
    with pytest.raises(InputError):
        poly_gcd_mod_p(zero, zero)


def test_gcd_mod_2_worked_example():
    d = poly_gcd_mod_p(fp("x^2-1", 2), fp("x^2+1", 2))
    assert d.coeffs == (1, 0, 1)  # (x+1)^2 over F_2


def test_gcd_modulus_mismatch_rejected():
    with pytest.raises(InputError):
        poly_gcd_mod_p(fp("x", 3), fp("x", 5))


def _all_polys(p: int, max_degree: int):
    # all nonzero polynomials over F_p of degree <= max_degree
    for deg in range(max_degree + 1):
        for lead in range(1, p):
            for tail in itertools.product(range(p), repeat=deg):
                yield PrimeFieldPoly(p, (lead,) + tail)


def test_gcd_is_greatest_common_divisor_by_exhaustive_enumeration():
    # deg <= 3, p <= 5: the gcd divides both arguments and is divisible by
    # every common divisor, checked against full divisor enumeration.
    for p in (2, 3, 5):
        rng = random.Random(p)
        polys = list(_all_polys(p, 3))
        for _ in range(40):
            f = rng.choice(polys)
            g = rng.choice(polys)
            d = poly_gcd_mod_p(f, g)
            assert _divmod(f.coeffs, d.coeffs, p)[1] == ()
            assert _divmod(g.coeffs, d.coeffs, p)[1] == ()
            for candidate in polys:
                if candidate.degree > min(f.degree, g.degree):
                    continue
                divides_f = _divmod(f.coeffs, candidate.coeffs, p)[1] == ()
                divides_g = _divmod(g.coeffs, candidate.coeffs, p)[1] == ()
                if divides_f and divides_g:
                    assert _divmod(d.coeffs, candidate.coeffs, p)[1] == ()


def test_ext_gcd_bezout_certificate():
    rng = random.Random(11)
    for p in (2, 3, 5, 13, 101):
        for _ in range(60):
            f = PrimeFieldPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 6))))
            g = PrimeFieldPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 6))))
            if f.is_zero() and g.is_zero():
                continue
            d, u, v = poly_ext_gcd_mod_p(f, g)
            lhs = poly_sub_mod_p(
                poly_mul_mod_p(u.coeffs, f.coeffs, p),
                tuple(-c % p for c in poly_mul_mod_p(v.coeffs, g.coeffs, p)),
                p,
            )
            assert lhs == d.coeffs
            assert d == poly_gcd_mod_p(f, g)
            if not d.is_zero():
                assert d.coeffs[0] == 1  # monic


# ---------------------------------------------------------------------------
# rank over F_p
# ---------------------------------------------------------------------------


def test_rank_worked_examples():
    f = MonicIntPoly.parse("x^2+3")
    g = MonicIntPoly.parse("x^2+2*x+4")
    assert rank_mod_p(sylvester_matrix(f, g), 13) == 3
    assert rank_mod_p(IntMatrix.identity(4), 7) == 4
    f2 = MonicIntPoly.parse("x^2-1")
    g2 = MonicIntPoly.parse("x^2+1")
    assert rank_mod_p(sylvester_matrix(f2, g2), 2) == 2


def test_rank_rejects_composite_modulus():
    with pytest.raises(InputError):
        rank_mod_p(IntMatrix.identity(2), 6)


def test_rank_of_scaled_identity():
    m = IntMatrix.from_rows([[5, 0], [0, 5]])
    assert rank_mod_p(m, 5) == 0
    assert rank_mod_p(m, 3) == 2


# ---------------------------------------------------------------------------
# Corank = gcd degree (exhaustive on small instances, random above)
# ---------------------------------------------------------------------------


def _monic_tuples(p: int, max_degree: int):
    for deg in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=deg):
            yield (1,) + tail


def test_corank_equals_gcd_degree_exhaustive_small():
    for p in (2, 3):
        for fc in _monic_tuples(p, 3):
            for gc in _monic_tuples(p, 3):
                f = MonicIntPoly(fc)
                g = MonicIntPoly(gc)
                m = sylvester_matrix(f, g)
                corank = f.degree + g.degree - rank_mod_p(m, p)
                d = poly_gcd_mod_p(
                    PrimeFieldPoly.from_int_poly(f, p),
                    PrimeFieldPoly.from_int_poly(g, p),
                )
                assert corank == d.degree


def test_corank_equals_gcd_degree_random_larger_primes():
    rng = random.Random(4)
    for p in (5, 7, 13):
        for _ in range(120):
            f = random_monic(rng, max_degree=4)
            g = random_monic(rng, max_degree=4)
            m = sylvester_matrix(f, g)
            corank = f.degree + g.degree - rank_mod_p(m, p)
            d = poly_gcd_mod_p(
                PrimeFieldPoly.from_int_poly(f, p),
                PrimeFieldPoly.from_int_poly(g, p),
            )
            assert corank == d.degree


# ---------------------------------------------------------------------------
# common_root_mod_p
# ---------------------------------------------------------------------------


def test_common_root_worked_examples():
    f = MonicIntPoly.parse("x^2+3")
    g = MonicIntPoly.parse("(x+1)^2+3")
    assert common_root_mod_p(f, g, 13) == 6
    f2 = MonicIntPoly.parse("x^2-1")
    g2 = MonicIntPoly.parse("x^2+1")
    assert common_root_mod_p(f2, g2, 2) is None  # gcd degree 2


def test_common_root_52_digit_prime():
    f = MonicIntPoly.parse("x^17+9")
    g = MonicIntPoly.parse("(x+1)^17+9")
    root = common_root_mod_p(f, g, P52)
    assert root == N52
    assert f.evaluate(root) % P52 == 0
    assert g.evaluate(root) % P52 == 0


def test_common_root_requires_prime_modulus():
    with pytest.raises(InputError):
        common_root_mod_p(MonicIntPoly.parse("x+1"), MonicIntPoly.parse("x-1"), 4)


def test_common_root_value_is_actually_a_root_when_p_divides_r_once():
    from polygcd import factor, resultant

    rng = random.Random(12)
    seen = 0
    while seen < 60:
        f = random_monic(rng, max_degree=3)
        g = random_monic(rng, max_degree=3)
        r = resultant(f, g)
        if r == 0:
            continue
        for p, e in factor(r).factors:
            if e == 1:
                c = common_root_mod_p(f, g, p)
                assert c is not None
                assert f.evaluate(c) % p == 0
                assert g.evaluate(c) % p == 0
                seen += 1
