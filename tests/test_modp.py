import itertools
import random

import pytest

from polygcd import (
    IntMatrix,
    IntPoly,
    MonicIntPoly,
    common_root_mod_p,
    is_prime,
    sylvester_matrix,
)
from polygcd.errors import InputError
from polygcd.modp import _common_roots_mod_p, _gcd_mod_p

from support import naive_mul, random_monic, rank_mod_p

P52 = 8936582237915716659950962253358945635793453256935559
N52 = 8424432925592889329288197322308900672459420460792433


def _divides_mod_p(d, f, p: int) -> bool:
    # Long division in F_p[x], written apart from polygcd.modp.
    rem = list(f)
    inv = pow(d[0], -1, p)
    while len(rem) >= len(d):
        q = rem[0] * inv % p
        padded = list(d) + [0] * (len(rem) - len(d))
        rem = [(x - q * y) % p for x, y in zip(rem, padded)][1:]
    return not any(rem)


# ---------------------------------------------------------------------------
# gcd in F_p[x]
# ---------------------------------------------------------------------------


def test_gcd_mod_13_worked_example():
    assert _gcd_mod_p((1, 0, 3), (1, 2, 4), 13) == [1, 7]  # x + 7, i.e. x - 6


def test_gcd_with_zero_is_monic_scaling():
    # 3x^2 + 6 over F_7 scales by 3^-1 = 5 to x^2 + 2.
    assert _gcd_mod_p((3, 0, 6), (), 7) == [1, 0, 2]
    assert _gcd_mod_p((), (3, 0, 6), 7) == [1, 0, 2]
    assert _gcd_mod_p((7, 14), (), 7) == []


def test_gcd_mod_2_worked_example():
    assert _gcd_mod_p((1, 0, -1), (1, 0, 1), 2) == [1, 0, 1]  # (x+1)^2 over F_2


def _all_polys(p: int, max_degree: int):
    # all nonzero polynomials over F_p of degree <= max_degree
    for deg in range(max_degree + 1):
        for lead in range(1, p):
            for tail in itertools.product(range(p), repeat=deg):
                yield (lead,) + tail


def test_gcd_is_greatest_common_divisor_by_exhaustive_enumeration():
    # deg <= 3, p <= 5: the gcd is monic, divides both arguments and is
    # divisible by every common divisor, checked against full divisor
    # enumeration.
    for p in (2, 3, 5):
        rng = random.Random(p)
        polys = list(_all_polys(p, 3))
        for _ in range(40):
            f = rng.choice(polys)
            g = rng.choice(polys)
            d = _gcd_mod_p(f, g, p)
            assert d[0] == 1
            assert _divides_mod_p(d, f, p) and _divides_mod_p(d, g, p)
            for candidate in polys:
                if len(candidate) > min(len(f), len(g)):
                    continue
                if _divides_mod_p(candidate, f, p) and _divides_mod_p(candidate, g, p):
                    assert _divides_mod_p(candidate, d, p)


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
                assert corank == len(_gcd_mod_p(fc, gc, p)) - 1


def test_corank_equals_gcd_degree_random_larger_primes():
    rng = random.Random(4)
    for p in (5, 7, 13):
        for _ in range(120):
            f = random_monic(rng, max_degree=4)
            g = random_monic(rng, max_degree=4)
            m = sylvester_matrix(f, g)
            corank = f.degree + g.degree - rank_mod_p(m, p)
            assert corank == len(_gcd_mod_p(f.coeffs, g.coeffs, p)) - 1


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


def test_common_root_is_the_one_common_root_exactly_when_corank_is_one():
    # The specification, exhaustive over monic f, g of degree <= 3 for
    # p in {2, 3, 5}: c when the Sylvester matrix mod p has corank 1 and c
    # is the only common root in a scan of the residues, None otherwise.
    for p in (2, 3, 5):
        monics = [MonicIntPoly(c) for c in _monic_tuples(p, 3)]
        roots = {f: {n for n in range(p) if f.evaluate(n) % p == 0} for f in monics}
        for f in monics:
            for g in monics:
                corank = f.degree + g.degree - rank_mod_p(sylvester_matrix(f, g), p)
                common = roots[f] & roots[g]
                if corank == 1:
                    assert len(common) == 1
                    assert common_root_mod_p(f, g, p) == common.pop()
                else:
                    assert common_root_mod_p(f, g, p) is None


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


# ---------------------------------------------------------------------------
# all common roots mod p, as the lifting tree takes them
# ---------------------------------------------------------------------------


def test_common_roots_match_a_scan_of_every_residue():
    # Random pairs around a shared factor: chosen roots, some repeated, times
    # a random monic quadratic, irreducible mod p for about half the pairs.
    # For p <= 7 the gcd often has degree >= p and takes the residue scan;
    # otherwise it is split by Cantor-Zassenhaus.
    rng = random.Random(31)
    primes = [p for p in range(2, 1010) if is_prime(p)]
    branches = {"scan": 0, "split": 0}
    for _ in range(1200):
        p = rng.choice(primes[:4] + primes[::8])
        shared = [1, rng.randrange(p), rng.randrange(p)]
        for _ in range(rng.randint(0, 6)):
            shared = naive_mul(shared, [1, -rng.randrange(p)])
        a = naive_mul(shared, [1] + [rng.randint(-p, p) for _ in range(rng.randint(0, 3))])
        b = naive_mul(shared, [rng.randint(-p, p) for _ in range(rng.randint(1, 4))])
        scan = [t for t in range(p) if IntPoly(a).evaluate(t) % p == IntPoly(b).evaluate(t) % p == 0]
        assert _common_roots_mod_p(a, b, p) == scan, (a, b, p)
        branches["scan" if len(_gcd_mod_p(a, b, p)) > p else "split"] += 1
    assert min(branches.values()) >= 100, branches
