"""Acceptance suite: one test per criterion, at the stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``;
pytest also replays captured output for failing tests).  All comparisons
are exact unless a runtime bound is stated.
"""
import math
import random
import time
from contextlib import contextmanager

import pytest

from polygcd import (
    CriterionInapplicable,
    GcdAtlas,
    MonicIntPoly,
    NotSquarefree,
    ZeroResultant,
    analyze,
    brute_force_profile,
    common_root_mod_p,
    coprime_witness,
    det_bareiss,
    divisors,
    factor,
    is_squarefree,
    minimal_period,
    resultant,
    resultant_prs,
    smith_normal_form,
    sylvester_matrix,
)
from polygcd.linalg import _subresultant_resultant

from support import (
    acceptance_pair_pool,
    check_divides,
    check_periodicity,
    mat_mul,
    minor_gcd_products,
    random_matrix,
    random_monic,
    rank_mod_p,
)

P52 = 8936582237915716659950962253358945635793453256935559
N52 = 8424432925592889329288197322308900672459420460792433


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:>2}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  criterion {number:>2}: {description} [{elapsed:.2f}s]")


def mp(text):
    return MonicIntPoly.parse(text)


@pytest.fixture(scope="module")
def pair_pool():
    # One deterministic stream of pairs shared by criteria 5, 6 and 9.
    return acceptance_pair_pool()


def test_criterion_1_prime_resultant_end_to_end():
    with criterion(1, "worked example: r = 13 atlas matches exactly, < 1 s"):
        start = time.perf_counter()
        outcome = analyze(mp("x^2+3"), mp("(x+1)^2+3"))
        elapsed = time.perf_counter() - start
        assert isinstance(outcome, GcdAtlas)
        assert outcome.resultant == 13
        assert outcome.squarefree
        assert outcome.multiplicity_histogram() == {1: 12, 13: 1}
        assert outcome.entry_for(13).residues == (6,)
        assert outcome.entry_for(13).multiplicity == 1
        assert outcome.entry_for(1).multiplicity == 12
        profile = brute_force_profile(mp("x^2+3"), mp("(x+1)^2+3"))
        assert profile.gcd_range == (1, 13)
        assert elapsed < 1.0


def test_criterion_2_52_digit_stress():
    with criterion(2, "52-digit stress: |r| and the common root match, < 10 s"):
        f, g = mp("x^17+9"), mp("(x+1)^17+9")
        start = time.perf_counter()
        r = resultant(f, g)  # subresultant PRS of the degree-17 pair
        root = common_root_mod_p(f, g, P52)
        elapsed = time.perf_counter() - start
        assert abs(r) == P52
        assert root == N52
        assert elapsed < 10.0


def test_criterion_3_zero_resultant_with_odd_values():
    with criterion(3, "zero resultant: common factor reported, sampled gcds odd"):
        p = mp("x^2+x+1")
        outcome = analyze(p, p)
        assert isinstance(outcome, ZeroResultant)
        assert outcome.common_factor == p
        for n in range(1000):
            assert math.gcd(p.evaluate(n), p.evaluate(n)) % 2 == 1


def test_criterion_4_non_squarefree_range_and_period():
    with criterion(4, "r = 4 case: range {1, 2} and minimal period 2, exact"):
        f, g = mp("x^2-1"), mp("x^2+1")
        outcome = analyze(f, g)
        assert isinstance(outcome, NotSquarefree)
        assert outcome.resultant == 4
        assert outcome.period == 2
        assert outcome.gcd_range == (1, 2)
        assert minimal_period(f, g) == 2


def test_criterion_5_atlas_equals_oracle_on_500_squarefree_pairs(pair_pool):
    with criterion(5, ">= 500 square-free pairs: atlas == oracle, period = |r|, < 60 s"):
        start = time.perf_counter()
        accepted = 0
        for f, g, r in pair_pool:
            if r == 0 or abs(r) > 10**4:
                continue
            fact = factor(r)
            if not is_squarefree(fact):
                continue
            atlas = analyze(f, g)
            profile = brute_force_profile(f, g)
            assert atlas.multiplicity_histogram() == profile.histogram
            assert {e.divisor: e.residues for e in atlas.entries} == (
                profile.residues_by_value()
            )
            divs = divisors(fact)
            assert [e.divisor for e in atlas.entries] == divs
            assert all(e.multiplicity >= 1 for e in atlas.entries)
            assert atlas.entry_for(abs(r)).multiplicity == 1
            assert profile.minimal_period() == abs(r)
            assert minimal_period(f, g) == abs(r)
            accepted += 1
        elapsed = time.perf_counter() - start
        assert accepted >= 500
        assert elapsed < 60.0


def test_criterion_6_divides_and_periodicity_for_all_pairs(pair_pool):
    with criterion(6, "all pairs with 0 < |r| <= 1e4: gcd | r and |r|-periodicity"):
        checked = 0
        for f, g, r in pair_pool:
            if r == 0 or abs(r) > 10**4:
                continue
            modulus = abs(r)
            values = [math.gcd(f.evaluate(n), g.evaluate(n)) for n in range(modulus)]
            assert all(v != 0 and r % v == 0 for v in values)
            assert check_divides(f, g, range(modulus))
            assert check_periodicity(f, g)
            checked += 1
        assert checked >= 500


def test_criterion_7_snf_contract_and_minor_gcd_oracle():
    with criterion(7, ">= 1000 random matrices: SNF contract + minor-gcd oracle"):
        rng = random.Random(0x5AFE)
        for _ in range(1000):
            m = random_matrix(rng, max_dim=5, bound=9)
            result = smith_normal_form(m)
            # U*M*V = diag(d)
            product = mat_mul(mat_mul(result.U, m), result.V)
            size = min(m.rows, m.cols)
            for i in range(product.rows):
                for j in range(product.cols):
                    expected = result.d[i] if i == j and i < size else 0
                    assert product.at(i, j) == expected
            # divisibility chain
            for a, b in zip(result.d, result.d[1:]):
                assert b % a == 0 if a else b == 0
            # unimodular transforms
            assert abs(det_bareiss(result.U)) == 1
            assert abs(det_bareiss(result.V)) == 1
            # product identity for square matrices
            if m.rows == m.cols:
                assert math.prod(result.d) == abs(det_bareiss(m))
            # minor-gcd oracle
            acc = 1
            for d_i, expected in zip(result.d, minor_gcd_products(m)):
                acc = acc * d_i if acc else 0
                assert acc == expected


def test_criterion_8_corank_identity_exhaustive():
    with criterion(8, "corank = gcd degree, exhaustive deg <= 3 for p in {2, 3, 5}"):
        from polygcd.modp import _gcd_mod_p
        import itertools

        for p in (2, 3, 5):
            monics = [
                (1,) + tail
                for deg in range(1, 4)
                for tail in itertools.product(range(p), repeat=deg)
            ]
            for fc in monics:
                f = MonicIntPoly(fc)
                for gc in monics:
                    g = MonicIntPoly(gc)
                    m = sylvester_matrix(f, g)
                    corank = f.degree + g.degree - rank_mod_p(m, p)
                    assert corank == len(_gcd_mod_p(fc, gc, p)) - 1


def test_criterion_9_coprime_witness_suite(pair_pool):
    with criterion(9, "witness iff 1 is a gcd value, always when p^p-free; r = 4 gives n = 0"):
        applicable = exact = 0
        for f, g, r in pair_pool:
            if r == 0 or abs(r) > 10**4:
                continue
            fact = factor(r)
            ones = 1 in brute_force_profile(f, g).histogram
            try:
                n = coprime_witness(f, g)
            except CriterionInapplicable as exc:
                # no witness: a prime p <= m with p^p | r divides every value
                p = exc.prime
                assert not ones
                assert p <= min(f.degree, g.degree) and r % p**p == 0
                assert all(math.gcd(f.evaluate(k), g.evaluate(k)) % p == 0 for k in range(p))
            else:
                assert ones and math.gcd(f.evaluate(n), g.evaluate(n)) == 1
                # the paper's claim: no p^p dividing r means a witness exists
                applicable += all(e < p for p, e in fact.factors)
            exact += 1
        assert applicable >= 400 and exact >= 850
        # the r = 4 worked example: 2^2 divides r, yet gcd 1 occurs at n = 0
        f4, g4 = mp("x^2-1"), mp("x^2+1")
        assert coprime_witness(f4, g4) == 0
        assert math.gcd(f4.evaluate(0), g4.evaluate(0)) == 1


def test_criterion_10_bareiss_prs_cross_validation():
    with criterion(10, "1000 random pairs: Bareiss and PRS resultants equal, signed"):
        rng = random.Random(0xC0DE)
        for _ in range(1000):
            f = random_monic(rng, max_degree=4, coeff_bound=9)
            g = random_monic(rng, max_degree=4, coeff_bound=9)
            assert det_bareiss(sylvester_matrix(f, g)) == resultant_prs(f, g)


def test_criterion_11_cyclic_exactly_when_s1_is_a_unit(pair_pool):
    with criterion(11, "|r| occurs iff gcd(s1, r) = 1, then gcd = gcd(n - c, |r|); roots = F_p roots"):
        cyclic = not_squarefree_cyclic = squarefree = 0
        for f, g, r in pair_pool:
            if r == 0:
                continue
            _, (s1, s0) = _subresultant_resultant(list(f.coeffs), list(g.coeffs))
            fact = factor(r)
            if abs(r) <= 10**4:
                profile = brute_force_profile(f, g)
                unit = math.gcd(s1, r) == 1
                assert (abs(r) in profile.histogram) == unit
                if unit:
                    modulus = abs(r)
                    c = -s0 * pow(s1, -1, modulus) % modulus
                    for n, value in enumerate(profile.values):
                        assert value == math.gcd(n - c, modulus)
                    cyclic += 1
                    not_squarefree_cyclic += not is_squarefree(fact)
            if is_squarefree(fact):
                atlas = analyze(f, g, residue_cap=1)
                for p in fact.primes():
                    assert atlas.roots[p] == common_root_mod_p(f, g, p)
                squarefree += 1
        # Square-free r is the paper's sufficient case; more pairs are cyclic.
        assert cyclic >= 500 and not_squarefree_cyclic >= 100
        assert squarefree >= 600
