import math
import random

import pytest
from hypothesis import given, strategies as st

import polygcd.ntheory
from polygcd import (
    CapExceeded,
    Factorization,
    MonicIntPoly,
    crt,
    divisors,
    ext_gcd,
    factor,
    is_prime,
    is_squarefree,
    resultant_prs,
)
from polygcd.errors import CapExceeded, InputError
from polygcd.ntheory import MR_DETERMINISTIC_BOUND, _baillie_psw, _digits, _iroot

from support import int_gcd

P52 = 8936582237915716659950962253358945635793453256935559

M61 = 2**61 - 1  # Mersenne prime
M89 = 2**89 - 1  # Mersenne prime, above the deterministic Miller-Rabin bound


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


# ---------------------------------------------------------------------------
# is_prime
# ---------------------------------------------------------------------------


def test_is_prime_known_values():
    assert is_prime(13)
    assert is_prime(P52)
    assert not is_prime(1)


def test_is_prime_agrees_with_sieve_ground_truth():
    limit = 10**5
    flags = sieve(limit)
    for n in range(limit + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_on_known_hard_composites():
    # Carmichael numbers and strong pseudoprimes to small base sets.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2**31 - 1)
    assert is_prime(M61)
    assert not is_prime(M61 * (2**31 - 1))


def test_is_prime_beyond_deterministic_bound_uses_bpsw():
    assert M89 > MR_DETERMINISTIC_BOUND
    assert is_prime(M89)
    assert not is_prime(M61 * M61)  # perfect square branch
    assert not is_prime(M61 * M89)
    assert not is_prime(M89 + 2)  # 3 | M89 + 2


def test_bpsw_agrees_with_sieve_on_odd_numbers():
    # The production path only reaches Baillie-PSW above 3.3e24, so check
    # the implementation directly where ground truth is cheap.
    flags = sieve(30_000)
    for n in range(1001, 30_000, 2):
        assert _baillie_psw(n) == bool(flags[n]), n


def test_is_prime_rejects_negative_input():
    with pytest.raises(InputError):
        is_prime(-7)


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


def test_factor_small_values():
    assert factor(13).factors == ((13, 1),)
    assert factor(13).sign == 1
    assert factor(4).factors == ((2, 2),)
    f = factor(-30)
    assert f.sign == -1 and f.factors == ((2, 1), (3, 1), (5, 1))


def test_factor_zero_rejected():
    with pytest.raises(InputError):
        factor(0)


# Inputs whose primes lie between 10^3 and 10^6, so Pollard rho and not
# trial division has to split them, with their exact factorizations.
RHO_RANGE_CASES = [
    (1009 * 1013, ((1009, 1), (1013, 1))),
    (1009**2 * 1013, ((1009, 2), (1013, 1))),
    (999983**3, ((999983, 3),)),
    (1000003 * 1000033 * 1000000007, ((1000003, 1), (1000033, 1), (1000000007, 1))),
    (M61 * 999983, ((999983, 1), (M61, 1))),
]


def random_three_prime_product(rng):
    # Three primes in (10^3, 10^6), found by trial division, and the
    # factorization of their product.
    primes = []
    while len(primes) < 3:
        p = rng.randrange(1001, 10**6)
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            primes.append(p)
    counts = {p: primes.count(p) for p in sorted(primes)}
    return math.prod(primes), tuple(counts.items())


def test_factor_remultiplies_to_identity_on_randoms():
    rng = random.Random(7)
    values = [rng.randint(2, 10**9) * rng.choice((1, -1)) for _ in range(200)]
    values += [1, -1, 2**40, -(3**25), 600851475143]
    values += [n for n, _ in RHO_RANGE_CASES]
    values += [random_three_prime_product(rng)[0] for _ in range(20)]
    for n in values:
        fact = factor(n)
        product = fact.sign * math.prod(p**e for p, e in fact.factors)
        assert product == n
        assert all(is_prime(p) for p, _ in fact.factors)
        assert list(fact.primes()) == sorted(fact.primes())


def test_factor_large_semiprime_via_pollard():
    p, q = 10**9 + 7, 10**9 + 9
    assert factor(p * q).factors == ((p, 1), (q, 1))
    assert factor(M61 * (2**31 - 1)).factors == ((2**31 - 1, 1), (M61, 1))
    for n, expected in RHO_RANGE_CASES:
        assert factor(n).factors == expected, n
        assert factor(-n).factors == expected, -n
    rng = random.Random(11)
    for _ in range(5):
        n, expected = random_three_prime_product(rng)
        assert factor(n).factors == expected, n


def test_factor_is_deterministic_across_runs():
    n = (10**9 + 7) * (10**9 + 9) * (10**6 + 3) ** 2
    assert factor(n) == factor(n)


@pytest.fixture
def rho_calls(monkeypatch):
    # The cofactors handed to Pollard rho, in call order.
    calls = []
    search = polygcd.ntheory._pollard_brent

    def counting(n, *args):
        calls.append(n)
        return search(n, *args)

    monkeypatch.setattr(polygcd.ntheory, "_pollard_brent", counting)
    return calls


P10 = 8646805729  # the two repeated primes of Res(x^18+22, (x+1)^18+22)
Q11 = 89588178593


@pytest.mark.parametrize(
    "n, expected, max_rho_calls",
    [
        (1000003 * P10**2 * Q11**2, ((1000003, 1), (P10, 2), (Q11, 2)), 2),
        (P10**2 * Q11**2, ((P10, 2), (Q11, 2)), 1),
        ((10**6 + 3) * P10**3, ((10**6 + 3, 1), (P10, 3)), 1),
        (1000003 * P10**2 * Q11, ((1000003, 1), (P10, 2), (Q11, 1)), 2),
        (1009**3 * 1000003 * 1000033, ((1009, 3), (1000003, 1), (1000033, 1)), 2),
    ],
    ids=["q*p^2*r^2", "p^2*r^2", "q*p^3", "q*p^2*r", "p^3*q*r"],
)
def test_factor_searches_each_prime_once(rho_calls, n, expected, max_rho_calls):
    assert factor(n).factors == expected
    assert len(rho_calls) <= max_rho_calls


@pytest.mark.parametrize(
    "n, expected",
    [
        ((10**30 + 57) ** 2, ((10**30 + 57, 2),)),
        (7 * (10**30 + 57) ** 3, ((7, 1), (10**30 + 57, 3))),
        (1009**7, ((1009, 7),)),
    ],
    ids=["p^2", "7*p^3", "1009^7"],
)
def test_factor_splits_a_prime_power_without_rho(monkeypatch, n, expected):
    # Rho would need about sqrt(10^30) steps for the first two, so a call
    # fails at once instead of hanging.
    def no_rho(cofactor, *args):
        raise AssertionError(f"rho called on {cofactor}")

    monkeypatch.setattr(polygcd.ntheory, "_pollard_brent", no_rho)
    assert factor(n).factors == expected


def test_factor_takes_roots_of_composite_perfect_powers(rho_calls):
    # The sixth power is split by a square and then a cube root, so rho
    # runs once, on 1009 * 1013.
    assert factor((1009 * 1013) ** 6).factors == ((1009, 6), (1013, 6))
    assert rho_calls == [1009 * 1013]


def test_factor_agrees_with_sympy():
    # sympy draws the primes of the random products, whose factorization is
    # then known by construction (factorint takes some 0.4 s on each), and
    # factorint splits the three stress resultants.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2016)
    for _ in range(40):
        expected = {}
        for _ in range(rng.randint(1, 3)):
            p = sympy.nextprime(rng.randrange(10**3, 10**9 - 10**3))
            expected[p] = expected.get(p, 0) + rng.randint(1, 4)
        n = math.prod(p**e for p, e in expected.items())
        assert dict(factor(n).factors) == expected, n
    for k, a in [(18, 22), (18, -21), (15, 51)]:
        f = MonicIntPoly.parse(f"x^{k}+{a}")
        g = MonicIntPoly.parse(f"(x+1)^{k}+{a}")
        r = resultant_prs(f, g)
        assert dict(factor(r).factors) == sympy.factorint(abs(r)), (k, a)


def test_factorization_validates_itself():
    with pytest.raises(InputError):
        Factorization(12, ((2, 1), (3, 1)))  # product is 6, not 12
    with pytest.raises(InputError):
        Factorization(6, ((3, 1), (2, 1)))  # primes out of order


@pytest.mark.parametrize(
    "n, factors",
    [(4, ((4, 1),)), (12, ((2, 1), (6, 1)))],
    ids=["4^1", "2*6"],
)
def test_factorization_refuses_a_factor_that_is_not_prime(n, factors):
    # Both once constructed: 4^1 passed as square-free, and the divisors of
    # 2*6 came out as [1, 2, 6, 12], without 3 and 4.
    with pytest.raises(InputError, match="every factor must be prime"):
        Factorization(n, factors)


SEMIPRIME = 1000003 * 1000033  # rho splits it in about 3400 steps


def test_rho_budget_is_shared_and_raises_cap_exceeded(monkeypatch):
    spent = []
    search = polygcd.ntheory._pollard_brent

    def recording(n, rng, pay):
        # The steps rho pays for, each at the weight of an n-bit step.
        paid = []
        d = search(n, rng, lambda steps: (paid.append(steps), pay(steps)))
        spent.append(sum(paid) * (1 + (n.bit_length() / 400) ** 2))
        return d

    budget = polygcd.ntheory.RHO_BUDGET
    monkeypatch.setattr(polygcd.ntheory, "_pollard_brent", recording)
    assert factor(SEMIPRIME).factors == ((1000003, 1), (1000033, 1))
    (needed,) = spent
    assert 0 < needed < polygcd.ntheory.RHO_BUDGET
    monkeypatch.setattr(polygcd.ntheory, "RHO_BUDGET", needed // 2)
    with pytest.raises(CapExceeded) as exc:
        factor(SEMIPRIME)
    assert str(exc.value) == (
        f"Pollard rho did not split a 13-digit cofactor within its work budget of {needed // 2} steps"
    )
    # The rho calls of one factor call share the budget: each would fit in
    # it alone, all of them do not.
    monkeypatch.setattr(polygcd.ntheory, "RHO_BUDGET", budget)
    spent.clear()
    n = SEMIPRIME * 1000037 * 1000039
    assert len(factor(n).factors) == 4 and len(spent) >= 2
    monkeypatch.setattr(polygcd.ntheory, "RHO_BUDGET", max(spent) + 1)
    with pytest.raises(CapExceeded):
        factor(n)


def test_root_search_is_charged_to_the_budget(monkeypatch):
    # The square root of the 40-bit semiprime is charged 1.01 steps first.
    monkeypatch.setattr(polygcd.ntheory, "RHO_BUDGET", 1)
    with pytest.raises(CapExceeded) as exc:
        factor(SEMIPRIME)
    assert str(exc.value) == (
        "a perfect-power search on a 13-digit cofactor would exceed the work budget of 1 steps"
    )


def test_factor_tests_a_large_prime_once(monkeypatch):
    # 2^3217 - 1 is prime; Factorization does not test again what factor has.
    tested = []
    test = polygcd.ntheory.is_prime

    def counting(n):
        if n >= MR_DETERMINISTIC_BOUND:
            tested.append(n)
        return test(n)

    monkeypatch.setattr(polygcd.ntheory, "is_prime", counting)
    p = 2**3217 - 1
    assert factor(p).factors == ((p, 1),)
    assert tested == [p]
    with pytest.raises(InputError, match="every factor must be prime"):
        Factorization(p * p, ((p * p, 1),))  # a caller's factors are tested


def test_iroot_is_the_floor_of_the_kth_root():
    rng = random.Random(19)
    cases = [
        (rng.getrandbits(rng.randrange(1, 50_001)) | 1, rng.randrange(2, 3000)) for _ in range(200)
    ]
    cases += [(2**50_000 - 1, k) for k in (2, 3, 1009, 4999)] + [(1, 2), (1, 1009)]
    for b, k in [(1001, 2), (1009, 3), (2**64 + 13, 3), (7, 1009), (3, 5003), (10**9 + 7, 2003)]:
        cases += [(b**k - 1, k), (b**k, k), (b**k + 1, k)]
    for m, k in cases:
        r = _iroot(m, k)
        assert r**k <= m < (r + 1) ** k, (m.bit_length(), k)


def test_digits_counts_exactly():
    rng = random.Random(16000)
    values = [rng.getrandbits(rng.randrange(1, 4000)) + 1 for _ in range(20_000)]
    values += [10**k for k in range(3000)] + [10**k - 1 for k in range(1, 3000)]
    for n in values:
        assert _digits(n) == _digits(-n) == len(str(n)), n


# ---------------------------------------------------------------------------
# is_squarefree / divisors
# ---------------------------------------------------------------------------


def test_squarefree_known_values():
    assert is_squarefree(factor(13))
    assert not is_squarefree(factor(4))
    assert is_squarefree(factor(-30))


def test_divisors_known_values():
    assert divisors(factor(13)) == [1, 13]
    assert divisors(factor(12)) == [1, 2, 3, 4, 6, 12]
    assert divisors(factor(-2)) == [1, 2]


@given(st.integers(2, 5000))
def test_divisors_match_trial_enumeration(n):
    assert divisors(factor(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisor_cap_enforced(monkeypatch):
    fact = factor(2**40)
    monkeypatch.setattr(polygcd.ntheory, "DIVISOR_CAP", 40)
    with pytest.raises(CapExceeded, match="divisor count 41 exceeds cap 40"):
        divisors(fact)


# ---------------------------------------------------------------------------
# crt / gcd helpers
# ---------------------------------------------------------------------------


def test_crt_worked_examples():
    assert crt([(1, 2), (2, 3)]) == (5, 6)
    assert crt([(6, 13)]) == (6, 13)
    assert crt([(0, 3), (1, 5), (2, 7)]) == (51, 105)
    # A modulus of 1 constrains nothing and is skipped.
    assert crt([(0, 1), (2, 3)]) == (2, 3)


def test_crt_rejects_non_coprime_moduli():
    with pytest.raises(InputError):
        crt([(1, 6), (2, 4)])
    with pytest.raises(InputError, match="modulus must be >= 1, got 0"):
        crt([(0, 0)])


def test_crt_exhaustive_for_small_modulus_products():
    # Every pairwise-coprime modulus list (entries >= 2, increasing) with
    # product <= 210, with every residue combination.
    def modulus_lists(start, budget):
        yield []
        for m in range(start, budget + 1):
            for rest in modulus_lists(m + 1, budget // m):
                if all(math.gcd(m, o) == 1 for o in rest):
                    yield [m] + rest

    checked = 0
    for moduli in modulus_lists(2, 210):
        if not moduli:
            continue
        product = math.prod(moduli)
        if product > 210:
            continue
        for combo_index in range(product):
            residues = []
            rest = combo_index
            for m in moduli:
                residues.append(rest % m)
                rest //= m
            x, total = crt(list(zip(residues, moduli)))
            assert total == product
            assert 0 <= x < total
            assert all(x % m == r for r, m in zip(residues, moduli))
            checked += 1
    assert checked > 1000


def test_int_gcd_conventions():
    assert int_gcd(39, 52) == 13
    assert int_gcd(-4, 6) == 2
    assert int_gcd(0, 0) == 0


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_ext_gcd_bezout_identity(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g
