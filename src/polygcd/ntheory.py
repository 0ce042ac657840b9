"""Integer primality, factorization, divisor enumeration, gcd, and CRT.

Primality below MR_DETERMINISTIC_BOUND (about 3.3e24) is decided by
Miller-Rabin with a fixed base set for which the test is deterministic.
Above the bound the test is Baillie-PSW, a probable-prime test with no
known counterexample; callers that report primes can flag those as
"probable" by comparing against the bound.

factor searches for each distinct prime once: a perfect power is split
by its exact integer root before Pollard rho, and every copy of a prime
found is divided out before the next search.  Pollard rho draws its
starting points from one generator with a fixed seed, ``POLLARD_SEED``;
a factorization is unique, so the seed only picks which random walk
finds the primes, and every run takes the same walk.  One factor call
has one work budget, ``RHO_BUDGET``, which pays for every step whose work
grows with the piece: each root of the perfect-power search, each large
primality test and each batch of rho steps is charged before it runs, and
a call that would exceed the budget raises CapExceeded.
"""
from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple

from .errors import CapExceeded, InputError

__all__ = [
    "MR_DETERMINISTIC_BOUND",
    "DIVISOR_CAP",
    "Factorization",
    "is_prime",
    "factor",
    "is_squarefree",
    "divisors",
    "crt",
    "ext_gcd",
]

# Miller-Rabin with these bases is deterministic below this bound.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DIVISOR_CAP = 2**20
POLLARD_SEED = 0

# The work budget per factor call, in rho steps on a cofactor of a few
# hundred bits (about a microsecond each).  A step on an m-bit cofactor
# counts 1 + (m/400)^2 of them, as its multiplications cost; a Baillie-PSW
# test on m bits counts 3 m steps and a k-th root one, as timed against them.
RHO_BUDGET = 10**7


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return tuple(i for i, f in enumerate(flags) if f)


_TRIAL_DIVISION_BOUND = 1000
_SMALL_PRIMES = _sieve(_TRIAL_DIVISION_BOUND)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Primality test for n >= 0; deterministic below MR_DETERMINISTIC_BOUND."""
    if n < 0:
        raise InputError("is_prime expects a nonnegative integer")
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:  # primes below 100
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 101 * 101:
        return True
    if n < MR_DETERMINISTIC_BOUND:
        return all(_mr_passes(n, a) for a in _MR_BASES)
    return _baillie_psw(n)


def _mr_passes(n: int, a: int) -> bool:
    # One strong-probable-prime round; n odd, n > a.
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _baillie_psw(n: int) -> bool:
    # n odd, no factor below 100.
    if not _mr_passes(n, 2):
        return False
    root = math.isqrt(n)
    if root * root == n:
        return False
    d = _lucas_discriminant(n)
    if d is None:
        return False
    return _strong_lucas_passes(n, d)


def _lucas_discriminant(n: int) -> int | None:
    # First D in 5, -7, 9, -11, ... with Jacobi(D, n) = -1; None means a
    # factor of n surfaced during the search (so n is composite).
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            return d
        if j == 0 and abs(d) != n:
            return None
        d = -(d + 2) if d > 0 else -(d - 2)


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_passes(n: int, d: int) -> bool:
    # Strong Lucas probable-prime test with Selfridge parameters P=1,
    # Q=(1-D)/4; n odd, Jacobi(D, n) = -1.
    p, q = 1, (1 - d) // 4
    delta = n + 1
    s = (delta & -delta).bit_length() - 1
    odd = delta >> s
    u, v, qk = 1, p, q % n
    for bit in bin(odd)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = _half(p * u + v, n), _half(d * u + p * v, n)
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _half(x: int, n: int) -> int:
    # x/2 mod n for odd n.
    x %= n
    if x & 1:
        x += n
    return (x >> 1) % n


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


class Factorization(
    NamedTuple("Factorization", [("n", int), ("factors", tuple[tuple[int, int], ...])])
):
    """Signed prime factorization: sign * prod(p**e) == n, primes ascending,
    each p checked by is_prime (factor passes primes it has just tested)."""

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...], *, _tested: bool = False):
        self = super().__new__(cls, n, factors)
        if n == 0:
            raise InputError("factorization needs a nonzero integer")
        product = self.sign
        previous = 1
        for p, e in factors:
            if p <= previous or e < 1:
                raise InputError("primes must be strictly increasing, exponents >= 1")
            if not (_tested or is_prime(p)):
                raise InputError("every factor must be prime")
            previous = p
            product *= p**e
        if product != n:
            raise InputError("factor product does not reproduce the integer")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def sign(self) -> int:
        return 1 if self.n > 0 else -1

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factor(n: int) -> Factorization:
    """Complete factorization of a nonzero integer.

    Trial division by the primes below 1000, then Brent's variant of
    Pollard rho on the cofactor; every reported prime passes is_prime.
    Raises CapExceeded when its work would need more than RHO_BUDGET.
    """
    if n == 0:
        raise InputError("0 has no prime factorization")
    counts, m = _trial_divide(abs(n))
    for p in _distinct_primes(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        counts[p] = e
    return Factorization(n, tuple(sorted(counts.items())), _tested=True)


def _trial_divide(m: int) -> tuple[dict[int, int], int]:
    """The exponents of the primes below 1000 in m > 0, and the cofactor left:
    1, a prime (division stops once p^2 exceeds it), or a number with no
    prime factor below 1000."""
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    return counts, m


def _distinct_primes(m: int) -> set[int]:
    # The primes of m >= 1, which is 1, a prime, or has no prime factor
    # below 1000.  Each piece loses the copies of every prime found so far
    # before it is root-split, tested or searched: a root costs less than a
    # primality test of the power (0.5 s against 10 s for a 16 000-bit
    # square).  rng is made at the first rho, since seeding it costs more
    # than factoring a small m.
    primes: set[int] = set()
    pieces = [m]
    rng = None
    budget = RHO_BUDGET

    def charge(steps, piece, refusal):
        # Pay for steps on piece before they run, or refuse them all.
        nonlocal budget
        budget -= steps * (1 + (piece.bit_length() / 400) ** 2)
        if budget < 0:
            raise CapExceeded(f"{refusal.format(_digits(piece))} work budget of {RHO_BUDGET} steps")

    while pieces:
        piece = pieces.pop()
        for p in primes:
            while piece % p == 0:
                piece //= p
        if piece == 1:
            continue
        search = "a perfect-power search on a {}-digit cofactor would exceed the"
        root = _perfect_power_root(piece, lambda steps: charge(steps, piece, search))
        if root is not None:
            pieces.append(root)
            continue
        if piece >= MR_DETERMINISTIC_BOUND:
            test = "a primality test on a {}-digit cofactor would exceed the"
            charge(3 * piece.bit_length(), piece, test)
        if is_prime(piece):
            primes.add(piece)
            continue
        if rng is None:
            rng = random.Random(POLLARD_SEED)
        rho = "Pollard rho did not split a {}-digit cofactor within its"
        d = _pollard_brent(piece, rng, lambda steps: charge(steps, piece, rho))
        pieces += [piece // d, d]
    return primes


def _perfect_power_root(m: int, pay) -> int | None:
    # b with m = b**k for a prime k, or None.  m has no prime factor below
    # 1000, so b > 1000 and k <= log_1000(m) < bits / log2(1000).  Each root
    # is paid for before it is taken.
    for k in range(2, int(m.bit_length() / math.log2(1000)) + 1):
        if is_prime(k):
            pay(1)
            b = _iroot(m, k)
            if b**k == m:
                return b
    return None


def _iroot(m: int, k: int) -> int:
    # floor(m ** (1/k)) for m >= 1, by Newton's method from 2^e, e just above
    # log2(m) / k by more than its rounding: a relative 2^-40 above the root.
    e = math.log2(m) / k * (1 + 2**-45) + 2**-40
    shift = max(int(e) - 52, 0)
    x = math.ceil(2 ** (e - shift)) << shift
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_brent(n: int, rng: random.Random, pay) -> int:
    # A nontrivial factor of odd composite n; pay(steps) is called before
    # each batch of steps.
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            pay(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                pay(min(m, r - k))
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            pay(m)  # the backtrack repeats at most one batch
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g


def _digits(n: int) -> int:
    # The decimal digits of n != 0, past str's digit limit and in linear time.
    n = abs(n)
    d = int(n.bit_length() * math.log10(2)) + 1
    return d - (n < 10 ** (d - 1))


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def is_squarefree(fact: Factorization) -> bool:
    """True iff every prime exponent equals 1."""
    return all(e == 1 for _, e in fact.factors)


def divisors(fact: Factorization) -> list[int]:
    """All positive divisors of |n| in ascending order.

    Raises CapExceeded when the divisor count would exceed DIVISOR_CAP.
    """
    count = 1
    for _, e in fact.factors:
        count *= e + 1
    if count > DIVISOR_CAP:
        raise CapExceeded(f"divisor count {count} exceeds cap {DIVISOR_CAP}")
    divs = [1]
    for p, e in fact.factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def crt(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences with pairwise coprime moduli.

    ``pairs`` holds (residue, modulus) entries; returns (x, M) where M is
    the product of the moduli and x in [0, M) satisfies every congruence.
    """
    x, modulus = 0, 1
    for residue, m in pairs:
        if m < 1:
            raise InputError(f"modulus must be >= 1, got {m}")
        g = math.gcd(modulus, m)
        if g != 1:
            raise InputError(f"moduli are not pairwise coprime (shared factor {g})")
        if m == 1:
            continue
        inv = pow(modulus, -1, m)
        k = (residue - x) * inv % m
        x += modulus * k
        modulus *= m
    return x % modulus if modulus > 1 else 0, modulus
