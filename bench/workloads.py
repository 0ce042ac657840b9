"""Seeded operation streams for the benchmark workloads.

Every operation is one ``polygcd`` command line.  A stream is a sequence of
*cycles*; a cycle is a fixed list of slots, each slot a stratum (an input
class with a narrow cost range) from which the seed draws a fresh input.
So every run of a workload has the same mix of input classes, and the seed
only changes which inputs fill them.  That keeps a heavy-tailed input
distribution (the pool's non-square-free pairs cost up to 1.8 s each) from
making throughput depend on how many heavy inputs one seed happened to draw.

Nothing here imports ``polygcd``: resultants are computed independently, by
Euclid's algorithm over F_p and the Chinese remainder theorem, so the
checker can use the same helpers as ground truth.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("pool", "atlas", "stress")

# ---------------------------------------------------------------------------
# Plain integer and polynomial arithmetic (leading-first coefficient tuples)
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


PRIMES_BELOW_1000 = small_primes(1000)


# Descending primes below 2**62, found on first use.
_CRT_PRIMES: list[int] = []


def crt_prime(i: int) -> int:
    while len(_CRT_PRIMES) <= i:
        p = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else (1 << 62) - 1
        while not is_probable_prime(p):
            p -= 2
        _CRT_PRIMES.append(p)
    return _CRT_PRIMES[i]


def evaluate(coeffs: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * n + c
    return acc


def poly_text(coeffs: tuple[int, ...]) -> str:
    """An expression the polygcd parser accepts, e.g. ``x^3-2*x+5``."""
    degree = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        power = degree - i
        mono = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


def binomial_power(k: int, a: int) -> tuple[int, ...]:
    """Coefficients of (x+1)^k + a."""
    coeffs = [math.comb(k, i) for i in range(k + 1)]
    coeffs[-1] += a
    return tuple(coeffs)


def _poly_rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[0], -1, p)
    while len(a) >= len(b):
        q = a[0] * inv % p
        if q:
            for i in range(1, len(b)):
                a[i] = (a[i] - q * b[i]) % p
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def resultant_mod(f: tuple[int, ...], g: tuple[int, ...], p: int) -> int:
    """Res(f, g) mod p by Euclid: Res(a, b) = (-1)^(mn) lc(b)^(m-s) Res(b, a mod b)."""
    a = [c % p for c in f]
    b = [c % p for c in g]
    while a and a[0] == 0:
        a.pop(0)
    while b and b[0] == 0:
        b.pop(0)
    if not a or not b:
        return 0
    acc = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        r = _poly_rem_mod(a, b, p)
        if not r:
            return 0
        s = len(r) - 1
        if (m * n) % 2:
            acc = -acc
        acc = acc * pow(b[0], m - s, p) % p
        a, b = b, r
    return acc * pow(b[0], len(a) - 1, p) % p


def resultant_exact(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Exact Res(f, g): CRT over 62-bit primes past twice the Hadamard bound."""
    norm_f = math.isqrt(sum(c * c for c in f)) + 1
    norm_g = math.isqrt(sum(c * c for c in g)) + 1
    bound = 2 * norm_f ** (len(g) - 1) * norm_g ** (len(f) - 1)
    x, modulus, i = 0, 1, 0
    while modulus <= bound:
        p = crt_prime(i)
        residue = resultant_mod(f, g, p)
        k = (residue - x) * pow(modulus, -1, p) % p
        x += modulus * k
        modulus *= p
        i += 1
    return x - modulus if x > modulus // 2 else x


# ---------------------------------------------------------------------------
# Operations and cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One command line plus what the checker needs to judge its output."""

    kind: str  # "analyze", "analyze-json", "resultant", "witness" or "snf"
    argv: tuple[str, ...]
    f: tuple[int, ...]
    g: tuple[int, ...]
    resultant: int | None = None  # known in advance for pool and atlas
    matrix: tuple[tuple[int, ...], ...] | None = None


def interleave(counts: dict[str, int]) -> list[str]:
    """Slots spread evenly: stratum s with c slots sits at (j + 0.5) / c."""
    keyed = [
        ((j + 0.5) / c, i, s)
        for i, (s, c) in enumerate(counts.items())
        for j in range(c)
    ]
    return [s for _, _, s in sorted(keyed)]


def apportion(shares: dict[str, float], size: int) -> dict[str, int]:
    """Largest-remainder rounding of shares to whole slots summing to size."""
    total = sum(shares.values())
    exact = {s: share * size / total for s, share in shares.items()}
    counts = {s: int(v) for s, v in exact.items()}
    spare = size - sum(counts.values())
    for s in sorted(exact, key=lambda s: counts[s] - exact[s])[:spare]:
        counts[s] += 1
    return {s: c for s, c in counts.items() if c}


class Stream:
    """A workload's seeded, endless sequence of cycles.

    ``claim`` keeps inputs unique within a run: no pair is drawn twice, just
    as each real CLI call starts a fresh process with nothing cached.
    """

    def __init__(self, workload: str, seed: int, workdir: str | None = None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.used: set = set()
        self.decks: dict[str, list] = {}
        self.cycles_made = 0

    def next_cycle(self) -> list[Op]:
        make = {"pool": _pool_cycle, "atlas": _atlas_cycle, "stress": _stress_cycle}
        ops = make[self.workload](self)
        self.cycles_made += 1
        return ops

    def claim(self, key) -> bool:
        """True the first time an input is drawn in this run."""
        if key in self.used:
            return False
        self.used.add(key)
        return True


# ---------------------------------------------------------------------------
# pool: the acceptance suite's random pairs, stratified by class and |r|
# ---------------------------------------------------------------------------

POOL_CYCLE = 256

# log10 |r| bucket edges: decades below 1e4, eighth-decades up to 1e6.
_POOL_EDGES = [0, 1, 2, 3, 4] + [4 + j / 8 for j in range(1, 17)]


def random_monic(rng: random.Random) -> tuple[int, ...]:
    # Same draw as the acceptance suite: degree 1-4, coefficients in [-9, 9].
    degree = rng.randint(1, 4)
    return (1,) + tuple(rng.randint(-9, 9) for _ in range(degree))


def pool_stratum(r: int) -> str:
    """Class and |r| bucket: the two things a pool op's cost depends on."""
    if r == 0:
        return "zero"
    m = abs(r)
    squareful = any(m % (p * p) == 0 for p in PRIMES_BELOW_1000 if p * p <= m)
    cls = "nsq" if squareful else "sq"
    if m >= 10**6:
        return f"{cls}:6+"
    level = math.log10(m)
    bucket = max(i for i, edge in enumerate(_POOL_EDGES) if level >= edge)
    return f"{cls}:{_POOL_EDGES[bucket]:g}"


def estimate_pool_shares(draws: int, seed: int = 0) -> dict[str, float]:
    """How often each stratum occurs in the acceptance distribution."""
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for _ in range(draws):
        f, g = random_monic(rng), random_monic(rng)
        s = pool_stratum(resultant_exact(f, g))
        counts[s] = counts.get(s, 0) + 1
    return {s: c / draws for s, c in sorted(counts.items())}


# estimate_pool_shares(400000, seed=0); the self-tests re-estimate it from
# a smaller sample to catch drift between this table and pool_stratum.
POOL_SHARES = {
    "nsq:0": 0.04133,
    "nsq:1": 0.08172,
    "nsq:2": 0.10806,
    "nsq:3": 0.10721,
    "nsq:4": 0.01225,
    "nsq:4.125": 0.01060,
    "nsq:4.25": 0.01029,
    "nsq:4.375": 0.01022,
    "nsq:4.5": 0.00937,
    "nsq:4.625": 0.00924,
    "nsq:4.75": 0.00833,
    "nsq:4.875": 0.00757,
    "nsq:5": 0.00675,
    "nsq:5.125": 0.00613,
    "nsq:5.25": 0.00566,
    "nsq:5.375": 0.00562,
    "nsq:5.5": 0.00493,
    "nsq:5.625": 0.00453,
    "nsq:5.75": 0.00401,
    "nsq:5.875": 0.00344,
    "nsq:6+": 0.01600,
    "sq:0": 0.08698,
    "sq:1": 0.12206,
    "sq:2": 0.11155,
    "sq:3": 0.09428,
    "sq:4": 0.00974,
    "sq:4.125": 0.00802,
    "sq:4.25": 0.00757,
    "sq:4.375": 0.00761,
    "sq:4.5": 0.00712,
    "sq:4.625": 0.00661,
    "sq:4.75": 0.00612,
    "sq:4.875": 0.00598,
    "sq:5": 0.00506,
    "sq:5.125": 0.00454,
    "sq:5.25": 0.00419,
    "sq:5.375": 0.00388,
    "sq:5.5": 0.00359,
    "sq:5.625": 0.00333,
    "sq:5.75": 0.00278,
    "sq:5.875": 0.00250,
    "sq:6+": 0.01119,
    "zero": 0.01205,
}


def _pool_cycle(stream: Stream) -> list[Op]:
    slots = interleave(apportion(POOL_SHARES, POOL_CYCLE))
    wanted: dict[str, int] = {}
    for s in slots:
        wanted[s] = wanted.get(s, 0) + 1
    found: dict[str, list] = {s: [] for s in wanted}
    rng = stream.rng
    while any(len(found[s]) < n for s, n in wanted.items()):
        f, g = random_monic(rng), random_monic(rng)
        if (f, g) in stream.used:
            continue
        r = resultant_exact(f, g)
        s = pool_stratum(r)
        if s in found and len(found[s]) < wanted[s]:
            stream.claim((f, g))
            found[s].append((f, g, r))
    ops = []
    for s in slots:
        f, g, r = found[s].pop(0)
        argv = ("analyze", "--f", poly_text(f), "--g", poly_text(g))
        ops.append(Op("analyze", argv, f, g, resultant=r))
    return ops


# ---------------------------------------------------------------------------
# atlas: square-free |r| in [1e4, 1e6) with 3-7 prime factors, JSON output
# ---------------------------------------------------------------------------

# Quarter-decade |r| buckets; k primes fit in a bucket only above their
# primorial (2*3*5*7*11*13*17 = 510510 for k = 7).
_ATLAS_BUCKETS = [4 + j / 4 for j in range(8)]
_FITTING = [
    (k, lo)
    for k in range(3, 8)
    for lo in _ATLAS_BUCKETS
    if math.prod(PRIMES_BELOW_1000[:k]) < 10 ** (lo + 0.25)
]
# The 3-prime slots come three times and the 4-prime ones twice.  That gives
# more operations per run, and keeps the five 6- and 7-prime slots near 10^6
# (0.4-1 s each, listing most of their |r| residues) under 10% of a cycle, so
# p90 falls among the many 150-300 ms operations rather than on the step up
# to them.
ATLAS_SLOTS = _FITTING + [(k, lo) for k, lo in _FITTING for _ in range(max(0, 5 - k))]


def random_squarefree(rng: random.Random, k: int, lo: int, hi: int) -> int:
    """A product of k distinct primes in [lo, hi)."""
    # A prime p can take part only if p times the k - 1 smallest primes fits.
    room = hi // math.prod(PRIMES_BELOW_1000[: k - 1])
    pool = [p for p in PRIMES_BELOW_1000 if p <= room]
    while True:
        primes = rng.sample(pool, k - 1)
        base = math.prod(primes)
        first, last = -(-lo // base), (hi - 1) // base
        if first > last:
            continue
        p = _next_prime(rng.randint(first, last))
        if p <= last and p not in primes:
            return base * p


def _next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_probable_prime(n):
        n += 1
    return n


def atlas_pair(rng: random.Random, target: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f of degree 2-3 and g = x + b with Res(f, g) = +-target.

    Res(f, x + b) = (-1)^deg f * f(-b), so f's constant term is solved for.
    """
    degree = rng.randint(2, 3)
    b = rng.randint(-9, 9)
    head = (1,) + tuple(rng.randint(-9, 9) for _ in range(degree - 1))
    value = evaluate(head + (0,), -b)
    const = rng.choice((1, -1)) * target - value
    f = head + (const,)
    g = (1, b)
    return (f, g) if rng.random() < 0.5 else (g, f)


def _atlas_cycle(stream: Stream) -> list[Op]:
    rng = stream.rng
    ops = []
    for k, lo in ATLAS_SLOTS:
        low, high = max(10**4, round(10**lo)), round(10 ** (lo + 0.25))
        while True:
            target = random_squarefree(rng, k, low, high)
            f, g = atlas_pair(rng, target)
            if stream.claim((f, g)):
                break
        r = resultant_exact(f, g)
        argv = ("analyze", "--json", "--f", poly_text(f), "--g", poly_text(g))
        ops.append(Op("analyze-json", argv, f, g, resultant=r))
    return ops


# ---------------------------------------------------------------------------
# stress: x^k + a against (x+1)^k + a
# ---------------------------------------------------------------------------

# Sylvester matrices 20x20 to 100x100.  k = 30 comes three times, so that
# the median operation falls inside a block of like-cost ones rather than
# on the step between the cheap ones and the SNFs.
_RESULTANT_KS = (10, 20, 30, 30, 30, 40, 50)
SNF_K = 17
# For a = 2 (mod 3) the SNF of this family's 34x34 Sylvester matrix takes
# 0.4-2.9 s and jumps erratically with a; the other residues take 35-200 ms
# with a few 0.5-0.9 s outliers.  Only those are drawn, so that a handful of
# multi-second SNFs does not decide a run's throughput.

# a for each k such that Res(x^k + a, (x+1)^k + a), after trial division to
# 10^6, leaves one prime of 20 or more digits ("big"), or a composite whose
# second-largest prime has 8-10 digits ("rho").  Found offline with
# sympy.factorint over 8 <= k <= 18 and 0 < |a| <= 60; README.md says which
# candidates were left out and why.
_BIG = {
    11: (
        -57, -53, -50, -49, -40, -39, -33, -31, -26, -23, -18, -17, -15,
        -14, -10, -8, -5, -4, 4, 5, 8, 10, 14, 15, 17, 18, 23, 26, 31, 33,
        39, 40, 49, 50, 53, 57,
    ),
    13: (
        -60, -58, -53, -52, -47, -41, -39, -36, -35, -34, -20, -15, -14, -9,
        -7, -3, 3, 7, 9, 14, 15, 20, 34, 35, 36, 39, 41, 47, 52, 53, 58, 60,
    ),
    17: (
        -60, -59, -55, -54, -50, -48, -38, -37, -34, -26, -25, -24, -22,
        -20, -15, -13, -9, -5, 5, 9, 13, 15, 20, 22, 24, 25, 26, 34, 37, 38,
        48, 50, 54, 55, 59, 60,
    ),
}
_RHO = {
    9: (
        -42, -40, 40, 42,
    ),
    11: (
        -60, -58, -56, -54, -51, -44, -43, -41, -29, -28, -25, -24, -20,
        -16, -13, -9, -6, 6, 9, 13, 16, 20, 24, 25, 28, 29, 41, 43, 44, 51,
        54, 56, 58, 60,
    ),
    13: (
        -55, -46, -44, -40, -32, -31, -29, -22, -19, -17, -12, -11, -8, -5,
        5, 8, 11, 12, 17, 19, 22, 29, 31, 32, 40, 44, 46, 55,
    ),
    14: (
        -46, -42, -26, -24, -14, 32, 38, 56, 60,
    ),
    15: (
        -60, -57, -55, -54, -51, -48, -43, -39, -37, -34, -31, -30, -23,
        -21, -17, -12, -11, -10, -9, 9, 10, 11, 12, 17, 21, 23, 30, 31, 34,
        37, 39, 43, 48, 51, 54, 55, 57, 60,
    ),
    17: (
        -58, -51, -30, -23, -17, -3, 3, 17, 23, 30, 51, 58,
    ),
    18: (
        -51, -47, -44, -41, -35, -30, -29, -23, -22, -21, -12, 9, 10, 14,
        16, 20, 22, 25, 31, 39, 43, 52, 54, 58, 59,
    ),
}
# The rho pairs whose r is square-free with 4 or 5 primes: 16-32 atlas
# entries, most of them truncated walks.
_RHO_WIDE = {
    9: (
        -46, -30, 30, 46,
    ),
    11: (
        -59, -55, -38, -36, 36, 38, 55, 59,
    ),
    13: (
        -48, -18, 18, 48,
    ),
    15: (
        -2, 2,
    ),
    17: (
        -21, -8, 8, 21,
    ),
}
STRESS_BIG = tuple((k, a) for k, values in _BIG.items() for a in values)
STRESS_RHO = tuple((k, a) for k, values in _RHO.items() for a in values)
STRESS_RHO_WIDE = tuple((k, a) for k, values in _RHO_WIDE.items() for a in values)
_TABLES = {"big": STRESS_BIG, "rho": STRESS_RHO, "rho-wide": STRESS_RHO_WIDE}
_TABLE_PAIRS = frozenset(STRESS_BIG + STRESS_RHO + STRESS_RHO_WIDE)


def stress_pair(k: int, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (1,) + (0,) * (k - 1) + (a,), binomial_power(k, a)


def _family_argv(kind: str, k: int, a: int) -> tuple[str, ...]:
    sign = f"+{a}" if a > 0 else str(a)
    return (kind, "--f", f"x^{k}{sign}", "--g", f"(x+1)^{k}{sign}")


_TABLE_SLOTS = [
    ("analyze", "big"),
    ("analyze", "rho"),
    ("analyze", "rho-wide"),
    ("witness", "big"),
    ("witness", "rho"),
]


def _draw_table(stream: Stream, label: str) -> tuple[int, int]:
    """The next pair of a seeded shuffle of table ``label``.

    A pair comes back only after every pair of the table has been drawn in
    this run, which takes 22 cycles for the smallest table (rho-wide).
    """
    deck = stream.decks.get(label)
    if not deck:
        table = _TABLES[label]
        deck = stream.decks[label] = stream.rng.sample(table, len(table))
    return deck.pop()


def _stress_cycle(stream: Stream) -> list[Op]:
    rng = stream.rng
    ops = []
    for k in _RESULTANT_KS:
        for verify in (False, True):
            while True:
                a = rng.choice((-1, 1)) * rng.randint(1, 999)
                if (k, a) not in _TABLE_PAIRS and stream.claim(("family", k, a)):
                    break
            argv = _family_argv("resultant", k, a) + (("--verify",) if verify else ())
            f, g = stress_pair(k, a)
            ops.append(Op("resultant", argv, f, g))
    for kind, label in _TABLE_SLOTS:
        k, a = _draw_table(stream, label)
        f, g = stress_pair(k, a)
        ops.append(Op(kind, _family_argv(kind, k, a), f, g))
    for _ in range(2):
        while True:
            a = rng.choice((-1, 1)) * rng.randint(1, 999)
            if a % 3 != 2 and stream.claim(("snf", a)):
                break
        f, g = stress_pair(SNF_K, a)
        matrix = sylvester_rows(f, g)
        path = write_matrix(stream.workdir, f"sylvester-{SNF_K}-{a}.txt", matrix)
        ops.append(Op("snf", ("snf", "--matrix", path), f, g, matrix=matrix))
    return ops


def sylvester_rows(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    k, l = len(f) - 1, len(g) - 1
    n = k + l
    rows = [(0,) * i + f + (0,) * (n - k - 1 - i) for i in range(l)]
    rows += [(0,) * j + g + (0,) * (n - l - 1 - j) for j in range(k)]
    return tuple(rows)


def write_matrix(directory: str, name: str, rows) -> str:
    """The ``snf --matrix`` input file: one whitespace-separated row a line."""
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    return path
