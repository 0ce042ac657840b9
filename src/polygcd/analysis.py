"""The divisor-to-residue atlas of gcd(f(n), g(n)).

For monic integer f and g with square-free resultant r, every positive
divisor d of r occurs as gcd(f(n), g(n)), and within one period of length
|r| it occurs exactly prod(p - 1) times, the product running over the
primes p dividing |r|/d.  ``analyze`` turns that statement into data: one
walk of the subresultant chain gives r and S_1 = s1*x + s0, which lies in
the ideal (f, g).  So with c = -s0/s1, the p-part of gcd(f(n), g(n)) is
gcd(n - c, p^e) for each p^e exactly dividing r with p not dividing s1.
Square-free r makes s1 a unit mod r, so gcd(f(n), g(n)) = gcd(n - c, |r|):
the residues realizing d are the n = c mod d with gcd((n - c)/d, |r|/d) = 1.

Otherwise ``analyze`` reports what it can: a zero resultant comes back with
the common factor in Z[x]; a non-square-free one, for any r that ``factor``
splits, as a ``NotSquarefree``: the exact histogram of the values over one
period, their minimal period, and an n realizing gcd 1 or the prime that rules
one out (found from gcds with the parts of r, as ``coprime_witness`` finds it
without factoring r).  The histogram convolves one local table per p^e, the
closed form of gcd(n - c, p^e) when p does not divide s1 and a tree of classes
a mod p^j, of at most min(deg f, deg g) * e nodes, when it does; the minimal
period is the product of the local ones.  Those of the closed form multiply to
R_1, the largest divisor of |r| coprime to s1, so ``minimal_period`` factors
only |r| / R_1.  Under ``verify`` one pass after the outcome is built checks r
against the Bareiss determinant, each c mod p against the common root of a gcd
in F_p[x], and, when |r| is within BRUTE_FORCE_CAP, the atlas or the
histogram, period and witness verdict against the brute-force oracle.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .errors import CapExceeded, CriterionInapplicable, InputError, InvariantBreach
from .linalg import _check_bareiss, _subresultant_resultant, resultant
from .modp import _common_roots_mod_p, common_root_mod_p
from .ntheory import DIVISOR_CAP, Factorization, divisors, factor, is_squarefree, crt
from .ntheory import _TRIAL_DIVISION_BOUND, _trial_divide
from .oracle import BRUTE_FORCE_CAP, brute_force_profile
from .poly import IntPoly, MonicIntPoly, gcd_over_Z

__all__ = [
    "RESIDUE_LISTING_CAP",
    "AtlasEntry",
    "GcdAtlas",
    "ZeroResultant",
    "NotSquarefree",
    "AnalysisOutcome",
    "analyze",
    "minimal_period",
    "coprime_witness",
]

RESIDUE_LISTING_CAP = 10**4


class AtlasEntry(NamedTuple):
    """One divisor d of |r| with its multiplicity and realizing residues.

    ``multiplicity`` is the exact number of residues n in [0, |r|) with
    gcd(f(n), g(n)) = d.  ``residues`` lists them in ascending order; when
    the count exceeds the listing cap only the smallest ones are kept, and
    ``truncated`` reads true.
    """

    divisor: int
    multiplicity: int
    residues: tuple[int, ...]

    @property
    def truncated(self) -> bool:
        return self.multiplicity > len(self.residues)


class GcdAtlas(NamedTuple):
    """Complete divisor -> residues map for a square-free resultant."""

    squarefree = True

    factorization: Factorization
    roots: dict[int, int]
    entries: tuple[AtlasEntry, ...]

    @property
    def resultant(self) -> int:
        return self.factorization.n

    def entry_for(self, divisor: int) -> AtlasEntry:
        for entry in self.entries:
            if entry.divisor == divisor:
                return entry
        raise KeyError(divisor)

    def multiplicity_histogram(self) -> dict[int, int]:
        return {e.divisor: e.multiplicity for e in self.entries}


class ZeroResultant(NamedTuple):
    """r = 0: f and g share a non-constant factor; the gcd range is infinite."""

    common_factor: IntPoly
    sample_values: tuple[int, ...]


class NotSquarefree(NamedTuple):
    """r != 0 but not square-free: no atlas, but an exact profile.

    ``histogram`` maps each value gcd(f(n), g(n)) to the number of n in one
    period [0, |r|) realizing it, in ascending order of value; ``gcd_range``
    is its keys and ``period`` the smallest positive period of the values.
    ``witness`` is an n with gcd(f(n), g(n)) = 1, or None when none exists;
    then ``common_prime`` is the smallest prime dividing every value.
    """

    factorization: Factorization
    histogram: dict[int, int]
    period: int
    witness: int | None
    common_prime: int | None

    @property
    def resultant(self) -> int:
        return self.factorization.n

    @property
    def gcd_range(self) -> tuple[int, ...]:
        return tuple(self.histogram)

    @property
    def witness_applicable(self) -> bool:
        return self.witness is not None


AnalysisOutcome = GcdAtlas | ZeroResultant | NotSquarefree


def analyze(
    f: MonicIntPoly,
    g: MonicIntPoly,
    *,
    residue_cap: int = RESIDUE_LISTING_CAP,
    verify: bool = False,
) -> AnalysisOutcome:
    """Classify the pair (f, g) and build the atlas when it exists.

    Each atlas entry lists at most ``residue_cap`` residues.  With
    ``verify=True`` the resultant is cross-checked against the Bareiss
    determinant of the Sylvester matrix, every root c mod p of the atlas
    against ``common_root_mod_p`` and, when |r| is within BRUTE_FORCE_CAP,
    the atlas (entry by entry) or the non-square-free profile and witness
    verdict against the brute-force oracle.
    """
    if residue_cap < 1:
        raise InputError(f"caps must be positive, got {residue_cap}")
    r, (s1, s0) = _subresultant_resultant(list(f.coeffs), list(g.coeffs))
    if r == 0:
        samples = tuple(math.gcd(f.evaluate(n), g.evaluate(n)) for n in range(8))
        outcome = ZeroResultant(gcd_over_Z(f, g), samples)
    else:
        coprime, c = _closed_form(r, s1, s0)
        fact = factor(r)
        if is_squarefree(fact):
            outcome = build_atlas(fact, coprime, c, residue_cap=residue_cap)
        else:
            # What trial division would leave to place: each prime below
            # 1000 once, and the cofactor of the larger ones whole.
            unplaced = math.prod(
                p if p < _TRIAL_DIVISION_BOUND else p**e for p, e in fact.factors
            )
            witness, common_prime = _place_witness(f, g, r, unplaced)
            histogram, period = _gcd_profile(f, g, fact, coprime)
            outcome = NotSquarefree(fact, histogram, period, witness, common_prime)
    if verify:
        _verify(f, g, r, outcome)
    return outcome


def _verify(f: MonicIntPoly, g: MonicIntPoly, r: int, outcome: AnalysisOutcome):
    # Every check of analyze(verify=True), each made once; the first disagreement
    # raises.  The oracle's modulus comes from resultant(verify=True), which
    # checks the PRS against Bareiss, so only without the oracle is it done here.
    if isinstance(outcome, GcdAtlas):
        # A gcd in F_p[x] finds each root apart from the chain, at any size of p.
        for p, c in outcome.roots.items():
            c_p = common_root_mod_p(f, g, p)
            if c_p != c:
                raise InvariantBreach(
                    f"common root mod {p}: the subresultant gives {c},"
                    f" the gcd mod {p} gives {c_p}"
                )
    if not 0 < abs(r) <= BRUTE_FORCE_CAP:
        _check_bareiss(f, g, r)
        return
    oracle = brute_force_profile(f, g)
    if oracle.modulus != abs(r):
        raise InvariantBreach(f"the oracle's period {oracle.modulus} is not |r| = {abs(r)}")
    if isinstance(outcome, GcdAtlas):
        if outcome.multiplicity_histogram() != oracle.histogram:
            raise InvariantBreach("atlas multiplicities disagree with the brute-force oracle")
        # The counts agree, so a full listing must equal the oracle's, a truncated one its prefix.
        by_value = oracle.residues_by_value()
        for entry in outcome.entries:
            if entry.residues != by_value[entry.divisor][: len(entry.residues)]:
                raise InvariantBreach(
                    f"listed residues for divisor {entry.divisor} disagree with the oracle"
                )
        return
    if (outcome.histogram, outcome.gcd_range) != (oracle.histogram, oracle.gcd_range):
        raise InvariantBreach("the gcd profile disagrees with the brute-force oracle")
    if outcome.period != oracle.minimal_period():
        raise InvariantBreach(
            f"minimal period {outcome.period} disagrees with the brute-force oracle"
        )
    # A witness exactly when 1 is a value; without one, the prime divides every value.
    if outcome.witness is not None:
        holds = 1 in oracle.histogram
    else:
        holds = all(v % outcome.common_prime == 0 for v in oracle.gcd_range)
    if not holds:
        raise InvariantBreach("the coprime-witness verdict disagrees with the brute-force oracle")


def build_atlas(fact: Factorization, coprime: int, c: int, *, residue_cap: int) -> GcdAtlas:
    """Atlas for the square-free resultant ``fact`` of (f, g) from its closed form
    (coprime, c): the common root of f and g mod each p | r is c mod p."""
    modulus = abs(fact.n)
    if coprime != modulus:
        raise InvariantBreach(f"the subresultant chain's s1 is not a unit mod r = {fact.n}")
    primes = list(fact.primes())
    roots = {p: c % p for p in primes}
    entries = []
    total = 0
    for d in divisors(fact):
        entry = _atlas_entry(modulus, primes, c, d, residue_cap)
        total += entry.multiplicity
        entries.append(entry)
    if total != modulus:
        raise InvariantBreach(
            f"atlas multiplicities sum to {total}, expected the period {modulus}"
        )
    if entries[-1].multiplicity != 1:
        raise InvariantBreach("the divisor |r| must be realized exactly once")
    return GcdAtlas(
        factorization=fact,
        roots=roots,
        entries=tuple(entries),
    )


def _atlas_entry(
    modulus: int, primes: list[int], c: int, d: int, residue_cap: int
) -> AtlasEntry:
    # gcd(f(n), g(n)) = gcd(n - c, |r|), so d is realized exactly by the
    # n = c (mod d) whose cofactor (n - c) / d is coprime to |r| / d.
    multiplicity = math.prod(p - 1 for p in primes if d % p)
    cofactor = modulus // d
    residues: list[int] = []
    for n in range(c % d, modulus, d):
        if len(residues) == residue_cap:
            break
        if math.gcd((n - c) // d, cofactor) == 1:
            residues.append(n)
    return AtlasEntry(d, multiplicity, tuple(residues))


def _gcd_profile(f: MonicIntPoly, g: MonicIntPoly, fact: Factorization, coprime: int) -> tuple[dict[int, int], int]:
    # The p-parts of gcd(f(n), g(n)) for the different primes p | r are
    # independent by CRT, so the value histogram is the multiplicative
    # convolution of the local histograms (their keys are coprime, so no two
    # products collide) and the minimal period is the product of the local ones.
    # Its size is the product of theirs, at most the divisor count of |r|.
    # For p | coprime the p-part is gcd(n - c, p^e): p^k for phi(p^(e-k)) of
    # the n mod p^e; for the other p the lifting tree gives it.
    histograms, periods = zip(*(
        ({**{p**k: (p - 1) * p ** (e - k - 1) for k in range(e)}, p**e: 1}, p**e)
        if coprime % p == 0 else _lifting_tree(f, g, p, e)
        for p, e in fact.factors
    ))
    count = math.prod(map(len, histograms))
    if count > DIVISOR_CAP:
        raise CapExceeded(f"gcd value count {count} exceeds cap {DIVISOR_CAP}")
    histogram = {1: 1}
    for local in histograms:
        histogram = {
            a * b: ca * cb for a, ca in histogram.items() for b, cb in local.items()
        }
    return dict(sorted(histogram.items())), math.prod(periods)


def _lifting_tree(f: MonicIntPoly, g: MonicIntPoly, p: int, e: int) -> tuple[dict[int, int], int]:
    # A node is a class n = a + p^j t, with F(t) = f(a + p^j t) and G(t) the
    # same for g, mod p^e.  The gcd p^m of their coefficients divides both
    # values on the class, and p^(m+1) does exactly at the common roots t mod p
    # of F/p^m and G/p^m, each a child a + p^j t mod p^(j+1); the other t get
    # p^m.  m grows with j, so at most e levels of min(deg f, deg g) nodes each.
    q = p**e
    histogram: dict[int, int] = {}
    leaves = []  # (a, j, value) of the classes on which the p-part is constant
    deepest_split = 0  # a node whose class splits into values p^m and above
    nodes = [(0, 0, [c % q for c in f.coeffs], [c % q for c in g.coeffs])]
    while nodes:
        a, j, F, G = nodes.pop()
        d = math.gcd(*F, *G, q)
        roots = [] if d == q else _common_roots_mod_p([c // d for c in F], [c // d for c in G], p)
        if not roots:
            leaves.append((a, j, d))
            histogram[d] = histogram.get(d, 0) + p ** (e - j)
            continue
        if len(roots) < p:
            deepest_split = max(deepest_split, j + 1)
            histogram[d] = histogram.get(d, 0) + (p - len(roots)) * p ** (e - j - 1)
        for t in roots:
            nodes.append((a + p**j * t, j + 1, _shift(F, t, p, q), _shift(G, t, p, q)))
    # p^i is a period iff no class deeper than i splits and the constant
    # classes deeper than i agree on each class mod p^i; bisect for the least i.
    def agree(i):
        seen: dict[int, int] = {}
        return all(seen.setdefault(a % p**i, d) == d for a, j, d in leaves if j > i)

    return histogram, p ** (deepest_split + bisect_left(range(deepest_split, e), True, key=agree))


def _shift(F: list[int], t: int, p: int, q: int) -> list[int]:
    # The coefficients, leading-first, of F(t + p u) in u, mod q.
    F = list(F)
    for i in range(len(F) - 1 if t else 0):
        for k in range(1, len(F) - i):
            F[k] = (F[k] + t * F[k - 1]) % q
    return [c * p ** (len(F) - 1 - k) % q for k, c in enumerate(F)]


def minimal_period(f: MonicIntPoly, g: MonicIntPoly) -> int:
    """Smallest positive t with gcd(f(n), g(n)) = gcd(f(n+t), g(n+t)) for all n.

    It is R_1, the largest divisor of |r| coprime to s1, on which the gcd is
    gcd(n - c, R_1), times the lifting tree's minimal period for each p^e
    exactly dividing |r| / R_1.  R_1 is never factored, and no |r| values
    are scanned.
    """
    r, (s1, s0) = _subresultant_resultant(list(f.coeffs), list(g.coeffs))
    if r == 0:
        raise InputError("resultant is zero: no finite period exists in general")
    coprime, _ = _closed_form(r, s1, s0)
    return coprime * math.prod(
        _lifting_tree(f, g, p, e)[1] for p, e in factor(abs(r) // coprime).factors
    )


def _closed_form(r: int, s1: int, s0: int) -> tuple[int, int]:
    """(R_1, c): R_1 the largest divisor of |r| coprime to s1 (1 when s1 = 0),
    and c = -s0/s1 mod R_1, so that gcd(f(n), g(n)) has the part gcd(n - c, R_1)
    at the primes of R_1: S_1 = s1*x + s0 lies in the ideal (f, g)."""
    coprime = _coprime_part(abs(r), s1)
    return coprime, -s0 * pow(s1, -1, coprime) % coprime


def coprime_witness(f: MonicIntPoly, g: MonicIntPoly) -> int:
    """An integer n with gcd(f(n), g(n)) = 1, from the resultant r of (f, g)
    and gcds alone: r is never factored.

    A prime q | r divides gcd(f(n), g(n)) for at most m = min(deg f, deg g)
    residues n mod q, unless q <= m and it divides every value.  So for
    n = 0..m in turn, the part of r not yet placed that is coprime to
    gcd(f(n), g(n)) takes n as its residue: each prime below 1000 mod
    itself, and the cofactor left by trial division mod all of it.  The
    witness is the CRT of these congruences.  Raises CriterionInapplicable,
    naming the smallest prime p <= m that divides every value; then p^p
    divides r (the paper's criterion) and no witness exists.
    """
    r = resultant(f, g)
    if r == 0:
        raise InputError("resultant is zero: the witness criterion needs r != 0")
    small, rest = _trial_divide(abs(r))
    witness, prime = _place_witness(f, g, r, math.prod(small) * rest)
    if witness is None:
        raise CriterionInapplicable(prime)
    return witness


def _place_witness(
    f: MonicIntPoly, g: MonicIntPoly, r: int, unplaced: int
) -> tuple[int, None] | tuple[None, int]:
    """(n, None) with gcd(f(n), g(n)) = 1, or (None, p) naming the smallest
    prime p that divides every value.  ``unplaced`` is a product of powers
    of exactly the primes of r, and the witness n lies in [0, unplaced)."""
    m = min(f.degree, g.degree)
    congruences = []
    n = 0
    while unplaced > 1 and n <= m:
        part = _coprime_part(unplaced, math.gcd(f.evaluate(n), g.evaluate(n)))
        if part > 1:
            congruences.append((n, part))
            unplaced //= part
        n += 1
    if unplaced > 1:
        # Its primes divide every value, so they are <= m.  Then f and g
        # share the p roots of x^p - x mod p, which forces p^p | r.
        p = next((q for q in range(2, m + 1) if unplaced % q == 0), unplaced)
        if p > m or r % p**p:
            raise InvariantBreach(f"the prime {p} divides every gcd value, yet not p^p | r")
        return None, p
    witness = crt(congruences)[0]
    if math.gcd(f.evaluate(witness), g.evaluate(witness)) != 1:
        raise InvariantBreach("coprime witness failed its own verification")
    return witness, None


def _coprime_part(a: int, v: int) -> int:
    """The largest divisor of a > 0 that is coprime to v."""
    g = math.gcd(a, v)
    while g > 1:
        # The primes of a that divide v are exactly those of g.
        a //= g
        g = math.gcd(a, g)
    return a
