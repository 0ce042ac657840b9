import json
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from polygcd import (
    AtlasEntry,
    BruteForceProfile,
    CapExceeded,
    CriterionInapplicable,
    Factorization,
    GcdAtlas,
    IntPoly,
    InvariantBreach,
    MonicIntPoly,
    NotSquarefree,
    ZeroResultant,
    analyze,
    brute_force_profile,
    coprime_witness,
    divisors,
    factor,
    is_squarefree,
    minimal_period,
    resultant,
)
import polygcd.analysis
import polygcd.cli
import polygcd.linalg
import polygcd.ntheory
import polygcd.oracle
from polygcd.analysis import _closed_form, _coprime_part, _gcd_profile, _lifting_tree
from polygcd.errors import InputError
from polygcd.linalg import _subresultant_resultant
from polygcd.ntheory import _trial_divide

from support import acceptance_pair_pool, naive_add, naive_local_profile, naive_mul, random_monic


P52 = 8936582237915716659950962253358945635793453256935559


def mp(text):
    return MonicIntPoly.parse(text)


# ---------------------------------------------------------------------------
# analyze: the three outcome branches
# ---------------------------------------------------------------------------


def test_analyze_atlas_branch_prime_resultant():
    outcome = analyze(mp("x^2+3"), mp("(x+1)^2+3"), verify=True)
    assert isinstance(outcome, GcdAtlas)
    assert outcome.resultant == 13
    assert outcome.squarefree
    assert outcome.roots == {13: 6}
    assert outcome.multiplicity_histogram() == {1: 12, 13: 1}
    assert outcome.entry_for(13).residues == (6,)
    assert outcome.entry_for(1).residues == tuple(n for n in range(13) if n != 6)
    with pytest.raises(KeyError):
        outcome.entry_for(2)


def test_analyze_zero_resultant_branch():
    outcome = analyze(mp("x^2+x+1"), mp("x^2+x+1"))
    assert isinstance(outcome, ZeroResultant)
    assert outcome.common_factor == IntPoly((1, 1, 1))
    assert all(v % 2 == 1 for v in outcome.sample_values)


def test_analyze_not_squarefree_branch():
    outcome = analyze(mp("x^2-1"), mp("x^2+1"))
    assert isinstance(outcome, NotSquarefree)
    assert outcome.resultant == 4
    assert outcome.period == 2
    assert outcome.gcd_range == (1, 2)
    # 2^2 divides r, yet gcd(f(0), g(0)) = gcd(-1, 1) = 1
    assert outcome.witness_applicable
    assert outcome.witness == 0 and outcome.common_prime is None


@pytest.mark.parametrize(
    "cls, name",
    [
        (GcdAtlas, "squarefree"),
        (GcdAtlas, "resultant"),
        (AtlasEntry, "truncated"),
        (NotSquarefree, "gcd_range"),
        (NotSquarefree, "witness_applicable"),
        (NotSquarefree, "resultant"),
        (BruteForceProfile, "gcd_range"),
        (Factorization, "sign"),
    ],
)
def test_derived_attributes_are_not_stored(cls, name):
    # Each is read from another field (or is constant), so it cannot disagree.
    assert name not in cls.__match_args__
    assert hasattr(cls, name)


def test_analyze_profile_does_not_read_the_brute_force_cap(monkeypatch):
    f, g = mp("x^2-1"), mp("x^2+1")
    uncapped = analyze(f, g)
    for module in (polygcd.analysis, polygcd.oracle):
        monkeypatch.setattr(module, "BRUTE_FORCE_CAP", 2)
    outcome = analyze(f, g)
    assert isinstance(outcome, NotSquarefree)
    assert outcome == uncapped
    assert outcome.histogram == {1: 2, 2: 2}


def test_analyze_atlas_json_schema(capsys):
    # analyze --json writes the atlas that analyze() returns, every integer
    # as a decimal string.
    f, g = mp("x^2+3"), mp("(x+1)^2+3")
    atlas = analyze(f, g)
    assert polygcd.cli.main(["analyze", "--f", str(f), "--g", str(g), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f"] == "x^2 + 3"
    assert doc["g"] == "x^2 + 2*x + 4"
    assert doc["resultant"] == "13"
    assert doc["squarefree"] is True
    assert doc["roots"] == {"13": "6"}
    assert doc["entries"][1] == {
        "divisor": "13",
        "multiplicity": "1",
        "residues": ["6"],
        "residues_truncated": False,
    }
    assert doc["resultant"] == str(atlas.resultant)
    assert doc["roots"] == {str(p): str(c) for p, c in atlas.roots.items()}
    assert [e["divisor"] for e in doc["entries"]] == [str(e.divisor) for e in atlas.entries]


# ---------------------------------------------------------------------------
# atlas specifics
# ---------------------------------------------------------------------------


def test_atlas_linear_pair_with_negative_resultant():
    f, g = mp("x+1"), mp("x-1")
    assert resultant(f, g) == -2
    atlas = analyze(f, g)
    assert atlas.resultant == -2
    assert atlas.entry_for(2).residues == (1,)
    assert atlas.entry_for(2).multiplicity == 1
    assert atlas.entry_for(1).residues == (0,)
    assert atlas.entry_for(1).multiplicity == 1
    # brute-force confirmation over n in {0, 1}
    assert math.gcd(f.evaluate(0), g.evaluate(0)) == 1
    assert math.gcd(f.evaluate(1), g.evaluate(1)) == 2


@pytest.mark.parametrize("f_text, g_text", [("x+1", "x"), ("x^2-4*x+1", "x^3-3*x^2-3*x")])
def test_atlas_for_a_unit_resultant(f_text, g_text):
    # |r| = 1 makes s1 a unit mod r even when the chain skips degree 1 (s1 = 0).
    atlas = analyze(mp(f_text), mp(g_text), verify=True)
    assert abs(atlas.resultant) == 1 and atlas.roots == {}
    assert [(e.divisor, e.multiplicity, e.residues) for e in atlas.entries] == [(1, 1, (0,))]


def test_atlas_multiplicity_formula_is_count_shape_only():
    # For squarefree |r| = 30: d = 1 has multiplicity (2-1)(3-1)(5-1) = 8,
    # d = 30 has multiplicity 1, and the sum over divisors is 30.
    counts = {}
    for d in divisors(factor(30)):
        counts[d] = math.prod(p - 1 for p in (2, 3, 5) if d % p != 0)
    assert counts[1] == 8
    assert counts[30] == 1
    assert sum(counts.values()) == 30


def test_count_identity_for_all_squarefree_moduli_up_to_10000():
    # sum over d | m of prod_{p | m/d} (p - 1) = m, for square-free m.
    limit = 10**4
    smallest = list(range(limit + 1))
    for p in range(2, limit + 1):
        if smallest[p] == p:
            for q in range(p * p, limit + 1, p):
                if smallest[q] == q:
                    smallest[q] = p
    checked = 0
    for m in range(2, limit + 1):
        primes = []
        n = m
        squarefree = True
        while n > 1:
            p = smallest[n]
            n //= p
            if n % p == 0:
                squarefree = False
                break
            primes.append(p)
        if not squarefree:
            continue
        total = 0
        for mask in range(1 << len(primes)):
            term = 1
            for i, p in enumerate(primes):
                if not (mask >> i) & 1:
                    term *= p - 1
            total += term
        assert total == m
        checked += 1
    assert checked > 6000


def test_atlas_truncation_lists_smallest_residues_first():
    f, g = mp("x^2+3"), mp("(x+1)^2+3")
    atlas = analyze(f, g, residue_cap=5)
    entry = atlas.entry_for(1)
    assert entry.truncated
    assert entry.multiplicity == 12
    assert entry.residues == (0, 1, 2, 3, 4)
    full = analyze(f, g).entry_for(1)
    assert not full.truncated
    assert full.residues[:5] == entry.residues


@pytest.mark.parametrize("residue_cap, truncated", [(12, False), (3, True)])
def test_verify_catches_one_wrong_listed_residue(monkeypatch, residue_cap, truncated):
    # r = 13: the divisor 1 takes every residue but 6.  Replacing the last one
    # listed by 6 keeps every multiplicity, so only the residue check sees it.
    build = polygcd.analysis.build_atlas

    def corrupted(*args, **kwargs):
        atlas = build(*args, **kwargs)
        ones, *rest = atlas.entries
        wrong = ones._replace(residues=(*ones.residues[:-1], 6))
        return atlas._replace(entries=(wrong, *rest))

    f, g = mp("x^2+3"), mp("(x+1)^2+3")
    monkeypatch.setattr(polygcd.analysis, "build_atlas", corrupted)
    assert analyze(f, g, residue_cap=residue_cap).entry_for(1).truncated == truncated
    with pytest.raises(InvariantBreach, match="listed residues for divisor 1 disagree"):
        analyze(f, g, residue_cap=residue_cap, verify=True)


def _multi_prime_pool_pairs():
    # Square-free acceptance-pool pairs with 3+ primes, within the pool's
    # |r| <= 10^4 filter so the oracle scan stays cheap.
    for f, g, r in acceptance_pair_pool():
        if r == 0 or abs(r) > 10**4:
            continue
        fact = factor(r)
        if is_squarefree(fact) and len(fact.factors) >= 3:
            yield f, g


def test_truncated_listings_match_the_oracle_on_multi_prime_pool_pairs():
    checked = 0
    for f, g in _multi_prime_pool_pairs():
        by_value = brute_force_profile(f, g).residues_by_value()
        for cap in (1, 3, 7):
            for entry in analyze(f, g, residue_cap=cap).entries:
                assert entry.residues == by_value[entry.divisor][:cap]
                assert entry.truncated == (entry.multiplicity > cap)
        checked += 1
    assert checked >= 60


def test_truncation_boundary_is_the_multiplicity():
    # r = 2 * 3 * 5 * 7 * 11: the divisor 1 is realized 1 * 2 * 4 * 6 * 10 times.
    f, g = mp("x"), mp("x^2+2310")
    multiplicity = 480
    assert analyze(f, g).entry_for(1).multiplicity == multiplicity
    exact = analyze(f, g, residue_cap=multiplicity).entry_for(1)
    assert not exact.truncated and len(exact.residues) == multiplicity
    short = analyze(f, g, residue_cap=multiplicity - 1).entry_for(1)
    assert short.truncated and short.residues == exact.residues[:-1]


def test_atlas_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(404)
    accepted = 0
    while accepted < 60:
        f = random_monic(rng, max_degree=3)
        g = random_monic(rng, max_degree=3)
        r = resultant(f, g)
        if r == 0 or abs(r) > 2000:
            continue
        fact = factor(r)
        if not is_squarefree(fact):
            continue
        atlas = analyze(f, g)
        profile = brute_force_profile(f, g)
        assert atlas.multiplicity_histogram() == profile.histogram
        assert {
            e.divisor: e.residues for e in atlas.entries
        } == profile.residues_by_value()
        accepted += 1


def test_every_listed_residue_realizes_its_divisor():
    f, g = mp("x^2+3"), mp("(x+1)^2+3")
    atlas = analyze(f, g)
    for entry in atlas.entries:
        for n in entry.residues:
            assert math.gcd(f.evaluate(n), g.evaluate(n)) == entry.divisor


def test_atlas_for_52_digit_prime_resultant():
    f, g = mp("x^17+9"), mp("(x+1)^17+9")
    outcome = analyze(f, g, residue_cap=50)
    assert isinstance(outcome, GcdAtlas)
    p = 8936582237915716659950962253358945635793453256935559
    n_hit = 8424432925592889329288197322308900672459420460792433
    assert outcome.resultant == p
    assert outcome.roots == {p: n_hit}
    top = outcome.entry_for(p)
    assert top.multiplicity == 1 and top.residues == (n_hit,)
    ones = outcome.entry_for(1)
    assert ones.multiplicity == p - 1
    assert ones.truncated
    assert ones.residues == tuple(range(50))  # n_hit is far above the cap


# ---------------------------------------------------------------------------
# minimal_period
# ---------------------------------------------------------------------------


def test_minimal_period_worked_examples():
    assert minimal_period(mp("x^2-1"), mp("x^2+1")) == 2
    assert minimal_period(mp("x^2+3"), mp("(x+1)^2+3")) == 13
    assert minimal_period(mp("x+1"), mp("x-1")) == 2


def test_minimal_period_rejects_zero_resultant():
    p = mp("x^2+x+1")
    with pytest.raises(InputError):
        minimal_period(p, p)


def test_minimal_period_divides_r_and_is_a_true_period():
    # The period is R_1 times the trees' periods; count the pairs where both
    # factors are nontrivial, 1 < R_1 < |r|.
    rng = random.Random(909)
    tested = mixed = 0
    while tested < 50:
        f = random_monic(rng, max_degree=3)
        g = random_monic(rng, max_degree=3)
        r, (s1, s0) = _subresultant_resultant(list(f.coeffs), list(g.coeffs))
        if r == 0 or abs(r) > 2000:
            continue
        t = minimal_period(f, g)
        assert abs(r) % t == 0
        assert t == brute_force_profile(f, g).minimal_period()
        for n in range(-5, abs(r)):
            assert math.gcd(f.evaluate(n), g.evaluate(n)) == math.gcd(
                f.evaluate(n + t), g.evaluate(n + t)
            )
        tested += 1
        mixed += 1 < _closed_form(r, s1, s0)[0] < abs(r)
    assert mixed >= 3


# ---------------------------------------------------------------------------
# the non-square-free profile, built from local prime-power tables
# ---------------------------------------------------------------------------


def assert_profile_matches_brute_force(f, g, outcome):
    oracle = brute_force_profile(f, g)
    assert sum(outcome.histogram.values()) == oracle.modulus
    assert outcome.histogram == oracle.histogram
    assert outcome.gcd_range == oracle.gcd_range
    assert outcome.period == minimal_period(f, g) == oracle.minimal_period()


@pytest.mark.parametrize(
    "f_text, g_text, r, histogram, period",
    [
        # e >= p: 2^2 divides r.
        ("x^2-1", "x^2+1", 4, {1: 2, 2: 2}, 2),
        ("x", "x^2+18", 18, {1: 6, 2: 6, 3: 2, 6: 2, 9: 1, 18: 1}, 18),
        # 3^2 divides r, but x^2 + 1 has no root mod 3: local period 1.
        ("x^2+1", "x^2+4", 9, {1: 9}, 1),
        # gcd(n^2, 2^7) depends only on n mod 16.
        ("x^2", "x^2+2^7", 2**14, {1: 8192, 4: 4096, 16: 2048, 64: 1024, 128: 1024}, 16),
        ("x", "x^2-12", -12, {1: 4, 2: 2, 3: 2, 4: 2, 6: 1, 12: 1}, 12),
        # s1 = 1, so gcd(n, n + 8) = gcd(n, 8): the closed form at e = 3.
        ("x", "x+8", 8, {1: 4, 2: 2, 4: 1, 8: 1}, 8),
    ],
)
def test_not_squarefree_profile_worked_cases(f_text, g_text, r, histogram, period):
    f, g = mp(f_text), mp(g_text)
    outcome = analyze(f, g)
    assert isinstance(outcome, NotSquarefree)
    assert outcome.resultant == r
    assert outcome.histogram == histogram
    assert outcome.gcd_range == tuple(sorted(histogram))
    assert outcome.period == period
    assert_profile_matches_brute_force(f, g, outcome)


def test_not_squarefree_profile_agrees_with_brute_force_on_the_acceptance_pool():
    checked = 0
    for f, g, r in acceptance_pair_pool():
        if r == 0 or abs(r) > 10**4 or is_squarefree(factor(r)):
            continue
        outcome = analyze(f, g)
        assert isinstance(outcome, NotSquarefree)
        assert_profile_matches_brute_force(f, g, outcome)
        checked += 1
    assert checked >= 300


def test_closed_form_tables_match_the_lifting_tree_on_the_acceptance_pool():
    # coprime = 1 sends every prime through the lifting tree.
    checked = 0
    for f, g, r in acceptance_pair_pool():
        if r == 0 or abs(r) > 10**4:
            continue
        _, (s1, _) = _subresultant_resultant(list(f.coeffs), list(g.coeffs))
        for p, e in factor(r).factors:
            if s1 % p and e >= 2:
                local = factor(p**e)
                assert _gcd_profile(f, g, local, p**e) == _gcd_profile(f, g, local, 1)
                checked += 1
    assert checked >= 250


def test_analyze_verify_cross_checks_the_not_squarefree_profile(monkeypatch):
    f, g = mp("x^2"), mp("x^2+2^7")
    outcome = analyze(f, g, verify=True)
    assert isinstance(outcome, NotSquarefree)
    assert outcome.period == 16

    def tree_with_wrong_period(f, g, p, e):
        histogram, period = _lifting_tree(f, g, p, e)
        return histogram, period * p

    monkeypatch.setattr(polygcd.analysis, "_lifting_tree", tree_with_wrong_period)
    assert analyze(f, g).period == 32
    with pytest.raises(InvariantBreach):
        analyze(f, g, verify=True)


def test_analyze_verify_cross_checks_the_not_squarefree_histogram(monkeypatch):
    # The same values and period, but the counts of r = 4's two values moved.
    f, g = mp("x^2-1"), mp("x^2+1")
    analyze(f, g, verify=True)

    def profile_with_wrong_counts(*args):
        histogram, period = _gcd_profile(*args)
        assert histogram == {1: 2, 2: 2}
        return {1: 3, 2: 1}, period

    monkeypatch.setattr(polygcd.analysis, "_gcd_profile", profile_with_wrong_counts)
    assert analyze(f, g).histogram == {1: 3, 2: 1}
    with pytest.raises(InvariantBreach, match="the gcd profile disagrees with the brute-force oracle"):
        analyze(f, g, verify=True)


def test_analyze_verify_cross_checks_the_atlas_multiplicities(monkeypatch):
    # r = 13: swapping the multiplicities of the divisors 1 and 13 keeps
    # their residues, so only the multiplicity check sees it.
    build = polygcd.analysis.build_atlas

    def swapped(*args, **kwargs):
        atlas = build(*args, **kwargs)
        ones, thirteen = atlas.entries
        return atlas._replace(entries=(
            ones._replace(multiplicity=thirteen.multiplicity),
            thirteen._replace(multiplicity=ones.multiplicity),
        ))

    f, g = mp("x^2+3"), mp("(x+1)^2+3")
    analyze(f, g, verify=True)
    monkeypatch.setattr(polygcd.analysis, "build_atlas", swapped)
    assert analyze(f, g).multiplicity_histogram() == {1: 1, 13: 12}
    with pytest.raises(InvariantBreach, match="atlas multiplicities disagree with the brute-force oracle"):
        analyze(f, g, verify=True)


@pytest.mark.parametrize(
    "f_text, g_text",
    [
        ("x^2+3", "(x+1)^2+3"),  # atlas
        ("x^2-1", "x^2+1"),  # not square-free, lifting tree at 2^2
        ("x", "x+8"),  # not square-free, closed form at 2^3
        ("x^2+x+1", "x^2+x+1"),  # zero resultant
    ],
)
def test_one_chain_walk_per_analysis(monkeypatch, f_text, g_text):
    # Every walk goes through one of these two bindings: the analysis
    # module's own, or linalg's behind resultant().  Trial division goes
    # through ntheory's binding, behind factor(), or the analysis module's.
    f, g = mp(f_text), mp(g_text)
    nonzero = resultant(f, g) != 0
    walks, trial_divisions = [], []

    def counted_walk(a, b):
        walks.append((a, b))
        return _subresultant_resultant(a, b)

    def counted_trial_division(m):
        trial_divisions.append(m)
        return _trial_divide(m)

    for module in (polygcd.analysis, polygcd.linalg):
        monkeypatch.setattr(module, "_subresultant_resultant", counted_walk)
    for module in (polygcd.analysis, polygcd.ntheory):
        monkeypatch.setattr(module, "_trial_divide", counted_trial_division)
    calls = [(analyze, f, g)]
    if nonzero:  # both raise InputError on r = 0
        calls += [(minimal_period, f, g), (coprime_witness, f, g)]
    for name in ("analyze", "witness", "period"):
        calls.append((polygcd.cli.main, [name, "--f", f_text, "--g", g_text]))
    for call, *args in calls:
        walks.clear()
        trial_divisions.clear()
        call(*args)
        assert (len(walks), len(trial_divisions)) == (1, nonzero), (call.__name__, args)


def _count_calls(monkeypatch, counts, name, modules, real):
    def counted(*args):
        counts[name] += 1
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, real.__name__, counted, raising=False)


@pytest.mark.parametrize(
    "f_text, g_text, walks",
    [
        ("x^2+3", "(x+1)^2+3", 2),  # r = 13: the oracle runs
        ("x^2-3*x+2", "x^2-9*x+20", 2),  # r = 72
        ("x^17+9", "(x+1)^17+9", 1),  # |r| above the brute-force cap
        ("x^2+x+1", "x^2+x+1", 1),  # r = 0
    ],
)
def test_verify_computes_the_bareiss_determinant_once(monkeypatch, f_text, g_text, walks):
    # analyze's own walk, and the oracle's where it runs; one determinant.
    counts = {"bareiss": 0, "walks": 0}
    modules = (polygcd.analysis, polygcd.linalg)
    _count_calls(monkeypatch, counts, "bareiss", modules, polygcd.linalg.det_bareiss)
    _count_calls(monkeypatch, counts, "walks", modules, _subresultant_resultant)
    analyze(mp(f_text), mp(g_text), verify=True)
    assert counts == {"bareiss": 1, "walks": walks}


@pytest.mark.parametrize(
    "f_text, g_text, r",
    [("x^2+3", "(x+1)^2+3", 13), ("x^17+9", "(x+1)^17+9", P52), ("x^2+x+1", "x^2+x+1", 0)],
)
def test_verify_reports_a_bareiss_mismatch_inside_and_outside_the_cap(
    monkeypatch, f_text, g_text, r
):
    det = polygcd.linalg.det_bareiss
    monkeypatch.setattr(polygcd.linalg, "det_bareiss", lambda m: det(m) + 1)
    analyze(mp(f_text), mp(g_text))
    message = f"resultant mismatch: bareiss gives {r + 1}, prs gives {r}"
    with pytest.raises(InvariantBreach, match=message):
        analyze(mp(f_text), mp(g_text), verify=True)


# ---------------------------------------------------------------------------
# the lifting tree against the naive local oracle
# ---------------------------------------------------------------------------


def test_lifting_tree_matches_the_naive_oracle_on_acceptance_pool_prime_powers():
    # Every p^e exactly dividing a pool resultant, p | s1 or not, up to 2 * 10^4.
    checked = 0
    for f, g, r in acceptance_pair_pool():
        if r == 0 or abs(r) > 10**6:
            continue
        for p, e in factor(r).factors:
            if p**e <= 2 * 10**4:
                assert _lifting_tree(f, g, p, e) == naive_local_profile(f, g, p, e), (f, g, p, e)
                checked += 1
    assert checked >= 2200


def test_lifting_tree_matches_the_naive_oracle_on_stress_family_prime_powers():
    checked = 0
    for k in range(2, 13):
        for a in range(-12, 13):
            f, g = mp(f"x^{k}{a:+d}"), mp(f"(x+1)^{k}{a:+d}")
            r = resultant(f, g)  # 0 when a = -1 and 6 | k: a cube root of 1 is a common root
            for p, e in factor(r).factors if r else ():
                if p**e <= 2 * 10**4:
                    assert _lifting_tree(f, g, p, e) == naive_local_profile(f, g, p, e), (k, a, p, e)
                    checked += 1
    assert checked >= 600


def _lower(rng, degree):
    # The coefficients of a random integer polynomial of degree below ``degree``.
    return [rng.randint(-9, 9) for _ in range(degree)]


def _product_plus(a, b, low, scale):
    # a*b + scale*low, monic since low has lower degree than a*b.
    return MonicIntPoly(naive_add(naive_mul(a.coeffs, b.coeffs), [scale * c for c in low]))


@pytest.mark.parametrize("p, e", [(2, 9), (3, 6), (5, 4), (7, 3)])
def test_lifting_tree_matches_the_naive_oracle_with_a_planted_common_factor(p, e):
    # h divides f and g mod p^i and p^j, so the tree runs deep where h has roots.
    rng = random.Random(p)
    for _ in range(375):
        h = random_monic(rng, max_degree=3)
        u, w = random_monic(rng, max_degree=2), random_monic(rng, max_degree=2)
        f = _product_plus(h, u, _lower(rng, h.degree + u.degree), p ** rng.randint(1, e))
        g = _product_plus(h, w, _lower(rng, h.degree + w.degree), p ** rng.randint(1, e))
        assert _lifting_tree(f, g, p, e) == naive_local_profile(f, g, p, e), (f, g)


@pytest.mark.parametrize("p, e", [(2, 10), (3, 6)])
def test_lifting_tree_matches_the_naive_oracle_where_every_t_is_a_root(p, e):
    # f and g are x^p - x times a factor mod p: both vanish on all of F_p
    # without vanishing coefficient-wise.
    rng = random.Random(e)
    vanishing = MonicIntPoly((1,) + (0,) * (p - 2) + (-1, 0))
    for _ in range(80):
        u, w = random_monic(rng, max_degree=2), random_monic(rng, max_degree=2)
        f = _product_plus(vanishing, u, _lower(rng, p + u.degree), p)
        g = _product_plus(vanishing, w, _lower(rng, p + w.degree), p)
        assert _lifting_tree(f, g, p, e) == naive_local_profile(f, g, p, e), (f, g)


@pytest.mark.parametrize(
    "f_text, g_text, histogram, period",
    [
        # 0 is a double root mod 5, and no class mod 25 lifts it.
        ("x^2+5", "x^2+5+25*x", {1: 2500, 5: 625}, 5),
        # 0 mod 5 splits into 5 and -5 mod 25.
        (
            "x^2-25",
            "x^2-25+5^5",
            {1: 7812500, 25: 1171875, 125: 625000, 625: 125000, 3125: 31250},
            625,
        ),
    ],
)
def test_lifting_tree_worked_cases(f_text, g_text, histogram, period):
    f, g = mp(f_text), mp(g_text)
    outcome = analyze(f, g)
    assert (outcome.histogram, outcome.period) == (histogram, period)
    assert minimal_period(f, g) == period


@pytest.mark.parametrize("p", [101, 1009, 10**6 + 3])
def test_profile_above_the_brute_force_cap_is_the_closed_form(p):
    # gcd(n^2, n^2 + p^3) = gcd(n^2, p^3): 1 off 0 mod p, p^2 on the rest of
    # 0 mod p, p^3 on 0 mod p^2.
    f, g = mp("x^2"), mp(f"x^2+{p}^3")
    start = time.perf_counter()
    outcome = analyze(f, g)
    assert minimal_period(f, g) == outcome.period == p**2
    assert time.perf_counter() - start < 1
    assert outcome.histogram == {1: p**6 - p**5, p**2: p**5 - p**4, p**3: p**4}


def test_profile_of_a_tree_4000_levels_deep():
    # gcd(n^2, 2^4000) is 4^v for n = 2^v * odd with v < 2000, else 2^4000.
    start = time.perf_counter()
    outcome = analyze(mp("x^2"), mp("x^2+2^4000"))
    assert time.perf_counter() - start < 2
    expected = {4**v: 2 ** (7999 - v) for v in range(2000)}
    assert outcome.histogram == {**expected, 2**4000: 2**6000}
    assert outcome.period == 2**2000


def test_profile_refuses_more_values_than_the_divisor_cap(monkeypatch):
    f, g = mp("x^2"), mp("x^2+2^7")
    monkeypatch.setattr(polygcd.analysis, "DIVISOR_CAP", 5)
    assert len(analyze(f, g).histogram) == 5
    monkeypatch.setattr(polygcd.analysis, "DIVISOR_CAP", 4)
    with pytest.raises(CapExceeded, match="gcd value count 5 exceeds cap 4"):
        analyze(f, g)


def test_minimal_period_is_the_profile_period_on_every_not_squarefree_pool_pair():
    checked = 0
    for f, g, r in acceptance_pair_pool():
        if r == 0 or is_squarefree(factor(r)):
            continue
        assert minimal_period(f, g) == analyze(f, g).period, (f, g)
        checked += 1
    assert checked >= 500


# ---------------------------------------------------------------------------
# coprime_witness
# ---------------------------------------------------------------------------


def test_witness_prime_resultant():
    f, g = mp("x^2+3"), mp("(x+1)^2+3")
    n = coprime_witness(f, g)
    assert n % 13 != 6
    assert math.gcd(f.evaluate(n), g.evaluate(n)) == 1


def test_witness_for_example_4():
    # 2^2 divides r = 4, so the paper's criterion does not apply, yet the
    # gcds find n = 0.
    f, g = mp("x^2-1"), mp("x^2+1")
    assert coprime_witness(f, g) == 0
    assert math.gcd(f.evaluate(0), g.evaluate(0)) == 1


def test_witness_criterion_inapplicable_for_r_72():
    f, g = mp("x^2-3*x+2"), mp("x^2-9*x+20")
    # r = g(1) * g(2) = 12 * 6 = 72 by the root-product formula.
    assert g.evaluate(1) * g.evaluate(2) == 72
    assert resultant(f, g, verify=True) == 72
    # (n - 1)(n - 2) and (n - 4)(n - 5) are both even at every n.
    with pytest.raises(CriterionInapplicable) as exc:
        coprime_witness(f, g)
    assert exc.value.prime == 2


def test_witness_names_the_prime_dividing_every_value():
    # r = -108 = -2^2 * 3^3: 2^2 | r, but only 3 divides every value.
    f, g = mp("x^3-x"), mp("x^3-3*x^2-x-3")
    r = resultant(f, g)
    assert abs(r) == 108
    assert {math.gcd(f.evaluate(n), g.evaluate(n)) % 6 for n in range(6)} == {0, 3}
    with pytest.raises(CriterionInapplicable) as exc:
        coprime_witness(f, g)
    assert exc.value.prime == 3
    outcome = analyze(f, g, verify=True)
    assert outcome.witness is None and outcome.common_prime == 3
    # 2 and 3 both divide every (n - 1) n (n + 1) + 6: the smaller is named.
    assert resultant(f, mp("x^3-x+6")) == 216
    with pytest.raises(CriterionInapplicable) as exc:
        coprime_witness(f, mp("x^3-x+6"))
    assert exc.value.prime == 2


def test_witness_on_random_pairs_satisfying_the_hypothesis():
    rng = random.Random(63)
    found = 0
    while found < 60:
        f = random_monic(rng, max_degree=4)
        g = random_monic(rng, max_degree=4)
        r = resultant(f, g)
        if r == 0:
            continue
        if any(e >= p for p, e in factor(r).factors):
            continue
        n = coprime_witness(f, g)
        assert math.gcd(f.evaluate(n), g.evaluate(n)) == 1
        found += 1


def test_witness_with_big_prime_factor():
    f, g = mp("x^17+9"), mp("(x+1)^17+9")
    n = coprime_witness(f, g)
    assert math.gcd(f.evaluate(n), g.evaluate(n)) == 1


def test_witness_cofactor_congruence_is_mod_the_whole_prime_power():
    # |r| = 2 * 1009^2 and gcd(f(n), g(n)) = gcd(n + 2, r): 2 needs n = 1
    # (mod 2), and the cofactor 1009^2, which no prime below 1000 divides,
    # takes n = 0 modulo all of it, not modulo 1009.
    f, g = mp("x+2"), mp("x+2+2*1009^2")
    r = resultant(f, g)
    assert abs(r) == 2 * 1009**2
    assert coprime_witness(f, g) == 1009**2


@pytest.mark.parametrize(
    "f_text, g_text",
    [
        ("x^14-46", "(x+1)^14-46"),
        ("x^14+32", "(x+1)^14+32"),
        ("x^18+22", "(x+1)^18+22"),  # 8646805729^2 * 89588178593^2 divides r
        # the witness is 1009^2; placing the radical 2 * 1009 would give 1009
        ("x+2", "x+2+2*1009^2"),
    ],
)
def test_analyze_and_coprime_witness_agree_where_r_has_repeated_big_primes(f_text, g_text):
    f, g = mp(f_text), mp(g_text)
    outcome = analyze(f, g)
    assert isinstance(outcome, NotSquarefree)
    assert any(p >= 1000 and e >= 2 for p, e in outcome.factorization.factors)
    assert outcome.witness == coprime_witness(f, g)
    assert math.gcd(f.evaluate(outcome.witness), g.evaluate(outcome.witness)) == 1


def test_analyze_and_coprime_witness_agree_on_the_acceptance_pool():
    checked = 0
    for f, g, r in acceptance_pair_pool():
        if r == 0 or is_squarefree(factor(r)):
            continue
        try:
            expected = coprime_witness(f, g), None
        except CriterionInapplicable as exc:
            expected = None, exc.prime
        outcome = analyze(f, g)
        assert (outcome.witness, outcome.common_prime) == expected
        checked += 1
    assert checked >= 500


def test_witness_rejects_zero_resultant_and_answers_degree_1000():
    with pytest.raises(InputError, match="resultant is zero"):
        coprime_witness(mp("x"), mp("x"))
    f = MonicIntPoly((1,) + (0,) * 1000)
    g = MonicIntPoly((1,) + (0,) * 999 + (4,))
    # r = 4^1000, and gcd(f(1), g(1)) = gcd(1, 5) = 1.
    assert coprime_witness(f, g) == analyze(f, g).witness == 1


# Products of primes that a and v may share, and of primes on one side only.
_SHARED_PRIMES = st.lists(st.sampled_from([2, 3, 5, 7, 1009, 10**9 + 7]), max_size=8)


@given(
    _SHARED_PRIMES, st.integers(1, 10**12), _SHARED_PRIMES, st.integers(-(10**12), 10**12)
)
def test_coprime_part_is_the_largest_divisor_coprime_to_v(a_primes, a_rest, v_primes, v_rest):
    a, v = math.prod(a_primes) * a_rest, math.prod(v_primes) * v_rest
    part = _coprime_part(a, v)
    assert a % part == 0 and math.gcd(part, v) == 1
    # Every prime of a // part divides v, so a // part divides a power of v.
    quotient = a // part
    assert pow(v, quotient.bit_length(), quotient) == 0


@pytest.mark.parametrize(
    "f_text, g_text, prime",
    [
        ("x^2-1", "x^2+1", 2),  # n = 0 is a witness
        ("x^2-3*x+2", "x^2-9*x+20", 3),  # no witness, but 2 divides every value, not 3
    ],
)
def test_analyze_verify_cross_checks_the_witness_verdict(monkeypatch, f_text, g_text, prime):
    f, g = mp(f_text), mp(g_text)
    analyze(f, g, verify=True)

    def wrong_verdict(f, g, r, unplaced):
        return None, prime

    monkeypatch.setattr(polygcd.analysis, "_place_witness", wrong_verdict)
    assert analyze(f, g).common_prime == prime
    with pytest.raises(InvariantBreach, match="verdict disagrees with the brute-force oracle"):
        analyze(f, g, verify=True)


# ---------------------------------------------------------------------------
# Extra worked cases: three primes, applicable witness, cap plumbing
# ---------------------------------------------------------------------------


def test_atlas_with_three_prime_factors():
    # gcd(n, n^2 + 30) = gcd(n, 30): every divisor of 30 appears.
    f, g = mp("x"), mp("x^2+30")
    assert resultant(f, g, verify=True) == 30
    atlas = analyze(f, g, verify=True)
    assert isinstance(atlas, GcdAtlas)
    assert atlas.roots == {2: 0, 3: 0, 5: 0}
    assert atlas.multiplicity_histogram() == {
        1: 8, 2: 8, 3: 4, 5: 2, 6: 4, 10: 2, 15: 1, 30: 1,
    }
    for entry in atlas.entries:
        assert entry.residues == tuple(
            n for n in range(30) if math.gcd(n, 30) == entry.divisor
        )


def test_not_squarefree_with_applicable_witness():
    # r = 18 = 2 * 3^2: no p^p divides r, so a witness must be found even
    # though the atlas itself is unavailable.
    f, g = mp("x"), mp("x^2+18")
    outcome = analyze(f, g)
    assert isinstance(outcome, NotSquarefree)
    assert outcome.resultant == 18
    assert outcome.witness_applicable
    assert outcome.witness is not None
    assert math.gcd(f.evaluate(outcome.witness), g.evaluate(outcome.witness)) == 1
    assert outcome.gcd_range == (1, 2, 3, 6, 9, 18)


def test_analyze_divisor_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(polygcd.ntheory, "DIVISOR_CAP", 4)
    with pytest.raises(CapExceeded, match="divisor count 8 exceeds cap 4"):
        analyze(mp("x"), mp("x^2+30"))


@pytest.mark.parametrize("residue_cap", [0, -1])
def test_analyze_refuses_a_non_positive_residue_cap_at_once(residue_cap):
    # Unchecked, the atlas entry would walk all |r| / d residues of the
    # 52-digit prime, never reaching a listing of residue_cap.
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"^caps must be positive, got {residue_cap}$"):
        analyze(mp("x^17+9"), mp("(x+1)^17+9"), residue_cap=residue_cap)
    assert time.perf_counter() - start < 1


def test_analyze_residue_cap_truncates_listings():
    atlas = analyze(mp("x^2+3"), mp("(x+1)^2+3"), residue_cap=3)
    assert isinstance(atlas, GcdAtlas)
    entry = atlas.entry_for(1)
    assert entry.truncated and entry.residues == (0, 1, 2)
    assert entry.multiplicity == 12
