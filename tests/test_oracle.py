import json
import random

import pytest

from polygcd import (
    CapExceeded,
    MonicIntPoly,
    brute_force_profile,
    resultant,
)
import polygcd.cli
import polygcd.linalg
import polygcd.oracle
from polygcd.errors import InputError, InvariantBreach

from support import check_divides, check_periodicity, random_monic


def mp(text):
    return MonicIntPoly.parse(text)


# ---------------------------------------------------------------------------
# brute_force_profile
# ---------------------------------------------------------------------------


def test_profile_prime_resultant_example():
    profile = brute_force_profile(mp("x^2+3"), mp("(x+1)^2+3"))
    assert profile.modulus == 13
    assert profile.histogram == {1: 12, 13: 1}
    assert profile.gcd_range == (1, 13)
    assert profile.values[6] == 13


def test_profile_example_with_non_squarefree_resultant():
    profile = brute_force_profile(mp("x^2-1"), mp("x^2+1"))
    assert profile.modulus == 4
    assert profile.histogram == {1: 2, 2: 2}
    assert profile.gcd_range == (1, 2)
    assert profile.values == (1, 2, 1, 2)


def test_profile_linear_pair():
    profile = brute_force_profile(mp("x+1"), mp("x-1"))
    assert profile.modulus == 2
    assert profile.histogram == {1: 1, 2: 1}


@pytest.mark.parametrize(
    "f_text, g_text, period",
    [
        ("x^2+3", "(x+1)^2+3", 13),
        ("x^2-1", "x^2+1", 2),
        ("x+1", "x-1", 2),
        # r = 9, but x^2 + 1 has no root mod 3: the values are constant.
        ("x^2+1", "x^2+4", 1),
    ],
)
def test_profile_minimal_period(f_text, g_text, period):
    assert brute_force_profile(mp(f_text), mp(g_text)).minimal_period() == period


def test_profile_modulus_rests_on_the_bareiss_determinant(monkeypatch):
    # The production resultant is the PRS; the oracle also checks it against
    # Bareiss, so a fault in either algorithm cannot pass as ground truth.
    det = polygcd.linalg.det_bareiss
    monkeypatch.setattr(polygcd.linalg, "det_bareiss", lambda m: det(m) + 1)
    with pytest.raises(InvariantBreach):
        brute_force_profile(mp("x^2+3"), mp("(x+1)^2+3"))


def test_profile_rejects_zero_resultant_and_enormous_periods(monkeypatch):
    p = mp("x^2+x+1")
    with pytest.raises(InputError):
        brute_force_profile(p, p)
    with pytest.raises(CapExceeded):
        brute_force_profile(mp("x^17+9"), mp("(x+1)^17+9"))
    monkeypatch.setattr(polygcd.oracle, "BRUTE_FORCE_CAP", 10)
    with pytest.raises(CapExceeded, match="period 13 exceeds the brute-force cap 10"):
        brute_force_profile(mp("x^2+3"), mp("(x+1)^2+3"))


def test_profile_counts_sum_to_modulus_and_values_divide_r():
    rng = random.Random(77)
    for _ in range(80):
        f = random_monic(rng, max_degree=3)
        g = random_monic(rng, max_degree=3)
        r = resultant(f, g)
        if r == 0 or abs(r) > 3000:
            continue
        profile = brute_force_profile(f, g)
        assert sum(profile.histogram.values()) == profile.modulus == abs(r)
        assert all(r % v == 0 for v in profile.gcd_range)
        assert profile.residues_by_value().keys() == profile.histogram.keys()


def test_profile_json_shape(capsys):
    # brute-force --json writes the profile, every integer as a decimal string.
    f, g = mp("x^2-1"), mp("x^2+1")
    profile = brute_force_profile(f, g)
    assert polygcd.cli.main(["brute-force", "--f", str(f), "--g", str(g), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "modulus": "4",
        "histogram": {"1": "2", "2": "2"},
        "range": ["1", "2"],
    }
    assert doc == {
        "modulus": str(profile.modulus),
        "histogram": {str(v): str(c) for v, c in profile.histogram.items()},
        "range": [str(v) for v in profile.gcd_range],
    }


# ---------------------------------------------------------------------------
# check_divides
# ---------------------------------------------------------------------------


def test_check_divides_prime_example_small_sample():
    assert check_divides(mp("x^2+3"), mp("(x+1)^2+3"), range(1, 7))


def test_check_divides_zero_resultant_accepts_everything():
    p = mp("x^2+x+1")
    assert check_divides(p, p, range(-50, 50))


def test_check_divides_example_4_window():
    assert check_divides(mp("x^2-1"), mp("x^2+1"), range(0, 8))


# ---------------------------------------------------------------------------
# check_periodicity
# ---------------------------------------------------------------------------


def test_check_periodicity_examples():
    assert check_periodicity(mp("x^2+3"), mp("(x+1)^2+3"))
    assert check_periodicity(mp("x^2-1"), mp("x^2+1"))
    assert check_periodicity(mp("x+1"), mp("x-1"))


def test_check_periodicity_rejects_zero_resultant():
    p = mp("x^2+x+1")
    with pytest.raises(InputError):
        check_periodicity(p, p)


# ---------------------------------------------------------------------------
# The two oracle checks are unconditional theorems: a failure on any input
# is an implementation bug.
# ---------------------------------------------------------------------------


def test_divides_and_periodicity_hold_for_all_random_pairs():
    rng = random.Random(20240501)
    tested = 0
    while tested < 120:
        f = random_monic(rng)
        g = random_monic(rng)
        r = resultant(f, g)
        assert check_divides(f, g, range(-20, 21))
        if r != 0 and abs(r) <= 10**4:
            assert check_periodicity(f, g)
            tested += 1
