import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polygcd.analysis
import polygcd.cli
import polygcd.linalg
import polygcd.modp
import polygcd.ntheory
import polygcd.oracle
from polygcd import MonicIntPoly, brute_force_profile
from polygcd.cli import main
from polygcd.poly import MAX_COEFF_BITS, MAX_DEGREE

from support import acceptance_pair_pool

P52 = "8936582237915716659950962253358945635793453256935559"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_json_atlas(capsys):
    status, out, err = run_cli(
        capsys, "analyze", "--f", "x^2+3", "--g", "(x+1)^2+3", "--json"
    )
    assert status == 0 and err == ""
    doc = json.loads(out)
    assert doc["resultant"] == "13"
    assert doc["squarefree"] is True
    assert doc["roots"] == {"13": "6"}
    by_divisor = {e["divisor"]: e for e in doc["entries"]}
    assert by_divisor["13"]["residues"] == ["6"]
    assert by_divisor["13"]["multiplicity"] == "1"
    assert by_divisor["1"]["multiplicity"] == "12"


def test_analyze_human_readable_table(capsys):
    status, out, err = run_cli(capsys, "analyze", "--f", "x^2+3", "--g", "(x+1)^2+3")
    assert status == 0
    assert "resultant = 13" in out
    assert "square-free: yes" in out
    assert "divisor" in out and "multiplicity" in out


def test_analyze_zero_resultant_report(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--f", "x^2+x+1", "--g", "x^2+x+1")
    assert status == 0
    assert "resultant = 0" in out
    assert "common factor over Z[x]: x^2 + x + 1" in out
    assert "infinite range" in out


def test_analyze_not_squarefree_report(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--f", "x^2-1", "--g", "x^2+1")
    assert status == 0
    assert "resultant = 4 = 2^2" in out
    assert "square-free: no" in out
    assert "{1, 2}" in out
    assert "minimal period: 2" in out
    # 2^2 divides r, yet n = 0 gives gcd(-1, 1) = 1
    assert out.endswith("coprime witness: n = 0\n")


def test_analyze_verify_flag(capsys):
    status, out, _ = run_cli(
        capsys, "analyze", "--f", "x^2+3", "--g", "(x+1)^2+3", "--verify"
    )
    assert status == 0
    assert "square-free: yes" in out


# Square-free pairs around the 16 residues the text report prints per
# divisor: r = 17 (divisor 1 has multiplicity 16), r = -19 (18), r = 38 (18
# and 18) and r = 2310 (up to 480).  A square-free r has no multiplicity 17:
# each one is a product of p - 1 over primes p, so 1 or even.
LISTING_PAIRS = [
    ("x^2-8", "x^2+x-3", 17),
    ("x^2-7", "(x+1)^2-5", -19),
    ("x^2+2", "x^2+x-4", 38),
    ("x", "x^2+2310", 2310),
]


def oracle_text_report(f_text, g_text, r, preview):
    """The text `analyze` report, built from the brute-force oracle."""
    f, g = MonicIntPoly.parse(f_text), MonicIntPoly.parse(g_text)
    oracle = brute_force_profile(f, g)
    primes = [
        p for p in range(2, abs(r) + 1) if r % p == 0 and all(p % q for q in range(2, p))
    ]
    lines = [
        f"f = {f}",
        f"g = {g}",
        f"resultant = {r} = {'-' if r < 0 else ''}{' * '.join(map(str, primes))}",
        "square-free: yes",
    ]
    for p in primes:
        root = next(n for n in range(p) if oracle.values[n] % p == 0)
        lines.append(f"common root mod {p}: n = {root}")
    lines.append("")
    rows = []
    for d, residues in sorted(oracle.residues_by_value().items()):
        shown = ", ".join(map(str, residues[:preview]))
        if len(residues) > preview:
            shown += f", ... ({len(residues)} total)"
        rows.append((str(d), str(len(residues)), shown))
    w0 = max(len("divisor"), *(len(row[0]) for row in rows))
    w1 = max(len("multiplicity"), *(len(row[1]) for row in rows))
    lines.append(f"{'divisor':>{w0}}  {'multiplicity':>{w1}}  residues mod {abs(r)}")
    lines += [f"{a:>{w0}}  {b:>{w1}}  {c}" for a, b, c in rows]
    return "\n".join(lines) + "\n"


# The preview is 16; r = 17 has an entry of multiplicity 16, r = -19 of 18.
@pytest.mark.parametrize("preview", [None, 1, 16, 17, 20])
@pytest.mark.parametrize("f_text, g_text, r", LISTING_PAIRS)
def test_text_listing_matches_the_oracle_at_the_preview_boundary(
    capsys, monkeypatch, f_text, g_text, r, preview
):
    if preview is not None:
        monkeypatch.setattr(polygcd.cli, "PREVIEW", preview)
    argv = ["analyze", "--f", f_text, "--g", g_text]
    for verify in ([], ["--verify"]):
        status, out, err = run_cli(capsys, *argv, *verify)
        assert (status, err) == (0, "")
        assert out == oracle_text_report(f_text, g_text, r, preview or 16)


@pytest.mark.parametrize("cap", [1, 16, 17, 20, 479, 480])
def test_json_lists_min_of_multiplicity_and_cap(capsys, monkeypatch, cap):
    f_text, g_text = "x", "x^2+2310"
    f, g = MonicIntPoly.parse(f_text), MonicIntPoly.parse(g_text)
    by_value = brute_force_profile(f, g).residues_by_value()
    monkeypatch.setattr(polygcd.cli, "RESIDUE_LISTING_CAP", cap)
    status, out, _ = run_cli(capsys, "analyze", "--f", f_text, "--g", g_text, "--json")
    assert status == 0
    entries = json.loads(out)["entries"]
    assert [int(e["divisor"]) for e in entries] == sorted(by_value)
    for e in entries:
        expected = by_value[int(e["divisor"])]
        assert int(e["multiplicity"]) == len(expected)
        assert e["residues"] == [str(n) for n in expected[:cap]]
        assert e["residues_truncated"] is (len(expected) > cap)
    assert max(int(e["multiplicity"]) for e in entries) == 480


def test_json_round_trip_is_byte_identical(capsys):
    _, first, _ = run_cli(
        capsys, "analyze", "--f", "x^3+2*x-7", "--g", "(x+2)^3+5", "--json"
    )
    reloaded = json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n"
    assert reloaded == first


# ---------------------------------------------------------------------------
# resultant / brute-force / witness / period
# ---------------------------------------------------------------------------


def test_resultant_stress_pair(capsys):
    status, out, _ = run_cli(
        capsys, "resultant", "--f", "x^17+9", "--g", "(x+1)^17+9", "--verify"
    )
    assert status == 0
    assert out.strip() == P52


@pytest.mark.parametrize("verify", [(), ("--verify",)])
def test_resultant_too_long_to_print_exits_2(capsys, verify):
    # r = (2^8000 - 3)^2 has 4817 digits, past the interpreter's 4300-digit
    # limit for int-to-str conversion.
    status, out, err = run_cli(
        capsys, "resultant", "--f", "x^2+2^8000", "--g", "x^2+3", *verify
    )
    assert status == 2 and out == ""
    assert err == (
        f"error: the resultant has more than {sys.get_int_max_str_digits()}"
        " digits, the interpreter's limit for printing an integer\n"
    )


def test_brute_force_json(capsys):
    status, out, _ = run_cli(
        capsys, "brute-force", "--f", "x^2-1", "--g", "x^2+1", "--json"
    )
    assert status == 0
    assert json.loads(out) == {
        "modulus": "4",
        "histogram": {"1": "2", "2": "2"},
        "range": ["1", "2"],
    }


def test_witness_found(capsys):
    status, out, _ = run_cli(capsys, "witness", "--f", "x^2+3", "--g", "(x+1)^2+3")
    assert status == 0
    assert "n = 0" in out


def test_witness_inapplicable_is_reported_not_an_error(capsys):
    # (n - 1)(n - 2) and (n - 4)(n - 5) are both even at every n.
    assert run_cli(capsys, "witness", "--f", "x^2-3*x+2", "--g", "x^2-9*x+20") == (
        0,
        "criterion inapplicable: 2^2 divides the resultant\n",
        "",
    )
    # r = 4: 2^2 divides r, yet n = 0 is a witness
    assert run_cli(capsys, "witness", "--f", "x^2-1", "--g", "x^2+1") == (
        0,
        "n = 0\ngcd(f(0), g(0)) = 1\n",
        "",
    )


def test_not_squarefree_report_names_the_prime_dividing_every_value(capsys):
    # r = -108 = -2^2 * 3^3: 2^2 | r, but only 3 divides every value.
    status, out, _ = run_cli(capsys, "analyze", "--f", "x^3-x", "--g", "x^3-3*x^2-x-3")
    assert status == 0
    assert out.endswith("coprime witness: criterion inapplicable (3^3 divides the resultant)\n")


@pytest.mark.parametrize(
    "f_text, g_text",
    [
        ("x^17+9", "(x+1)^17+9"),
        # r = (2^8000 - 3)^2: factoring it runs out of rho's work budget
        ("x^2+2^8000", "x^2+3"),
    ],
)
def test_witness_never_factors(capsys, monkeypatch, f_text, g_text):
    def refuse(n):
        raise AssertionError("witness called factor")

    for module in (polygcd.ntheory, polygcd.analysis, polygcd.cli):
        monkeypatch.setattr(module, "factor", refuse)
    assert run_cli(capsys, "witness", "--f", f_text, "--g", g_text) == (
        0,
        "n = 0\ngcd(f(0), g(0)) = 1\n",
        "",
    )


def test_period(capsys):
    status, out, _ = run_cli(capsys, "period", "--f", "x^2-1", "--g", "x^2+1")
    assert status == 0
    assert out.strip() == "2"


def test_period_above_the_brute_force_cap(capsys):
    # gcd(f(n), g(n)) = gcd(n - c, |r|) for the 52-digit prime |r|.
    argv = ("period", "--f", "x^17+9", "--g", "(x+1)^17+9")
    assert run_cli(capsys, *argv) == (0, f"{P52}\n", "")


@pytest.mark.parametrize("command", [["analyze"], ["period"]])
def test_rho_out_of_budget_exits_2(capsys, monkeypatch, command):
    # r = 1000003 * 1000033, which rho splits in about 3400 steps.  analyze
    # needs the primes; s1 = 1, so the period is |r| and period runs no rho.
    argv = [*command, "--f", "x", "--g", "x+1000003*1000033"]
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(polygcd.ntheory, "RHO_BUDGET", 100)
    refused = (
        2,
        "",
        "error: Pollard rho did not split a 13-digit cofactor within its work budget of 100 steps\n",
    )
    answered = (0, "1000036000099\n", "")
    assert run_cli(capsys, *argv) == (refused if command == ["analyze"] else answered)


PERIOD_TOO_LONG = (
    f"error: the period has more than {sys.get_int_max_str_digits()} digits,"
    " the interpreter's limit for printing an integer\n"
)


@pytest.mark.parametrize("command", ["analyze", "period"])
def test_primality_test_beyond_the_budget_exits_2(capsys, command):
    # r = 2^16000 - 1 leaves a 4793-digit cofactor after trial division; its
    # perfect-power search fits the budget, but its Baillie-PSW test would be
    # charged 7.6 * 10^7 steps, so it is refused unrun.  period factors
    # nothing, since s1 = 1: its answer |r| has 4817 digits, too many to print.
    start = time.perf_counter()
    refused = (
        "error: a primality test on a 4793-digit cofactor would exceed"
        " the work budget of 10000000 steps\n"
    )
    assert run_cli(capsys, command, "--f", "x+2^16000", "--g", "x+1") == (
        2,
        "",
        refused if command == "analyze" else PERIOD_TOO_LONG,
    )
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "k, refused",
    [(3, "a primality test on a 14450-digit"), (100, "a perfect-power search on a 481645-digit")],
)
@pytest.mark.parametrize("command", ["analyze", "period"])
def test_factoring_a_huge_resultant_exits_2_quickly(capsys, command, k, refused):
    # r has some 48 000 bits for k = 3 and 1.6 million for k = 100.  The
    # budget pays for the search's roots: at k = 3 they fit and the
    # primality test does not, at k = 100 not even one root fits.  period
    # factors nothing, since s1 = 1, and its answer |r| is too long to print.
    start = time.perf_counter()
    argv = (command, "--f", f"x^{k}+2^16000", "--g", f"x^{k}+x+3")
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: {refused} cofactor would exceed the work budget of 10000000 steps\n"
        if command == "analyze"
        else PERIOD_TOO_LONG,
    )
    assert time.perf_counter() - start < 5


def test_period_of_a_semiprime_resultant_needs_no_factoring(capsys):
    # r = p * q for a 30-digit p and a 31-digit q, which rho would need some
    # 10^14 steps to split; s1 = 1, so the period is |r| unfactored.
    pq = 100000000000000000000000000319 * 3000000000000000000000000000091
    start = time.perf_counter()
    assert run_cli(capsys, "period", "--f", "x", "--g", f"x+{pq}") == (0, f"{pq}\n", "")
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# snf subcommand
# ---------------------------------------------------------------------------


def test_snf_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 0\n0 3\n"))
    status, out, _ = run_cli(capsys, "snf")
    assert status == 0
    assert out.splitlines()[0] == "d = 1 6"


def test_snf_from_file_with_transforms_json(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text("1 1\n1 -1\n")
    status, out, _ = run_cli(capsys, "snf", "--matrix", str(path), "--json", "--transforms")
    assert status == 0
    doc = json.loads(out)
    assert doc["d"] == ["1", "2"]
    assert len(doc["U"]) == 2 and len(doc["V"]) == 2


def test_snf_unreadable_matrix_file_exits_1(capsys, monkeypatch, tmp_path):
    # A valid matrix on stdin shows that the empty path does not fall back to it.
    monkeypatch.setattr("sys.stdin", io.StringIO("2 0\n0 3\n"))
    for path in [str(tmp_path / "missing.txt"), ""]:
        assert run_cli(capsys, "snf", "--matrix", path) == (
            1,
            "",
            f"error: cannot read matrix file {path!r}: No such file or directory\n",
        )


@pytest.mark.parametrize("text", ["", " \n\t\n"])
def test_snf_rejects_empty_input(capsys, monkeypatch, tmp_path, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    path = tmp_path / "blank.txt"
    path.write_text(text)
    for argv in ("snf",), ("snf", "--matrix", str(path)):
        status, out, err = run_cli(capsys, *argv)
        assert (status, out, err) == (1, "", "error: empty matrix input\n"), argv


def test_snf_rejects_ragged_matrix(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n3\n"))
    status, _, err = run_cli(capsys, "snf")
    assert status == 1
    assert "error" in err


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
def test_snf_rejects_underscored_and_non_ascii_entries(capsys, monkeypatch, token):
    import io

    # int() reads these as 10, 3 and 1.
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{token} 2\n3 4\n"))
    status, out, err = run_cli(capsys, "snf")
    assert status == 1 and out == ""
    assert err == f"error: invalid literal for int() with base 10: {token!r}\n"


def test_snf_reads_signed_entries(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("-3 +2\n4 5\n"))
    status, out, _ = run_cli(capsys, "snf")
    assert status == 0 and out == "d = 1 23\n"


@pytest.mark.parametrize(
    "rows",
    [
        polygcd.sylvester_matrix(MonicIntPoly.parse("x^17+9"), MonicIntPoly.parse("(x+1)^17+9")).to_rows(),
        [[2, 0, 0], [0, 2, 0], [0, 0, 3]],
    ],
    ids=["certified", "not cyclic"],
)
def test_snf_prints_the_same_d_with_and_without_transforms(capsys, monkeypatch, rows):
    # Without --transforms, the x^17+9 matrix takes the cyclic certificate
    # and diag(2, 2, 3) the elimination.
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    outputs = {}
    for flags in [(), ("--transforms",), ("--json",), ("--json", "--transforms")]:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        status, outputs[flags], _ = run_cli(capsys, "snf", *flags)
        assert status == 0
    assert outputs[()] == outputs[("--transforms",)].splitlines(keepends=True)[0]
    assert json.loads(outputs[("--json",)]) == {"d": json.loads(outputs[("--json", "--transforms")])["d"]}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_1_on_syntax_error(capsys):
    status, _, err = run_cli(capsys, "analyze", "--f", "x^2+", "--g", "x+1")
    assert status == 1
    assert "position" in err


def test_exit_1_on_non_monic_input_names_leading_coefficient(capsys):
    status, _, err = run_cli(capsys, "analyze", "--f", "2*x+1", "--g", "x+1")
    assert status == 1
    assert "leading coefficient is 2" in err


def test_exit_1_on_constant_input(capsys):
    status, _, err = run_cli(capsys, "analyze", "--f", "5", "--g", "x+1")
    assert status == 1
    assert "degree" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", "'5' expands to degree 0; need degree >= 1"),
        ("x-x", "'x-x' expands to degree -1; need degree >= 1"),
        ("-x^2", "'-x^2' is not monic: leading coefficient is -1, expected 1"),
    ],
)
def test_exit_1_names_the_expression_that_is_not_monic(capsys, text, message):
    assert run_cli(capsys, "witness", f"--f={text}", "--g", "x") == (1, "", f"error: {message}\n")


def test_an_expression_starting_with_minus_answers_as_f_equals(capsys):
    # argparse alone would take a separate "-x+2*x" for an option; main joins
    # it to --f, so both spellings answer.
    assert run_cli(capsys, "resultant", "--f=-x+2*x", "--g=-3+x") == (0, "-3\n", "")
    assert run_cli(capsys, "resultant", "--f", "-x+2*x", "--g", "-3+x") == (0, "-3\n", "")


@pytest.mark.parametrize(
    "f, g",
    [("-1+x^2", "x^2+3"), ("x^2+3", "-1+x^2"), ("-(x+1)+2*x", "-3+x^2"), ("-x^2+2*x^2", "(x+1)^2")],
)
@pytest.mark.parametrize("command", ["analyze", "witness", "period"])
def test_unary_minus_after_f_or_g_prints_the_bytes_of_f_equals(capsys, command, f, g):
    joined = run_cli(capsys, command, f"--f={f}", f"--g={g}")
    assert joined[0] == 0
    assert run_cli(capsys, command, "--f", f, "--g", g) == joined


@pytest.mark.parametrize(
    "argv",
    [["--f", "-h", "--g", "x"], ["--f", "--g", "x"], ["--g", "x", "--f"], ["--f", "-$x", "--g", "x"]],
)
def test_options_and_missing_values_after_f_exit_1_as_before(capsys, argv):
    # Only a token that starts like an expression (-, then a digit, x or a
    # parenthesis) is joined to --f.
    with pytest.raises(SystemExit) as exc:
        main(["period", *argv])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "polygcd period: error: argument --f: expected one argument\n"
    )


def test_exit_2_on_brute_force_cap(capsys):
    status, _, err = run_cli(
        capsys, "brute-force", "--f", "x^17+9", "--g", "(x+1)^17+9"
    )
    assert status == 2
    assert "cap" in err


def test_exit_2_on_explicit_tiny_cap(capsys, monkeypatch):
    monkeypatch.setattr(polygcd.oracle, "BRUTE_FORCE_CAP", 5)
    assert run_cli(capsys, "brute-force", "--f", "x^2+3", "--g", "(x+1)^2+3") == (
        2, "", "error: period 13 exceeds the brute-force cap 5\n"
    )


@pytest.mark.parametrize(
    "expr, degree",
    [
        ("x^200000", 200000),
        ("(x+1)^3000", 3000),
        ("(x^2)^60", 120),
        ("x^60*x^60", 120),
        ("x*x^50*x^50", 101),
        ("(-(x^20)^6)", 120),
    ],
)
def test_exit_2_on_parser_degree_cap_before_expanding(capsys, expr, degree):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "resultant", "--f", expr, "--g", "x+1")
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert err.startswith(f"error: degree {degree} ") and err.count("\n") == 1
    assert err.endswith(f"exceeds the parser cap {MAX_DEGREE}\n")


@pytest.mark.parametrize(
    "expr, pos",
    [
        ("x+2^99999999999", 4),
        ("x+3^9999999", 4),
        ("x+2^16385", 4),
        ("x+2^" + "9" * 400, 4),
        ("x+(2^8192)*(2^8193)", 10),
        ("x+2*2^16384", 3),
        ("x^2+(x+2^200)^90", 14),
    ],
)
def test_exit_2_on_parser_coefficient_cap_before_expanding(capsys, expr, pos):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "resultant", "--f", expr, "--g", "x+1")
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert err == (
        f"error: coefficient bound at position {pos} exceeds the parser cap"
        f" 2^{MAX_COEFF_BITS}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([*command, "--f", f, "--g", g], id=f"{label}-{name}")
        for name, f, g in [
            ("r13", "x^2+3", "(x+1)^2+3"),
            # a semiprime resultant that only Pollard rho splits
            ("semiprime", "x", "x+1000003*1000033"),
        ]
        for label, command in [
            ("analyze", ["analyze"]),
            ("json", ["analyze", "--json"]),
            ("witness", ["witness"]),
        ]
    ],
)
def test_seed_env_var_is_ignored(capsys, monkeypatch, argv):
    monkeypatch.delenv("POLYGCD_SEED", raising=False)
    unset = run_cli(capsys, *argv)
    assert unset[0] == 0
    for value in ("42", "abc"):
        monkeypatch.setenv("POLYGCD_SEED", value)
        assert run_cli(capsys, *argv) == unset


@pytest.mark.parametrize("flag", ["--cap-residues", "--cap-divisors"])
def test_brute_force_rejects_the_listing_caps(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["brute-force", "--f", "x", "--g", "x+1", flag, "5"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: polygcd ")
    assert err.endswith(f"polygcd: error: unrecognized arguments: {flag} 5\n")


def test_analyze_json_zero_resultant(capsys):
    status, out, _ = run_cli(
        capsys, "analyze", "--f", "x^2+x+1", "--g", "x^2+x+1", "--json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["resultant"] == "0"
    assert doc["common_factor"] == "x^2 + x + 1"


def test_analyze_json_not_squarefree(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--f", "x^2-1", "--g", "x^2+1", "--json")
    assert status == 0
    doc = json.loads(out)
    assert doc["squarefree"] is False
    assert doc["resultant"] == "4"
    assert doc["range"] == ["1", "2"]
    assert doc["witness"] == "0" and doc["witness_applicable"] is True


def test_analyze_json_not_squarefree_with_witness(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--f", "x", "--g", "x^2+18", "--json")
    assert status == 0
    doc = json.loads(out)
    assert doc["witness_applicable"] is True
    assert doc["witness"] is not None


def test_exit_2_on_divisor_cap(capsys, monkeypatch):
    monkeypatch.setattr(polygcd.ntheory, "DIVISOR_CAP", 4)
    assert run_cli(capsys, "analyze", "--f", "x", "--g", "x^2+30") == (
        2, "", "error: divisor count 8 exceeds cap 4\n"
    )


def test_cap_residues_flag_truncates(capsys, monkeypatch):
    monkeypatch.setattr(polygcd.cli, "RESIDUE_LISTING_CAP", 3)
    status, out, _ = run_cli(
        capsys, "analyze", "--f", "x^2+3", "--g", "(x+1)^2+3", "--json"
    )
    assert status == 0
    doc = json.loads(out)
    by_divisor = {e["divisor"]: e for e in doc["entries"]}
    assert by_divisor["1"]["residues_truncated"] is True
    assert by_divisor["1"]["residues"] == ["0", "1", "2"]
    assert by_divisor["1"]["multiplicity"] == "12"


def test_exit_3_on_invariant_breach(capsys, monkeypatch):
    from polygcd.errors import InvariantBreach

    def broken(f, g):
        raise InvariantBreach("forced for the exit-code test")

    monkeypatch.setattr(polygcd.cli, "minimal_period", broken)
    status, out, err = run_cli(capsys, "period", "--f", "x", "--g", "x+1")
    assert status == 3 and out == ""
    assert err == "INTERNAL INVARIANT BREACH (this is a bug): forced for the exit-code test\n"


def test_resultant_verify_exits_3_on_a_bareiss_mismatch(capsys, monkeypatch):
    det = polygcd.linalg.det_bareiss
    monkeypatch.setattr(polygcd.linalg, "det_bareiss", lambda m: det(m) + 1)
    argv = ("resultant", "--f", "x^2+3", "--g", "(x+1)^2+3")
    assert run_cli(capsys, *argv) == (0, "13\n", "")
    assert run_cli(capsys, *argv, "--verify") == (
        3,
        "",
        "INTERNAL INVARIANT BREACH (this is a bug):"
        " resultant mismatch: bareiss gives 14, prs gives 13\n",
    )


def test_analyze_verify_checks_every_root_against_the_gcd_mod_p(capsys, monkeypatch):
    # |r| is a 52-digit prime, far above the brute-force cap, so only the
    # gcd in F_p[x] can catch a wrong c.
    real = polygcd.analysis.common_root_mod_p
    monkeypatch.setattr(
        polygcd.analysis, "common_root_mod_p", lambda f, g, p: (real(f, g, p) + 1) % p
    )
    argv = ("analyze", "--f", "x^17+9", "--g", "(x+1)^17+9")
    assert run_cli(capsys, *argv)[0] == 0
    status, out, err = run_cli(capsys, *argv, "--verify")
    assert status == 3 and out == ""
    assert err.startswith(f"INTERNAL INVARIANT BREACH (this is a bug): common root mod {P52}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--f", "x^2+3", "--g", "(x+1)^2+3"],
        ["analyze", "--f", "x^17+9", "--g", "(x+1)^17+9"],
        ["analyze", "--f", "x", "--g", "x^2+2310", "--json"],
        # r = 12 = 2^2 * 3: the profile's table for 3 needs no root
        ["analyze", "--f", "x", "--g", "x^2+12"],
        ["period", "--f", "x", "--g", "x^2+2310"],
    ],
)
def test_without_verify_nothing_calls_into_modp(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("polygcd.modp was called")

    monkeypatch.setattr(polygcd.analysis, "common_root_mod_p", refuse)
    monkeypatch.setattr(polygcd.modp, "_gcd_mod_p", refuse)
    status, _, err = run_cli(capsys, *argv)
    assert (status, err) == (0, "")


@pytest.mark.parametrize(
    "argv, expected_status",
    [
        (["analyze", "--f", "x^2+3", "--g", "(x+1)^2+3"], 0),
        (["analyze", "--f", "x^2+", "--g", "x+1"], 1),
    ],
)
def test_module_runs_as_a_process_like_main(capsys, argv, expected_status):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "polygcd.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == expected_status
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


def test_cli_exports_only_main():
    assert polygcd.cli.__all__ == ["main"]


def test_negative_input_polynomial_values(capsys):
    # parser accepts leading unary minus inside parentheses etc.
    status, out, _ = run_cli(capsys, "resultant", "--f", "x^2 - 1", "--g", "x^2 + 1")
    assert status == 0
    assert out.strip() == "4"


def test_cli_imports_no_private_names_from_the_package():
    tree = ast.parse(Path(polygcd.cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "polygcd")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# ---------------------------------------------------------------------------
# integers too long to print
# ---------------------------------------------------------------------------

LIMIT = sys.get_int_max_str_digits()
TOO_LONG = (
    f"error: an integer in the answer has more than {LIMIT} digits,"
    " the interpreter's limit for printing an integer\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--f", "x+2^16000", "--g", "x"],
        ["analyze", "--f", "x+2^16000", "--g", "x", "--json"],
        # f and g print; r = 2^16000 does not, so nothing of the report may
        # reach stdout
        ["analyze", "--f", "x^16", "--g", "x+2^1000"],
    ],
)
def test_analyze_answer_too_long_to_print_exits_2(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", TOO_LONG)


def test_witness_too_long_to_print_exits_2(capsys):
    # gcd(f(0), g(0)) = 5, so the cofactor of r = 25 * (2^8000 + 1)^2 left by
    # trial division takes n = 0 modulo all of it, and the CRT with the
    # primes below 1000 gives a witness of more than 4300 digits.
    assert run_cli(capsys, "witness", "--f", "x^2+5", "--g", "x^2+5+5*(2^8000+1)") == (
        2,
        "",
        f"error: the witness has more than {LIMIT} digits,"
        " the interpreter's limit for printing an integer\n",
    )


@pytest.mark.parametrize("command", ["brute-force"])
def test_period_cap_message_too_long_to_print_exits_2(capsys, command):
    status, out, err = run_cli(capsys, command, "--f", "x+2^16000", "--g", "x+1")
    assert (status, out) == (2, "")
    assert err == (
        f"error: period of more than {LIMIT} digits exceeds the brute-force cap 1000000\n"
    )


@pytest.mark.parametrize("flags", [(), ("--json",), ("--transforms",)])
def test_snf_answer_too_long_to_print_exits_2(capsys, monkeypatch, flags):
    # d_2 = 10^4000 * (10^4000 + 1) has 8001 digits.
    big = 10**4000
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{big} 0\n0 {big + 1}\n"))
    assert run_cli(capsys, "snf", *flags) == (2, "", TOO_LONG)


def test_integer_literal_too_long_to_read_exits_2(capsys):
    literal = "7" * (LIMIT + 1)
    assert run_cli(capsys, "resultant", "--f", f"x+{literal}", "--g", "x") == (
        2,
        "",
        f"error: integer literal at position 2 has more than {LIMIT} digits,"
        " the interpreter's limit for reading an integer\n",
    )


def test_snf_entry_too_long_to_read_exits_2(capsys, monkeypatch, tmp_path):
    # The sign is not a digit: entry (1, 1) has LIMIT digits and would read.
    text = f"-{'7' * LIMIT} 0\n0 {'7' * (LIMIT + 1)}\n"
    expected = (
        2,
        "",
        f"error: matrix entry at row 2, column 2 has more than {LIMIT} digits,"
        " the interpreter's limit for reading an integer\n",
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run_cli(capsys, "snf") == expected
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    assert run_cli(capsys, "snf", "--matrix", str(path)) == expected
    # A limit of 0 reads and prints integers of any length.
    sys.set_int_max_str_digits(0)
    try:
        lcm = int("7" * LIMIT) * int("7" * (LIMIT + 1)) // 7
        assert run_cli(capsys, "snf", "--matrix", str(path)) == (0, f"d = 7 {lcm}\n", "")
    finally:
        sys.set_int_max_str_digits(LIMIT)


def test_not_monic_names_a_leading_coefficient_too_long_to_print_by_its_digits(capsys):
    # 2^16000 has 4817 digits.
    assert run_cli(capsys, "analyze", "--f", "2^16000*x+1", "--g", "x") == (
        1,
        "",
        "error: '2^16000*x+1' is not monic: leading coefficient has 4817 digits,"
        " expected 1\n",
    )


def test_integers_at_the_print_limit_still_print(capsys, monkeypatch):
    longest = 10**LIMIT - 1
    assert run_cli(capsys, "resultant", "--f", "x", "--g", f"x+{longest}") == (
        0,
        f"{longest}\n",
        "",
    )
    assert run_cli(capsys, "brute-force", "--f", f"x+{longest}", "--g", "x") == (
        2,
        "",
        f"error: period {longest} exceeds the brute-force cap 1000000\n",
    )
    # 2^14284 has LIMIT digits, 2^14285 one more.
    assert len(str(2**14284)) == LIMIT
    assert run_cli(capsys, "period", "--f", "x+2^14284", "--g", "x") == (0, f"{2**14284}\n", "")
    assert run_cli(capsys, "period", "--f", "x+2^14285", "--g", "x") == (
        2,
        "",
        f"error: the period has more than {LIMIT} digits,"
        " the interpreter's limit for printing an integer\n",
    )
    big = 10**2000
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{big} 0\n0 {big + 1}\n"))
    assert run_cli(capsys, "snf") == (0, f"d = 1 {big * (big + 1)}\n", "")


# ---------------------------------------------------------------------------
# the argparse surface
# ---------------------------------------------------------------------------

SUBCOMMANDS = ["analyze", "resultant", "snf", "brute-force", "witness", "period"]
TOP_USAGE = "usage: polygcd [-h] {analyze,resultant,snf,brute-force,witness,period} ...\n"
ANALYZE_USAGE = """\
usage: polygcd analyze [-h] --f EXPR --g EXPR [--json] [--verify]
"""
PERIOD_USAGE = "usage: polygcd period [-h] --f EXPR --g EXPR\n"

# (argv, exit code, stdout, stderr) at COLUMNS=80: every byte of help,
# usage and error text is argparse's own.
CLI_SURFACE = [
    (["-h"], 0, TOP_USAGE + """
Resultants of monic integer polynomials and the complete map from divisors of
a square-free resultant to the residues n realizing each divisor as gcd(f(n),
g(n)).

positional arguments:
  {analyze,resultant,snf,brute-force,witness,period}
    analyze             full divisor-to-residue report
    resultant           print the signed resultant
    snf                 Smith normal form of an integer matrix
    brute-force         tabulate gcd(f(n), g(n)) over one period
    witness             find n with gcd(f(n), g(n)) = 1, or prove none exists
    period              smallest positive period of gcd(f(n), g(n))

options:
  -h, --help            show this help message and exit
""", ""),
    (["analyze", "-h"], 0, ANALYZE_USAGE + """
options:
  -h, --help  show this help message and exit
  --f EXPR    first monic polynomial, e.g. 'x^2+3'
  --g EXPR    second monic polynomial
  --json      emit canonical JSON
  --verify    cross-check against the Bareiss determinant, gcds mod p and
              brute force
""", ""),
    (["resultant", "-h"], 0, """\
usage: polygcd resultant [-h] --f EXPR --g EXPR [--verify]

options:
  -h, --help  show this help message and exit
  --f EXPR    first monic polynomial, e.g. 'x^2+3'
  --g EXPR    second monic polynomial
  --verify    cross-check against the Bareiss determinant of the Sylvester
              matrix
""", ""),
    (["snf", "-h"], 0, """\
usage: polygcd snf [-h] [--matrix FILE] [--transforms] [--json]

options:
  -h, --help     show this help message and exit
  --matrix FILE  whitespace-separated rows; stdin when omitted
  --transforms   also print U and V
  --json         emit canonical JSON
""", ""),
    (["brute-force", "-h"], 0, """\
usage: polygcd brute-force [-h] --f EXPR --g EXPR [--json]

options:
  -h, --help  show this help message and exit
  --f EXPR    first monic polynomial, e.g. 'x^2+3'
  --g EXPR    second monic polynomial
  --json      emit canonical JSON
""", ""),
    (["witness", "-h"], 0, """\
usage: polygcd witness [-h] --f EXPR --g EXPR

options:
  -h, --help  show this help message and exit
  --f EXPR    first monic polynomial, e.g. 'x^2+3'
  --g EXPR    second monic polynomial
""", ""),
    (["period", "-h"], 0, PERIOD_USAGE + """
options:
  -h, --help  show this help message and exit
  --f EXPR    first monic polynomial, e.g. 'x^2+3'
  --g EXPR    second monic polynomial
""", ""),
    ([], 1, "", TOP_USAGE + "polygcd: error: the following arguments are required: subcommand\n"),
    (["foo"], 1, "", TOP_USAGE + (
        "polygcd: error: argument subcommand: invalid choice: 'foo' (choose from"
        " 'analyze', 'resultant', 'snf', 'brute-force', 'witness', 'period')\n"
    )),
    (["analyze", "--f", "x"], 1, "", ANALYZE_USAGE + (
        "polygcd analyze: error: the following arguments are required: --g\n"
    )),
    (["witness", "--f", "x", "--g", "x+1", "extra"], 1, "", TOP_USAGE + (
        "polygcd: error: unrecognized arguments: extra\n"
    )),
    # period reads no cap: argparse refuses the option, as it does every
    # option a subcommand does not take.
    (["period", "--f", "x", "--g", "x+1", "--cap-brute", "abc"], 1, "", TOP_USAGE + (
        "polygcd: error: unrecognized arguments: --cap-brute abc\n"
    )),
    (["brute-force", "--f", "x", "--g", "x+1", "--cap-residues", "3"], 1, "", TOP_USAGE + (
        "polygcd: error: unrecognized arguments: --cap-residues 3\n"
    )),
    # The work caps are constants: the flags that once set them are refused
    # the same way, whatever their value.
    *(
        ([command, "--f", "x", "--g", "x+1", flag, value], 1, "", TOP_USAGE + (
            f"polygcd: error: unrecognized arguments: {flag} {value}\n"
        ))
        for command, flag, value in [
            ("analyze", "--cap-brute", "0"),
            ("brute-force", "--cap-brute", "-3"),
            ("analyze", "--cap-divisors", "-1"),
            ("analyze", "--cap-residues", "0"),
        ]
    ),
]


@pytest.mark.parametrize(
    "argv, status, out, err", CLI_SURFACE, ids=[" ".join(c[0]) or "none" for c in CLI_SURFACE]
)
def test_cli_surface_is_pinned(capsys, monkeypatch, argv, status, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == status
    assert capsys.readouterr() == (out, err)


def test_only_the_dispatched_subcommand_gets_its_arguments():
    argv = ["witness", "--f", "x", "--g", "x+1"]
    parser = polygcd.cli._build_parser(argv)
    parser.parse_args(argv)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == SUBCOMMANDS
    options = {
        name: [a.option_strings for a in subparser._actions]
        for name, subparser in sub.choices.items()
    }
    assert options == {
        **{name: [["-h", "--help"]] for name in SUBCOMMANDS},
        "witness": [["-h", "--help"], ["--f"], ["--g"]],
    }


def test_an_unknown_option_before_the_subcommand_is_the_only_one_reported(capsys):
    # argparse dispatches to the first argument without a leading "-", here
    # witness, which parses its own options; only --foo is left over.
    with pytest.raises(SystemExit) as exc:
        main(["--foo", "witness", "--f", "x", "--g", "x+1"])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", TOP_USAGE + "polygcd: error: unrecognized arguments: --foo\n")


# ---------------------------------------------------------------------------
# golden output
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = [
    ("analyze",),
    ("analyze", "--json"),
    ("analyze", "--verify"),
    ("witness",),
    ("period",),
    ("resultant", "--verify"),
]
# The stress family x^k + a against (x+1)^k + a, at values of a whose
# resultants factor quickly: prime, square-free with a large prime, and
# non-square-free with many prime powers.
GOLDEN_FAMILY = [(k, a) for k in (5, 8, 11) for a in (-2, -1, 1, 2)] + [
    (17, a) for a in (-9, -2, -1, 1, 2, 9)
]
# sha256 of the output of every GOLDEN_COMMANDS line on every golden_pairs()
# pair, as golden_digest() frames it.  Recompute it only for a deliberate
# output change, and say which change in CHANGES.md.
GOLDEN_SHA256 = "37d9a4189aa4d3785152ae649de2c83d060c6deb4378bb1332ee995a2d0d9473"


def golden_pairs():
    pool = [(str(f), str(g)) for f, g, r in acceptance_pair_pool() if abs(r) <= 10**4]
    family = [(f"x^{k}{a:+d}", f"(x+1)^{k}{a:+d}") for k, a in GOLDEN_FAMILY]
    return pool[:400] + family


def golden_digest() -> str:
    digest = hashlib.sha256()
    for f, g in golden_pairs():
        for name, *flags in GOLDEN_COMMANDS:
            argv = [name, "--f", f, "--g", g, *flags]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
            record = "\0".join([*argv, str(status), out.getvalue(), err.getvalue()])
            digest.update(record.encode() + b"\n")
    return digest.hexdigest()


def test_cli_output_matches_the_golden_digest():
    # Exit codes, stdout and stderr of analyze (text, --json, --verify),
    # witness, period and resultant --verify on 400 acceptance-pool pairs
    # with |r| <= 10^4 and 20 stress-family pairs, byte for byte.
    assert golden_digest() == GOLDEN_SHA256


# The Sylvester matrices of x^k + 9 against (x+1)^k + 9 for k = 5..17, and
# of x^17 + 5: a = 2 (mod 3) gives U and V entries of 12 000 to 43 000 bits.
SNF_GOLDEN_FAMILY = [(k, 9) for k in range(5, 18)] + [(17, 5)]
SNF_GOLDEN_COMMANDS = [(), ("--transforms",), ("--json", "--transforms")]
# sha256 of every SNF_GOLDEN_COMMANDS line on every snf_golden_matrices()
# input, together with d, U and V in hex (hex has no digit limit, so the
# transforms too long for the CLI to print are pinned as well).
SNF_GOLDEN_SHA256 = "e5a514316baeab9c2c6351b7b671c6e8ac32f123521608fbf63846083af3552f"


def snf_golden_matrices():
    family = [
        polygcd.sylvester_matrix(MonicIntPoly.parse(f"x^{k}+{a}"), MonicIntPoly.parse(f"(x+1)^{k}+{a}")).to_rows()
        for k, a in SNF_GOLDEN_FAMILY
    ]
    rng = random.Random(2016)
    randoms = []
    for n in range(200):
        height, width = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(height)]
        if n % 4 == 0 and height > 1:  # singular: one row a multiple of another
            rows[-1] = [3 * x for x in rows[0]]
        randoms.append(rows)
    return family + randoms


def snf_golden_digest(monkeypatch) -> str:
    digest = hashlib.sha256()
    for rows in snf_golden_matrices():
        text = "\n".join(" ".join(map(str, row)) for row in rows) + "\n"
        for flags in SNF_GOLDEN_COMMANDS:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(["snf", *flags])
            record = "\0".join([text, *flags, str(status), out.getvalue(), err.getvalue()])
            digest.update(record.encode() + b"\n")
        result = polygcd.smith_normal_form(polygcd.IntMatrix.from_rows(rows))
        hexed = [list(result.d), *result.U.to_rows(), *result.V.to_rows()]
        digest.update(" ".join(hex(x) for row in hexed for x in row).encode() + b"\n")
    return digest.hexdigest()


def test_snf_output_matches_the_golden_digest(monkeypatch):
    # snf, snf --transforms and snf --json --transforms on 14 Sylvester
    # matrices and 200 random ones (1-8 rows and columns, a quarter of them
    # singular), byte for byte, and d, U and V of each.
    assert snf_golden_digest(monkeypatch) == SNF_GOLDEN_SHA256
