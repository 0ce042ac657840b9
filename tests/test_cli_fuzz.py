"""Generated command lines against cli.main: every path answers or exits 1
or 2 with an error line, never with a traceback or an invariant breach."""
import contextlib
import io
import sys
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

import polygcd.analysis
import polygcd.ntheory
import polygcd.oracle
from polygcd.cli import main

SUBCOMMANDS = ["analyze", "resultant", "snf", "brute-force", "witness", "period"]

# True about one time in ten: Hypothesis leans to the first choice.
one_in_ten = st.sampled_from([False] * 9 + [True])
literals = st.integers(0, 20).map(str)
atoms = st.one_of(st.just("x"), literals)


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map("".join),
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"({e})"),
        st.tuples(children, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


# Most of these are not monic, so they exercise the parser and its errors.
free_expressions = st.recursive(atoms, _compound, max_leaves=5)


def _monic_compound(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: f"{p[0]}*({p[1]})"),
        st.tuples(children, st.integers(1, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(children, st.sampled_from(["+", "-", "+-"]), literals).map("".join),
    )


# x^d plus terms of lower degree, then products, powers and constants.
monic_atoms = st.builds(
    lambda d, tail: f"x^{d}" + "".join(f"{sign}{c}*x^{e % d}" for sign, c, e in tail),
    st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from(["+", "-"]), literals, st.integers(0, 2)), max_size=3),
)
monic_expressions = st.recursive(monic_atoms, _monic_compound, max_leaves=3)


@st.composite
def expressions(draw):
    text = draw(st.one_of(monic_expressions, monic_expressions, monic_expressions, free_expressions))
    if draw(one_in_ten):  # a stray character somewhere
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("$#@y_.,^()*/ ٣²"))) + text[at:]
    return text


@st.composite
def matrices(draw):
    # Whitespace-separated rows; some ragged, some with a bad token, some empty.
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(0, 4)) if draw(one_in_ten) else width
        rows.append([draw(st.integers(-20, 20).map(str)) for _ in range(size)])
    if draw(one_in_ten):
        rows[-1].append(draw(st.sampled_from(["1.5", "a", "1_0", "+-1", "--2", "١", "0x1f"])))
    return "\n".join(" ".join(row) for row in rows) + "\n"


# Values for the cap flags, which every subcommand refuses.
caps = st.sampled_from([str(n) for n in range(1, 11)] + ["0", "-1"])

# The options each subcommand takes.
OPTIONS = {
    "analyze": ["--json", "--verify"],
    "resultant": ["--verify"],
    "snf": ["--json", "--transforms"],
    "brute-force": ["--json"],
    "witness": [],
    "period": [],
}
ALL_OPTIONS = ["--json", "--verify", "--transforms", "--cap-brute", "--cap-residues", "--cap-divisors", "-h"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*SUBCOMMANDS] * 4 + ["bogus", "-h"]))
    argv = [command]
    if command != "snf" or draw(one_in_ten):
        for name in ("--f", "--g"):
            if not draw(one_in_ten):  # now and then leave one out
                text = draw(expressions())
                # --f=-x or --f -x, which main joins into the first
                argv += [f"{name}={text}"] if draw(st.booleans()) else [name, text]
    options = draw(st.sets(st.sampled_from(OPTIONS.get(command) or ["-h"])))
    if draw(one_in_ten):  # one that this subcommand may refuse
        options.add(draw(st.sampled_from(ALL_OPTIONS)))
    for name in sorted(options):
        argv += [name, draw(caps)] if name.startswith("--cap") else [name]
    if command == "snf" and draw(one_in_ten):
        argv += ["--matrix", "/nonexistent/matrix.txt"]
    return argv


def run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: -h, usage errors
            status = exc.code
    return status, out.getvalue(), err.getvalue()


@settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(command_lines(), matrices())
def test_every_generated_command_line_answers_or_exits_with_an_error_line(argv, stdin_text):
    # A small rho budget and brute-force cap keep each example cheap.
    with mock.patch.object(polygcd.ntheory, "RHO_BUDGET", 10**5), mock.patch.object(
        polygcd.analysis, "BRUTE_FORCE_CAP", 10**4
    ), mock.patch.object(polygcd.oracle, "BRUTE_FORCE_CAP", 10**4):
        status, out, err = run(argv, stdin_text)
    assert status in (0, 1, 2), (argv, status, err)
    assert "Traceback" not in err
    if status == 0:
        assert err == ""
    else:
        assert "error:" in err.splitlines()[-1], (argv, err)
