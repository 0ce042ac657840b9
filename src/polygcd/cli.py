"""Command-line front end.

Subcommands: analyze, resultant, snf, brute-force, witness, period.
Each call builds the parser tree with arguments for only the subcommand
that argv names, so help, usage and error text are argparse's own.
Human-readable tables go to stdout by default; ``--json`` switches to a
canonical JSON document (sorted keys, all integers as decimal strings, so
arbitrary precision survives).  Errors go to stderr.

Exit codes: 0 success, 1 input error, 2 cap exceeded, 3 internal
invariant breach (a bug, reported loudly).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys

from .analysis import (
    RESIDUE_LISTING_CAP,
    GcdAtlas,
    NotSquarefree,
    ZeroResultant,
    analyze,
    coprime_witness,
    minimal_period,
)
from .errors import (
    CapExceeded,
    CriterionInapplicable,
    InputError,
    InvariantBreach,
)
from .linalg import IntMatrix, resultant
# factor is not called here; bench/tracing.py BINDINGS rebinds polygcd.cli.factor.
from .ntheory import MR_DETERMINISTIC_BOUND, Factorization, factor
from .oracle import brute_force_profile
from .poly import MonicIntPoly, parse_poly
from .snf import smith_normal_form

__all__ = ["main"]

# Residues the text report prints per divisor.
PREVIEW = 16
# An snf matrix entry; int() would also read "1_0" and the digits of other scripts.
_MATRIX_ENTRY = re.compile(r"[+-]?[0-9]+")


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which collides with the
    # cap-exceeded code; route usage errors to exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="polygcd",
        description=(
            "Resultants of monic integer polynomials and the complete map"
            " from divisors of a square-free resultant to the residues n"
            " realizing each divisor as gcd(f(n), g(n))."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_ArgumentParser)
    # argparse dispatches to the first argument without a leading "-"; only it gets arguments.
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if name == chosen:
            add_arguments(subparser)
    return parser


def _pair_args(p):
    p.add_argument("--f", required=True, metavar="EXPR", help="first monic polynomial, e.g. 'x^2+3'")
    p.add_argument("--g", required=True, metavar="EXPR", help="second monic polynomial")


def _brute_force_args(p):
    _pair_args(p)
    p.add_argument("--json", action="store_true", help="emit canonical JSON")


def _analyze_args(p):
    _brute_force_args(p)
    p.add_argument("--verify", action="store_true", help="cross-check against the Bareiss determinant, gcds mod p and brute force")


def _resultant_args(p):
    _pair_args(p)
    p.add_argument("--verify", action="store_true", help="cross-check against the Bareiss determinant of the Sylvester matrix")


def _snf_args(p):
    p.add_argument("--matrix", metavar="FILE", help="whitespace-separated rows; stdin when omitted")
    p.add_argument("--transforms", action="store_true", help="also print U and V")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")


def _monic(text: str) -> MonicIntPoly:
    coeffs = parse_poly(text).coeffs
    try:
        return MonicIntPoly(coeffs)
    except InputError as exc:
        raise InputError(f"{text!r} {exc}") from None


@contextlib.contextmanager
def _printed(subject: str):
    # Write what the block prints only once all of it has rendered: an
    # integer longer than the interpreter prints raises ValueError, and that
    # exits 2 with an empty stdout, as a cap does.
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            yield
    except ValueError:
        raise CapExceeded(
            f"{subject} has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for printing an integer"
        ) from None
    sys.stdout.write(buffer.getvalue())


def _dump_json(obj) -> str:
    import json  # imported here: only --json output loads it

    return json.dumps(obj, indent=2, sort_keys=True)


def _format_factorization(fact: Factorization) -> str:
    body = " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in fact.factors
    )
    return f"-{body}" if fact.sign < 0 else body


def _prime_note(p: int) -> str:
    return f"{p} (probable prime)" if p >= MR_DETERMINISTIC_BOUND else str(p)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    # The text report prints every residue listed, at most PREVIEW per
    # divisor, and adds "..." when an entry is truncated.
    residue_cap = RESIDUE_LISTING_CAP if args.json else PREVIEW
    outcome = analyze(args.f, args.g, residue_cap=residue_cap, verify=args.verify)
    with _printed("an integer in the answer"):
        if isinstance(outcome, GcdAtlas):
            _report_atlas(outcome, args)
        elif isinstance(outcome, ZeroResultant):
            _report_zero(outcome, args)
        else:
            _report_not_squarefree(outcome, args)
    return 0


def _report_atlas(atlas: GcdAtlas, args: argparse.Namespace) -> None:
    if args.json:
        doc = {
            "f": str(args.f),
            "g": str(args.g),
            "resultant": str(atlas.resultant),
            "squarefree": True,
            "roots": {str(p): str(c) for p, c in atlas.roots.items()},
            "entries": [
                {
                    "divisor": str(e.divisor),
                    "multiplicity": str(e.multiplicity),
                    "residues": [str(n) for n in e.residues],
                    "residues_truncated": e.truncated,
                }
                for e in atlas.entries
            ],
        }
        print(_dump_json(doc))
        return
    modulus = abs(atlas.resultant)
    print(f"f = {args.f}")
    print(f"g = {args.g}")
    print(f"resultant = {atlas.resultant} = {_format_factorization(atlas.factorization)}")
    print("square-free: yes")
    for p, c in atlas.roots.items():
        print(f"common root mod {_prime_note(p)}: n = {c}")
    print()
    header = ("divisor", "multiplicity", f"residues mod {modulus}")
    body = [
        (str(e.divisor), str(e.multiplicity), _residue_preview(e))
        for e in atlas.entries
    ]
    w0 = max(len(header[0]), *(len(r[0]) for r in body))
    w1 = max(len(header[1]), *(len(r[1]) for r in body))
    print(f"{header[0]:>{w0}}  {header[1]:>{w1}}  {header[2]}")
    for r in body:
        print(f"{r[0]:>{w0}}  {r[1]:>{w1}}  {r[2]}")


def _residue_preview(entry) -> str:
    shown = ", ".join(str(n) for n in entry.residues)
    if entry.truncated:
        return f"{shown}, ... ({entry.multiplicity} total)"
    return shown


def _report_zero(outcome: ZeroResultant, args: argparse.Namespace) -> None:
    if args.json:
        print(
            _dump_json(
                {
                    "f": str(args.f),
                    "g": str(args.g),
                    "resultant": "0",
                    "common_factor": str(outcome.common_factor),
                    "sample_values": [str(v) for v in outcome.sample_values],
                }
            )
        )
        return
    print(f"f = {args.f}")
    print(f"g = {args.g}")
    print("resultant = 0")
    print(f"common factor over Z[x]: {outcome.common_factor}")
    print("the gcd values are unbounded: infinite range, no nonzero period")
    sample = ", ".join(str(v) for v in outcome.sample_values)
    print(f"gcd(f(n), g(n)) for n = 0..{len(outcome.sample_values) - 1}: {sample}")


def _report_not_squarefree(outcome: NotSquarefree, args: argparse.Namespace) -> None:
    if args.json:
        doc = {
            "f": str(args.f),
            "g": str(args.g),
            "resultant": str(outcome.resultant),
            "squarefree": False,
            "factorization": [
                [str(p), str(e)] for p, e in outcome.factorization.factors
            ],
            "range": [str(v) for v in outcome.gcd_range],
            "histogram": {str(v): str(c) for v, c in outcome.histogram.items()},
            "witness": str(outcome.witness) if outcome.witness is not None else None,
            "witness_applicable": outcome.witness_applicable,
        }
        print(_dump_json(doc))
        return
    print(f"f = {args.f}")
    print(f"g = {args.g}")
    print(f"resultant = {outcome.resultant} = {_format_factorization(outcome.factorization)}")
    print("square-free: no (the complete divisor map is only available for square-free resultants)")
    values = ", ".join(str(v) for v in outcome.gcd_range)
    print(f"empirical gcd range over one period of {abs(outcome.resultant)}: {{{values}}}")
    histogram = ", ".join(f"{v}: {c}" for v, c in outcome.histogram.items())
    print(f"gcd value counts: {histogram}")
    print(f"minimal period: {outcome.period}")
    if outcome.witness_applicable:
        print(f"coprime witness: n = {outcome.witness}")
    else:
        p = outcome.common_prime
        print(f"coprime witness: criterion inapplicable ({p}^{p} divides the resultant)")


def _cmd_resultant(args: argparse.Namespace) -> int:
    value = resultant(args.f, args.g, verify=args.verify)
    with _printed("the resultant"):
        print(value)
    return 0


def _cmd_snf(args: argparse.Namespace) -> int:
    if args.matrix is not None:
        try:
            with open(args.matrix, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read matrix file {args.matrix!r}: {exc.strerror}") from None
    else:
        text = sys.stdin.read()
    rows = [row for row in map(str.split, text.splitlines()) if row]
    limit = sys.get_int_max_str_digits()
    for i, row in enumerate(rows, 1):
        for j, tok in enumerate(row, 1):
            if not _MATRIX_ENTRY.fullmatch(tok):
                raise InputError(f"invalid literal for int() with base 10: {tok!r}")
            if limit and len(tok.lstrip("+-")) > limit:
                raise CapExceeded(
                    f"matrix entry at row {i}, column {j} has more than {limit} digits,"
                    " the interpreter's limit for reading an integer"
                )
    if not rows:
        raise InputError("empty matrix input")
    matrix = IntMatrix.from_rows([[int(tok) for tok in row] for row in rows])
    result = smith_normal_form(matrix, transforms=args.transforms)
    with _printed("an integer in the answer"):
        if args.json:
            doc = {"d": [str(x) for x in result.d]}
            if args.transforms:
                doc["U"] = [[str(v) for v in row] for row in result.U.to_rows()]
                doc["V"] = [[str(v) for v in row] for row in result.V.to_rows()]
            print(_dump_json(doc))
            return 0
        print("d =", " ".join(str(x) for x in result.d))
        if args.transforms:
            print("U =")
            print(result.U)
            print("V =")
            print(result.V)
    return 0


def _cmd_brute_force(args: argparse.Namespace) -> int:
    profile = brute_force_profile(args.f, args.g)
    if args.json:
        doc = {
            "modulus": str(profile.modulus),
            "histogram": {str(v): str(c) for v, c in profile.histogram.items()},
            "range": [str(v) for v in profile.gcd_range],
        }
        print(_dump_json(doc))
        return 0
    print(f"modulus = {profile.modulus}")
    print("range =", ", ".join(str(v) for v in profile.gcd_range))
    for value in profile.gcd_range:
        print(f"gcd {value}: {profile.histogram[value]} residues per period")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    try:
        n = coprime_witness(args.f, args.g)
    except CriterionInapplicable as exc:
        print(exc)
        return 0
    with _printed("the witness"):
        print(f"n = {n}")
        print(f"gcd(f({n}), g({n})) = 1")
    return 0


def _cmd_period(args: argparse.Namespace) -> int:
    value = minimal_period(args.f, args.g)
    with _printed("the period"):
        print(value)
    return 0


# name -> (help, add-arguments function, handler), in the order -h lists them.
_SUBCOMMANDS = {
    "analyze": ("full divisor-to-residue report", _analyze_args, _cmd_analyze),
    "resultant": ("print the signed resultant", _resultant_args, _cmd_resultant),
    "snf": ("Smith normal form of an integer matrix", _snf_args, _cmd_snf),
    "brute-force": ("tabulate gcd(f(n), g(n)) over one period", _brute_force_args, _cmd_brute_force),
    "witness": ("find n with gcd(f(n), g(n)) = 1, or prove none exists", _pair_args, _cmd_witness),
    "period": ("smallest positive period of gcd(f(n), g(n))", _pair_args, _cmd_period),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads an expression such as -1+x^2 after --f or --g as an
    # option; joined into --f=-1+x^2 it is read as the value, as typed.
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in ("--f", "--g") and re.match(r"-[0-9x(]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser(argv).parse_args(argv)
    try:
        if "f" in args:  # every subcommand but snf takes the pair --f, --g
            args.f, args.g = _monic(args.f), _monic(args.g)
        _, _, handler = _SUBCOMMANDS[args.subcommand]
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(
            f"INTERNAL INVARIANT BREACH (this is a bug): {exc}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
