"""Independent checks of polygcd's command-line output.

Everything is recomputed with plain integer arithmetic (``math.gcd``,
Horner evaluation, the CRT resultant in ``workloads``), never with polygcd's
own functions.  ``check`` returns a list of problems; empty means correct.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from workloads import Op, evaluate, is_probable_prime, resultant_exact

_INT = r"-?\d+"


def check(op: Op, code: int, out: str, err: str) -> list[str]:
    """Problems with one operation's exit code, stderr and stdout."""
    if code != 0:
        return [f"exit code {code}, expected 0: {err.strip()[:200]}"]
    if err:
        return [f"unexpected stderr: {err.strip()[:200]}"]
    r = op.resultant if op.resultant is not None else resultant_exact(op.f, op.g)
    checker = {
        "analyze": _check_analyze_text,
        "analyze-json": _check_atlas_json,
        "resultant": _check_resultant,
        "witness": _check_witness,
        "snf": _check_snf,
    }[op.kind]
    try:
        return checker(op, r, out)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return [f"unparseable output ({type(exc).__name__}: {exc})"]


def _gcd_at(op: Op, n: int) -> int:
    return _gcd_function(op)(n)


def _gcd_function(op: Op):
    """n -> gcd(f(n), g(n)).  When one of them is x + b, the other's value
    is f(-b) modulo n + b, so the gcd is gcd(f(-b), n + b)."""
    for linear, other in ((op.g, op.f), (op.f, op.g)):
        if len(linear) == 2:
            b, value = linear[1], evaluate(other, -linear[1])
            return lambda n: math.gcd(value, n + b)
    return lambda n: math.gcd(evaluate(op.f, n), evaluate(op.g, n))


def _field(out: str, pattern: str) -> re.Match:
    match = re.search(pattern, out, re.MULTILINE)
    if match is None:
        raise ValueError(f"no line matching {pattern!r}")
    return match


def _check_factorization(r: int, text: str) -> tuple[list[str], dict[int, int]]:
    """Parse ``-2^3 * 5`` and check it multiplies back to r with primes."""
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    factors: dict[int, int] = {}
    for term in filter(None, (t.strip() for t in body.split("*"))):
        p, _, e = term.partition("^")
        factors[int(p)] = int(e) if e else 1
    problems = []
    if sign * math.prod(p**e for p, e in factors.items()) != r:
        problems.append(f"factorization {text!r} does not multiply back to {r}")
    problems += [f"factor {p} is not prime" for p in factors if not is_probable_prime(p)]
    return problems, factors


def _divisors(primes: list[int]) -> list[int]:
    divs = [1]
    for p in primes:
        divs += [d * p for d in divs]
    return sorted(divs)


def _check_atlas_entries(op, r, primes, entries) -> list[str]:
    """entries: (divisor, multiplicity, residues, complete) per divisor row."""
    modulus = abs(r)
    gcd_at = _gcd_function(op)
    problems = []
    if sorted(e[0] for e in entries) != _divisors(primes):
        problems.append("atlas divisors are not exactly the divisors of |r|")
    total = 0
    for d, mult, residues, complete in entries:
        expected = math.prod(p - 1 for p in primes if (modulus // d) % p == 0)
        if mult != expected:
            problems.append(f"divisor {d}: multiplicity {mult}, expected {expected}")
        total += mult
        if complete and len(residues) != mult:
            problems.append(f"divisor {d}: {len(residues)} residues listed for multiplicity {mult}")
        if any(b <= a for a, b in zip(residues, residues[1:])):
            problems.append(f"divisor {d}: residues not strictly ascending")
        wrong = next((n for n in residues if not 0 <= n < modulus or gcd_at(n) != d), None)
        if wrong is not None:
            problems.append(f"divisor {d}: residue {wrong} has gcd {gcd_at(wrong)}")
        if d == modulus and mult != 1:
            problems.append(f"|r| = {modulus} realized {mult} times, expected once")
    if total != modulus:
        problems.append(f"multiplicities sum to {total}, expected |r| = {modulus}")
    return problems


def _check_roots(op: Op, roots: dict[int, int]) -> list[str]:
    return [
        f"n = {c} is not a common root mod {p}"
        for p, c in roots.items()
        if evaluate(op.f, c) % p or evaluate(op.g, c) % p
    ]


def _check_atlas_json(op: Op, r: int, out: str) -> list[str]:
    doc = json.loads(out)
    if int(doc["resultant"]) != r:
        return [f"resultant {doc['resultant']}, expected {r}"]
    if doc["squarefree"] is not True:
        return ["square-free resultant reported as not square-free"]
    roots = {int(p): int(c) for p, c in doc["roots"].items()}
    primes = sorted(roots)
    problems = _check_roots(op, roots)
    if math.prod(primes) != abs(r) or not all(map(is_probable_prime, primes)):
        problems.append(f"root primes {primes} are not the prime factors of |r|")
    entries = [
        (
            int(e["divisor"]),
            int(e["multiplicity"]),
            [int(n) for n in e["residues"]],
            not e["residues_truncated"],
        )
        for e in doc["entries"]
    ]
    return problems + _check_atlas_entries(op, r, primes, entries)


def _check_analyze_text(op: Op, r: int, out: str) -> list[str]:
    reported = int(_field(out, rf"^resultant = ({_INT})")[1])
    if reported != r:
        return [f"resultant {reported}, expected {r}"]
    if r == 0:
        return _check_zero_text(op, out)
    problems, factors = _check_factorization(r, _field(out, rf"^resultant = {_INT} = (.*)$")[1])
    squarefree = all(e == 1 for e in factors.values())
    if _field(out, r"^square-free: (yes|no)")[1] != ("yes" if squarefree else "no"):
        problems.append("square-free verdict contradicts the factorization")
    if not squarefree:
        return problems + _check_not_squarefree_text(op, r, factors, out)
    roots = {
        int(m[1]): int(m[2])
        for m in re.finditer(r"^common root mod (\d+)(?: \(probable prime\))?: n = (\d+)$", out, re.M)
    }
    problems += _check_roots(op, roots)
    if sorted(roots) != sorted(factors):
        problems.append("common roots are not listed for exactly the primes of |r|")
    entries = []
    table = out.split("\n\n", 1)[1].splitlines()[1:]
    for line in table:
        d, mult, preview = line.split(None, 2)
        shown, _, rest = preview.partition(", ...")
        residues = [int(n) for n in shown.split(", ") if n]
        entries.append((int(d), int(mult), residues, not rest))
    return problems + _check_atlas_entries(op, r, sorted(factors), entries)


def _check_not_squarefree_text(op, r, factors, out) -> list[str]:
    problems = []
    modulus = abs(r)
    profile = re.search(r"^empirical gcd range over one period of (\d+): \{(.*)\}$", out, re.M)
    if profile is None:
        cap = int(_field(out, r"^\|resultant\| exceeds the brute-force cap (\d+)")[1])
        if modulus <= cap:
            problems.append(f"profile skipped although |r| = {modulus} <= cap {cap}")
    else:
        if int(profile[1]) != modulus:
            problems.append(f"profile period {profile[1]}, expected {modulus}")
        values = [int(v) for v in profile[2].split(", ")]
        counts = dict(
            tuple(map(int, item.split(": ")))
            for item in _field(out, r"^gcd value counts: (.*)$")[1].split(", ")
        )
        if sum(counts.values()) != modulus:
            problems.append(f"histogram sums to {sum(counts.values())}, expected {modulus}")
        if sorted(counts) != values or any(modulus % v for v in values):
            problems.append("gcd range is not the histogram's keys, or a value does not divide r")
        period = int(_field(out, r"^minimal period: (\d+)$")[1])
        if modulus % period:
            problems.append(f"minimal period {period} does not divide |r|")
    return problems + _check_witness_line(op, factors, out)


def _check_witness_line(op, factors, out) -> list[str]:
    found = re.search(r"^coprime witness: n = (\d+)$", out, re.M)
    if found:
        return _check_coprime(op, int(found[1]))
    p = int(_field(out, r"^coprime witness: criterion inapplicable \((\d+)\^")[1])
    return [] if factors.get(p, 0) >= p else [f"{p}^{p} does not divide r"]


def _check_coprime(op: Op, n: int) -> list[str]:
    g = _gcd_at(op, n)
    return [] if g == 1 else [f"witness n = {n} has gcd {g}"]


def _check_zero_text(op: Op, out: str) -> list[str]:
    problems = []
    values = [int(v) for v in _field(out, r"^gcd\(f\(n\), g\(n\)\) for n = 0\.\.\d+: (.*)$")[1].split(", ")]
    if values != [_gcd_at(op, n) for n in range(len(values))]:
        problems.append("sampled gcd values are wrong")
    common = parse_canonical(_field(out, r"^common factor over Z\[x\]: (.*)$")[1])
    if len(common) < 2 or _rem_q(op.f, common) or _rem_q(op.g, common):
        problems.append("reported common factor does not divide f and g")
    return problems


def parse_canonical(text: str) -> tuple[int, ...]:
    """Coefficients of polygcd's printed form, e.g. ``-x^2 + 2*x - 4``."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        head, _, power = term.partition("x")
        c = int(head.rstrip("*")) if head else 1
        e = int(power.lstrip("^")) if power.startswith("^") else (1 if "x" in term else 0)
        coeffs[e] = sign * c
    degree = max(coeffs)
    return tuple(coeffs.get(e, 0) for e in range(degree, -1, -1))


def _rem_q(num: tuple[int, ...], den: tuple[int, ...]) -> bool:
    """True when den does not divide num over Q."""
    rem = [Fraction(c) for c in num]
    while len(rem) >= len(den):
        q = rem[0] / den[0]
        for i in range(1, len(den)):
            rem[i] -= q * den[i]
        rem.pop(0)
    return any(rem)


def _check_resultant(op: Op, r: int, out: str) -> list[str]:
    reported = int(out.strip())
    return [] if reported == r else [f"resultant {reported}, expected {r}"]


def _check_witness(op: Op, r: int, out: str) -> list[str]:
    found = re.search(r"^n = (\d+)\ngcd\(f\(\1\), g\(\1\)\) = 1$", out, re.M)
    if found:
        return _check_coprime(op, int(found[1]))
    p = int(_field(out, r"criterion inapplicable: (\d+)\^")[1])
    return [] if r % p**p == 0 else [f"{p}^{p} does not divide r = {r}"]


def _check_snf(op: Op, r: int, out: str) -> list[str]:
    d = [int(v) for v in _field(out, r"^d = (.*)$")[1].split()]
    problems = []
    if len(d) != len(op.matrix):
        problems.append(f"{len(d)} invariant factors for a {len(op.matrix)}-square matrix")
    if any(x < 0 for x in d) or any((b % a if a else b) for a, b in zip(d, d[1:])):
        problems.append("invariant factors are negative or do not divide each other")
    if math.prod(d) != abs(r):
        problems.append(f"invariant factors multiply to {math.prod(d)}, expected |det| = {abs(r)}")
    if d and d[0] != math.gcd(*(x for row in op.matrix for x in row)):
        problems.append("first invariant factor is not the gcd of the entries")
    return problems
