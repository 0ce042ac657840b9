"""Spans around polygcd's layers, recorded from outside the program.

A traced run replaces each public function at the name its caller looks it
up by (``polygcd.analysis.resultant``, ``polygcd.cli.analyze``, ...) with a
wrapper that records a span: name, start, end, parent span and op id.  The
spans stay in memory until the run ends.  A layer's self time is its span's
duration minus its child spans' durations.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# (module whose global is replaced, global name, span name).  The span name
# is where the function is defined, so the three bindings of
# linalg.resultant (in cli, analysis and oracle) count as one layer.
BINDINGS = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_poly", "poly.parse_poly"),
    ("cli", "analyze", "analysis.analyze"),
    ("cli", "coprime_witness", "analysis.coprime_witness"),
    ("cli", "minimal_period", "analysis.minimal_period"),
    ("cli", "resultant", "linalg.resultant"),
    ("cli", "factor", "ntheory.factor"),
    ("cli", "brute_force_profile", "oracle.brute_force_profile"),
    ("cli", "smith_normal_form", "snf.smith_normal_form"),
    ("analysis", "resultant", "linalg.resultant"),
    ("analysis", "factor", "ntheory.factor"),
    ("analysis", "is_squarefree", "ntheory.is_squarefree"),
    ("analysis", "divisors", "ntheory.divisors"),
    ("analysis", "crt", "ntheory.crt"),
    ("analysis", "common_root_mod_p", "modp.common_root_mod_p"),
    ("analysis", "brute_force_profile", "oracle.brute_force_profile"),
    ("analysis", "gcd_over_Z", "poly.gcd_over_Z"),
    ("analysis", "build_atlas", "analysis.build_atlas"),
    ("analysis", "coprime_witness", "analysis.coprime_witness"),
    ("oracle", "resultant", "linalg.resultant"),
    ("linalg", "resultant_prs", "linalg.resultant_prs"),
    ("modp", "is_prime", "ntheory.is_prime"),
    ("snf", "det_bareiss", "linalg.det_bareiss"),
    ("snf", "ext_gcd", "ntheory.ext_gcd"),
]


def _sylvester_dim(args, result) -> dict:
    return {"dim": args[0].degree + args[1].degree}


def _factor_counts(args, result) -> dict:
    return {"digits": len(str(abs(result.n))), "primes": len(result.factors)}


def _atlas_counts(args, result) -> dict:
    return {
        "listed": sum(len(e.residues) for e in result.entries),
        "truncated": sum(e.truncated for e in result.entries),
    }


# Counts read from a layer's arguments and return value, per span name.
COUNTERS = {
    "linalg.resultant": _sylvester_dim,
    "ntheory.factor": _factor_counts,
    "analysis.build_atlas": _atlas_counts,
    "oracle.brute_force_profile": lambda args, result: {"scanned": result.modulus},
    "snf.smith_normal_form": lambda args, result: {"dim": len(result.d)},
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(f"polygcd.{module_name}")
            original = getattr(module, attr, None)
            defined = f"{getattr(original, '__module__', '')}.{getattr(original, '__name__', '')}"
            if not callable(original) or defined != f"polygcd.{span}":
                self.uninstall()
                raise LookupError(
                    f"polygcd.{module_name}.{attr} is {defined or 'missing'}, expected"
                    f" polygcd.{span}: update bench/tracing.py BINDINGS"
                )
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if counter is not None:
                spans[index][5] = counter(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, counts in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record) + "\n")


SELF_TIME_LAYERS = [
    "cli.main",
    "poly.parse_poly",
    "analysis.analyze",
    "analysis.build_atlas",
    "analysis.coprime_witness",
    "analysis.minimal_period",
    "linalg.resultant",
    "linalg.resultant_prs",
    "ntheory.factor",
    "modp.common_root_mod_p",
    "oracle.brute_force_profile",
    "snf.smith_normal_form",
]
CALL_COUNT_LAYERS = [
    "poly.parse_poly",
    "linalg.resultant",
    "ntheory.factor",
    "modp.common_root_mod_p",
    "oracle.brute_force_profile",
]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: means per op, except maxima."""
    own = tracer.self_times()
    self_s = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    calls = dict.fromkeys(CALL_COUNT_LAYERS, 0)
    sums = {"scanned": 0, "listed": 0, "truncated": 0, "primes": 0}
    maxima = {"linalg.resultant": 0, "ntheory.factor": 0, "snf.smith_normal_form": 0}
    for (name, _, _, _, _, counts), t in zip(tracer.spans, own):
        if name in self_s:
            self_s[name] += t
        if name in calls:
            calls[name] += 1
        for key, value in (counts or {}).items():
            if key in sums:
                sums[key] += value
            else:
                maxima[name] = max(maxima[name], value)
    out = {f"{name}.self_s": (t / ops, "s/op") for name, t in self_s.items()}
    out.update({f"{name}.calls": (n / ops, "1/op") for name, n in calls.items()})
    out["oracle.values_scanned"] = (sums["scanned"] / ops, "1/op")
    out["analysis.residues_listed"] = (sums["listed"] / ops, "1/op")
    out["analysis.entries_truncated"] = (sums["truncated"] / ops, "1/op")
    out["ntheory.primes_found"] = (sums["primes"] / ops, "1/op")
    out["linalg.sylvester_dim_max"] = (maxima["linalg.resultant"], "count")
    out["ntheory.r_digits_max"] = (maxima["ntheory.factor"], "count")
    out["snf.dim_max"] = (maxima["snf.smith_normal_form"], "count")
    return out
