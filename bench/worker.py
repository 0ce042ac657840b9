"""One workload run in its own process: the timed loop, checks and tracing.

Started by run.py with ``src`` on PYTHONPATH; prints one JSON line.  Each
operation is one in-process call to ``polygcd.cli.main(argv)`` with stdout
and stderr captured, from a single client in a closed loop.  Only the calls
themselves are timed: checking, digesting and drawing the next cycle happen
between operations, outside the measured windows.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

from polygcd import cli

from check import check
from tracing import Tracer, layer_metrics
from workloads import SNF_K, Stream, stress_pair, sylvester_rows, write_matrix

MIN_OPS = 100

# ROADMAP re-anchor baselines (Python 3.11.7, best of N on a 2-core machine):
# (label, argv, span whose duration is compared, baseline ms); the SNF
# argv is filled in with the 34x34 Sylvester matrix of x^17+9.
BASELINES = [
    ("Bareiss 34x34", ("resultant", "--f", "x^17+9", "--g", "(x+1)^17+9"), "linalg.resultant", 5.0),
    ("Bareiss 100x100", ("resultant", "--f", "x^50+9", "--g", "(x+1)^50+9"), "linalg.resultant", 206.0),
    ("SNF 34x34", None, "snf.smith_normal_form", 82.0),
    ("analyze x^17+9", ("analyze", "--f", "x^17+9", "--g", "(x+1)^17+9"), "analysis.analyze", 21.0),
]


def run_cli(argv) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall time of one CLI call.

    A traceback counts as exit code 1, as it would for the real command.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Pass:
    """Latencies, failures and the stdout digest of one pass over the ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.stdout_bytes = 0
        self.digest = hashlib.sha256()
        self.cycle_ends: list[int] = []  # ops done, and digest so far, at
        self.cycle_digests: list[str] = []  # the end of each cycle

    def record(self, op, code, out, err, elapsed, problems) -> None:
        self.latencies.append(elapsed)
        data = out.encode()
        self.stdout_bytes += len(data)
        self.digest.update(f"{len(data)}:".encode() + data)
        if problems:
            self.failures.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def import_time() -> float:
    """Wall time of a fresh ``python -c "import polygcd.cli"`` process.

    No timeout: with one, ``subprocess`` polls for the exit every 50 ms,
    which would round the measurement up to that grain.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import polygcd.cli"], check=True)
    return time.perf_counter() - start


def timed_loop(stream: Stream, seconds: float, setup: list | None) -> tuple[list, Pass]:
    """Whole cycles until ``seconds`` of op time and MIN_OPS ops are done.

    With a ``setup`` list, fresh-import times are sampled before the loop and
    after every cycle, so they cover the same stretch of machine time as the
    operations do rather than one burst at the start.
    """
    ops, run = [], Pass()
    if setup is not None:
        import_time()  # warm-up: compiles the bytecode cache once
        setup += [import_time() for _ in range(2)]
    while sum(run.latencies) < seconds or len(ops) < MIN_OPS:
        for op in stream.next_cycle():
            code, out, err, elapsed = run_cli(op.argv)
            run.record(op, code, out, err, elapsed, check(op, code, out, err))
            ops.append(op)
        run.cycle_ends.append(len(ops))
        run.cycle_digests.append(run.digest.hexdigest())
        if setup is not None:
            setup.append(import_time())
    return ops, run


def replay(ops, tracer: Tracer) -> tuple[Pass, Pass]:
    """The same ops again, each once plain and once traced, in alternating
    order, so both passes see the same warm-up; output is compared by digest.
    """
    plain, traced = Pass(), Pass()
    for index, op in enumerate(ops):
        tracer.op = index
        for with_spans in ((False, True) if index % 2 else (True, False)):
            if with_spans:
                tracer.install()
            try:
                code, out, err, elapsed = run_cli(op.argv)
            finally:
                tracer.uninstall()
            problems = [] if code == 0 and not err else [f"exit code {code}: {err.strip()[:200]}"]
            (traced if with_spans else plain).record(op, code, out, err, elapsed, problems)
    return plain, traced


def baseline_report(workdir: str, tracer: Tracer) -> list[str]:
    """Traced single ops next to the ROADMAP baselines; flags gaps over 2x."""
    path = write_matrix(workdir, "baseline.txt", sylvester_rows(*stress_pair(SNF_K, 9)))
    lines = []
    tracer.install()
    try:
        for label, argv, span, baseline_ms in BASELINES:
            argv = argv or ("snf", "--matrix", path)
            durations = []
            for _ in range(3):
                first = len(tracer.spans)
                run_cli(argv)
                durations += [
                    end - start for name, start, end, *_ in tracer.spans[first:] if name == span
                ][:1]
            best = min(durations) * 1e3
            ratio = best / baseline_ms
            flag = "  GAP > 2x" if not 0.5 <= ratio <= 2 else ""
            lines.append(
                f"baseline {label:<16} {span:<22} best of 3 {best:8.1f} ms"
                f"  re-anchor {baseline_ms:6.1f} ms  ratio {ratio:5.2f}{flag}"
            )
    finally:
        tracer.uninstall()
    return lines


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    stream = Stream(args.workload, args.seed, args.workdir)
    setup = None if args.trace else []
    ops, untraced = timed_loop(stream, args.seconds, setup)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = untraced.latencies
    deciles = statistics.quantiles(lat, n=10)
    result = {
        "ops": len(ops),
        "cycles": stream.cycles_made,
        "failures": untraced.failures,
        "first_cycle_digest": untraced.cycle_digests[0],
        "digest": untraced.digest.hexdigest(),
        "metrics": {
            "ops_per_s": (untraced.ops_per_s(), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (deciles[8] * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
        },
    }
    if setup:
        result["metrics"]["setup_s"] = (statistics.median(setup), "s")
    if args.trace:
        # The first half of the cycles (at least one) keeps the traced run
        # near 2x the untraced one while keeping the workload's mix.
        cycles = max(1, len(untraced.cycle_ends) // 2)
        replayed = ops[: untraced.cycle_ends[cycles - 1]]
        tracer = Tracer()
        plain, traced = replay(replayed, tracer)
        metrics = layer_metrics(tracer, len(replayed))
        metrics["cli.stdout_bytes"] = (traced.stdout_bytes / len(replayed), "B/op")
        metrics["trace.ops_per_s"] = (traced.ops_per_s(), "1/s")
        metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s(), "1/s")
        metrics["trace.overhead_ratio"] = (plain.ops_per_s() / traced.ops_per_s(), "ratio")
        tracer.write(args.spans)
        result["metrics"] = metrics
        result["failures"] += plain.failures + traced.failures
        result["replayed"] = len(replayed)
        result["replay_digests"] = [
            untraced.cycle_digests[cycles - 1],
            plain.digest.hexdigest(),
            traced.digest.hexdigest(),
        ]
        if args.workload == "stress":
            result["baselines"] = baseline_report(args.workdir, Tracer())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
