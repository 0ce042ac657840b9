"""polygcd benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pool|atlas|stress --seed N --seconds S --trace 0|1

Run from a checkout of the repository; it imports polygcd from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced replay of the same operations.  The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; lines before it are a
readable summary.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pool", "atlas", "stress"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "polygcd", "cli.py")):
        print(f"error: no polygcd sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--spans", spans,
    ]  # fmt: skip
    try:
        child = subprocess.run(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 3
    report = json.loads(child.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    attempted = report["ops"] + 2 * report.get("replayed", 0)
    failed = len(report["failures"])
    digests_agree = len(set(report.get("replay_digests", []))) <= 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"ops {report['ops']} in {report['cycles']} cycles  attempted {attempted}  failed {failed}"
          f"  fail_ratio {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    print(f"stdout sha256, first cycle: {report['first_cycle_digest']}")
    print(f"stdout sha256, all ops:     {report['digest']}")
    if args.trace:
        same, plain, traced = report["replay_digests"]
        print(f"replayed the first {report['replayed']} ops plainly and traced; stdout sha256:")
        print(f"  untraced loop: {same}")
        print(f"  plain replay:  {plain}")
        print(f"  traced replay: {traced}  ({'identical' if digests_agree else 'DIFFERENT'})")
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    for line in report.get("baselines", []):
        print(line)
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0 and digests_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
