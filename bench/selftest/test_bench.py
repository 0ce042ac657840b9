"""Self-tests of the benchmark: generators, checker and tracing.

Run with ``python -m pytest bench/selftest`` from the repository root.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import polygcd.cli
import workloads
from check import check
from tracing import Tracer
from worker import replay, run_cli
from workloads import Stream


def first_cycle(workload, seed, workdir):
    return Stream(workload, seed, str(workdir)).next_cycle()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    a = first_cycle(workload, 7, tmp_path)
    b = first_cycle(workload, 7, tmp_path)
    c = first_cycle(workload, 8, tmp_path)
    assert a == b
    assert [op.argv for op in a] != [op.argv for op in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_input_repeats_within_a_run(workload, tmp_path):
    stream = Stream(workload, 3, str(tmp_path))
    ops = stream.next_cycle() + stream.next_cycle()
    inputs = [(op.f, op.g) for op in ops]
    assert len(set(inputs)) == len(inputs)


def test_pool_shares_match_the_stratum_code():
    estimate = workloads.estimate_pool_shares(20000, seed=1)
    for stratum, share in workloads.POOL_SHARES.items():
        assert abs(estimate.get(stratum, 0.0) - share) < 0.01, stratum


def test_independent_resultant_matches_known_values():
    # x^2+3 against (x+1)^2+3 is the paper's r = 13 example; x^17+9 gives
    # the 52-digit prime of the stress family.
    assert workloads.resultant_exact((1, 0, 3), (1, 2, 4)) == 13
    f, g = workloads.stress_pair(17, 9)
    assert abs(workloads.resultant_exact(f, g)) == (
        8936582237915716659950962253358945635793453256935559
    )


def atlas_op_and_output(tmp_path):
    op = next(o for o in first_cycle("atlas", 1, tmp_path) if o.resultant < 10**5)
    code, out, err, _ = run_cli(op.argv)
    assert check(op, code, out, err) == []
    return op, code, json.loads(out), err


def test_checker_catches_a_corrupted_residue(tmp_path):
    op, code, doc, err = atlas_op_and_output(tmp_path)
    entry = doc["entries"][-1]
    entry["residues"][0] = str((int(entry["residues"][0]) + 1) % abs(op.resultant))
    assert check(op, code, json.dumps(doc), err)


def test_checker_catches_a_wrong_multiplicity(tmp_path):
    op, code, doc, err = atlas_op_and_output(tmp_path)
    doc["entries"][0]["multiplicity"] = str(int(doc["entries"][0]["multiplicity"]) + 1)
    assert check(op, code, json.dumps(doc), err)


def test_checker_catches_a_wrong_exit_code(tmp_path):
    op = first_cycle("pool", 1, tmp_path)[0]
    code, out, err, _ = run_cli(op.argv)
    assert check(op, code, out, err) == []
    assert check(op, 2, out, err)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_each_ops_wall_time(workload, tmp_path):
    ops = first_cycle(workload, 2, tmp_path)[:12]
    tracer = Tracer()
    walls = []
    tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.op = index
            walls.append(run_cli(op.argv)[3])
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    for index, wall in enumerate(walls):
        spent = sum(t for span, t in zip(tracer.spans, own) if span[4] == index)
        assert 0 < spent <= wall
    assert all(t >= 0 for t in own)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_the_output_digest_unchanged(workload, tmp_path):
    ops = first_cycle(workload, 4, tmp_path)[:12]
    plain, traced = replay(ops, Tracer())
    assert plain.failures == traced.failures == []
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert polygcd.cli.analyze.__module__ == "polygcd.analysis"  # uninstalled


def test_tracer_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    monkeypatch.delattr(polygcd.cli, "coprime_witness")
    original_main = polygcd.cli.main
    with pytest.raises(LookupError, match="polygcd.cli.coprime_witness"):
        Tracer().install()
    assert polygcd.cli.main is original_main


def test_run_fails_without_the_program_sources(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pool", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
