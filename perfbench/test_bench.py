"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

Two traced runs of the same operations give the same counts; the wrappers
leave every oracle and rung value bit-identical; the correctness gate
notices a wrong oracle; a known defect of a workload is counted apart from
the failures, and only on that workload; without the program the command
fails.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

if not run.find_program():
    pytest.skip("no mbound sources next to the benchmark", allow_module_level=True)

import workloads  # noqa: E402

SEED = 3
OPS = 8  # operations per run: every family at least twice
LONG = 600.0  # seconds; the operation count ends these runs, not the clock


def _counts(report):
    return {k: v for k, (v, _) in report["metrics"].items()
            if k.endswith(("_calls", ".calls", "flops_computed"))
            or k in ("spectral.power_iters", "lu.inverses_per_trial",
                     "harness.trials")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run.measure(workload, SEED, LONG, trace=1, max_ops=OPS)
    second = run.measure(workload, SEED, LONG, trace=1, max_ops=OPS)
    assert first["attempted"] == second["attempted"] == OPS
    counts = _counts(first)
    assert counts["core.classify_calls"] > 0
    assert counts == _counts(second)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_bit_identical(workload):
    traced = run.measure(workload, SEED, LONG, trace=1, max_ops=OPS)
    untraced = run.measure(workload, SEED, LONG, trace=0, max_ops=OPS)
    # the digest hashes every oracle and rung value as %.17g, which
    # round-trips float64 exactly
    assert traced["digest"] == untraced["digest"]
    assert traced["problems"] == [] and untraced["problems"] == []


def test_gate_rejects_a_wrong_suite_oracle():
    work = workloads.make("suite-dense", SEED, run.ROOT, "")
    op = work.op(1)
    reports = work.run(op)
    assert work.gate(op, reports) == []
    bent = dataclasses.replace(reports[0], oracle=reports[0].oracle * (1 + 1e-6))
    assert work.gate(op, [bent, *reports[1:]])


@pytest.mark.parametrize("workload, known", [("suite-sparse-large", True),
                                             ("suite-dense", False)])
def test_known_defects_are_counted_apart(workload, known):
    work = workloads.make(workload, SEED, run.ROOT, "")
    rec = run.Record(work.op(2), 0.0, 0.0, "ClassMismatchError")
    run.check(work, rec, None)
    assert (rec.known, rec.failed) == (known, not known)
    report = run.summary(workload, SEED, 1.0, 0, [rec], [], {}, {})
    assert report["failed"] == (0 if known else 1)
    key = "hadamard-inverse:ClassMismatchError"
    assert report["known_defects" if known else "failures"] == {key: 1}


def test_gate_rejects_a_wrong_cli_oracle(tmp_path):
    work = workloads.make("cli-bounds", SEED, run.ROOT, str(tmp_path))
    try:
        op = work.op(2)  # jsonl
        code, out, err = work.run(op)
        assert op.fmt == "jsonl" and work.gate(op, (code, out, err)) == []
        row = json.loads(out.splitlines()[0])
        row["value"] *= 1 + 1e-6
        bent = "\n".join([json.dumps(row), *out.splitlines()[1:]])
        assert work.gate(op, (code, bent, err))
    finally:
        work.close()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-bounds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
