"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that each metric named in
BENCHMARK.json is printed with its unit, that the traced counts repeat
exactly, and that the correctness gates reject deliberately wrong values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    command = [
        sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 1) -> dict:
    done = run_bench(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(workload, trace, section):
    out = result(workload, trace)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in out["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(workload):
    first = counts(result(workload, 1)["metrics"])
    assert first == counts(result(workload, 1)["metrics"])
    assert first["bench.ops"] >= 1


@pytest.mark.parametrize("workload", ["cap-verify", "matrix-solve", "cap-forests"])
def test_counts_do_not_depend_on_seed(workload):
    # the weight column prints seed-drawn conductances, so bytes may differ
    one, two = (counts(result(workload, 1, seed)["metrics"]) for seed in (1, 2))
    del one["cli.output_bytes"], two["cli.output_bytes"]
    assert one == two


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    done = run_bench(NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the gates reject wrong expected values --------------------------------------


def run_op(workload, i=0):
    return workload.check(i, workload.op(i))


def test_gate_matrix_solve_rejects_wrong_current():
    workload = workloads.MatrixSolve(1, "tiny")
    circuit, matrices, solution = workload.op(0)
    assert workloads.incoming_matches(circuit, matrices.superport_response, solution)
    k = circuit.network.non_roots[0]
    incoming = list(solution.incoming)
    incoming[k - 1] += Fraction(1, 10**9)
    wrong = replace(solution, incoming=tuple(incoming))
    assert not workloads.incoming_matches(circuit, matrices.superport_response, wrong)


def test_gate_cap_forests_rejects_wrong_line_count():
    workload = workloads.CapForests(1, "tiny")
    assert run_op(workload)
    workload.restart()
    workload.expected_lines += 1
    assert not run_op(workload)


def test_gate_cap_forests_rejects_wrong_tree_weight():
    workload = workloads.CapForests(1, "tiny")
    assert run_op(workload) and workload.finish() == []
    edges, weight = workload.trees[0].split("\t")
    workload.trees[0] = f"{edges}\t{Fraction(weight) + 1}"
    assert workload.finish() != []


def test_gate_campaign_rejects_wrong_tally():
    workload = workloads.Campaign(1, "tiny")
    for i in range(workload.parity):
        assert run_op(workload, i)
    assert workload.finish() == []
    tally = workload.tallies[0]
    theorem, status, checks = next(iter(tally))
    tally[(theorem, status, checks + 1)] += 1
    assert workload.finish() != []


def test_gate_cap_verify_rejects_changed_report():
    workload = workloads.CapVerify(1, "tiny")
    assert run_op(workload)
    workload.first[0]["checks"] += 1
    assert not run_op(workload)
