"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

import csv
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from parksearch.planners import PLANNER_KINDS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def bench(workload: str, trace: int, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return lines, result


def assert_printed(workload: str, lines: list[str], result: dict, listed: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert f"{workload} {m['name']} {value!r} {m['unit']}" in lines


def test_benchmark_json_matches_the_metric_tables():
    assert run.KINDS == PLANNER_KINDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [p[:3] for p in run.PER_LAYER]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric_and_repeats_its_digest(workload):
    lines, result = result_of(bench(workload, 0))
    assert_printed(workload, lines, result, SPEC["end_to_end"])
    again, _ = result_of(bench(workload, 0))
    digest = [line for line in lines if line.startswith(f"{workload} results_sha256 ")]
    assert len(digest) == 1
    assert digest[0] in again


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric_with_nested_spans(workload):
    lines, result = result_of(bench(workload, 1))
    assert_printed(workload, lines, result, SPEC["per_layer"])
    phases = defaultdict(list)
    with open(run.WORKDIR / "spans" / f"{workload}-seed{SEED}-tiny.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            phases[row["phase"]].append(row)
    assert "pass" in phases
    for spans in phases.values():
        assert spans
        for i, span in enumerate(spans):
            assert int(span["index"]) == i
            start, end, parent = float(span["start"]), float(span["end"]), int(span["parent"])
            assert start <= end
            assert float(span["self"]) >= 0.0
            if parent >= 0:
                assert parent < i
                assert float(spans[parent]["start"]) <= start and end <= float(spans[parent]["end"])


def test_fails_without_a_result_when_the_program_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("competition", 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
