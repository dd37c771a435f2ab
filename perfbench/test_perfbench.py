"""Self-tests of the benchmark harness on the smoke-sized corpus.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_compare, check_metrics  # noqa: E402
from run import DEFAULT_SECONDS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("_calls", "_records", "_docs", "pairwise.pairs", "pairwise.n_fallback")


def bench(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def smoke(cwd: Path = ROOT, seed: int = 0, trace: int = 0) -> tuple[int, dict]:
    code, lines = bench(cwd, "--workload", "smoke", "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace))
    return code, json.loads(lines[-1])


def test_benchmark_json_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["run_seconds"] == DEFAULT_SECONDS
    measured = [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.measured]
    assert SPEC["workloads"] == measured
    assert all(len(w["why"]) <= 200 for w in measured)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_measured_run_reports_every_end_to_end_metric():
    code, result = smoke()
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_counts_repeat_and_cover_every_layer():
    runs = [smoke(seed=1, trace=1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    first, second = (r["metrics"] for _, r in runs)
    counts = [n for n in first if n.endswith(COUNTS)]
    assert counts and all(first[n] == second[n] for n in counts)
    assert first["pairwise.pairs"]["value"] > 0
    assert 0 <= first["trace.unwrapped_s"]["value"] < first["trace.evaluate_wall_s"]["value"]


def _copy_checkout(tmp_path: Path, with_program: bool = True) -> Path:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_corrupted_reference_counts_as_failure(tmp_path):
    root = _copy_checkout(tmp_path)
    ref = root / "perfbench" / "references" / "smoke-seed42.csv"
    rows = list(csv.reader(ref.open()))
    rows[1][2] = repr(float(rows[1][2]) + 1e-6)
    with ref.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    code, result = smoke(root, seed=0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    code, lines = bench(root, "--workload", "c10", "--seed", "0", "--seconds", "1",
                        "--trace", "0")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.fixture()
def evaluated(tmp_path):
    """metrics.csv and compare output for three systems, written by fairrank."""
    from fairrank.cli import main

    metrics = tmp_path / "metrics.csv"
    metrics.write_text(
        "system,metric,value,n_requests,n_degenerate,direction\n"
        "a,AWRF,0.1,5,0,ZeroIsFair\na,EER,2.0,5,0,HigherIsBetter\na,logDP,-0.5,5,0,ZeroIsFair\n"
        "b,AWRF,0.3,5,0,ZeroIsFair\nb,EER,1.0,5,0,HigherIsBetter\nb,logDP,0.2,5,0,ZeroIsFair\n"
        "c,AWRF,-0.2,5,1,ZeroIsFair\nc,EER,3.0,5,0,HigherIsBetter\nc,logDP,0.9,5,0,ZeroIsFair\n")
    assert main(["compare", "--results", str(tmp_path), "--long"]) == 0
    return tmp_path


def test_checks_accept_good_output_and_catch_tampering(evaluated):
    metrics = evaluated / "metrics.csv"
    assert check_metrics(metrics, ["a", "b", "c"], ("AWRF", "EER", "logDP"), metrics) == []
    assert check_compare(evaluated) == []
    assert check_metrics(metrics, ["a", "b"], ("AWRF", "EER", "logDP"), metrics)

    square = evaluated / "correlations.csv"
    rows = list(csv.reader(square.open()))
    rows[1][2] = "0.5"
    with square.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert check_compare(evaluated)
