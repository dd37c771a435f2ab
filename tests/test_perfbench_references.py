"""The benchmark's reference tables, checked in the tier-1 suite.

``perfbench/`` commits a reference ``metrics.csv`` per workload and corpus
seed, and its own checks compare every benchmark run against them.  Those
self-tests sit outside ``testpaths``, so this test loads the workload
definitions and the checks from ``perfbench/`` (editing neither), generates
the ``stochastic`` corpus (cascade AWRF, the ``group`` unknown policy, KL
prefD over soft rows) and the ``c10-scores`` corpus (depth-100 lists with
score files) at both corpus seeds the benchmark alternates between,
evaluates each in-process and requires every row to match its reference
within a relative 1e-9.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fairrank.cli import main
from fairrank.synth import SynthSpec, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, corpus_seed", [("stochastic", 7), ("stochastic", 8),
                                               ("c10-scores", 1), ("c10-scores", 2)])
def test_evaluate_matches_the_benchmark_reference(tmp_path, name, corpus_seed):
    workload = _load("workloads").WORKLOADS[name]
    check_metrics = _load("checks").check_metrics
    assert corpus_seed in workload.corpus_seeds
    paths = generate(SynthSpec(seed=corpus_seed, **workload.synth), tmp_path / "corpus")
    argv = ["evaluate"]
    for p in paths["runs"]:
        argv += ["--run", str(p)]
    if workload.scores:
        for p in paths["scores"]:
            argv += ["--scores", str(p)]
    if workload.config is not None:
        config = tmp_path / "config.yaml"
        config.write_text(workload.config, encoding="utf-8")
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
             "--sequence", str(paths["sequence"]), "--out", str(out)]
    assert main(argv) == 0
    reference = PERFBENCH / "references" / f"{name}-seed{corpus_seed}.csv"
    assert check_metrics(out / "metrics.csv", paths["systems"], workload.metrics, reference) == []


def test_default_battery_writes_the_rows_the_benchmark_expects():
    from fairrank.ingest import default_metrics
    from fairrank.registry import FAMILIES

    workloads = _load("workloads")
    rows = [name for mc in default_metrics() for name in FAMILIES[mc.name].row_names(mc.label)]
    assert rows == [*workloads.BASE_METRICS, *workloads.SCORE_METRICS]
