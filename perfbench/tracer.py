"""Traced run of the fairrank CLI, instrumented from outside the package.

Usage: ``python perfbench/tracer.py OUT_PREFIX evaluate|compare ARGS...``

Wraps the public functions of each fairrank module with ``perf_counter``
spans, runs ``fairrank.cli.main`` under a root span ``cli.main`` and exits
with its return code.  Spans (name, start, end, parent) and counters stay in
memory and are written once at the end to ``OUT_PREFIX.npz`` and
``OUT_PREFIX.json``.  A name is patched where its caller looks it up: the CLI
and the pipeline import functions by name, so ``fairrank.pipeline.awrf`` is
wrapped, not only ``fairrank.metrics_single.awrf``.  ``summarize`` turns the
two files into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "cli.main"

# (module, attribute, span name, counter) for module-level functions.
_FUNCTIONS = [
    ("fairrank.cli", "parse_run", "ingest.parse_run", "runs"),
    ("fairrank.cli", "parse_scores", "ingest.parse_scores", "scores"),
    ("fairrank.cli", "parse_sequence", "ingest.parse_sequence", None),
    ("fairrank.cli", "parse_qrels", "ingest.parse_qrels", None),
    ("fairrank.cli", "parse_alignment", "ingest.parse_alignment", None),
    ("fairrank.cli", "evaluate_system", "pipeline.evaluate_system", "evaluation"),
    ("fairrank.cli", "emit_tables", "report.emit_tables", None),
    ("fairrank.cli", "read_metrics_table", "report.read_metrics_table", None),
    ("fairrank.cli", "correlation_matrix", "report.correlation_matrix", None),
    ("fairrank.pipeline", "binarize", "core.binarize", None),
    ("fairrank.pipeline", "apply_unknown_policy", "core.apply_unknown_policy", None),
    ("fairrank.pipeline", "request_exposure", "exposure.request_exposure", None),
    ("fairrank.exposure", "position_weights", "exposure.position_weights", None),
    ("fairrank.metrics_single", "position_weights", "exposure.position_weights", None),
    ("fairrank.opportunity", "position_weights", "exposure.position_weights", None),
    ("fairrank.opportunity", "target_exposure", "exposure.target_exposure", None),
    ("fairrank.pipeline", "pref_fairness", "metrics_single.pref_fairness", None),
    ("fairrank.pipeline", "awrf", "metrics_single.awrf", None),
    ("fairrank.pipeline", "fair_score", "metrics_single.fair_score", None),
    ("fairrank.pipeline", "demographic_parity", "metrics_multi.demographic_parity", None),
    ("fairrank.pipeline", "eed", "metrics_multi.eed", None),
    ("fairrank.pipeline", "group_utility", "opportunity.group_utility", None),
    ("fairrank.pipeline", "discounted_group_utility", "opportunity.discounted_group_utility", None),
    ("fairrank.pipeline", "expected_exposure", "opportunity.expected_exposure", None),
    ("fairrank.pipeline", "iaa", "opportunity.iaa", None),
    ("fairrank.pipeline", "sample_pairs", "pairwise.sample_pairs", "pairs"),
    ("fairrank.pipeline", "accuracy_table", "pairwise.accuracy_table", None),
]

# (module, class, method, span name, counter) for methods, patched on the class.
_METHODS = [
    ("fairrank.core", "AlignmentMatrix", "gather", "core.gather", "gather"),
    ("fairrank.core", "RankingSequence", "draws_for", "core.draws_for", None),
    ("fairrank.core", "RelevanceTable", "max_grade", "core.max_grade", None),
]


def _count(kind: str, counts: Counter, args: tuple, result) -> None:
    if kind == "runs":
        counts["ingest.parse_run_records"] += len(result.records)
    elif kind == "scores":
        counts["ingest.parse_scores_records"] += sum(len(v) for v in result.values())
    elif kind == "gather":
        counts["core.gather_docs"] += len(args[1])
    elif kind == "pairs":
        counts["pairwise.pairs"] += len(result.pairs)
        counts["pairwise.n_fallback"] += result.n_fallback
    elif kind == "evaluation":
        counts["pipeline.requests_scored"] += sum(r.n_requests for r in result.results)
        counts["pipeline.requests_degenerate"] += sum(r.n_degenerate for r in result.results)


class Recorder:
    """Span and counter store for one process (the CLI runs single-threaded)."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, counter: str | None = None):
        nid = self.names.setdefault(name, len(self.names))
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.starts)
            rec.name_ids.append(nid)
            rec.parents.append(rec.stack[-1])
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = perf_counter()
                rec.starts[idx] = start
                rec.stack.pop()
            if counter is not None:
                _count(counter, rec.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counter in _FUNCTIONS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), counter))
        for module, cls_name, attr, name, counter in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), counter))

    def write(self, prefix: str) -> None:
        names = sorted(self.names, key=self.names.get)
        np.savez(f"{prefix}.npz", names=np.array(names), name_ids=np.array(self.name_ids),
                 parents=np.array(self.parents), starts=np.array(self.starts),
                 ends=np.array(self.ends))
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(dict(self.counts), fh, sort_keys=True)


def summarize(prefix: str) -> dict:
    """Self time and call count per span name, plus counters and the root wall.

    Self time is a span's duration minus the durations of its direct children,
    so self times over all spans sum to the root's duration.
    """
    data = np.load(f"{prefix}.npz")
    names = [str(n) for n in data["names"]]
    ids, parents = data["name_ids"], data["parents"]
    dur = data["ends"] - data["starts"]
    child = np.zeros(dur.size)
    nested = parents >= 0
    np.add.at(child, parents[nested], dur[nested])
    self_time = dur - child
    roots = np.flatnonzero(~nested)
    self_s = np.bincount(ids, weights=self_time, minlength=len(names))
    calls = np.bincount(ids, minlength=len(names))
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        counts = json.load(fh)
    evaluate_id = names.index("pipeline.evaluate_system") if (
        "pipeline.evaluate_system" in names) else -1
    return {
        "self_s": {n: float(self_s[i]) for i, n in enumerate(names)},
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "counts": counts,
        "wall_s": float(dur[roots].sum()),
        "self_sum_s": float(self_time.sum()),
        "unwrapped_s": float(self_s[names.index(ROOT)]),
        "min_self_s": float(self_time.min()),
        "evaluate_system_s": dur[ids == evaluate_id].tolist(),
    }


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import fairrank.cli

    run = recorder.wrap(ROOT, fairrank.cli.main)
    try:
        code = run(cli_args)
    finally:
        recorder.write(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
