"""The benchmark tracer patches fairrank names from outside the package.

``perfbench/tracer.py`` wraps module-level functions and class methods by
name.  A rename in ``src/`` would make ``--trace 1`` fail or time the wrong
thing, so every name it patches must exist and be callable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_only_existing_names():
    tracer = _tracer()
    assert tracer._FUNCTIONS and tracer._METHODS
    for module, attr, span, _ in tracer._FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for module, cls_name, attr, span, _ in tracer._METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, span
        assert callable(getattr(cls, attr, None)), span


def test_tracer_counts_gather_docs_from_the_second_argument():
    # ``_count`` reads ``len(args[1])`` for gather: (self, docs)
    from fairrank import AlignmentMatrix

    code = AlignmentMatrix.gather.__code__
    assert code.co_varnames[:2] == ("self", "docs")


def test_tracer_record_counts_are_data_lines(tmp_path):
    # ``_count`` reads len(parse_run(...).records) and the entries of parse_scores(...):
    # each must stay the number of data lines, so the per-layer record counts keep their meaning
    from collections import Counter

    from fairrank.ingest import parse_run, parse_scores

    tracer = _tracer()
    run = tmp_path / "run.txt"
    run.write_text("# comment\nq2 Q0 d1 2 0.5 r\n\nq1 Q0 d1 1 0.9 r\nq2 Q0 d2 1 0.7 r\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("qid,docid,score\nq1,d1,0.9\n\nq2,d1,0.5\nq2,d2,0.7\nq2,d3,0.1\n")
    counts = Counter()
    tracer._count("runs", counts, (run,), parse_run(run))
    tracer._count("scores", counts, (scores,), parse_scores(scores))
    assert counts == {"ingest.parse_run_records": 3, "ingest.parse_scores_records": 4}
