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
