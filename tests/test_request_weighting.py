"""How each metric family combines its requests: one declared rule, one reduction.

``registry.MetricSpec.request_weighting`` declares each family's rule and
``compiled.reduce_requests`` is the only code that applies one:

* ``arrival`` (DP, EED, EUR, RUR, EEL, IAA) weighs a request by its share of
  the draws, so a request drawn k times counts as k requests drawn once;
* ``uniform`` (prefD, AWRF, FAIR) weighs every request that counts alike,
  each request's draws averaged first, so its draw count moves nothing;
  PAIR, declared ``uniform``, pools its pair counts over the scored requests
  and ignores draws.

The metamorphic test reads the expected side of each row from the registry.
``RULES`` is the rule the README states; flipping a family means changing the
registry, the README and ``RULES`` together.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import Ranking
from fairrank.compiled import reduce_requests
from fairrank.registry import FAMILIES

from test_metamorphic import BATTERY, DOCS, _evaluate

SRC = Path(__file__).resolve().parent.parent / "src" / "fairrank"

RULES = {"prefd": "uniform", "awrf": "uniform", "fair": "uniform", "dp": "arrival",
         "eed": "arrival", "eur": "arrival", "rur": "arrival", "eel": "arrival",
         "iaa": "arrival", "pair": "uniform"}

# the family of each row the metamorphic battery writes
FAMILY_OF = {row: entry["name"] for entry in BATTERY
             for row in FAMILIES[entry["name"]].row_names(
                 entry.get("label", FAMILIES[entry["name"]].label))}


def test_every_family_declares_a_rule():
    assert all(spec.request_weighting in ("uniform", "arrival") for spec in FAMILIES.values())
    assert set(FAMILY_OF.values()) == set(FAMILIES)


class _Reductions(ast.NodeVisitor):
    """Each call of ``running_total`` or ``average`` with the top-level function (or class)
    that makes it."""

    def __init__(self):
        self.calls, self.outer = [], []

    def visit_FunctionDef(self, node):
        self.outer.append(node.name)
        self.generic_visit(node)
        self.outer.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("running_total", "average"):
            self.calls.append((name, self.outer[0] if self.outer else None))
        self.generic_visit(node)


def test_requests_are_combined_only_by_the_reduction():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Reductions()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls += [(path.name, *call) for call in visitor.calls]
    assert calls and set(calls) == {("compiled.py", "running_total", "reduce_requests")}


def test_draws_are_averaged_only_by_request_means():
    # a request's draws are found through where they start, draw_at: outside the view that
    # builds it, only exposure.request_means reads it, so the draw average has one owner
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for outer in ast.parse(path.read_text(encoding="utf-8")).body:
            reads |= {(path.name, getattr(outer, "name", None)) for node in ast.walk(outer)
                      if isinstance(node, ast.Attribute) and node.attr == "draw_at"
                      and isinstance(node.ctx, ast.Load)}
    assert {read for read in reads if read[0] != "compiled.py"} == {
        ("exposure.py", "request_means")}


def test_the_reduction_under_each_rule():
    columns = np.array([[1.0, np.nan], [2.0, 4.0], [8.0, 16.0]])
    weight, arrival = np.array([0.5, 0.25, 0.25]), np.array([2, 0, 1])
    sums, mass = reduce_requests("uniform", columns, np.array([False, True, True]), weight,
                                 arrival)
    assert sums.tolist() == [10.0, 20.0] and mass == 2
    # the NaN of the dropped request 0 reaches no sum
    sums, mass = reduce_requests("arrival", columns, np.array([False, True, True]), weight,
                                 arrival)
    assert sums.tolist() == [2.5, 5.0] and mass == 0.5
    # a mask per column keeps request 0 in the first sum only
    kept = np.array([[True, False], [True, True], [False, True]])
    sums, mass = reduce_requests("arrival", columns, kept, weight, arrival)
    assert sums.tolist() == [0.5 + 0.5, 1.0 + 4.0] and mass.tolist() == [0.75, 0.5]
    sums, mass = reduce_requests("uniform", columns, kept, weight, arrival)
    assert sums.tolist() == [1.0 + 2.0, 4.0 + 16.0] and mass.tolist() == [2, 2]


@st.composite
def repeated_draws(draw):
    """One ranking per request, request i drawn k_i times in a random order."""
    g = draw(st.integers(2, 3))
    rows = {}
    for d in DOCS:
        kind = draw(st.sampled_from(("hard", "soft", "unlabeled")))
        if kind == "hard":
            rows[d] = np.eye(g)[draw(st.integers(0, g - 1))]
        elif kind == "soft":
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g)))
            rows[d] = raw / raw.sum()
    rankings, grades, scores, times = {}, {}, {}, {}
    for i in range(draw(st.integers(1, 4))):
        q = f"q{i}"
        rankings[q] = Ranking(q, tuple(draw(st.permutations(DOCS)))[:draw(st.integers(1, 8))])
        grades[q] = {d: y for d in DOCS
                     if (y := draw(st.sampled_from((None, 0.0, 1.0, 2.0)))) is not None}
        scores[q] = {d: draw(st.floats(-3.0, 3.0)) for d in DOCS}
        times[q] = draw(st.integers(1, 4))
    order = draw(st.permutations([q for q, k in times.items() for _ in range(k)]))
    return g, rows, rankings, grades, scores, order


@given(repeated_draws())
@settings(max_examples=150, deadline=None)
def test_repeated_draws_weigh_as_the_registry_declares(corpus):
    rules = {name: spec.request_weighting for name, spec in FAMILIES.items()}
    assert rules == RULES
    g, rows, rankings, grades, scores, order = corpus
    _, got = _evaluate(g, rows, tuple((q, rankings[q]) for q in order), grades, scores)
    # each request drawn once
    _, once = _evaluate(g, rows, tuple((q, rankings[q]) for q in dict.fromkeys(order)),
                        grades, scores)
    # each draw a request of its own: a copy under a new id
    copies = [(f"{q}#{j}", q) for j, q in enumerate(order)]
    _, copied = _evaluate(g, rows, tuple((c, Ranking(c, rankings[q].docs)) for c, q in copies),
                          {c: grades[q] for c, q in copies}, {c: scores[q] for c, q in copies})
    for row in FAMILY_OF:
        rule = rules[FAMILY_OF[row]]
        want = (once if rule == "uniform" else copied).get(row)
        assert (row in got) == (want is not None), row
        if want is not None:
            assert got[row][0] == pytest.approx(want[0], rel=1e-12, abs=1e-12), (row, rule)
            if rule == "uniform":
                assert got[row][1:] == want[1:], row
