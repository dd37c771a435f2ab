"""The metric registry against the kernels.

Every row ``evaluate_system`` emits for the metamorphic battery is one its
entry's ``MetricSpec`` declares, with the declared direction and in declared
order, and a declared row that is absent has a note under its entry's label.
The single-ranking wrappers score in the direction their family declares.  The
README's per-family table states each family's keys, defaults and rows as the
registry declares them.  The registry's row lists, which ``report`` orders and
filters the correlation matrix by, name exactly the rows the default battery
loaded through ``ingest`` writes, in its order.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings

from fairrank import (
    AlignmentMatrix,
    Direction,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    WeightModel,
)
from fairrank.ingest import EvalConfig, _make_metric, default_metrics
from fairrank.metrics_single import awrf, fair_score, pref_fairness
from fairrank.pipeline import evaluate_system
from fairrank.registry import BATTERY_ROWS, FAMILIES, RATIO_ROWS
from fairrank.report import MetricResult, correlation_matrix

from conftest import compile_run
from test_metamorphic import BATTERY, corpora


@given(corpora())
@settings(max_examples=100, deadline=None)
def test_every_row_is_one_its_family_declares(corpus):
    g, rows, draws, grades, scores = corpus
    al = AlignmentMatrix(rows, n_groups=g)
    groups = GroupSpace(tuple(f"g{j}" for j in range(g)), protected_index=0)
    metrics = tuple(_make_metric(m, f"metrics[{i}]") for i, m in enumerate(BATTERY))
    ev = evaluate_system("s", *compile_run(RankingSequence(draws), RelevanceTable(grades), al,
                                           groups, EvalConfig(metrics=metrics), scores))
    declared = [(name, direction, mc.label) for mc in metrics
                for name, (_, direction) in zip(FAMILIES[mc.name].row_names(mc.label),
                                                FAMILIES[mc.name].rows)]
    emitted = [(r.metric, r.direction) for r in ev.results]
    remaining = iter(declared)  # each emitted row consumes the declared rows up to its own
    assert all(any(row == (name, direction) for name, direction, _ in remaining)
               for row in emitted), emitted
    for name, _, label in declared:
        if name not in {metric for metric, _ in emitted}:
            assert any(note.startswith(f"{label}: ") for note in ev.notes), name


def test_single_ranking_kernels_score_in_the_declared_direction():
    docs = tuple(f"d{i}" for i in range(6))
    groups = GroupSpace(("a", "b"), protected_index=0)
    al = AlignmentMatrix({d: np.eye(2)[i % 2] for i, d in enumerate(docs)}, n_groups=2)
    ranking, target = Ranking("q", docs), TargetDistribution.equal(2)
    results = [("prefd", pref_fairness(ranking, al, groups, target, "nd", 2)),
               ("awrf", awrf(ranking, al, groups, WeightModel("geometric", 0.5), target)),
               ("fair", fair_score(np.arange(6) % 2 == 0, 0.5)),
               ("fair", fair_score(np.zeros(0, dtype=bool), 0.5))]  # no labeled documents
    for name, got in results:
        assert [got.direction] == [direction for _, direction in FAMILIES[name].rows], name


def _readme_row(name, spec):
    keys = ", ".join(f"`{key}`" if default is None else f"`{key}` ({str(default).lower()})"
                     for key, default in spec.keys.items())
    rows = ", ".join(f"`{row}`" for row in spec.row_names("<label>"))
    return (f"| `{name}` | `{spec.label}` | {keys} | {rows}"
            f"{', with `--scores`' if spec.needs_scores else ''} | {spec.request_weighting} |")


def test_the_readme_table_states_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    header = ("| `name` | default `label` | other keys it reads (default) | rows it writes "
              "| requests weighted |\n")
    table = readme[readme.index(header):].split("\n\n", 1)[0].splitlines()[2:]
    assert table == [_readme_row(name, spec) for name, spec in FAMILIES.items()]


def test_report_row_lists_name_the_default_battery_rows():
    # the battery with score files, so every family writes its rows
    rows = {name: direction for mc in default_metrics()
            for name, (_, direction) in zip(FAMILIES[mc.name].row_names(mc.label),
                                            FAMILIES[mc.name].rows)}
    assert BATTERY_ROWS == tuple(rows)
    assert RATIO_ROWS == {name for name, direction in rows.items()
                          if direction is Direction.ONE_IS_FAIR and f"log{name}" in rows}
    # the matrix over every battery row, given in reverse, keeps the battery's order
    results = [MetricResult(name, system, value, 1, 0, direction)
               for name, direction in reversed(rows.items())
               for system, value in (("a", 0.1), ("b", 0.2), ("c", 0.4))]
    assert correlation_matrix(results).metrics == tuple(n for n in rows if n not in RATIO_ROWS)
