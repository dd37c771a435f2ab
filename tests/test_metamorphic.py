"""Metamorphic invariances of the metric families, checked without an oracle.

Each property transforms an input in a way the metrics' assumptions say
cannot matter and requires the same rows back:

* duplicating every request's draws (as new ``Ranking`` objects) leaves rho
  and every metric unchanged;
* under ``unknown_policy: exclude``, appending unlabeled documents after the
  last rank leaves AWRF, DP, EED, EUR, IAA, prefD and FAIR unchanged;
* permuting the group columns together with the target leaves the
  multinomial metrics (EED, IAA, EEL, KL AWRF and KL prefD) unchanged;
* renaming the non-protected groups, or reordering the group columns, leaves
  the binary metrics (ND and RD prefD and AWRF, FAIR, DP, EUR, RUR and the
  pair accuracies) unchanged;
* reordering the ``--run`` arguments leaves ``metrics.csv`` and
  ``correlations.csv`` byte-identical;
* moving a hard-protected document one rank up, past a hard-unprotected
  one, never lowers the protected exposure or DP, under every weight model;
* a positive affine transform of the scores leaves IAA unchanged.

Values are compared at 1e-12, since a transform may change summation order,
and exactly where it cannot (renaming alone).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    WeightModel,
    binarize,
    system_exposure,
)
from fairrank.cli import main
from fairrank.exposure import WEIGHT_KINDS
from fairrank.ingest import EvalConfig, RunFile, _make_metric
from fairrank.pipeline import evaluate_system
from fairrank.synth import SynthSpec, generate

from conftest import request_exposures

DOCS = tuple(f"d{i}" for i in range(10))

BATTERY = (
    {"name": "prefd", "step": 2},
    {"name": "prefd", "label": "prefD_kl", "dist": "kl", "target": "equal", "step": 3},
    {"name": "awrf"},
    {"name": "awrf", "label": "AWRF_cascade", "weight_model": "cascade"},
    {"name": "awrf", "label": "AWRF_kl", "dist": "kl", "target": "equal"},
    {"name": "fair"},
    {"name": "dp"},
    {"name": "eed"},
    {"name": "eur"},
    {"name": "rur"},
    {"name": "eel"},
    {"name": "eel", "label": "EEL_judged", "pool": "judged"},
    {"name": "iaa"},
    {"name": "pair", "n_negatives": 3},
)


@st.composite
def corpora(draw):
    g = draw(st.integers(2, 3))
    rows = {}
    for d in DOCS:
        kind = draw(st.sampled_from(("hard", "soft", "unlabeled")))
        if kind == "hard":
            row = np.zeros(g)
            row[draw(st.integers(0, g - 1))] = 1.0
            rows[d] = row
        elif kind == "soft":
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g)))
            rows[d] = raw / raw.sum()
    draws, grades, scores = [], {}, {}
    for i in range(draw(st.integers(1, 3))):
        q = f"q{i}"
        grades[q] = {d: y for d in DOCS
                     if (y := draw(st.sampled_from((None, 0.0, 1.0, 2.0)))) is not None}
        rankings = [Ranking(q, tuple(draw(st.permutations(DOCS)))[:draw(st.integers(1, 8))])
                    for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 4))):
            draws.append((q, draw(st.sampled_from(rankings))))
        scores[q] = {d: draw(st.floats(-3.0, 3.0)) for d in DOCS}
    draws = draw(st.permutations(draws))
    return g, rows, tuple(draws), grades, scores


def _evaluate(g, rows, draws, grades, scores, battery=BATTERY, target=None, order=None,
              labels=None):
    """(metric -> (value, n_requests, n_degenerate)) of one system.

    Column ``k`` holds the original group ``order[k]``, named ``labels[order[k]]``.
    """
    order = list(range(g)) if order is None else order
    labels = [f"g{j}" for j in range(g)] if labels is None else labels
    names = tuple(labels[j] for j in order)
    al = AlignmentMatrix({d: np.asarray(r)[order] for d, r in rows.items()}, n_groups=g)
    groups = GroupSpace(names, protected_index=order.index(0))
    battery = [dict(m, custom_target=[target[j] for j in order]) if m.get("target") == "custom"
               else m for m in battery]
    metrics = tuple(_make_metric(m, f"metrics[{i}]") for i, m in enumerate(battery))
    config = EvalConfig(metrics=metrics)
    seq = RankingSequence(draws)
    run = RunFile({q: r for q, r in draws})
    ev = evaluate_system("s", run, seq, RelevanceTable(grades), al, groups, config, scores)
    return seq, {r.metric: (r.value, r.n_requests, r.n_degenerate) for r in ev.results}


def _assert_same(got, want, labels=None, exact=False):
    labels = set(want) | set(got) if labels is None else labels
    for label in sorted(labels):
        assert (label in got) == (label in want), label
        if label in want:
            (v1, *c1), (v2, *c2) = got[label], want[label]
            assert c1 == c2, label
            if exact:
                assert v1 == v2, label
            else:
                assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12), label


@given(corpora())
@settings(max_examples=150, deadline=None)
def test_duplicating_every_draw_changes_nothing(corpus):
    g, rows, draws, grades, scores = corpus
    seq, base = _evaluate(g, rows, draws, grades, scores)
    # each duplicate is a new object, so a request's draws no longer share
    # rankings the same way: a mean over distinct rankings would move
    doubled = draws + tuple((q, Ranking(q, r.docs)) for q, r in draws)
    seq2, again = _evaluate(g, rows, doubled, grades, scores)
    assert seq2.rho() == seq.rho()
    _assert_same(again, base)


SHORT_LIST_SAFE = ("AWRF", "AWRF_cascade", "AWRF_kl", "DP", "logDP", "EED", "EUR", "logEUR",
                   "IAA", "prefD", "prefD_kl", "FAIR")


@given(corpora(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_appending_unlabeled_documents_changes_nothing(corpus, n_extra):
    g, rows, draws, grades, scores = corpus
    _, base = _evaluate(g, rows, draws, grades, scores)
    extended = {}  # one new object per ranking, so shared rankings stay shared
    for q, r in draws:
        if id(r) not in extended:
            extended[id(r)] = Ranking(q, r.docs + tuple(f"x{i}" for i in range(n_extra)))
    longer = tuple((q, extended[id(r)]) for q, r in draws)
    _, again = _evaluate(g, rows, longer, grades, scores)
    _assert_same(again, base, [m for m in SHORT_LIST_SAFE if m in base or m in again])


MULTINOMIAL = (
    {"name": "eed"},
    {"name": "iaa"},
    {"name": "eel"},
    {"name": "awrf", "label": "AWRF_kl", "dist": "kl", "target": "custom"},
    {"name": "prefd", "label": "prefD_kl", "dist": "kl", "target": "custom", "step": 2},
)


@given(corpora(), st.data())
@settings(max_examples=150, deadline=None)
def test_permuting_groups_with_the_target_changes_nothing(corpus, data):
    g, rows, draws, grades, scores = corpus
    raw = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g)))
    target = (raw / raw.sum()).tolist()
    order = data.draw(st.permutations(range(g)))
    _, base = _evaluate(g, rows, draws, grades, scores, MULTINOMIAL, target)
    _, again = _evaluate(g, rows, draws, grades, scores, MULTINOMIAL, target, list(order))
    _assert_same(again, base)


BINARY = (
    {"name": "prefd", "step": 2},
    {"name": "prefd", "label": "prefD_rd", "dist": "rd", "target": "equal", "step": 3},
    {"name": "awrf"},
    {"name": "awrf", "label": "AWRF_cascade", "weight_model": "cascade"},
    {"name": "awrf", "label": "AWRF_rd", "dist": "rd", "target": "equal", "signed": True},
    {"name": "fair"},
    {"name": "dp"},
    {"name": "eur"},
    {"name": "rur"},
    {"name": "pair", "n_negatives": 3},
)


@given(corpora(), st.data())
@settings(max_examples=150, deadline=None)
def test_renaming_or_reordering_non_protected_groups_leaves_binary_metrics_unchanged(corpus, data):
    # binary metrics see only the protected column and the mass of all the others
    g, rows, draws, grades, scores = corpus
    _, base = _evaluate(g, rows, draws, grades, scores, BINARY)
    fresh = data.draw(st.lists(st.sampled_from(("a", "b", "rest", "z", "g1", "g2", "g00")),
                               min_size=g - 1, max_size=g - 1, unique=True))
    labels = ["g0", *fresh]
    _, renamed = _evaluate(g, rows, draws, grades, scores, BINARY, labels=labels)
    _assert_same(renamed, base, exact=True)
    order = list(data.draw(st.permutations(range(g))))
    _, reordered = _evaluate(g, rows, draws, grades, scores, BINARY, order=order, labels=labels)
    _assert_same(reordered, base)


def test_reordering_run_arguments_keeps_the_tables_byte_identical(tmp_path):
    spec = SynthSpec(n_docs=150, n_requests=10, n_systems=4, depth=12, seed=5,
                     exposure_skew=0.6, relevance_skew=0.3, soft_fraction=0.2,
                     unlabeled_fraction=0.1, max_draws=3)
    paths = generate(spec, tmp_path / "corpus")
    systems = list(zip(paths["runs"], paths["scores"]))
    outs = []
    for i, order in enumerate((systems, systems[::-1], systems[1::2] + systems[::2])):
        argv = ["evaluate"]
        for run, scores in order:
            argv += ["--run", str(run), "--scores", str(scores)]
        out = tmp_path / f"out{i}"
        argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
                 "--sequence", str(paths["sequence"]), "--out", str(out)]
        assert main(argv) == 0
        assert main(["compare", "--results", str(out)]) == 0
        outs.append(out)
    for out in outs[1:]:
        for name in ("metrics.csv", "correlations.csv"):
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), name


def _one_hot(g, j):
    row = np.zeros(g)
    row[j] = 1.0
    return row


def _system_exposure(seq, al, groups, model, grades):
    eps = request_exposures(seq, RelevanceTable(grades), al, groups, model)
    return system_exposure(eps, seq.rho()) if eps else None


@given(corpora(), st.data())
@settings(max_examples=150, deadline=None)
def test_moving_a_protected_document_up_never_lowers_its_exposure_or_dp(corpus, data):
    # Moving protected p from rank i + 1 to rank i, past unprotected u, gives p
    # the weight of rank i and u that of rank i + 1.  Every model weights rank i
    # at least as much; under the cascade the weight after both is unchanged,
    # and u's new weight is its old one times gamma (1 - stop(p)), p's new one
    # its old one over gamma (1 - stop(u)).  So protected exposure never falls
    # and unprotected exposure never rises.  The argument needs hard rows for p
    # and u: with soft rows, u carries protected mass that the cascade can take
    # away (stop(p) = 1 leaves u no weight), so it does not hold there.
    g, rows, draws, grades, scores = corpus
    rows = dict(rows, d0=_one_hot(g, 0), d1=_one_hot(g, data.draw(st.integers(1, g - 1))))
    q, target = data.draw(st.sampled_from(draws))
    rest = [d for d in target.docs if d not in ("d0", "d1")]
    k = data.draw(st.integers(0, len(rest)))
    before = Ranking(q, tuple(rest[:k] + ["d1", "d0"] + rest[k:]))
    after = Ranking(q, tuple(rest[:k] + ["d0", "d1"] + rest[k:]))
    draws_before = tuple((dq, before if r is target else r) for dq, r in draws)
    draws_after = tuple((dq, after if r is target else r) for dq, r in draws)
    al = AlignmentMatrix(rows, n_groups=g)
    groups = GroupSpace(tuple(f"g{j}" for j in range(g)), protected_index=0)
    bin_al, bin_groups = binarize(al, groups, 0.5)
    gamma = data.draw(st.floats(0.1, 1.0))
    battery = tuple({"name": "dp", "label": f"DP_{kind}", "weight_model": kind, "gamma": gamma}
                    for kind in WEIGHT_KINDS)
    _, dp_before = _evaluate(g, rows, draws_before, grades, scores, battery)
    _, dp_after = _evaluate(g, rows, draws_after, grades, scores, battery)
    for kind in WEIGHT_KINDS:
        model = WeightModel(kind, gamma)
        for alignment, space in ((al, groups), (bin_al, bin_groups)):
            eps_before = _system_exposure(RankingSequence(draws_before), alignment, space,
                                          model, grades)
            eps_after = _system_exposure(RankingSequence(draws_after), alignment, space,
                                         model, grades)
            tol = 1e-12 * max(1.0, float(eps_before.sum()))
            assert eps_after[0] >= eps_before[0] - tol, kind
            if space is bin_groups:
                assert eps_after[1] <= eps_before[1] + tol, kind
        label = f"DP_{kind}"
        if label in dp_before and label in dp_after:
            value = dp_before[label][0]
            assert dp_after[label][0] >= value - 1e-12 * max(1.0, value), kind
        else:
            # DP is undefined only without unprotected exposure, which the
            # move can take away but never give
            assert label not in dp_before or eps_after[1] <= 0, kind


@given(corpora(), st.data())
@settings(max_examples=150, deadline=None)
def test_an_affine_transform_of_the_scores_leaves_iaa_unchanged(corpus, data):
    g, rows, draws, grades, _ = corpus
    # scores on a grid of quarters, so that the transform cannot merge two of them
    scores = {q: {d: data.draw(st.integers(-12, 12)) / 4 for d in DOCS}
              for q in sorted({q for q, _ in draws})}
    scale = data.draw(st.sampled_from((0.1, 0.5, 3.0, 1e3)))
    shift = data.draw(st.sampled_from((-7.25, 0.0, 2.5, 1e3)))
    moved = {q: {d: scale * v + shift for d, v in per.items()} for q, per in scores.items()}
    _, base = _evaluate(g, rows, draws, grades, scores, ({"name": "iaa"},))
    _, again = _evaluate(g, rows, draws, grades, moved, ({"name": "iaa"},))
    _assert_same(again, base)
