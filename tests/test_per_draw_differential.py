"""Differential tests: per-draw metrics given once per distinct ranking.

A parsed sequence gives every draw of a request the same ``Ranking`` object,
and ``_per_draw`` takes the metric's outcome for each distinct object (by its
index in the compiled view) and counts it for every draw of it.  Random
sequences here mix requests whose draws share objects with draws holding
equal-but-distinct copies, over hard, soft and unlabeled documents, so that
prefD (nd, rd, kl), AWRF and FAIR hit short lists, empty lists, rd lists
that raise ``Degenerate`` and lists scored by convention.  The row and
notes must equal those of ``oracle_per_draw``, which calls the metric for
every draw, exactly.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    FairRankError,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    WeightModel,
    awrf,
    pref_fairness,
)
from fairrank.compiled import compile_sequence
from fairrank.pipeline import _per_draw

from conftest import as_row, fair_of
from oracles import list_scores, oracle_per_draw, outcome, view_rankings

DOCS = tuple(f"d{i}" for i in range(8))
GROUPS = GroupSpace(("A", "B"), protected_index=0)
ROWS = {"prot": [1.0, 0.0], "unprot": [0.0, 1.0], "soft": [0.6, 0.4], "soft_low": [0.3, 0.7]}


@st.composite
def corpora(draw):
    rows = {}
    for d in DOCS:
        kind = draw(st.sampled_from((*ROWS, "unlabeled")))
        if kind != "unlabeled":
            rows[d] = ROWS[kind]
    draws, grades = [], {}
    for i in range(draw(st.integers(1, 3))):
        q = f"q{i}"
        grades[q] = {d: draw(st.sampled_from((0.0, 1.0, 2.0))) for d in DOCS}
        # one request in eight draws each of 8 to 40 rankings once, so that its mean adds
        # pairwise (as np.mean does from 8 values on), not one draw after another
        wide = draw(st.integers(0, 7)) == 0
        rankings = []
        for _ in range(draw(st.integers(8, 40) if wide else st.integers(1, 3))):
            order = draw(st.permutations(DOCS))
            rankings.append(Ranking(q, tuple(order[:draw(st.integers(1, len(order)))])))
        for r in rankings if wide else (draw(st.sampled_from(rankings))
                                        for _ in range(draw(st.integers(1, 5)))):
            draws.append((q, r if draw(st.booleans()) else Ranking(q, r.docs)))
    seq = RankingSequence(tuple(draw(st.permutations(draws))))
    return AlignmentMatrix(rows, n_groups=2), RelevanceTable(grades), seq


def _metric(draw_choice, alignment, relevance):
    kind = draw_choice(st.sampled_from(("prefd", "awrf", "fair")))
    equal = TargetDistribution.equal(2)
    if kind == "prefd":
        dist = draw_choice(st.sampled_from(("nd", "rd", "kl")))
        target = draw_choice(st.sampled_from((None, equal)))
        step = draw_choice(st.integers(2, 3))
        return lambda r: pref_fairness(r, alignment, GROUPS, target, dist, step)
    if kind == "awrf":
        model = WeightModel(draw_choice(st.sampled_from(("geometric", "cascade"))), 0.5)
        dist = draw_choice(st.sampled_from(("nd", "kl")))
        return lambda r: awrf(r, alignment, GROUPS, model, equal, dist, relevance)
    p_hat = draw_choice(st.sampled_from((0.3, 0.5)))
    return lambda r: fair_of(r, alignment, p_hat)


@given(corpora(), st.data())
@settings(max_examples=300, deadline=None)
def test_per_draw_matches_draw_by_draw_oracle(corpus, data):
    alignment, relevance, seq = corpus
    fn = _metric(data.draw, alignment, relevance)
    notes = []
    view = compile_sequence(seq)
    scores = list_scores([outcome(fn, r) for r in view_rankings(view)])
    try:
        got = _per_draw(SimpleNamespace(view=view, system="s"), scores,
                        SimpleNamespace(name="prefd", label="M"), notes)
    except FairRankError as exc:
        got = (type(exc), str(exc))
    want, want_notes = oracle_per_draw(seq, fn, "M", "s")
    assert got == as_row(want)
    assert notes == want_notes


def test_per_draw_reuses_a_raising_ranking_for_each_draw():
    alignment = AlignmentMatrix({"p0": [1.0, 0.0], "p1": [1.0, 0.0], "u0": [0.0, 1.0]})
    all_protected = Ranking("q1", ("p0", "p1"))  # rd has no odds ratio: raises
    mixed = Ranking("q1", ("p0", "u0", "p1"))
    seq = RankingSequence((("q1", all_protected), ("q1", mixed), ("q1", all_protected),
                           ("q2", Ranking("q2", ("p0", "p1")))))

    def fn(r):
        return pref_fairness(r, alignment, GROUPS, None, "rd", 2)

    notes = []
    view = compile_sequence(seq)
    assert len(view_rankings(view)) == 3  # three distinct rankings, four draws
    scores = list_scores([outcome(fn, r) for r in view_rankings(view)])
    got = _per_draw(SimpleNamespace(view=view, system="s"), scores,
                    SimpleNamespace(name="prefd", label="M"), notes)
    want, want_notes = oracle_per_draw(seq, fn, "M", "s")
    assert got == as_row(want) and notes == want_notes
    assert got[1:] == (2, 1)  # two requests, one degenerate
