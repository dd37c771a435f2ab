"""Differential tests: per-draw metrics evaluated once per distinct ranking.

A parsed sequence gives every draw of a request the same ``Ranking`` object,
and ``_per_draw`` calls the metric once per distinct object.  Random
sequences here mix requests whose draws share objects with draws holding
equal-but-distinct copies, over hard, soft and unlabeled documents, so that
prefD (nd, rd, kl), AWRF and FAIR hit short lists, empty lists, rd lists
that raise ``Degenerate`` and lists scored by convention.  The result and
notes must equal ``oracle_per_draw``, which calls the metric for every
draw, exactly; the metric must run once per distinct object.
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
    fair_score,
    pref_fairness,
    protected_mask,
)
from fairrank.pipeline import _per_draw

from oracles import oracle_per_draw

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
        rankings = []
        for _ in range(draw(st.integers(1, 3))):
            order = draw(st.permutations(DOCS))
            rankings.append(Ranking(q, tuple(order[:draw(st.integers(1, len(order)))])))
        for _ in range(draw(st.integers(1, 5))):
            r = draw(st.sampled_from(rankings))
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
    return lambda r: fair_score(protected_mask(r, alignment, GROUPS), p_hat)


@given(corpora(), st.data())
@settings(max_examples=300, deadline=None)
def test_per_draw_matches_draw_by_draw_oracle(corpus, data):
    alignment, relevance, seq = corpus
    fn = _metric(data.draw, alignment, relevance)
    calls = []

    def counted(r):
        calls.append(r)
        return fn(r)

    notes = []
    try:
        got = _per_draw(SimpleNamespace(seq=seq, system="s"), counted,
                        SimpleNamespace(label="M"), notes)
    except FairRankError as exc:
        got = (type(exc), str(exc))
    want, want_notes = oracle_per_draw(seq, fn, "M", "s")
    assert got == want
    assert notes == want_notes
    per_request = [{id(r) for r in seq.draws_for(q)} for q in seq.requests()]
    assert len(calls) == sum(len(ids) for ids in per_request)
    assert len({id(r) for r in calls}) == len(calls)


def test_per_draw_reuses_a_raising_ranking_for_each_draw():
    alignment = AlignmentMatrix({"p0": [1.0, 0.0], "p1": [1.0, 0.0], "u0": [0.0, 1.0]})
    all_protected = Ranking("q1", ("p0", "p1"))  # rd has no odds ratio: raises
    mixed = Ranking("q1", ("p0", "u0", "p1"))
    seq = RankingSequence((("q1", all_protected), ("q1", mixed), ("q1", all_protected),
                           ("q2", Ranking("q2", ("p0", "p1")))))
    calls = []

    def fn(r):
        calls.append(r)
        return pref_fairness(r, alignment, GROUPS, None, "rd", 2)

    notes = []
    got = _per_draw(SimpleNamespace(seq=seq, system="s"), fn, SimpleNamespace(label="M"), notes)
    want, want_notes = oracle_per_draw(seq, fn, "M", "s")
    assert got == want and notes == want_notes
    assert got.n_requests == 2 and got.n_degenerate == 1
    assert len(calls) == 3 + 4  # three distinct objects here, four draws in the oracle
