"""Differential tests: the request-exposure path against the brute-force oracles.

Random corpora mix hard, soft and unlabeled documents, requests with several
draws, and draws with no labeled document at all; every weight model is
covered, cascade included.  Some requests repeat one ``Ranking`` object
across their draws (the shape ``parse_sequence`` produces, which the library
evaluates once per object), others hold a new object per draw.  ``request_exposure``, the ``eed_raw`` term of
``expected_exposure`` and ``discounted_group_utility`` must agree with
``oracle_weights`` plus ``oracle_group_exposure``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    AllDegenerate,
    Degenerate,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    WeightModel,
    discounted_group_utility,
    expected_exposure,
    request_exposure,
)
from fairrank.exposure import WEIGHT_KINDS

from oracles import oracle_group_exposure, oracle_weights

DOCS = ("d0", "d1", "d2", "d3", "d4", "d5")
UNLABELED = ("u0", "u1")  # never given an alignment row


def _ranking(draw, q, rows):
    if draw(st.booleans()):
        pool = UNLABELED + tuple(d for d in DOCS if d not in rows)  # fully unlabeled
    else:
        pool = DOCS + UNLABELED
    order = draw(st.permutations(pool))
    return Ranking(q, tuple(order[:draw(st.integers(1, min(5, len(order))))]))


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
    n_requests = draw(st.integers(1, 3))
    draws, grades = [], {}
    for i in range(n_requests):
        q = f"q{i}"
        grades[q] = {d: y for d in DOCS + UNLABELED
                     if (y := draw(st.sampled_from((None, 0.0, 1.0, 2.0)))) is not None}
        # A shared request repeats a few Ranking objects across its draws, as a
        # parsed sequence does; otherwise every draw holds its own object.
        shared = [] if draw(st.booleans()) else [
            _ranking(draw, q, rows) for _ in range(draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(1, 4))):
            draws.append((q, draw(st.sampled_from(shared)) if shared else _ranking(draw, q, rows)))
    draws = draw(st.permutations(draws))
    kind = draw(st.sampled_from(WEIGHT_KINDS))
    gamma = draw(st.floats(0.1, 1.0))
    return g, rows, RankingSequence(tuple(draws)), grades, WeightModel(kind, gamma)


def _oracle_draw(ranking, rows, judged, g, model, y_max, utility=False):
    """Group exposure of one draw, or its grade-weighted utility mass."""
    stop = (lambda y: y / y_max) if y_max > 0 else None
    grades = [judged.get(d, 0.0) for d in ranking.docs]
    w = oracle_weights(model.kind, model.gamma, list(range(1, len(ranking) + 1)), grades, stop)
    if utility:
        w = [wi * y for wi, y in zip(w, grades)]
    return oracle_group_exposure(ranking.docs, rows, w, g)


def _oracle_request(seq, q, rows, judged, g, model, y_max, utility=False):
    draws = seq.draws_for(q)
    per_draw = [_oracle_draw(r, rows, judged, g, model, y_max, utility) for r in draws]
    labeled = any(d in rows for r in draws for d in r.docs)
    return sum(per_draw) / len(draws), labeled


@given(corpora())
@settings(max_examples=300, deadline=None)
def test_exposure_paths_match_oracle(corpus):
    g, rows, seq, grades, model = corpus
    al = AlignmentMatrix(rows, n_groups=g)
    gs = GroupSpace(tuple(f"g{i}" for i in range(g)))
    rel = RelevanceTable(grades)
    y_max = max((y for judged in grades.values() for y in judged.values()), default=0.0)
    rho = seq.rho()

    eps_acc, weight, gamma_disc = np.zeros(g), 0.0, np.zeros(g)
    for q in seq.requests():
        judged = grades[q]
        want, labeled = _oracle_request(seq, q, rows, judged, g, model, y_max)
        if labeled:
            assert np.allclose(request_exposure(seq, q, al, gs, model, rel), want,
                               rtol=1e-12, atol=1e-14)
        else:
            with pytest.raises(Degenerate):
                request_exposure(seq, q, al, gs, model, rel)
        util, _ = _oracle_request(seq, q, rows, judged, g, model, y_max, utility=True)
        gamma_disc += rho[q] * util
        # expected_exposure keeps a request whose union pool has a relevant
        # document and a labeled candidate
        cands = set(judged) | {d for r in seq.draws_for(q) for d in r.docs}
        if max((judged.get(d, 0.0) for d in cands), default=0.0) > 0 and cands & set(rows):
            eps_acc += rho[q] * want
            weight += rho[q]

    assert np.allclose(discounted_group_utility(seq, rel, al, gs, model), gamma_disc,
                       rtol=1e-12, atol=1e-14)
    if weight > 0:
        eps = eps_acc / weight
        res = expected_exposure(seq, rel, al, gs, model)
        assert res.eed_raw == pytest.approx(float(eps @ eps), rel=1e-12, abs=1e-14)
    else:
        with pytest.raises(AllDegenerate):
            expected_exposure(seq, rel, al, gs, model)
