"""Differential tests: pair counting (``sample_pairs_of``) against the pair-by-pair oracles.

Random corpora hold one to three requests of up to 24 scored documents with
tied scores, grades 0 to 3 (or no judgment at all), hard rows, soft rows
whose protected mass sits exactly at the threshold, and unlabeled documents.
``n_negatives`` runs from 1 to above the pool size.  ``n_fallback``,
``n_skipped``, the pair count, both tables and every cell's accuracy (or
``NoPairs``) must equal what ``oracle_expected_pairs`` gives: exactly when no
request holds more than ``n_negatives`` negatives (and then also what the
pair lists of ``oracle_sample_pairs`` give), and within 1e-12 otherwise.

The seeded sampler those counts replace, averaged over K seeds, must come to
them within a Bernstein bound derived from K and each cell's exact variance.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    GroupSpace,
    NoPairs,
    RelevanceTable,
    pairwise_accuracy,
)

from conftest import pair_sample
from oracles import oracle_expected_pairs, oracle_pairwise_accuracy_pairs, oracle_sample_pairs

GRADES = (None, 0.0, 1.0, 2.0, 3.0)  # None: scored but absent from qrels
SCORES = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                   st.floats(-5.0, 5.0, allow_nan=False))


@st.composite
def corpora(draw):
    threshold = draw(st.sampled_from((0.3, 0.5)))
    protected = draw(st.integers(0, 1))
    rows, judged, scores = {}, {}, {}
    for qi in range(draw(st.integers(1, 3))):
        q = f"q{qi}"
        sc, jd = {}, {}
        for i in range(draw(st.integers(0, 24))):
            d = f"{q}d{i}"
            sc[d] = draw(SCORES)
            grade = draw(st.sampled_from(GRADES))
            if grade is not None:
                jd[d] = grade
            kind = draw(st.sampled_from(("prot", "unprot", "soft", "unlabeled")))
            if kind == "unlabeled":
                continue
            if kind == "soft":
                mass = draw(st.sampled_from((threshold, 0.2, 0.7)))
            else:
                mass = 1.0 if kind == "prot" else 0.0
            row = [0.0, 0.0]
            row[protected], row[1 - protected] = mass, 1.0 - mass
            rows[d] = row
        jd[f"{q}judged_only"] = 1.0  # judged, never scored
        scores[q] = sc
        judged[q] = jd
    pool = max(len(sc) for sc in scores.values())
    n_negatives = draw(st.integers(1, pool + 2))
    return (RelevanceTable(judged), scores, AlignmentMatrix(rows, n_groups=2),
            GroupSpace(("A", "B"), protected_index=protected), n_negatives, threshold)


def _accuracy(fn, *args):
    try:
        return fn(*args)
    except NoPairs:
        return NoPairs


def _ratio(twice_hits, totals, hi, lo):
    if totals[hi][lo] == 0:
        raise NoPairs(f"no pairs with groups ({hi}, {lo})")
    return twice_hits[hi][lo] / 2 / totals[hi][lo]


def _largest_pool(rel, scores, al):
    """The most negatives (scored, labeled, not relevant) of any request."""
    return max(sum(al.row(d) is not None and rel.judged(q).get(d, 0.0) <= 0 for d in sc)
               for q, sc in scores.items())


@given(corpora())
@settings(max_examples=400, deadline=None)
def test_sample_pairs_matches_oracle(case):
    rel, scores, al, gs, n_negatives, threshold = case
    got = pair_sample(rel, scores, al, gs, n_negatives, threshold)
    twice_hits, totals, n_fallback, n_skipped = oracle_expected_pairs(
        rel, scores, al, gs, n_negatives, threshold)
    assert (got.n_fallback, got.n_skipped) == (n_fallback, n_skipped)
    assert len(got.pairs) == round(sum(map(sum, totals)))
    cells = [(hi, lo) for hi in (0, 1) for lo in (0, 1)]
    if n_negatives >= _largest_pool(rel, scores, al):  # every weight is 1: whole numbers
        assert got.pairs.twice_hits.tolist() == twice_hits and got.pairs.totals.tolist() == totals
        pairs, _, _ = oracle_sample_pairs(rel, scores, al, gs, n_negatives, 0, threshold)
        assert len(got.pairs) == len(pairs)
        for hi, lo in cells:
            want = _accuracy(_ratio, twice_hits, totals, hi, lo)
            assert _accuracy(pairwise_accuracy, got.pairs, hi, lo) == want, (hi, lo)
            assert _accuracy(oracle_pairwise_accuracy_pairs, pairs, hi, lo) == want, (hi, lo)
        return
    np.testing.assert_allclose(got.pairs.twice_hits, twice_hits, rtol=1e-12)
    np.testing.assert_allclose(got.pairs.totals, totals, rtol=1e-12)
    for hi, lo in cells:
        want = _accuracy(_ratio, twice_hits, totals, hi, lo)
        have = _accuracy(pairwise_accuracy, got.pairs, hi, lo)
        assert have is want is NoPairs or abs(have - want) <= 1e-12, (hi, lo)


K = 1000        # seeds the sampler is averaged over
DELTA = 1e-9    # the chance a cell's average may stray beyond its bound


@st.composite
def oversized_pools(draw):
    """One request whose negative pool exceeds ``n_negatives``, with hard groups."""
    n_pos, n_neg = draw(st.integers(1, 4)), draw(st.integers(2, 16))
    grades = ([draw(st.sampled_from((1.0, 2.0))) for _ in range(n_pos)]
              + [draw(st.sampled_from((None, 0.0))) for _ in range(n_neg)])
    docs = [f"d{i:02d}" for i in range(n_pos + n_neg)]
    groups = [draw(st.integers(0, 1)) for _ in docs]
    scores = [draw(SCORES) for _ in docs]
    return docs, grades, groups, scores, draw(st.integers(1, n_neg - 1))


def _cells(pairs):
    """Twice the hits and the pairs of ``ScoredPair``s, per (group_hi, group_lo) cell."""
    twice_hits, totals = np.zeros((2, 2)), np.zeros((2, 2))
    for pair in pairs:
        totals[pair.group_hi, pair.group_lo] += 1
        twice_hits[pair.group_hi, pair.group_lo] += ((pair.score_hi > pair.score_lo)
                                                     + (pair.score_hi >= pair.score_lo))
    return twice_hits, totals


def _bernstein(variance, spread, k=K, delta=DELTA):
    """A t with P(|mean of k draws - expectation| >= t) <= delta, for independent draws of
    the given variance that lie within ``spread`` of their expectation."""
    log = math.log(2 / delta)
    return log * spread / (3 * k) + math.sqrt((log * spread / (3 * k)) ** 2
                                              + 2 * variance * log / k)


@given(oversized_pools())
@settings(max_examples=40, deadline=None)
def test_the_sampler_averaged_over_seeds_converges_to_the_counts(case):
    docs, grades, groups, scores, n_negatives = case
    rel = RelevanceTable({"q": {d: y for d, y in zip(docs, grades) if y is not None}})
    sc = {"q": dict(zip(docs, scores))}
    al = AlignmentMatrix({d: [1 - g, g] for d, g in zip(docs, groups)})
    gs = GroupSpace(("A", "B"), protected_index=0)
    got = pair_sample(rel, sc, al, gs, n_negatives)
    drawn = [_cells(oracle_sample_pairs(rel, sc, al, gs, n_negatives, seed)[0])
             for seed in range(K)]
    mean_hits, mean_totals = (sum(tables) / K for tables in zip(*drawn))
    # Each positive's draw is independent of the others': n of N negatives without
    # replacement, whose sum of values v has variance n (N - n) / (N - 1) var(v).
    positive = [(g, s) for g, s, y in zip(groups, scores, grades) if y]
    negative = [(g, s) for g, s, y in zip(groups, scores, grades) if not y]
    n, big_n = n_negatives, len(negative)
    var_hits, var_totals, spread = np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
    for g_hi, s_hi in positive:
        for lo in (0, 1):
            mine = [g == lo for g, _ in negative]
            hits = [m * ((s_hi > s) + (s_hi >= s)) for m, (_, s) in zip(mine, negative)]
            var_totals[g_hi, lo] += n * (big_n - n) / (big_n - 1) * np.var(mine)
            var_hits[g_hi, lo] += n * (big_n - n) / (big_n - 1) * np.var(hits)
            spread[g_hi, lo] += n
    for hi in (0, 1):
        for lo in (0, 1):
            assert abs(mean_totals[hi, lo] - got.pairs.totals[hi, lo]) <= 1e-9 + _bernstein(
                var_totals[hi, lo], spread[hi, lo]), (hi, lo)
            assert abs(mean_hits[hi, lo] - got.pairs.twice_hits[hi, lo]) <= 1e-9 + _bernstein(
                var_hits[hi, lo], 2 * spread[hi, lo]), (hi, lo)
