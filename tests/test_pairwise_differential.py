"""Differential tests: pair counting (``sample_pairs``) against the pair-list oracle.

Random corpora hold one to three requests of up to 24 scored documents with
tied scores, grades 0 to 3 (or no judgment at all), hard rows, soft rows
whose protected mass sits exactly at the threshold, and unlabeled documents.
``n_negatives`` runs from 1 to above the pool size, so both the exhaustive
and the sampled branch run.  Pair count, ``n_fallback``, ``n_skipped`` and
every cell's accuracy (or ``NoPairs``) must equal what
``oracle_sample_pairs`` and ``oracle_pairwise_accuracy_pairs`` give, exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    GroupSpace,
    NoPairs,
    RelevanceTable,
    pairwise_accuracy,
    sample_pairs,
)

from oracles import oracle_pairwise_accuracy_pairs, oracle_sample_pairs

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
    seed = draw(st.integers(0, 2**32 - 1))
    return (RelevanceTable(judged), scores, AlignmentMatrix(rows, n_groups=2),
            GroupSpace(("A", "B"), protected_index=protected), n_negatives, seed, threshold)


def _accuracy(fn, pairs, hi, lo):
    try:
        return fn(pairs, hi, lo)
    except NoPairs:
        return NoPairs


@given(corpora())
@settings(max_examples=400, deadline=None)
def test_sample_pairs_matches_oracle(case):
    rel, scores, al, gs, n_negatives, seed, threshold = case
    got = sample_pairs(rel, scores, al, gs, n_negatives, seed, threshold)
    pairs, n_fallback, n_skipped = oracle_sample_pairs(
        rel, scores, al, gs, n_negatives, seed, threshold)
    assert len(got.pairs) == len(pairs)
    assert (got.n_fallback, got.n_skipped) == (n_fallback, n_skipped)
    for hi in (0, 1):
        for lo in (0, 1):
            assert (_accuracy(pairwise_accuracy, got.pairs, hi, lo)
                    == _accuracy(oracle_pairwise_accuracy_pairs, pairs, hi, lo)), (hi, lo)

