import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    GroupSpace,
    NoPairs,
    RelevanceTable,
    accuracy_table,
    intra_inter,
    pairwise_accuracy,
)

from conftest import pair_sample
from oracles import oracle_pairwise_accuracy

GS = GroupSpace(("A", "B"), protected_index=0)


def _one_pair_per_request(pairs):
    """Pair counting over one request per (score_hi, score_lo, g_hi, g_lo) tuple."""
    grades, scores, rows = {}, {}, {}
    for i, (s_hi, s_lo, g_hi, g_lo) in enumerate(pairs):
        q, hi, lo = f"q{i}", f"hi{i}", f"lo{i}"
        grades[q] = {hi: 1.0, lo: 0.0}
        scores[q] = {hi: s_hi, lo: s_lo}
        rows[hi] = [1, 0] if g_hi == 0 else [0, 1]
        rows[lo] = [1, 0] if g_lo == 0 else [0, 1]
    return pair_sample(RelevanceTable(grades), scores, AlignmentMatrix(rows), GS).pairs


class TestPairwiseAccuracy:
    def test_perfect_scorer(self):
        pairs = _one_pair_per_request([(0.9, 0.1, g1, g2) for g1 in (0, 1) for g2 in (0, 1)])
        for g1 in (0, 1):
            for g2 in (0, 1):
                assert pairwise_accuracy(pairs, g1, g2) == 1.0

    def test_tie_counts_half(self):
        pairs = _one_pair_per_request([(0.9, 0.1, 0, 1), (0.8, 0.2, 0, 1), (0.5, 0.5, 0, 1)])
        assert pairwise_accuracy(pairs, 0, 1) == pytest.approx(2.5 / 3)

    def test_no_pairs_raises(self):
        with pytest.raises(NoPairs):
            pairwise_accuracy(_one_pair_per_request([(1, 0, 0, 0)]), 1, 1)


class TestIntraInter:
    def test_perfect_scorer_zero(self):
        acc = {(0, 0): 1.0, (1, 1): 1.0, (0, 1): 1.0, (1, 0): 1.0}
        assert intra_inter(acc) == (0.0, 0.0)

    def test_hand_differences(self):
        acc = {(1, 1): 0.9, (0, 0): 0.7, (1, 0): 0.8, (0, 1): 0.8}
        intra, inter = intra_inter(acc)
        assert intra == pytest.approx(0.2)
        assert inter == pytest.approx(0.0)

    def test_group_swap_negates(self):
        acc = {(0, 0): 0.6, (1, 1): 0.9, (0, 1): 0.7, (1, 0): 0.85}
        swapped = {(1 - a, 1 - b): v for (a, b), v in acc.items()}
        i1 = intra_inter(acc)
        i2 = intra_inter(swapped)
        assert i2[0] == pytest.approx(-i1[0])
        assert i2[1] == pytest.approx(-i1[1])

    def test_missing_cell_propagates(self):
        with pytest.raises(NoPairs):
            intra_inter({(0, 0): 0.5})


class TestSamplePairs:
    def test_small_pool_exhaustive(self):
        rel = RelevanceTable({"q": {"p1": 1.0, "n1": 0.0, "n2": 0.0}})
        sc = {"q": {"p1": 0.9, "n1": 0.5, "n2": 0.7}}
        al = AlignmentMatrix({"p1": [1, 0], "n1": [0, 1], "n2": [0, 1]})
        out = pair_sample(rel, sc, al, GS, n_negatives=3)
        assert len(out.pairs) == 2
        assert out.n_fallback == 1

    def test_an_oversized_pool_counts_its_share_of_every_pair(self):
        rng = np.random.default_rng(23)
        docs = [f"d{i}" for i in range(40)]
        rel = RelevanceTable({"q": {d: 1.0 for d in docs[:5]}})
        sc = {"q": {d: float(rng.random()) for d in docs}}
        al = AlignmentMatrix({d: [1, 0] if i % 3 == 0 else [0, 1] for i, d in enumerate(docs)})
        every = pair_sample(rel, sc, al, GS, n_negatives=35)  # N_q = 35: no pool is oversized
        share = pair_sample(rel, sc, al, GS, n_negatives=10)
        assert every.pairs.totals.sum() == 5 * 35 and len(share.pairs) == 5 * 10
        np.testing.assert_allclose(share.pairs.totals, every.pairs.totals * 10 / 35, rtol=1e-12)
        np.testing.assert_allclose(share.pairs.twice_hits, every.pairs.twice_hits * 10 / 35,
                                   rtol=1e-12)
        assert (share.n_fallback, share.n_skipped) == (0, 0)
        assert accuracy_table(share.pairs) == pytest.approx(accuracy_table(every.pairs), abs=1e-12)

    def test_relevant_relevant_pairs_by_grade(self):
        rel = RelevanceTable({"q": {"hi": 2.0, "lo": 1.0}})
        sc = {"q": {"hi": 0.4, "lo": 0.6}}
        al = AlignmentMatrix({"hi": [1, 0], "lo": [0, 1]})
        out = pair_sample(rel, sc, al, GS, n_negatives=5)
        assert len(out.pairs) == 1
        assert out.pairs.totals[0, 1] == 1
        assert pairwise_accuracy(out.pairs, 0, 1) == 0.0

    def test_requests_without_positives_skipped(self):
        rel = RelevanceTable({"q1": {"a": 1.0}, "q2": {"b": 0.0}})
        sc = {"q1": {"a": 0.9, "x": 0.1}, "q2": {"b": 0.2, "y": 0.3}}
        al = AlignmentMatrix({"a": [1, 0], "x": [0, 1], "b": [0, 1], "y": [0, 1]})
        out = pair_sample(rel, sc, al, GS, n_negatives=5)
        assert out.n_skipped == 1

    def test_unlabeled_docs_excluded(self):
        rel = RelevanceTable({"q": {"a": 1.0}})
        sc = {"q": {"a": 0.9, "nolabel": 0.1}}
        al = AlignmentMatrix({"a": [1, 0]})
        out = pair_sample(rel, sc, al, GS, n_negatives=5)
        assert len(out.pairs) == 0

    def test_exhaustive_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(5, 21))
            docs = [f"d{i}" for i in range(n)]
            judged = {d: float(rng.choice([0, 0, 1, 2])) for d in docs}
            scores = {d: float(rng.integers(0, 6)) for d in docs}  # ints force ties
            labels = {d: int(rng.integers(0, 2)) for d in docs}
            rel = RelevanceTable({"q": judged})
            sc = {"q": scores}
            al = AlignmentMatrix({d: [1, 0] if g == 0 else [0, 1] for d, g in labels.items()})
            out = pair_sample(rel, sc, al, GS, n_negatives=10000)
            for g1 in (0, 1):
                for g2 in (0, 1):
                    want = oracle_pairwise_accuracy(judged, scores, labels.get, g1, g2)
                    if want is None:
                        with pytest.raises(NoPairs):
                            pairwise_accuracy(out.pairs, g1, g2)
                    else:
                        assert pairwise_accuracy(out.pairs, g1, g2) == pytest.approx(want)

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(5)
        docs = [f"d{i}" for i in range(15)]
        judged = {d: float(rng.choice([0, 1, 2])) for d in docs}
        scores = {d: float(rng.random()) for d in docs}
        labels = {d: int(rng.integers(0, 2)) for d in docs}
        rel = RelevanceTable({"q": judged})
        al = AlignmentMatrix({d: [1, 0] if g == 0 else [0, 1] for d, g in labels.items()})
        base = pair_sample(rel, {"q": scores}, al, GS, n_negatives=10000)
        warped = {d: float(np.exp(3 * s) + 7) for d, s in scores.items()}
        other = pair_sample(rel, {"q": warped}, al, GS, n_negatives=10000)
        t1, t2 = accuracy_table(base.pairs), accuracy_table(other.pairs)
        for key in t1:
            assert t1[key] == pytest.approx(t2[key])
