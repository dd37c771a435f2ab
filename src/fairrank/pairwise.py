"""Pairwise fairness: group-conditioned ordering accuracy over system scores.

These metrics do not look at the emitted top-N list; they ask whether the
system's scores order a more-relevant document above a less-relevant one,
conditioned on the pair's group memberships.  Group indices follow the
binarized convention: 0 = protected, 1 = unprotected.

Pairs are counted, never materialized: per (group_hi, group_lo) cell the
sample keeps twice the hits (a correctly ordered pair adds 2, a tie 1) and
the number of pairs, so every accuracy is an exact ratio of integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .compiled import CompiledSystem, Labels, sorted_distinct
from .core import (
    AlignmentMatrix,
    FairRankError,
    GroupSpace,
    NoPairs,
    RankingSequence,
    RelevanceTable,
)


@dataclass(frozen=True, eq=False)
class PairCounts:
    """Per (group_hi, group_lo) cell: twice the hits and the number of pairs (2x2 int64)."""

    twice_hits: np.ndarray
    totals: np.ndarray

    def __post_init__(self):
        self.twice_hits.flags.writeable = False
        self.totals.flags.writeable = False

    def __len__(self) -> int:
        return int(self.totals.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairCounts):
            return NotImplemented
        return (np.array_equal(self.twice_hits, other.twice_hits)
                and np.array_equal(self.totals, other.totals))


@dataclass(frozen=True)
class PairSample:
    pairs: PairCounts
    n_fallback: int  # requests whose negative pool was smaller than n_negatives
    n_skipped: int   # requests with no scorable relevant document


def _count(
    twice_hits: np.ndarray,
    totals: np.ndarray,
    hi_scores: np.ndarray,
    hi_groups: np.ndarray,
    lo_scores: np.ndarray,
    lo_groups: np.ndarray,
) -> None:
    """Add every (hi, lo) pair across the two document sets to the tables."""
    n_hi = np.bincount(hi_groups, minlength=2)
    for lo in (0, 1):
        below = np.sort(lo_scores[lo_groups == lo])
        # left + right insertion points: twice the count strictly below plus the ties
        twice = (np.searchsorted(below, hi_scores, "left")
                 + np.searchsorted(below, hi_scores, "right"))
        twice_hits[:, lo] += np.bincount(hi_groups, weights=twice, minlength=2).astype(np.int64)
        totals[:, lo] += n_hi * below.size


def sample_pairs(
    relevance: RelevanceTable,
    scores: Mapping[str, Mapping[str, float]],
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    n_negatives: int = 10000,
    seed: int = 42,
    threshold: float = 0.5,
) -> PairSample:
    """Count relevant-vs-negative pairs with seeded negative sampling.

    Per request (in sorted order), the scored labeled documents in sorted id
    order split into positives (grade > 0) and negatives (unjudged or judged
    non-relevant).  Each positive is paired with every negative when the
    pool holds at most ``n_negatives`` of them, and otherwise with
    ``n_negatives`` distinct negatives drawn uniformly by one
    ``rng.choice`` per positive, in positive order.  A pool smaller than
    ``n_negatives`` is counted in ``n_fallback``.  Pairs of relevant
    documents with differing grades are always counted exhaustively.
    Identical seeds yield identical samples.
    """
    view = CompiledSystem(RankingSequence(()), relevance, scores=scores)
    return sample_pairs_of(view, view.labels(alignment), groups, n_negatives, seed, threshold)


def sample_pairs_of(view: CompiledSystem, labels: Labels, groups: GroupSpace, n_negatives: int,
                    seed: int, threshold: float) -> PairSample:
    """``sample_pairs`` of a compiled system's scored documents, on one alignment variant."""
    if n_negatives < 1:
        raise FairRankError(f"n_negatives must be >= 1, got {n_negatives}")
    p = groups.require_protected()
    rng = None  # made on first use: a run with no oversized pool never imports numpy.random
    twice_hits = np.zeros((2, 2), dtype=np.int64)
    totals = np.zeros((2, 2), dtype=np.int64)
    n_fallback = 0
    n_skipped = 0

    for q in view.scored:
        ids, s, y = view.scored_docs(q)
        rows = labels.row_of[ids]
        kept = rows >= 0
        s, y = s[kept], y[kept]
        g = np.where(labels.dense[rows[kept], p] >= threshold, 0, 1)
        pos = y > 0
        if not pos.any():
            n_skipped += 1
            continue
        pos_s, pos_g, pos_y = s[pos], g[pos], y[pos]
        neg_s, neg_g = s[~pos], g[~pos]
        if neg_s.size < n_negatives:
            n_fallback += 1
        if neg_s.size <= n_negatives:
            _count(twice_hits, totals, pos_s, pos_g, neg_s, neg_g)
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            for i in range(pos_s.size):
                idx = rng.choice(neg_s.size, size=n_negatives, replace=False)
                _count(twice_hits, totals, pos_s[i:i + 1], pos_g[i:i + 1],
                       neg_s[idx], neg_g[idx])
        for grade in sorted_distinct(pos_y)[1:]:
            hi, lo = pos_y == grade, pos_y < grade
            _count(twice_hits, totals, pos_s[hi], pos_g[hi], pos_s[lo], pos_g[lo])
    return PairSample(PairCounts(twice_hits, totals), n_fallback, n_skipped)


def pairwise_accuracy(counts: PairCounts, group_hi: int, group_lo: int) -> float:
    """Fraction of (group_hi, group_lo) pairs scored in the correct order.

    Ties between the two scores count half.
    """
    total = int(counts.totals[group_hi, group_lo])
    if total == 0:
        raise NoPairs(f"no pairs with groups ({group_hi}, {group_lo})")
    return int(counts.twice_hits[group_hi, group_lo]) / 2 / total


def accuracy_table(pairs: PairCounts) -> dict[tuple[int, int], float]:
    """The 2x2 accuracy table over (group_hi, group_lo) in {0, 1}^2."""
    return {
        (hi, lo): pairwise_accuracy(pairs, hi, lo)
        for hi in (0, 1)
        for lo in (0, 1)
    }


def intra_inter(acc: Mapping[tuple[int, int], float]) -> tuple[float, float]:
    """Signed accuracy differences (IntraAcc, InterAcc); 0 is fair.

    IntraAcc compares within-group ordering accuracy (unprotected minus
    protected); InterAcc compares cross-group accuracy (unprotected-above-
    protected minus protected-above-unprotected).
    """
    try:
        intra = acc[(1, 1)] - acc[(0, 0)]
        inter = acc[(1, 0)] - acc[(0, 1)]
    except KeyError as exc:
        raise NoPairs(f"missing accuracy cell {exc.args[0]}") from None
    return intra, inter
