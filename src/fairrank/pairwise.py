"""Pairwise fairness: group-conditioned ordering accuracy over system scores.

These metrics do not look at the emitted top-N list; they ask whether the
system's scores order a more-relevant document above a less-relevant one,
conditioned on the pair's group memberships.  Group indices follow the
binarized convention: 0 = protected, 1 = unprotected.

Pairs are counted, never materialized: per (group_hi, group_lo) cell the
sample keeps twice the hits (a correctly ordered pair adds 2, a tie 1) and
the number of pairs that Beutel et al.'s uniform negative sampling gives in
expectation (see ``sample_pairs_of``), so every accuracy is the ratio it estimates.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .compiled import CompiledSystem, Labels, sorted_distinct
from .core import FairRankError, NoPairs
from .record import Record


class PairCounts(Record):
    """Per (group_hi, group_lo) cell: twice the expected hits and pairs (2x2 float64)."""

    def __init__(self, twice_hits: np.ndarray, totals: np.ndarray):
        twice_hits.flags.writeable = False
        totals.flags.writeable = False
        self._set(twice_hits, totals)

    def __len__(self) -> int:
        return round(float(self.totals.sum()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairCounts):
            return NotImplemented
        return (np.array_equal(self.twice_hits, other.twice_hits)
                and np.array_equal(self.totals, other.totals))


class PairSample(Record):
    """The pair counts, the number of requests whose negative pool was smaller than
    n_negatives and the number with no scorable relevant document."""

    def __init__(self, pairs: PairCounts, n_fallback: int, n_skipped: int):
        self._set(pairs, n_fallback, n_skipped)


def _count(twice_hits: np.ndarray, totals: np.ndarray, keys: np.ndarray, groups: np.ndarray,
           span: int, hi, lo, weight=1.0) -> None:
    """Add every (hi, lo) pair of documents of one request to the tables, for all requests
    at once; a pair counts its ``hi`` document's ``weight`` (a scalar, or one per ``hi``).

    A document's key is its request's index times ``span`` plus its score's
    rank among all scores, so keys order a request's scores and tie where the
    scores tie.  ``hi`` and ``lo`` select documents, as masks or indices.
    """
    hi_keys, hi_groups = keys[hi], groups[hi]
    start = hi_keys - hi_keys % span
    for lo_group in (0, 1):
        below = np.sort(keys[lo][groups[lo] == lo_group])
        first = np.searchsorted(below, start)
        # left + right insertion points: twice the count strictly below plus the ties
        twice = (np.searchsorted(below, hi_keys, "left") + np.searchsorted(below, hi_keys, "right")
                 - 2 * first)
        n_below = np.searchsorted(below, start + span) - first
        twice_hits[:, lo_group] += np.bincount(hi_groups, twice * weight, minlength=2)
        totals[:, lo_group] += np.bincount(hi_groups, n_below * weight, minlength=2)


def sample_pairs_of(view: CompiledSystem, labels: Labels, n_negatives: int) -> PairSample:
    """Count the relevant-vs-negative pairs of a compiled system's scored documents, on the
    binarized alignment (column 0: protected), as expected under uniform negative sampling.

    Per request, the scored labeled documents split into positives (grade >
    0) and negatives (unjudged or judged non-relevant).  Each positive is
    paired with every negative; when the request holds ``N_q > n_negatives``
    negatives, each such pair counts ``n_negatives / N_q``, the chance that a
    uniform sample of ``n_negatives`` of them holds it.  Nothing is drawn.  In
    a pool of at most ``n_negatives`` each pair counts 1, and a pool smaller
    than ``n_negatives`` is counted in ``n_fallback``.  Pairs of relevant
    documents with differing grades always count 1.  One pass counts positives
    against negatives, and one per grade against lower grades.
    """
    if n_negatives < 1:
        raise FairRankError(f"n_negatives must be >= 1, got {n_negatives}")
    rows = labels.row_of[view.scored_ids]
    kept = rows >= 0
    request = np.repeat(np.arange(len(view.scored)), np.diff(view.scored_at))[kept]
    s, y = view.scored_values[kept], view.scored_grades[kept]
    g = np.where(labels.dense[rows[kept], 0] > 0, 0, 1)
    pos = y > 0
    n_pos = np.bincount(request[pos], minlength=len(view.scored))
    n_neg = np.bincount(request[~pos], minlength=len(view.scored))
    twice_hits, totals = np.zeros((2, 2)), np.zeros((2, 2))

    ranks = sorted_distinct(s)
    span = ranks.size + 1
    keys = request.astype(np.int64) * span + np.searchsorted(ranks, s)
    # min(1, n_negatives / N_q): exactly 1.0 unless the pool is oversized
    share = n_negatives / np.maximum(n_neg, n_negatives)
    _count(twice_hits, totals, keys, g, span, pos, ~pos, share[request[pos]])
    for grade in sorted_distinct(y[pos])[1:]:
        _count(twice_hits, totals, keys, g, span, pos & (y == grade), pos & (y < grade))
    n_fallback = int(np.count_nonzero((n_pos > 0) & (n_neg < n_negatives)))
    return PairSample(PairCounts(twice_hits, totals), n_fallback,
                      int(np.count_nonzero(n_pos == 0)))


def pairwise_accuracy(counts: PairCounts, group_hi: int, group_lo: int) -> float:
    """Fraction of (group_hi, group_lo) pairs scored in the correct order.

    Ties between the two scores count half.
    """
    total = float(counts.totals[group_hi, group_lo])
    if total == 0:
        raise NoPairs(f"no pairs with groups ({group_hi}, {group_lo})")
    return float(counts.twice_hits[group_hi, group_lo]) / 2 / total


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
