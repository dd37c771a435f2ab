"""Statistical-parity metrics for a single ranking.

Three families:

* prefix fairness: log-discounted distribution distances over successive
  prefixes (every ``step`` positions, plus the full list), normalized by the
  worst of the lists sorted by each group column, both ways (for nd and rd:
  all protected first, all protected last).  That is exactly the worst
  arrangement for nd; for rd and kl it is a heuristic that can fall short of
  it, so the score is clipped at 1.  0 is fair, 1 maximally unfair.
* FAIR: mean binomial probability that each prefix does not significantly
  under-represent the protected group; 1 is fair, over-representation is
  never penalized.
* attention-weighted rank fairness (AWRF): distance between the normalized
  group-exposure distribution and a target distribution; 0 is fair.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .compiled import by_key, left_justified
from .core import (
    AlignmentMatrix,
    Degenerate,
    DegenerateDenominator,
    Direction,
    FairRankError,
    GroupSpace,
    Ranking,
    RelevanceTable,
    TargetDistribution,
    UndefinedNormalizer,
    binarize,
)
from .distance import (
    ALL_PROTECTED_TARGET,
    ZERO_UNPROTECTED_SHARE,
    _check_kind,
    deltas_of,
)
from .exposure import WeightModel, _check_width, exposures_of, position_weights
from .record import Record
from .registry import FAMILIES


class SingleListResult(Record):
    """A single-ranking metric value with its fairness direction.

    ``degenerate`` names the edge case when the input admits no meaningful
    score; the value is then NaN, or a defined-by-convention constant (the
    short-list and undefined-normalizer cases score 0, maximally fair).
    """

    def __init__(self, value: float, direction: Direction, degenerate: str | None = None):
        self._set(value, direction, degenerate)

    @property
    def ok(self) -> bool:
        return self.degenerate is None


# why a prefD list has no score
NO_UNPROTECTED_PREFIX = "the target or a prefix has no unprotected documents"
NO_SCORABLE_EXTREME = "no extreme arrangement is scorable under this distance"

# The outcomes a per-list call raises, by reason, instead of returning them.
_RAISED = {
    NO_UNPROTECTED_PREFIX: DegenerateDenominator,
    NO_SCORABLE_EXTREME: Degenerate,
    ZERO_UNPROTECTED_SHARE: DegenerateDenominator,
    ALL_PROTECTED_TARGET: DegenerateDenominator,
}


class ListScores(NamedTuple):
    """A single-ranking metric over a batch of lists, one entry per list.

    A list's reason is None for a plain score, else its edge case: with a
    NaN value the list has no score, with a number it is scored by that
    convention.
    """

    values: np.ndarray   # (R,) float
    reasons: np.ndarray  # (R,) object: None or the reason

    @classmethod
    def empty(cls, n: int) -> "ListScores":
        return cls(np.full(n, math.nan), np.full(n, None, dtype=object))

    def only(self, family: str) -> SingleListResult:
        """The outcome of a batch of one, as the per-list call of ``family`` gives it: a
        result in the family's declared direction, or the ``Degenerate`` it raises."""
        value, reason = float(self.values[0]), self.reasons[0]
        if reason in _RAISED:
            raise _RAISED[reason](reason)
        return SingleListResult(value, _direction(family), reason)


def _direction(family: str) -> Direction:
    """The direction the registry declares for a one-row family."""
    return FAMILIES[family].rows[0][1]


def prefix_schedule(n: int, step: int) -> list[int]:
    """Prefix lengths step, 2*step, ..., plus n itself when not a multiple."""
    if step < 2:
        raise FairRankError(f"step must be >= 2 (prefix 1 has discount log2(1) = 0), got {step}")
    ks = list(range(step, n + 1, step))
    if not ks or ks[-1] != n:
        ks.append(n)
    return ks


def _prefix_raw(cols: np.ndarray, target: np.ndarray, dist: str, step: int) -> np.ndarray:
    """Sum over the prefix schedule of |delta(prefix shares, target)| / log2(k), each delta
    from ``distance.deltas_of``.

    ``cols`` holds group membership in rank order, shape (..., n, g), one
    (n, g) list per leading index: for nd and rd the protected column alone
    against ``target = (p_hat,)``, for kl every group against the full
    target.  ``target`` (..., g) broadcasts against the leading indices.
    Returns one raw score per list.  An rd list whose target or some prefix
    has no unprotected mass has no odds ratio; it is marked with NaN.
    """
    ks = np.array(prefix_schedule(cols.shape[-2], step))
    shares = np.cumsum(cols, axis=-2)[..., ks - 1, :] / ks[:, None]
    # the same target for every prefix
    deltas, _ = deltas_of(dist, shares, np.asarray(target, dtype=float)[..., None, :],
                          None if dist == "kl" else 0)
    # Each list's terms are summed as one contiguous row, as a lone list sums
    # them: the prefix gather leaves the schedule axis strided, and numpy adds
    # a strided axis in another order than a contiguous one.
    return np.ascontiguousarray(np.abs(deltas) / np.log2(ks)).sum(axis=-1)


def _arrangements(cols: np.ndarray) -> np.ndarray:
    """Each list (..., n, g) as given, then sorted by each column, ascending and that order
    reversed: (..., 1 + 2g, n, g)."""
    out = [cols]
    for j in range(cols.shape[-1]):
        asc = np.take_along_axis(cols, np.argsort(cols[..., j], axis=-1, kind="stable")[..., None],
                                 axis=-2)
        out += [asc, asc[..., ::-1, :]]
    return np.stack(out, axis=-3)


def _worst(raws: np.ndarray) -> np.ndarray:
    """The normalizer of each list: the worst scorable raw score (last axis) among its
    extreme arrangements; -inf when none is scorable."""
    return np.where(np.isnan(raws), -np.inf, raws).max(axis=-1)


def pref_normalizer(
    n: int,
    n_protected: int,
    p_hat: float,
    dist: str = "nd",
    step: int = 10,
) -> float:
    """Worst-case raw prefix score of a list with ``n_protected`` of ``n`` protected: its
    protected column against ``p_hat``, and for kl its other column against ``1 - p_hat``."""
    if not 0 <= n_protected <= n:
        raise FairRankError("n_protected must lie in [0, n]")
    protected = np.arange(n) < n_protected
    cols, target = ((np.stack((protected, ~protected), axis=1), np.array([p_hat, 1.0 - p_hat]))
                    if dist == "kl" else (protected[:, None], np.array([p_hat])))
    z = float(_worst(_prefix_raw(_arrangements(cols)[1:], target, dist, step)))
    if z == -math.inf:
        raise Degenerate(NO_SCORABLE_EXTREME)
    if z <= 0:
        raise UndefinedNormalizer("composition admits no prefix unfairness")
    return z


def pref_fairness(
    ranking: Ranking,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    target: TargetDistribution | None = None,
    dist: str = "nd",
    step: int = 10,
    threshold: float = 0.5,
) -> SingleListResult:
    """Normalized prefix unfairness in [0, 1]; 0 is fair.

    ``target`` defaults to the list's own composition (so the score asks how evenly that
    composition is spread across prefixes); pass an explicit target to compare against a
    global distribution instead.  nd and rd read the list's rows binarized at ``threshold``
    by ``core.binarize``, against the target's protected share; kl reads the soft rows.
    A list with fewer than ``step`` labeled documents is maximally fair by convention.
    """
    probs = None if target is None else target.probs
    if dist != "kl":  # the list's own rows: binarizing all of them costs O(alignment) a call
        probs = probs if probs is None else probs[[groups.require_protected()]]
        docs = [d for d in ranking.docs if d in alignment]
        own = AlignmentMatrix._stacked(docs, alignment.dense()[alignment.indices(docs)])
        alignment, _ = binarize(own, groups, threshold)
    return prefd_scores(alignment.indices(ranking.docs)[None], alignment.dense(), probs, dist,
                        step).only("prefd")


def prefd_scores(rows: np.ndarray, dense: np.ndarray, target: np.ndarray | None, dist: str,
                 step: int) -> ListScores:
    """``pref_fairness`` of every list: ``rows`` (R, D) holds each position's dense row
    (-1: unlabeled or past the end), for nd and rd a binarized row, of which only column
    0, the protected one, is read.  ``target`` holds the probabilities of the columns read,
    or is None for each list's own composition.  The lists are grouped by labeled count
    (for kl against the list's own composition, also by the groups present), and each
    group is scored as one stacked array of its lists and their extreme arrangements.
    """
    _check_kind(dist, 0)  # the protected column is column 0 of the prefix shares
    rows, count = left_justified(rows)
    out = ListScores.empty(len(rows))
    # A list shorter than step is fair by convention.  So, for kl against its
    # own composition, is a list of exactly step: its only prefix is the whole
    # list, which matches its own composition in every arrangement (computed,
    # raw score and normalizer would be rounding residue).
    scored = count >= step + (dist == "kl" and target is None)
    out.values[(count > 0) & ~scored] = 0.0
    out.reasons[~scored] = np.where(count[~scored] < step, "short_list", "undefined_normalizer")
    out.reasons[count == 0] = "no_labeled_docs"
    if not scored.any():
        return out
    dense = dense if dist == "kl" else dense[:, :1]
    if target is not None and target.size != dense.shape[1]:
        raise FairRankError("target and alignment have different group counts")
    for n, idx in by_key(np.where(scored, count, 0)):
        if not n:
            continue
        cols = dense[rows[idx, :n]]
        if target is not None:
            _score_prefd(out, idx, cols, target, dist, step)
        elif dist != "kl":
            _score_prefd(out, idx, cols, cols.sum(axis=1) / n, dist, step)
        else:
            # A group absent from the list has no place in its own composition:
            # the KL floor would lift its zero target and score every prefix,
            # and so an evenly spread list, as unfair.
            present = cols.sum(axis=1) > 0
            for _, sub in by_key(np.unique(present, axis=0, return_inverse=True)[1]):
                kept = cols[sub][..., present[sub[0]]]
                _score_prefd(out, idx[sub], kept, kept.mean(axis=1), dist, step)
    return out


def _score_prefd(out: ListScores, idx: np.ndarray, cols: np.ndarray, target: np.ndarray,
                 dist: str, step: int) -> None:
    """Score the lists ``cols`` (m, n, g) into ``out`` at ``idx``; ``target`` is (g,) or (m, g)."""
    raws = _prefix_raw(_arrangements(cols), target[..., None, :], dist, step)
    raw, z = raws[:, 0], _worst(raws[:, 1:])
    undefined = z <= 0
    # The sorted lists bound every arrangement for nd only; rd and kl are
    # heuristic, so a raw score can nose past the estimated maximum.
    with np.errstate(divide="ignore", invalid="ignore"):
        out.values[idx] = np.where(undefined, 0.0, np.minimum(raw / z, 1.0))
    out.reasons[idx] = np.where(undefined, "undefined_normalizer", None)
    out.reasons[idx[z == -math.inf]] = NO_SCORABLE_EXTREME
    out.reasons[idx[np.isnan(raw)]] = NO_UNPROTECTED_PREFIX
    out.values[idx[(z == -math.inf) | np.isnan(raw)]] = math.nan


# log(i!) for i = 0 .. len - 1, grown on demand and never written in place:
# an entry does not depend on the table's length, so sharing it changes no result
_LOG_FACT = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """log(i!) for i = 0 .. n at least, from one table shared by every call."""
    global _LOG_FACT
    if _LOG_FACT.size <= n:
        table = np.array([math.lgamma(i + 1) for i in range(2 * n + 1)])
        table.flags.writeable = False
        _LOG_FACT = table
    return _LOG_FACT


def _prefix_binom_cdf(mask: np.ndarray, p: float) -> np.ndarray:
    """P(X_k <= c_k) for X_k ~ Binomial(k, p) and c_k = cumsum(mask), k = 1..n.

    ``mask`` holds one list per row (last axis).  c_k rises by 0 or 1 per
    step, so each CDF follows from the one before through a single pmf term
    of X_{k-1} at c_k:
    F_k = F_{k-1} - p P(X_{k-1} = c_k) after an unprotected document, and
    F_k = F_{k-1} + (1 - p) P(X_{k-1} = c_k) after a protected one.  The pmf
    terms come from log factorials and are summed from F_0 = 1; rounding in
    that running sum can step just outside [0, 1], so the result is clipped.
    """
    n = mask.shape[-1]
    counts = np.cumsum(mask, axis=-1)
    trials = np.arange(n)
    fails = trials - counts
    possible = fails >= 0  # P(X_{k-1} = k) is zero
    fails = np.where(possible, fails, 0)
    log_fact = _log_factorials(n)
    log_pmf = (log_fact[trials] - log_fact[counts] - log_fact[fails]
               + counts * math.log(p) + fails * math.log1p(-p))
    steps = np.where(possible, np.exp(log_pmf), 0.0) * np.where(mask, 1.0 - p, -p)
    return np.clip(1.0 + np.cumsum(steps, axis=-1), 0.0, 1.0)


def _fair_values(masks: np.ndarray, p_hat: float, paper_verbatim: bool) -> np.ndarray:
    """The FAIR score of each row of the (m, n) protected masks, n >= 1."""
    ks = np.arange(1, masks.shape[-1] + 1)
    probs = _prefix_binom_cdf(masks, p_hat)
    if paper_verbatim:
        probs = np.where(np.cumsum(masks, axis=-1) >= 1, probs - (1.0 - p_hat) ** ks, 0.0)
    return probs.mean(axis=-1)


def fair_score(
    mask: np.ndarray,
    p_hat: float,
    paper_verbatim: bool = False,
) -> SingleListResult:
    """Mean binomial probability that each prefix's protected count is acceptable.

    ``mask`` is the protected-membership sequence in rank order (labeled
    documents only).  The default uses the full binomial CDF
    P(X <= c_k); ``paper_verbatim`` drops the X = 0 term from the sum.
    1 is fair; over-representation is not penalized.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return SingleListResult(math.nan, _direction("fair"), degenerate="no_labeled_docs")
    if not 0 < p_hat < 1:
        raise FairRankError(f"p_hat must lie in (0, 1), got {p_hat}")
    return SingleListResult(float(_fair_values(mask[None], p_hat, paper_verbatim)[0]),
                            _direction("fair"))


def fair_scores(rows: np.ndarray, dense: np.ndarray, p_hat: float) -> ListScores:
    """``fair_score`` of every list, from column 0, the protected one, of its binarized rows.

    ``rows`` (R, D) holds each position's dense row (-1: unlabeled or past the end);
    ``p_hat`` lies in (0, 1).  The lists are grouped by labeled count.
    """
    rows, count = left_justified(rows)
    out = ListScores.empty(len(rows))
    out.reasons[count == 0] = "no_labeled_docs"
    for n, idx in by_key(count):
        if n:
            out.values[idx] = _fair_values(dense[rows[idx, :n], 0] > 0, p_hat, False)
    return out


def awrf(
    ranking: Ranking,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    model: WeightModel,
    target: TargetDistribution,
    dist: str = "nd",
    relevance: RelevanceTable | None = None,
    signed: bool = False,
) -> SingleListResult:
    """Distance between attention-weighted group exposure and the target.

    Exposure is normalized to a distribution before comparison.  The default
    reports the unfairness magnitude |delta|; ``signed`` exposes the raw
    signed value for the binomial distances (positive = protected group
    over-exposed).
    """
    _check_width(alignment, groups)
    weights = position_weights(model, ranking, relevance)
    eps, count = exposures_of(weights, alignment.indices(ranking.docs)[None], alignment.dense())
    return awrf_scores(eps, count, groups, target, dist, signed).only("awrf")


def awrf_scores(eps: np.ndarray, count: np.ndarray, groups: GroupSpace,
                target: TargetDistribution, dist: str, signed: bool) -> ListScores:
    """``awrf`` of every list, given its raw (R, g) group exposure and labeled count."""
    out = ListScores.empty(len(eps))
    total = eps.sum(axis=1)
    out.reasons[total <= 0] = "labeled documents received zero exposure mass"
    out.reasons[count == 0] = "no labeled documents in ranking"
    ok = np.flatnonzero((count > 0) & (total > 0))
    if ok.size:
        p = groups.protected_index if dist != "kl" else None
        # both are distributions
        d, reasons = deltas_of(dist, eps[ok] / total[ok, None], target.probs, protected_index=p)
        out.values[ok] = d if signed else np.abs(d)
        out.reasons[ok] = reasons
    return out
