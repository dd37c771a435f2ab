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
from dataclasses import dataclass

import numpy as np

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
)
from .distance import DISTANCE_KINDS, KL_TARGET_FLOOR, delta
from .exposure import WeightModel, group_exposure, position_weights


@dataclass(frozen=True)
class SingleListResult:
    """A single-ranking metric value with its fairness direction.

    ``degenerate`` names the edge case when the input admits no meaningful
    score; the value is then NaN, or a defined-by-convention constant (the
    short-list and undefined-normalizer cases score 0, maximally fair).
    """

    value: float
    direction: Direction
    degenerate: str | None = None

    @property
    def ok(self) -> bool:
        return self.degenerate is None


def prefix_schedule(n: int, step: int) -> list[int]:
    """Prefix lengths step, 2*step, ..., plus n itself when not a multiple."""
    if step < 2:
        raise FairRankError(f"step must be >= 2 (prefix 1 has discount log2(1) = 0), got {step}")
    ks = list(range(step, n + 1, step))
    if not ks or ks[-1] != n:
        ks.append(n)
    return ks


def _prefix_raw(cols: np.ndarray, target: np.ndarray, dist: str, step: int) -> float:
    """Sum over the prefix schedule of |delta(prefix shares, target)| / log2(k).

    ``cols`` holds group membership in rank order, shape (n, g): for nd and
    rd the protected column alone against ``target = (p_hat,)``, for kl every
    group against the full target.  An rd list whose target or some prefix
    has no unprotected mass has no odds ratio; it is marked with NaN.
    """
    ks = np.array(prefix_schedule(len(cols), step))
    shares = np.cumsum(cols, axis=0)[ks - 1] / ks[:, None]
    if dist == "kl":
        # as delta_kl: floored, renormalized target; 0 * log(0 / t) is 0
        t = np.maximum(target, KL_TARGET_FLOOR)
        t = t / t.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(shares > 0, shares * np.log2(shares / t), 0.0)
        deltas = np.maximum(terms.sum(axis=1), 0.0)
    elif dist == "nd":
        deltas = shares[:, 0] - target[0]
    else:  # rd
        if target[0] >= 1 or np.any(shares >= 1):
            return math.nan
        deltas = shares[:, 0] / (1.0 - shares[:, 0]) - target[0] / (1.0 - target[0])
    return float(np.sum(np.abs(deltas) / np.log2(ks)))


def _prefix_normalizer(cols: np.ndarray, target: np.ndarray, dist: str, step: int) -> float:
    """Worst raw score over the lists sorted by each column, both ways.

    Raises when no such list is scorable, or when none scores above zero:
    the composition then admits no unfairness.
    """
    raws = []
    for j in range(cols.shape[1]):
        order = np.argsort(cols[:, j], kind="stable")
        raws += [_prefix_raw(cols[o], target, dist, step) for o in (order, order[::-1])]
    best = max((r for r in raws if not math.isnan(r)), default=None)
    if best is None:
        raise Degenerate("no extreme arrangement is scorable under this distance")
    if best <= 0:
        raise UndefinedNormalizer("composition admits no prefix unfairness")
    return best


def pref_normalizer(
    n: int,
    n_protected: int,
    p_hat: float,
    dist: str = "nd",
    step: int = 10,
) -> float:
    """Worst-case raw prefix score of a list with ``n_protected`` of ``n`` protected."""
    if not 0 <= n_protected <= n:
        raise FairRankError("n_protected must lie in [0, n]")
    return _prefix_normalizer((np.arange(n) < n_protected)[:, None], np.array([p_hat]), dist, step)


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

    ``target`` defaults to the list's own composition (so the score asks how
    evenly that composition is spread across prefixes); pass an explicit
    target to compare against a global distribution instead.  A list with
    fewer than ``step`` labeled documents is maximally fair by convention.
    """
    if dist not in DISTANCE_KINDS:
        raise FairRankError(f"unknown distance function {dist!r}")
    _, idx = alignment.gather(ranking.docs)
    n = idx.size
    if n == 0:
        return SingleListResult(math.nan, Direction.ZERO_IS_FAIR, degenerate="no_labeled_docs")
    if n < step:
        return SingleListResult(0.0, Direction.ZERO_IS_FAIR, degenerate="short_list")

    cols = alignment.dense()[idx]
    if dist == "kl":
        if target is None:
            if n == step:
                # The only prefix is the whole list, which matches its own
                # composition in every arrangement; computed, both raw and
                # normalizer would be rounding residue.
                return SingleListResult(0.0, Direction.ZERO_IS_FAIR,
                                        degenerate="undefined_normalizer")
            # A group absent from the list has no place in its own composition:
            # the KL floor would lift its zero target and score every prefix,
            # and so an evenly spread list, as unfair.
            cols = cols[:, cols.sum(axis=0) > 0]
            tvec = cols.mean(axis=0)
        else:
            tvec = target.probs
            if tvec.size != cols.shape[1]:
                raise FairRankError("target and alignment have different group counts")
    else:
        p = groups.require_protected()
        if not 0 < threshold <= 1:
            raise FairRankError(f"threshold must lie in (0, 1], got {threshold}")
        cols = cols[:, [p]] >= threshold
        tvec = np.array([target.scalar(p) if target is not None else cols.sum() / n])
    raw = _prefix_raw(cols, tvec, dist, step)
    if math.isnan(raw):
        raise DegenerateDenominator("the target or a prefix has no unprotected documents")
    try:
        z = _prefix_normalizer(cols, tvec, dist, step)
    except UndefinedNormalizer:
        return SingleListResult(0.0, Direction.ZERO_IS_FAIR, degenerate="undefined_normalizer")

    # The sorted lists bound every arrangement for nd only; rd and kl are
    # heuristic, so a raw score can nose past the estimated maximum.
    return SingleListResult(min(raw / z, 1.0), Direction.ZERO_IS_FAIR)


def _prefix_binom_cdf(mask: np.ndarray, p: float) -> np.ndarray:
    """P(X_k <= c_k) for X_k ~ Binomial(k, p) and c_k = cumsum(mask), k = 1..n.

    c_k rises by 0 or 1 per step, so each CDF follows from the one before
    through a single pmf term of X_{k-1} at c_k:
    F_k = F_{k-1} - p P(X_{k-1} = c_k) after an unprotected document, and
    F_k = F_{k-1} + (1 - p) P(X_{k-1} = c_k) after a protected one.  The pmf
    terms come from log factorials and are summed from F_0 = 1; rounding in
    that running sum can step just outside [0, 1], so the result is clipped.
    """
    n = mask.size
    counts = np.cumsum(mask)
    trials = np.arange(n)
    fails = trials - counts
    possible = fails >= 0  # P(X_{k-1} = k) is zero
    fails = np.where(possible, fails, 0)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_pmf = (log_fact[trials] - log_fact[counts] - log_fact[fails]
               + counts * math.log(p) + fails * math.log1p(-p))
    steps = np.where(possible, np.exp(log_pmf), 0.0) * np.where(mask, 1.0 - p, -p)
    return np.clip(1.0 + np.cumsum(steps), 0.0, 1.0)


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
        return SingleListResult(math.nan, Direction.ONE_IS_FAIR, degenerate="no_labeled_docs")
    if not 0 < p_hat < 1:
        raise FairRankError(f"p_hat must lie in (0, 1), got {p_hat}")
    n = mask.size
    ks = np.arange(1, n + 1)
    counts = np.cumsum(mask)
    probs = _prefix_binom_cdf(mask, p_hat)
    if paper_verbatim:
        probs = np.where(counts >= 1, probs - (1.0 - p_hat) ** ks, 0.0)
    return SingleListResult(float(np.mean(probs)), Direction.ONE_IS_FAIR)


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
    weights = position_weights(model, ranking, relevance)
    try:
        eps = group_exposure(ranking, alignment, weights, groups, normalize=True)
    except Degenerate as exc:
        return SingleListResult(math.nan, Direction.ZERO_IS_FAIR, degenerate=exc.reason)
    p = groups.protected_index if dist != "kl" else None
    d = delta(dist, eps, target.probs, protected_index=p)
    return SingleListResult(d if signed else abs(d), Direction.ZERO_IS_FAIR)
