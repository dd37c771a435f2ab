"""Position-weight (browsing) models and group exposure aggregation.

Weight models, for a document at 1-based rank i:

    geometric     gamma * (1 - gamma)^(i - 1)
    logarithmic   1 / log2(max(i, 2))
    rbp           gamma^(i - 1)            (gamma^i behind ``rbp_verbatim``)
    cascade       gamma^(i - 1) * prod_{j < i} (1 - stop(y_j))

Group exposure is the alignment-weighted sum of position weights,
eps = A^T a; everything downstream (parity, opportunity, expected-exposure
metrics) is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    AlignmentMatrix,
    Degenerate,
    FairRankError,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    UnknownRequest,
)

WEIGHT_KINDS = ("geometric", "logarithmic", "rbp", "cascade")


@dataclass(frozen=True)
class WeightModel:
    """A browsing model mapping rank positions to attention weights.

    ``gamma`` is the stopping probability (geometric) or patience
    (rbp/cascade); the logarithmic model ignores it.  ``stop`` is the
    cascade's per-grade stopping probability; when None, a linear default
    ``min(1, y / y_max)`` is derived from the relevance table in use.
    """

    kind: str
    gamma: float = 0.5
    stop: Callable[[float], float] | None = None
    rbp_verbatim: bool = False

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise FairRankError(f"unknown weight model {self.kind!r}")
        if not 0 < self.gamma <= 1:
            raise FairRankError(f"gamma must lie in (0, 1], got {self.gamma}")


def weight_vector(
    model: WeightModel,
    positions: Sequence[int] | np.ndarray,
    grades: Sequence[float] | np.ndarray | None = None,
    stop: Callable[[float], float] | None = None,
) -> np.ndarray:
    """Attention weights for documents at the given 1-based ranks.

    The cascade's continuation product runs over the documents in order,
    using ``grades`` (zeros when not supplied).
    """
    pos = np.asarray(positions, dtype=float)
    if pos.size and pos.min() < 1:
        raise FairRankError("positions are 1-based")
    if model.kind == "geometric":
        return model.gamma * (1.0 - model.gamma) ** (pos - 1.0)
    if model.kind == "logarithmic":
        return 1.0 / np.log2(np.maximum(pos, 2.0))
    if model.kind == "rbp":
        exponent = pos if model.rbp_verbatim else pos - 1.0
        return model.gamma ** exponent
    # cascade
    stop_fn = stop or model.stop
    if stop_fn is None:
        stop_fn = lambda y: 0.0
    if grades is None:
        grades = np.zeros(pos.size)
    phi = np.clip([stop_fn(float(y)) for y in grades], 0.0, 1.0)
    cont = np.concatenate(([1.0], np.cumprod(1.0 - phi)[:-1])) if pos.size else np.empty(0)
    return model.gamma ** (pos - 1.0) * cont


def default_stop(relevance: RelevanceTable) -> Callable[[float], float]:
    """Cascade stopping probability: relevance scaled by the corpus maximum grade."""
    y_max = relevance.max_grade()
    if y_max <= 0:
        return lambda y: 0.0
    return lambda y: min(1.0, max(0.0, y / y_max))


def _resolve_stop(model: WeightModel, relevance: RelevanceTable | None) -> Callable[[float], float] | None:
    if model.kind != "cascade":
        return None
    if model.stop is not None:
        return model.stop
    if relevance is None:
        raise FairRankError("cascade weighting needs a relevance table (or an explicit stop function)")
    return default_stop(relevance)


def position_weights(
    model: WeightModel,
    ranking: Ranking,
    relevance: RelevanceTable | None = None,
) -> np.ndarray:
    """Per-document attention weights for a ranking, at ranks 1..N."""
    grades = None
    stop = None
    if model.kind == "cascade":
        stop = _resolve_stop(model, relevance)
        if relevance is not None:
            grades = [relevance.grade(ranking.request, d) for d in ranking.docs]
    return weight_vector(model, np.arange(1, len(ranking) + 1), grades, stop=stop)


def group_exposure(
    ranking: Ranking,
    alignment: AlignmentMatrix,
    weights: np.ndarray,
    groups: GroupSpace,
    normalize: bool = False,
) -> np.ndarray:
    """Accumulate position weight into groups: eps[g] = sum_i a_{d_i}[g] * w_i.

    Unlabeled documents keep their positions (they influenced the weights)
    but contribute no mass.  ``normalize`` rescales eps to sum to one, the
    form required by distance-based comparisons.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(ranking):
        raise FairRankError("weights are not aligned to the ranking")
    kept, rows = alignment.gather(ranking.docs)
    if kept.size == 0:
        raise Degenerate("no labeled documents in ranking")
    eps = weights[kept] @ alignment.dense()[rows]
    if eps.size != groups.g:
        raise FairRankError("alignment width does not match the group space")
    if normalize:
        total = float(eps.sum())
        if total <= 0:
            raise Degenerate("labeled documents received zero exposure mass")
        eps = eps / total
    return eps


def request_exposure(
    seq: RankingSequence,
    request: str,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    model: WeightModel,
    relevance: RelevanceTable | None = None,
) -> np.ndarray:
    """Empirical policy expectation: mean group exposure over a request's draws.

    A draw with no labeled document contributes zero exposure; the request
    is degenerate only when none of its draws has a labeled document.  Each
    distinct ranking is weighted once and expanded to its draws.
    """
    draws = seq.map_draws(request, lambda r: group_exposure(
        r, alignment, position_weights(model, r, relevance), groups))
    if not draws:
        raise UnknownRequest(f"no draws for request {request!r}")
    # a Degenerate draw has no labeled document: zero exposure
    per_draw = [eps for eps in draws if not isinstance(eps, Degenerate)]
    if not per_draw:
        raise Degenerate("no labeled documents in any draw")
    return np.sum(per_draw, axis=0) / len(draws)


def system_exposure(
    per_request: Mapping[str, np.ndarray],
    rho: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Request-arrival-weighted mean of per-request exposure vectors.

    ``rho`` defaults to uniform; when given, it is renormalized over the
    requests actually present.
    """
    if not per_request:
        raise FairRankError("no per-request exposure vectors to aggregate")
    keys = sorted(per_request)
    stacked = np.stack([per_request[q] for q in keys])
    if rho is None:
        return np.mean(stacked, axis=0)
    w = np.array([float(rho.get(q, 0.0)) for q in keys])
    total = float(w.sum())
    if total <= 0:
        raise FairRankError("request weights assign no mass to the given requests")
    return np.average(stacked, axis=0, weights=w / total)


def target_exposure(
    request: str,
    candidates: Sequence[str],
    relevance: RelevanceTable,
    alignment: AlignmentMatrix,
    model: WeightModel,
    groups: GroupSpace,
) -> np.ndarray:
    """Expected group exposure under the ideal (relevance-sorted) policy.

    The ideal policy draws uniformly from the rankings that sort candidates
    by non-increasing grade.  Averaging over the within-tier permutations in
    closed form, every document in a grade tier receives the mean attention
    weight of the position block that tier occupies.  Unjudged candidates
    count as grade zero.
    """
    cands = sorted(set(candidates))
    if not cands:
        raise FairRankError("candidate set is empty")
    grades = np.array([relevance.grade(request, d) for d in cands])
    order = np.argsort(-grades, kind="stable")
    sorted_grades = grades[order]
    positions = np.arange(1, len(cands) + 1)
    stop = _resolve_stop(model, relevance)
    weights = weight_vector(model, positions, sorted_grades, stop=stop)

    # Mean weight of each tier's position block, mapped back to each document.
    tier_weight: dict[float, float] = {}
    start = 0
    while start < len(cands):
        end = start
        while end < len(cands) and sorted_grades[end] == sorted_grades[start]:
            end += 1
        tier_weight[float(sorted_grades[start])] = float(np.mean(weights[start:end]))
        start = end
    doc_weights = np.array([tier_weight[float(g)] for g in grades])

    kept, rows = alignment.gather(cands)
    if kept.size == 0:
        raise Degenerate("no labeled candidates")
    eps = doc_weights[kept] @ alignment.dense()[rows]
    if eps.size != groups.g:
        raise FairRankError("alignment width does not match the group space")
    return eps
