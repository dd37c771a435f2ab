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

from .compiled import CompiledSystem, Labels, sorted_distinct
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
    using ``grades`` (zeros when not supplied); a 2-D ``grades`` holds one
    list per row and gives one weight row each.
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
    grades = np.zeros(pos.size) if grades is None else np.asarray(grades, dtype=float)
    # the stop probability is a function of the grade: call it once per distinct grade
    distinct = sorted_distinct(grades)
    phi = np.clip([stop_fn(float(y)) for y in distinct], 0.0, 1.0)
    phi = phi[np.searchsorted(distinct, grades)]
    cont = np.ones(phi.shape)
    cont[..., 1:] = np.cumprod(1.0 - phi[..., :-1], axis=-1)
    return model.gamma ** (pos - 1.0) * cont


def default_stop(relevance: RelevanceTable) -> Callable[[float], float]:
    """Cascade stopping probability: relevance scaled by the corpus maximum grade."""
    y_max = relevance.max_grade()
    if y_max <= 0:
        return lambda y: 0.0
    return lambda y: min(1.0, max(0.0, y / y_max))


def resolve_stop(model: WeightModel,
                 relevance: RelevanceTable | None) -> Callable[[float], float] | None:
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
    if model.kind == "cascade" and relevance is not None:
        grades = [relevance.grade(ranking.request, d) for d in ranking.docs]
    return weight_vector(model, np.arange(1, len(ranking) + 1), grades,
                         stop=resolve_stop(model, relevance))


def compiled_weights(view: CompiledSystem, model: WeightModel,
                     relevance: RelevanceTable | None = None) -> np.ndarray:
    """Weights of every ranking position of a compiled system.

    One (D,) vector serves every ranking, except under the cascade, whose
    weights follow each ranking's grades: one (R, D) row per ranking.
    """
    return weight_vector(model, np.arange(1, view.ids.shape[1] + 1), view.grades,
                         stop=resolve_stop(model, relevance))


def exposure_of(weights: np.ndarray, rows: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Group exposure of one ranking: weights of its labeled positions times their rows.

    ``rows`` holds each position's dense-row index (-1: unlabeled or padding)
    and ``weights`` at least as many entries.
    """
    kept = np.flatnonzero(rows >= 0)
    if kept.size == 0:
        raise Degenerate("no labeled documents in ranking")
    return weights[kept] @ dense[rows[kept]]


def ranking_exposures(weights: np.ndarray, labels: Labels) -> list:
    """Group exposure of every distinct ranking, or the ``Degenerate`` it raised."""
    out = []
    for r, rows in enumerate(labels.rows):
        try:
            out.append(exposure_of(weights if weights.ndim == 1 else weights[r],
                                   rows, labels.dense))
        except Degenerate as exc:
            out.append(exc)
    return out


def mean_over_draws(per_ranking: list, draws: Sequence[int]) -> np.ndarray:
    """Mean exposure over a request's draws, given each draw's ranking index.

    A draw with no labeled document contributes zero exposure; the request
    is degenerate only when none of its draws has a labeled document.
    """
    per_draw = [per_ranking[r] for r in draws if not isinstance(per_ranking[r], Degenerate)]
    if not per_draw:
        raise Degenerate("no labeled documents in any draw")
    return np.sum(per_draw, axis=0) / len(draws)


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
    _check_width(alignment, groups)
    eps = exposure_of(weights, alignment.indices(ranking.docs), alignment.dense())
    return normalized(eps) if normalize else eps


def normalized(eps: np.ndarray) -> np.ndarray:
    """Exposure rescaled to sum to one."""
    total = float(eps.sum())
    if total <= 0:
        raise Degenerate("labeled documents received zero exposure mass")
    return eps / total


def _check_width(alignment: AlignmentMatrix, groups: GroupSpace) -> None:
    if alignment.n_groups != groups.g:
        raise FairRankError("alignment width does not match the group space")


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
    if not seq.distinct(request)[1]:
        raise UnknownRequest(f"no draws for request {request!r}")
    _check_width(alignment, groups)
    view = CompiledSystem(seq, relevance)
    weights = compiled_weights(view, model, relevance)
    per_ranking = ranking_exposures(weights, view.labels(alignment))
    return mean_over_draws(per_ranking, view.draws[view.request_index[request]])


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
    _check_width(alignment, groups)
    grades = np.array([relevance.grade(request, d) for d in cands])
    return ideal_exposure(grades, alignment.indices(cands), alignment.dense(), model,
                          resolve_stop(model, relevance))


def ideal_exposure(grades: np.ndarray, rows: np.ndarray, dense: np.ndarray, model: WeightModel,
                   stop: Callable[[float], float] | None) -> np.ndarray:
    """``target_exposure`` of candidates in id order, by grade and dense row (-1: unlabeled)."""
    if not np.any(rows >= 0):
        raise Degenerate("no labeled candidates")
    order = np.argsort(-grades, kind="stable")
    sorted_grades = grades[order]
    weights = weight_vector(model, np.arange(1, len(grades) + 1), sorted_grades, stop=stop)
    # Mean weight of each tier's position block, mapped back to each document.
    # Each tier is summed on its own: np.add.reduceat adds long tiers in
    # another order than a lone sum, and so can move the last bit.
    new_tier = np.concatenate(([True], sorted_grades[1:] != sorted_grades[:-1]))
    bounds = [*np.flatnonzero(new_tier).tolist(), len(grades)]
    tier_weight = np.array([weights[a:b].sum() / (b - a) for a, b in zip(bounds, bounds[1:])])
    doc_weights = np.empty(len(grades))
    doc_weights[order] = tier_weight[np.cumsum(new_tier) - 1]
    return exposure_of(doc_weights, rows, dense)
