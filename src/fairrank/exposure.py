"""Position-weight (browsing) models and group exposure aggregation.

Weight models, for a document at 1-based rank i:

    geometric     gamma * (1 - gamma)^(i - 1)
    logarithmic   1 / log2(max(i, 2))
    rbp           gamma^(i - 1)
    cascade       gamma^(i - 1) * prod_{j < i} (1 - stop(y_j))

Group exposure is the alignment-weighted sum of position weights,
eps = A^T a; everything downstream (parity, opportunity, expected-exposure
metrics) is built from it.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .compiled import (CompiledSystem, as_grid, by_key, compile_sequence, left_justified,
                       sorted_distinct)
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
from .record import Record

WEIGHT_KINDS = ("geometric", "logarithmic", "rbp", "cascade")


class WeightModel(Record):
    """A browsing model mapping rank positions to attention weights.

    ``gamma`` is the stopping probability (geometric) or patience
    (rbp/cascade); the logarithmic model ignores it.  ``stop`` is the
    cascade's per-grade stopping probability; when None, a linear default
    ``min(1, y / y_max)`` is derived from the relevance table in use.
    """

    def __init__(self, kind: str, gamma: float = 0.5,
                 stop: Callable[[float], float] | None = None):
        if kind not in WEIGHT_KINDS:
            raise FairRankError(f"unknown weight model {kind!r}")
        if not 0 < gamma <= 1:
            raise FairRankError(f"gamma must lie in (0, 1], got {gamma}")
        self._set(kind, gamma, stop)


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
        return model.gamma ** (pos - 1.0)
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
        grades = list(map(relevance.judged(ranking.request).get, ranking.docs, repeat(0.0)))
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


def exposures_of(weights: np.ndarray, rows: np.ndarray,
                 dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group exposure of every list: the weights of its labeled positions times their rows.

    ``rows`` (R, D) holds each position's dense-row index (-1: unlabeled or
    padding); ``weights`` is one (D,) vector for every list or one (R, D)
    row per list.  Returns the (R, g) exposures, an exact zero row for a list
    without labeled positions, and each list's labeled count.  The lists are
    grouped by labeled count, and each group is one stacked product.
    """
    rows, weights, count = left_justified(rows, weights)
    eps = np.zeros((len(rows), dense.shape[1]))
    for n, idx in by_key(count):
        if n:
            eps[idx] = np.matmul(weights[idx, None, :n], dense[rows[idx, :n]])[:, 0]
    return eps, count


def request_means(per_ranking: np.ndarray, view: CompiledSystem,
                  kept: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each request's mean of ``per_ranking`` (an entry per distinct ranking) over its draws,
    or those of the rankings ``kept``, and that draw count (0, mean 0: none).  The requests
    of one count are summed along their draw axis: a scalar per draw adds as ``np.mean``
    over the request's draws alone (pairwise), a row per draw one draw after another."""
    kept_draw = np.ones(view.draw_of.size, bool) if kept is None else kept[view.draw_of]
    # each request's kept draws first, in draw order
    draws = view.draw_of[np.lexsort((~kept_draw, view.draw_request))]
    counts = np.bincount(view.draw_request[kept_draw], minlength=len(view.requests))
    out = np.zeros((counts.size, *per_ranking.shape[1:]))
    for k, idx in by_key(counts):
        if k:
            out[idx] = per_ranking[draws[view.draw_at[idx, None] + np.arange(k)]].sum(axis=1) / k
    return out, counts


class RequestExposure(NamedTuple):
    """Mean group exposure of each request (sorted) over its draws.

    A draw with no labeled document contributes zero exposure; a request is
    ``labeled`` when some draw has a labeled document, and degenerate otherwise.
    """

    eps: np.ndarray      # (Q, g)
    labeled: np.ndarray  # (Q,) bool


def request_exposures(per_ranking: np.ndarray, count: np.ndarray,
                      view: CompiledSystem) -> RequestExposure:
    """``RequestExposure`` from each distinct ranking's exposure and labeled count."""
    labeled = np.bincount(view.draw_request[count[view.draw_of] > 0],
                          minlength=len(view.requests)) > 0
    return RequestExposure(request_means(per_ranking, view)[0], labeled)


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
    view = compile_sequence(seq, relevance)
    labels = view.labels(alignment)
    exposures = request_exposures(*exposures_of(compiled_weights(view, model, relevance),
                                                labels.rows, labels.dense), view)
    i = view.request_index[request]
    if not exposures.labeled[i]:
        raise Degenerate("no labeled documents in any draw")
    return exposures.eps[i]


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
    grades = np.array(list(map(relevance.judged(request).get, cands, repeat(0.0))))
    tgt, count = ideal_exposures(grades, alignment.indices(cands), np.array([0, len(cands)]),
                                 alignment.dense(), model, resolve_stop(model, relevance))
    if not count[0]:
        raise Degenerate("no labeled candidates")
    return tgt[0]


def ideal_exposures(grades: np.ndarray, rows: np.ndarray, at: np.ndarray, dense: np.ndarray,
                    model: WeightModel,
                    stop: Callable[[float], float] | None) -> tuple[np.ndarray, np.ndarray]:
    """``target_exposure`` of many candidate sets at once, and each set's labeled count.

    Set i holds the candidates ``at[i]:at[i + 1]`` of ``grades`` and ``rows``
    (dense row, -1: unlabeled), in id order; a set without labeled
    candidates has an exact zero row.  Each set is sorted by non-increasing
    grade, ties in id order, and every tier's mean weight is one sum of its
    position block: the tiers are grouped by length and each group summed
    row by row, which adds a block as a lone sum of it does (np.add.reduceat
    adds long tiers in another order, and so can move the last bit).
    """
    sizes = np.diff(at)
    set_of = np.repeat(np.arange(sizes.size), sizes)
    col = np.arange(grades.size) - at[set_of]  # position within the set
    order = np.lexsort((-grades, set_of))
    sorted_grades = grades[order]
    pos = np.arange(1, sizes.max(initial=0) + 1)
    # one weight row per set under the cascade, else one row shared by every set
    grid = as_grid(sorted_grades, at, 0.0) if model.kind == "cascade" else None
    weights = np.broadcast_to(weight_vector(model, pos, grid, stop=stop), (sizes.size, pos.size))
    new_tier = (col == 0) | np.concatenate(([True], sorted_grades[1:] != sorted_grades[:-1]))
    starts = np.flatnonzero(new_tier)
    lengths = np.diff(np.append(starts, grades.size))
    tier_sum = np.empty(starts.size)
    for length, idx in by_key(lengths):
        block = weights[set_of[starts[idx], None], col[starts[idx], None] + np.arange(length)]
        tier_sum[idx] = block.sum(axis=1)
    doc_weights = np.empty(grades.size)
    doc_weights[order] = (tier_sum / lengths)[np.cumsum(new_tier) - 1]
    return exposures_of(as_grid(doc_weights, at, 0.0), as_grid(rows, at, -1), dense)
