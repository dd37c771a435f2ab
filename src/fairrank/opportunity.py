"""Utility-aware (equal-opportunity) metrics over ranking sequences.

These relate exposure to relevance: a group contributing a share of the
relevance should receive a comparable share of the exposure.

* exposed utility ratio (EUR): exposure per unit of mean relevance,
  protected over unprotected; 1 is fair.
* realized utility ratio (RUR): discounted (position-weighted) utility per
  unit of mean relevance, protected over unprotected; 1 is fair.
* inequity of amortized attention (IAA): L1 distance between the exposure
  distribution and the system-predicted utility distribution; 0 is fair.
* expected exposure loss (EEL): squared L2 distance between system expected
  exposure and the ideal (relevance-sorted) policy's exposure, decomposing
  into EEL = EED_raw - EER + ||target||^2 with EER = 2 * eps . target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .compiled import CompiledSystem, Labels, by_key, labeled_grid, running_total
from .core import (
    AlignmentMatrix,
    AllDegenerate,
    Degenerate,
    DegenerateDenominator,
    DegenerateUtility,
    EmptyGroup,
    FairRankError,
    GroupSpace,
    RankingSequence,
    RelevanceTable,
)
# position_weights and target_exposure stay importable here: perfbench/tracer.py
# patches them under this module's name.
from .exposure import (
    WeightModel,
    compiled_weights,
    exposures_of,
    ideal_exposures,
    position_weights,
    request_means,
    resolve_stop,
    target_exposure,
)
from .metrics_multi import binomial_split


@dataclass(frozen=True)
class ExpectedExposureResult:
    eel: float
    eer: float
    eed_raw: float
    n_requests: int
    n_skipped: int


def group_utility(
    seq: RankingSequence,
    relevance: RelevanceTable,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    pool: str = "judged",
) -> np.ndarray:
    """Mean relevance contributed by each group's members, averaged over requests.

    Expects hard (one-hot) alignment rows — binarize soft alignment first.
    Per request, the pool is the judged candidate set by default; unjudged
    documents (possible under the retrieved/union pools) count as grade zero.
    Requests where a group has no pooled members are skipped for that group,
    with the arrival weights renormalized over the rest.
    """
    view = CompiledSystem(seq, relevance)
    return utility_of(view, view.labels(alignment), groups, pool)


def utility_of(view: CompiledSystem, labels: Labels, groups: GroupSpace, pool: str) -> np.ndarray:
    """``group_utility`` of a compiled system, on one alignment variant.

    The requests are grouped by their number of labeled candidates, and the
    arrival-weighted sums run over the requests in arrival order.
    """
    docs, grades, at = view.pools(pool)
    rows, grades, count = labeled_grid(labels.row_of[docs], at, grades)
    means = np.zeros((len(rows), groups.g))
    members = np.zeros((len(rows), groups.g), dtype=np.intp)
    for n, idx in by_key(count):
        if n:
            member = labels.dense[rows[idx, :n]] > 0.5
            members[idx] = member.sum(axis=1)
            graded = np.matmul(grades[idx, None, :n], member.astype(float))[:, 0]
            with np.errstate(invalid="ignore"):
                means[idx] = graded / members[idx]
    has = members[view.arrival_at] > 0
    w = view.weight[view.arrival_at, None]
    sums = running_total(np.where(has, w * means[view.arrival_at], 0.0))
    mass = running_total(np.where(has, w, 0.0))
    out = np.empty(groups.g)
    for g in range(groups.g):
        if mass[g] <= 0:
            raise EmptyGroup(f"group {groups.names[g]!r} has no members in any candidate pool")
        out[g] = sums[g] / mass[g]
    return out


def discounted_group_utility(
    seq: RankingSequence,
    relevance: RelevanceTable,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    model: WeightModel,
) -> np.ndarray:
    """Expected position-weight x relevance mass per group under the policy."""
    view = CompiledSystem(seq, relevance)
    return discounted_utility_of(view, view.labels(alignment), groups,
                                 compiled_weights(view, model, relevance))


def discounted_utility_of(view: CompiledSystem, labels: Labels, groups: GroupSpace,
                          weights: np.ndarray) -> np.ndarray:
    """``discounted_group_utility`` of a compiled system, given its position weights."""
    masses, _ = exposures_of(weights * view.grades, labels.rows, labels.dense)
    per_request = request_means(masses, view)[view.arrival_at]
    return running_total(view.weight[view.arrival_at, None] * per_request)


def eur(system_eps: np.ndarray, upsilon: np.ndarray, groups: GroupSpace) -> float:
    """Exposed utility ratio: (eps+/ups+) / (eps-/ups-); 1 is fair."""
    e_plus, e_minus = binomial_split(system_eps, groups)
    u_plus, u_minus = binomial_split(upsilon, groups)
    if u_plus <= 0 or u_minus <= 0:
        raise DegenerateUtility("a group's mean relevance is zero; ratio undefined")
    if e_minus <= 0:
        raise DegenerateDenominator("unprotected group received zero exposure")
    return (e_plus / u_plus) / (e_minus / u_minus)


def rur(gamma_disc: np.ndarray, upsilon: np.ndarray, groups: GroupSpace) -> float:
    """Realized utility ratio: (gamma+/ups+) / (gamma-/ups-); 1 is fair."""
    g_plus, g_minus = binomial_split(gamma_disc, groups)
    u_plus, u_minus = binomial_split(upsilon, groups)
    if u_plus <= 0 or u_minus <= 0:
        raise DegenerateUtility("a group's mean relevance is zero; ratio undefined")
    if g_minus <= 0:
        raise DegenerateDenominator("unprotected group realized zero discounted utility")
    return (g_plus / u_plus) / (g_minus / u_minus)


def iaa(system_eps: np.ndarray, predicted_utility: np.ndarray) -> float:
    """L1 distance between exposure and predicted-utility distributions.

    Both vectors are normalized to sum one first; the result lies in [0, 2]
    and 0 means exposure exactly proportional to predicted utility.  Works
    with multinomial groups and soft association.
    """
    eps = np.asarray(system_eps, dtype=float)
    util = np.asarray(predicted_utility, dtype=float)
    if eps.shape != util.shape:
        raise FairRankError("exposure and utility vectors have different group counts")
    e_total = float(eps.sum())
    u_total = float(util.sum())
    if u_total <= 0:
        raise Degenerate("total predicted utility is zero")
    if e_total <= 0:
        raise Degenerate("no exposure mass")
    return float(np.abs(eps / e_total - util / u_total).sum())


def ee_decompose(system_eps: np.ndarray, target_eps: np.ndarray) -> tuple[float, float, float]:
    """(EEL, EER, EED_raw) for a system/target exposure pair (raw vectors)."""
    eps = np.asarray(system_eps, dtype=float)
    tgt = np.asarray(target_eps, dtype=float)
    if eps.shape != tgt.shape:
        raise FairRankError("exposure and target vectors have different group counts")
    diff = eps - tgt
    eel = float(diff @ diff)
    eer = 2.0 * float(eps @ tgt)
    eed_raw = float(eps @ eps)
    return eel, eer, eed_raw


def expected_exposure(
    seq: RankingSequence,
    relevance: RelevanceTable,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    model: WeightModel,
    exposures: Mapping[str, np.ndarray],
    pool: str = "union",
) -> ExpectedExposureResult:
    """System-level expected exposure loss against the ideal policy.

    ``exposures`` maps each request to its raw exposure vector, as
    ``request_exposure`` gives it on the same alignment and weight model; a
    request absent from it (no draw has a labeled document) has zero
    exposure.  The target comes from the relevance-sorted ideal policy over
    the candidate pool (judged plus retrieved documents by default).
    Requests with no relevant document, or with no labeled candidate, are
    skipped and counted.  Both vectors are arrival-weighted means over the
    surviving requests; the loss and its decomposition are computed on those
    means.
    """
    view = CompiledSystem(seq, relevance)
    zero = np.zeros(groups.g)
    per_request = np.array([exposures.get(q, zero) for q in view.requests]).reshape(-1, groups.g)
    return exposure_loss_of(view, view.labels(alignment), groups, model,
                            resolve_stop(model, relevance), per_request, pool)


def exposure_loss_of(view: CompiledSystem, labels: Labels, groups: GroupSpace, model: WeightModel,
                     stop: Callable[[float], float] | None, exposures: np.ndarray,
                     pool: str) -> ExpectedExposureResult:
    """``expected_exposure`` of a compiled system, on one alignment variant.

    ``exposures`` holds each request's raw exposure (sorted requests, zero
    for a degenerate one); the sums run over the requests in arrival order.
    """
    docs, grades, at = view.pools(pool)
    targets, count = ideal_exposures(grades, labels.row_of[docs], at, labels.dense, model, stop)
    # a request counts when its pool has a relevant document and a labeled one
    relevant = np.bincount(np.repeat(np.arange(len(at) - 1), np.diff(at))[grades > 0],
                           minlength=len(at) - 1) > 0
    kept = (relevant & (count > 0))[view.arrival_at]
    w = np.where(kept, view.weight[view.arrival_at], 0.0)
    weight_total = float(running_total(w))
    if weight_total <= 0:
        raise AllDegenerate("no request has a scorable ideal policy")
    eel, eer, eed_raw = ee_decompose(
        running_total(w[:, None] * exposures[view.arrival_at]) / weight_total,
        running_total(w[:, None] * targets[view.arrival_at]) / weight_total)
    return ExpectedExposureResult(eel, eer, eed_raw, kept.size, int(np.count_nonzero(~kept)))


def predicted_utility_of(view: CompiledSystem, labels: Labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-group predicted-utility mass of each request's scored labeled documents.

    System scores have arbitrary affine scale, so they are shifted by the
    per-request minimum and sum-normalized; a constant score list carries no
    ordering information and falls back to uniform.  Returns one (g,) row
    per request (sorted) and whether it has one: a request without scores,
    or without a labeled scored document, has none.  The scored requests are
    grouped by their number of labeled scored documents.
    """
    rows, scores, count = labeled_grid(labels.row_of[view.scored_ids], view.scored_at,
                                       view.scored_values)
    util = np.zeros((len(rows) + 1, labels.dense.shape[1]))  # the last row: no scores
    for n, idx in by_key(count):
        if n:
            raw = scores[idx, :n]
            shifted = raw - raw.min(axis=1, keepdims=True)
            total = shifted.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                mass = np.where(total > 0, shifted / total, 1.0 / n)
            util[idx] = np.matmul(labels.dense[rows[idx, :n]].transpose(0, 2, 1),
                                  mass[:, :, None])[:, :, 0]
    has = np.append(count > 0, False)[view.scored_of]
    return util[view.scored_of], has
