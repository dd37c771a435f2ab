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

from typing import Callable

import numpy as np

from .compiled import (CompiledSystem, Labels, as_grid, by_key, compile_sequence,
                       left_justified)
from .core import (
    AlignmentMatrix,
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
    _check_width,
    compiled_weights,
    exposures_of,
    ideal_exposures,
    position_weights,
    request_exposures,
    request_means,
    resolve_stop,
    target_exposure,
)
from .metrics_multi import binomial_split
from .record import Record
from .registry import FAMILIES


class ExpectedExposureResult(Record):
    def __init__(self, eel: float, eer: float, eed_raw: float, n_requests: int,
                 n_skipped: int):
        self._set(eel, eer, eed_raw, n_requests, n_skipped)


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
    with the request weights (EUR's rule) renormalized over the rest.
    """
    _check_width(alignment, groups)
    view = compile_sequence(seq, relevance)
    return mean_utility(*view.reduce(FAMILIES["eur"].request_weighting,
                                     *utility_of(view, view.labels(alignment), pool)), groups)


def utility_of(view: CompiledSystem, labels: Labels, pool: str) -> tuple[np.ndarray, np.ndarray]:
    """Each request's (sorted) mean relevance per group, on one alignment variant, and
    whether the group has pooled members there: the grades of its pooled members over their
    number, both one ``exposures_of`` pass over the pool (NaN where there are none)."""
    docs, grades, at = view.pools(pool)
    rows, member = as_grid(labels.row_of[docs], at, -1), (labels.dense > 0.5).astype(float)
    graded, _ = exposures_of(as_grid(grades, at, 0.0), rows, member)
    members, _ = exposures_of(np.ones(rows.shape[1]), rows, member)
    with np.errstate(invalid="ignore"):
        return graded / members, members > 0


def mean_utility(sums: np.ndarray, mass: np.ndarray, groups: GroupSpace) -> np.ndarray:
    """Each group's mean relevance from ``utility_of``'s reduced sums and weight mass."""
    empty = np.flatnonzero(mass <= 0)
    if empty.size:
        raise EmptyGroup(f"group {groups.names[empty[0]]!r} has no members in any candidate pool")
    return sums / mass


def discounted_group_utility(
    seq: RankingSequence,
    relevance: RelevanceTable,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    model: WeightModel,
) -> np.ndarray:
    """Expected position-weight x relevance mass per group under the policy."""
    _check_width(alignment, groups)
    view = compile_sequence(seq, relevance)
    sums, _ = view.reduce(FAMILIES["rur"].request_weighting, *discounted_utility_of(
        view, view.labels(alignment), compiled_weights(view, model, relevance)))
    return sums


def discounted_utility_of(view: CompiledSystem, labels: Labels,
                          weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each request's (sorted) position-weight x relevance mass per group, given the
    position weights, averaged over its draws; every request counts."""
    masses, _ = exposures_of(weights * view.grades, labels.rows, labels.dense)
    return request_means(masses, view)[0], np.ones(len(view.requests), dtype=bool)


def eur(system_eps: np.ndarray, upsilon: np.ndarray, groups: GroupSpace) -> float:
    """Exposed utility ratio: (eps+/ups+) / (eps-/ups-); 1 is fair."""
    return _utility_ratio(system_eps, upsilon, groups, "unprotected group received zero exposure")


def rur(gamma_disc: np.ndarray, upsilon: np.ndarray, groups: GroupSpace) -> float:
    """Realized utility ratio: (gamma+/ups+) / (gamma-/ups-); 1 is fair."""
    return _utility_ratio(gamma_disc, upsilon, groups,
                          "unprotected group realized zero discounted utility")


def _utility_ratio(mass: np.ndarray, upsilon: np.ndarray, groups: GroupSpace, reason: str) -> float:
    """(mass+/ups+) / (mass-/ups-); ``reason`` explains a zero mass-."""
    m_plus, m_minus = binomial_split(mass, groups)
    u_plus, u_minus = binomial_split(upsilon, groups)
    if u_plus <= 0 or u_minus <= 0:
        raise DegenerateUtility("a group's mean relevance is zero; ratio undefined")
    if m_minus <= 0:
        raise DegenerateDenominator(reason)
    return (m_plus / u_plus) / (m_minus / u_minus)


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
    pool: str = "union",
) -> ExpectedExposureResult:
    """System-level expected exposure loss against the ideal policy.

    Each request's raw exposure is the one ``request_exposure`` gives on the
    same alignment and weight model, and zero when no draw has a labeled
    document.  The target comes from the relevance-sorted ideal policy over
    the candidate pool (judged plus retrieved documents by default).
    Requests with no relevant document, or with no labeled candidate, are
    skipped and counted.  Both vectors are means over the surviving requests,
    weighted by EEL's rule; the loss and its decomposition are computed on
    those means.
    """
    _check_width(alignment, groups)
    view = compile_sequence(seq, relevance)
    labels = view.labels(alignment)
    exposures = request_exposures(*exposures_of(compiled_weights(view, model, relevance),
                                                labels.rows, labels.dense), view)
    return exposure_loss(view, FAMILIES["eel"].request_weighting, *exposure_loss_of(
        view, labels, model, resolve_stop(model, relevance), exposures.eps, pool))


def exposure_loss_of(view: CompiledSystem, labels: Labels, model: WeightModel,
                     stop: Callable[[float], float] | None, exposures: np.ndarray,
                     pool: str) -> tuple[np.ndarray, np.ndarray]:
    """``expected_exposure``'s columns on one alignment variant: each request's (sorted) raw
    exposure ``exposures`` and its ideal policy's, stacked (Q, 2, g), and whether it counts:
    its pool has a relevant document and a labeled one."""
    docs, grades, at = view.pools(pool)
    targets, count = ideal_exposures(grades, labels.row_of[docs], at, labels.dense, model, stop)
    relevant = np.bincount(np.repeat(np.arange(len(at) - 1), np.diff(at))[grades > 0],
                           minlength=len(at) - 1) > 0
    return np.stack((exposures, targets), axis=1), relevant & (count > 0)


def exposure_loss(view: CompiledSystem, rule: str, columns: np.ndarray,
                  kept: np.ndarray) -> ExpectedExposureResult:
    """``expected_exposure`` from ``exposure_loss_of``'s columns, weighted by ``rule``."""
    means, *counts = view.mean(rule, columns, kept, "no request has a scorable ideal policy")
    return ExpectedExposureResult(*ee_decompose(*means), *counts)


def predicted_utility_of(view: CompiledSystem, labels: Labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-group predicted-utility mass of each request's scored labeled documents.

    System scores have arbitrary affine scale, so they are shifted by the
    per-request minimum and sum-normalized; a constant score list carries no
    ordering information and falls back to uniform.  Returns one (g,) row
    per request (sorted) and whether it has one: a request without scores,
    or without a labeled scored document, has none.  The scored requests are
    grouped by their number of labeled scored documents.
    """
    at = view.scored_at
    rows, scores, count = left_justified(as_grid(labels.row_of[view.scored_ids], at, -1),
                                         as_grid(view.scored_values, at, 0.0))
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
