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

from .compiled import CompiledSystem, Labels
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
    ideal_exposure,
    position_weights,
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
    """``group_utility`` of a compiled system, on one alignment variant."""
    sums = np.zeros(groups.g)
    mass = np.zeros(groups.g)
    for q in view.arrival:
        cands, grades = view.pool(q, pool)
        rows = labels.row_of[cands]
        kept = rows >= 0
        if not kept.any():
            continue
        w = view.rho.get(q, 0.0)
        members = labels.dense[rows[kept]] > 0.5
        counts = members.sum(axis=0)
        with np.errstate(invalid="ignore"):
            means = (grades[kept] @ members) / counts
        has = counts > 0
        sums[has] += w * means[has]
        mass[has] += w
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
    masses = []  # per distinct ranking; no labeled document gives an exact zero vector
    for r, rows in enumerate(labels.rows):
        kept = np.flatnonzero(rows >= 0)
        w = weights if weights.ndim == 1 else weights[r]
        masses.append((w[kept] * view.grades[r, kept]) @ labels.dense[rows[kept]])
    total = np.zeros(groups.g)
    for q in view.arrival:
        draws = [masses[r] for r in view.draws[view.request_index[q]]]
        total += view.rho.get(q, 0.0) * (sum(draws, np.zeros(groups.g)) / len(draws))
    return total


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
    return exposure_loss_of(view, view.labels(alignment), groups, model,
                            resolve_stop(model, relevance), exposures, pool)


def exposure_loss_of(view: CompiledSystem, labels: Labels, groups: GroupSpace, model: WeightModel,
                     stop: Callable[[float], float] | None, exposures: Mapping[str, np.ndarray],
                     pool: str) -> ExpectedExposureResult:
    """``expected_exposure`` of a compiled system, on one alignment variant."""
    zero = np.zeros(groups.g)
    eps_acc = np.zeros(groups.g)
    tgt_acc = np.zeros(groups.g)
    weight_total = 0.0
    n_requests = 0
    n_skipped = 0
    for q in view.arrival:
        n_requests += 1
        cands, grades = view.pool(q, pool)
        if not cands.size or grades.max() <= 0:
            n_skipped += 1
            continue
        try:
            tgt = ideal_exposure(grades, labels.row_of[cands], labels.dense, model, stop)
        except Degenerate:
            n_skipped += 1
            continue
        w = view.rho.get(q, 0.0)
        eps_acc += w * exposures.get(q, zero)
        tgt_acc += w * tgt
        weight_total += w
    if weight_total <= 0:
        raise AllDegenerate("no request has a scorable ideal policy")
    eel, eer, eed_raw = ee_decompose(eps_acc / weight_total, tgt_acc / weight_total)
    return ExpectedExposureResult(eel, eer, eed_raw, n_requests, n_skipped)
