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
from typing import Mapping

import numpy as np

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
from .exposure import WeightModel, position_weights, target_exposure
from .metrics_multi import binomial_split

UTILITY_POOLS = ("judged", "retrieved", "union")


@dataclass(frozen=True)
class GroupUtility:
    """Per-group utility summaries: mean relevance and discounted utility."""

    upsilon: np.ndarray
    gamma_disc: np.ndarray


@dataclass(frozen=True)
class ExpectedExposureResult:
    eel: float
    eer: float
    eed_raw: float
    n_requests: int
    n_skipped: int


def _candidate_pool(
    seq: RankingSequence,
    relevance: RelevanceTable,
    request: str,
    pool: str,
) -> list[str]:
    if pool not in UTILITY_POOLS:
        raise FairRankError(f"unknown candidate pool {pool!r}")
    judged = set(relevance.judged(request))
    if pool == "judged":
        return sorted(judged)
    retrieved: set[str] = set()
    for r in seq.draws_for(request):
        retrieved.update(r.docs)
    if pool == "retrieved":
        return sorted(retrieved)
    return sorted(judged | retrieved)


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
    rho = seq.rho()
    sums = np.zeros(groups.g)
    mass = np.zeros(groups.g)
    for q in seq.requests():
        cands = _candidate_pool(seq, relevance, q, pool)
        if not cands:
            continue
        kept, rows = alignment.gather(cands)
        if kept.size == 0:
            continue
        w = rho.get(q, 0.0)
        judged = relevance.judged(q)
        grades = np.array([judged.get(cands[i], 0.0) for i in kept])
        members = alignment.dense()[rows] > 0.5
        counts = members.sum(axis=0)
        with np.errstate(invalid="ignore"):
            means = (grades @ members) / counts
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
    rho = seq.rho()
    total = np.zeros(groups.g)
    for q in seq.requests():
        judged = relevance.judged(q)

        def mass(r):  # a draw with no labeled document adds an exact zero vector
            weights = position_weights(model, r, relevance)
            kept, rows = alignment.gather(r.docs)
            grades = np.array([judged.get(r.docs[i], 0.0) for i in kept])
            return (weights[kept] * grades) @ alignment.dense()[rows]

        draws = seq.map_draws(q, mass)
        total += rho.get(q, 0.0) * (sum(draws, np.zeros(groups.g)) / len(draws))
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
    rho = seq.rho()
    zero = np.zeros(groups.g)
    eps_acc = np.zeros(groups.g)
    tgt_acc = np.zeros(groups.g)
    weight_total = 0.0
    n_requests = 0
    n_skipped = 0
    for q in seq.requests():
        n_requests += 1
        cands = _candidate_pool(seq, relevance, q, pool)
        if not cands or max(relevance.grade(q, d) for d in cands) <= 0:
            n_skipped += 1
            continue
        try:
            tgt = target_exposure(q, cands, relevance, alignment, model, groups)
        except Degenerate:
            n_skipped += 1
            continue
        w = rho.get(q, 0.0)
        eps_acc += w * exposures.get(q, zero)
        tgt_acc += w * tgt
        weight_total += w
    if weight_total <= 0:
        raise AllDegenerate("no request has a scorable ideal policy")
    eel, eer, eed_raw = ee_decompose(eps_acc / weight_total, tgt_acc / weight_total)
    return ExpectedExposureResult(eel, eer, eed_raw, n_requests, n_skipped)
