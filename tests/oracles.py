"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive (plain loops, math.comb, exhaustive
permutation enumeration, scipy's own tau implementation) and never calls the
code paths it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy.stats import kendalltau

from fairrank import Degenerate, Direction, FairRankError, NoPairs
from fairrank.report import aggregate


def oracle_weights(kind, gamma, positions, grades=None, stop=None):
    """Attention weights straight from the per-model formulas."""
    out = []
    cont = 1.0
    for idx, pos in enumerate(positions):
        if kind == "geometric":
            w = gamma * (1.0 - gamma) ** (pos - 1)
        elif kind == "logarithmic":
            w = 1.0 / math.log2(max(pos, 2))
        elif kind == "rbp":
            w = gamma ** (pos - 1)
        elif kind == "cascade":
            w = gamma ** (pos - 1) * cont
        else:
            raise ValueError(kind)
        out.append(w)
        if kind == "cascade":
            y = grades[idx] if grades is not None else 0.0
            phi = stop(y) if stop is not None else 0.0
            cont *= 1.0 - min(1.0, max(0.0, phi))
    return out


def oracle_group_exposure(docs, rows, weights, n_groups):
    """Direct per-document accumulation; unlabeled docs contribute nothing."""
    eps = [0.0] * n_groups
    for doc, w in zip(docs, weights):
        row = rows.get(doc)
        if row is None:
            continue
        for g in range(n_groups):
            eps[g] += row[g] * w
    return np.array(eps)


def oracle_target_exposure(docs, grades, rows, n_groups, kind, gamma, stop=None):
    """Mean exposure over every permutation sorted by non-increasing grade."""
    n = len(docs)
    total = np.zeros(n_groups)
    count = 0
    for perm in permutations(range(n)):
        gs = [grades[i] for i in perm]
        if any(gs[j] < gs[j + 1] for j in range(n - 1)):
            continue
        ws = oracle_weights(kind, gamma, list(range(1, n + 1)), gs, stop)
        total += oracle_group_exposure([docs[i] for i in perm], rows, ws, n_groups)
        count += 1
    assert count > 0
    return total / count


def _prefix_lengths(n, step):
    ks = list(range(step, n + 1, step))
    if not ks or ks[-1] != n:
        ks.append(n)
    return ks


def oracle_prefd_raw(mask, p_hat, step, dist="nd"):
    """Direct evaluation of the prefix-fairness sum (magnitude deltas)."""
    raw = 0.0
    for k in _prefix_lengths(len(mask), step):
        share = sum(mask[:k]) / k
        if dist == "nd":
            d = share - p_hat
        elif dist == "rd":
            if share >= 1 or p_hat >= 1:
                raise ZeroDivisionError
            d = share / (1 - share) - p_hat / (1 - p_hat)
        else:
            raise ValueError(dist)
        raw += abs(d) / math.log2(k)
    return raw


def oracle_prefd_kl_raw(rows, target, step, floor=1e-10):
    """Prefix KL sum: per-prefix mean rows against the floored, renormalized target."""
    g = len(target)
    t = [max(x, floor) for x in target]
    total = sum(t)
    t = [x / total for x in t]
    raw = 0.0
    for k in _prefix_lengths(len(rows), step):
        share = [sum(rows[i][j] for i in range(k)) / k for j in range(g)]
        raw += max(oracle_kl_bits(share, t), 0.0) / math.log2(k)
    return raw


def oracle_prefd_sorted_normalizer(rows, raw_fn):
    """Max of ``raw_fn`` over the lists sorted by each column, ascending and reversed.

    Arrangements ``raw_fn`` rejects with ZeroDivisionError are skipped; None
    when every arrangement is.
    """
    best = None
    for j in range(len(rows[0])):
        ascending = sorted(rows, key=lambda row: row[j])
        for arrangement in (ascending, ascending[::-1]):
            try:
                raw = raw_fn(arrangement)
            except ZeroDivisionError:
                continue
            best = raw if best is None else max(best, raw)
    return best


def oracle_prefd_normalizer_exhaustive(n, n_protected, p_hat, step, dist="nd"):
    """Exact max raw score over every arrangement of the composition."""
    best = 0.0
    for prot_positions in combinations(range(n), n_protected):
        mask = [i in prot_positions for i in range(n)]
        try:
            raw = oracle_prefd_raw(mask, p_hat, step, dist)
        except ZeroDivisionError:
            continue
        best = max(best, raw)
    return best


def oracle_fair(mask, p_hat, include_zero=True):
    """Mean prefix binomial probability from math.comb sums."""
    n = len(mask)
    total = 0.0
    c = 0
    for k in range(1, n + 1):
        c += int(mask[k - 1])
        lo = 0 if include_zero else 1
        total += sum(
            math.comb(k, j) * p_hat**j * (1 - p_hat) ** (k - j)
            for j in range(lo, c + 1)
        )
    return total / n


def oracle_pairwise_accuracy(judged, scores, group_of, g_hi, g_lo):
    """Brute-force tie-aware accuracy over every valid (more, less) pair.

    ``judged`` maps doc -> grade (missing = 0), ``scores`` maps doc -> score,
    ``group_of`` maps doc -> group index or None (unlabeled).
    """
    hits = 0.0
    total = 0
    docs = sorted(scores)
    for d1 in docs:
        for d2 in docs:
            if d1 == d2:
                continue
            if judged.get(d1, 0.0) <= judged.get(d2, 0.0):
                continue
            if group_of(d1) != g_hi or group_of(d2) != g_lo:
                continue
            total += 1
            if scores[d1] > scores[d2]:
                hits += 1.0
            elif scores[d1] == scores[d2]:
                hits += 0.5
    if total == 0:
        return None
    return hits / total


@dataclass(frozen=True)
class ScoredPair:
    """A document pair where ``doc_hi`` is strictly more relevant than ``doc_lo``."""

    request: str
    doc_hi: str
    doc_lo: str
    score_hi: float
    score_lo: float
    group_hi: int
    group_lo: int


def oracle_sample_pairs(relevance, scores, alignment, groups, n_negatives=10000, seed=42,
                        threshold=0.5):
    """Every sampled pair as a ``ScoredPair``: ``sample_pairs`` as a plain list builder.

    Returns ``(pairs, n_fallback, n_skipped)``.  Same document order, pool
    rule and ``rng.choice`` call sequence as ``sample_pairs``.
    """
    if n_negatives < 1:
        raise FairRankError(f"n_negatives must be >= 1, got {n_negatives}")
    p = groups.require_protected()
    rng = np.random.default_rng(seed)
    pairs: list[ScoredPair] = []
    n_fallback = 0
    n_skipped = 0

    def grp(doc: str) -> int | None:
        row = alignment.row(doc)
        if row is None:
            return None
        return 0 if row[p] >= threshold else 1

    for q in sorted(scores):
        sc = scores[q]
        judged = relevance.judged(q)
        positives = []
        negatives = []
        for d in sorted(sc):
            g = grp(d)
            if g is None:
                continue
            if judged.get(d, 0.0) > 0:
                positives.append((d, g))
            else:
                negatives.append((d, g))
        if not positives:
            n_skipped += 1
            continue
        if len(negatives) < n_negatives:
            n_fallback += 1
        for d_hi, g_hi in positives:
            if len(negatives) <= n_negatives:
                chosen = negatives
            else:
                idx = rng.choice(len(negatives), size=n_negatives, replace=False)
                chosen = [negatives[i] for i in np.sort(idx)]
            for d_lo, g_lo in chosen:
                pairs.append(ScoredPair(q, d_hi, d_lo, sc[d_hi], sc[d_lo], g_hi, g_lo))
        for (d1, g1), (d2, g2) in combinations(positives, 2):
            y1, y2 = judged[d1], judged[d2]
            if y1 == y2:
                continue
            if y1 < y2:
                (d1, g1), (d2, g2) = (d2, g2), (d1, g1)
            pairs.append(ScoredPair(q, d1, d2, sc[d1], sc[d2], g1, g2))
    return tuple(pairs), n_fallback, n_skipped


def oracle_pairwise_accuracy_pairs(pairs, group_hi, group_lo):
    """Fraction of (group_hi, group_lo) ``ScoredPair``s scored in the correct order.

    Ties between the two scores count half.
    """
    hits = 0.0
    total = 0
    for pair in pairs:
        if pair.group_hi != group_hi or pair.group_lo != group_lo:
            continue
        total += 1
        if pair.score_hi > pair.score_lo:
            hits += 1.0
        elif pair.score_hi == pair.score_lo:
            hits += 0.5
    if total == 0:
        raise NoPairs(f"no pairs with groups ({group_hi}, {group_lo})")
    return hits / total


def oracle_tau_c(x, y):
    """scipy's independent Stuart tau-c implementation."""
    tau, _ = kendalltau(x, y, variant="c")
    return float(tau)


def oracle_tau_c_pairs(x, y):
    """Second independent route: explicit pair classification + formula."""
    n = len(x)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (x[i] - x[j]) * (y[i] - y[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
    m = min(len(set(x)), len(set(y)))
    if m < 2:
        return None
    return 2.0 * m * (conc - disc) / (n * n * (m - 1))


def oracle_kl_bits(observed, target):
    """Plain-loop KL divergence in bits (no smoothing; caller avoids zeros)."""
    total = 0.0
    for o, t in zip(observed, target):
        if o > 0:
            total += o * math.log2(o / t)
    return total


def oracle_per_draw(seq, fn, label, system):
    """Per-draw metric aggregation with ``fn`` called once for every draw.

    Returns (MetricResult, notes), the result replaced by the raised
    exception's (type, message) when aggregation fails.
    """
    values, flags, notes = {}, {}, []
    conventions = 0
    direction = None
    for q in sorted(seq.requests()):
        draw_vals, draw_flags = [], []
        for ranking in seq.draws_for(q):
            try:
                res = fn(ranking)
            except Degenerate as exc:
                draw_flags.append(exc.reason)
                continue
            direction = res.direction
            if res.degenerate is not None and math.isnan(res.value):
                draw_flags.append(res.degenerate)
                continue
            if res.degenerate is not None:
                conventions += 1
            draw_vals.append(res.value)
        if draw_vals:
            values[q] = float(np.mean(draw_vals))
        else:
            flags[q] = draw_flags[0] if draw_flags else "no draws"
    if conventions:
        notes.append(f"{label}: {conventions} draws scored by edge-case convention")
    try:
        result = aggregate(values, flags, label, system, direction or Direction.ZERO_IS_FAIR)
    except FairRankError as exc:
        result = (type(exc), str(exc))
    return result, notes


def oracle_binarize_rows(rows, protected, threshold):
    """Hard protected/rest row per labeled document, one document at a time."""
    return {d: [1.0, 0.0] if row[protected] >= threshold else [0.0, 1.0]
            for d, row in rows.items()}


def oracle_unknown_rows(rows, n_groups, universe, unknown_index=None):
    """Rows after the ``group`` unknown policy: missing documents, sorted, go
    wholly to the unknown group, appended as a new last column when absent."""
    width = n_groups if unknown_index is not None else n_groups + 1
    u = unknown_index if unknown_index is not None else n_groups
    out = {d: list(row) + [0.0] * (width - len(row)) for d, row in rows.items()}
    for d in sorted(set(universe) - set(rows)):
        out[d] = [1.0 if j == u else 0.0 for j in range(width)]
    return out
