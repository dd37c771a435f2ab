"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive (plain loops, math.comb, exhaustive
permutation enumeration, scipy's own tau implementation) and never calls the
code paths it is used to check.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np
from scipy.stats import kendalltau


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
