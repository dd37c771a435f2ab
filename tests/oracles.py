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


def oracle_parse_alignment(text):
    """The alignment CSV parsed and checked one line at a time.

    Returns ({doc: row}, [warning messages]) with a repeated document
    keeping its first position and its last row, or raises the first bad
    line's ParseError.
    """
    import csv
    import io

    from fairrank.ingest import NegativeWeight, RowSumOutOfTolerance
    from fairrank import ParseError

    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or len(header) < 2:
        raise ParseError("alignment header must be docid,<group1>,...", 1)
    names = header[1:]
    rows, warnings = {}, []
    for lineno, cells in enumerate(reader, start=2):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != len(names) + 1:
            raise ParseError(f"expected {len(names) + 1} columns, got {len(cells)}", lineno)
        doc = cells[0].strip()
        raw = [c.strip() for c in cells[1:]]
        if all(not c for c in raw):
            continue
        vec = []
        for c in raw:
            try:
                v = float(c) if c else 0.0
            except ValueError:
                raise ParseError(f"alignment cell {c!r} is not a number", lineno) from None
            if not math.isfinite(v):
                raise ParseError(f"alignment cell {c!r} is not finite", lineno)
            vec.append(v)
        if any(v < 0 for v in vec):
            raise NegativeWeight(f"negative alignment weight for {doc!r}", lineno)
        total = math.fsum(vec)
        if abs(total - 1.0) > 0.01:
            raise RowSumOutOfTolerance(f"row for {doc!r} sums to {total:.6g}", lineno)
        if doc in rows:
            warnings.append(f"alignment line {lineno} overrides earlier row for {doc}")
        rows[doc] = [v / total for v in vec]
    return rows, warnings


def oracle_pool(judged, rankings, pool):
    """A request's candidate documents, sorted: judged, retrieved, or both."""
    retrieved = {d for r in rankings for d in r.docs}
    return sorted({"judged": set(judged), "retrieved": retrieved,
                   "union": set(judged) | retrieved}[pool])


def oracle_group_utility(requests, rho, pools, grades, rows, n_groups):
    """Arrival-weighted mean grade of each group's pooled members (hard rows).

    A request where a group has no pooled member is skipped for that group;
    a group with no member in any pool raises EmptyGroup.
    """
    from fairrank import EmptyGroup

    sums, mass = [0.0] * n_groups, [0.0] * n_groups
    for q in requests:
        for g in range(n_groups):
            members = [d for d in pools[q] if d in rows and rows[d][g] > 0.5]
            if members:
                sums[g] += rho[q] * sum(grades[q].get(d, 0.0) for d in members) / len(members)
                mass[g] += rho[q]
    if min(mass) <= 0:
        raise EmptyGroup("a group has no pooled member")
    return np.array(sums) / np.array(mass)


def oracle_parse_run(lines):
    """A run parsed one line at a time.

    Returns (records, {request: docs in rank order}) with the records as
    (request, doc, rank, score, tag) tuples in file order and the requests in
    first-appearance order, or raises the first bad line's ParseError.
    """
    from fairrank import ParseError
    from fairrank.ingest import DuplicateRank

    records = []
    seen = {}  # per request: ranks and documents
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 whitespace-separated fields, got {len(parts)}", lineno)
        qid, _, docid, rank_s, score_s, tag = parts
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(f"rank {rank_s!r} is not an integer", lineno) from None
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"score {score_s!r} is not a number", lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"score {score_s!r} is not finite", lineno)
        ranks, docs = seen.setdefault(qid, (set(), set()))
        if rank in ranks:
            raise DuplicateRank(f"request {qid!r} repeats rank {rank}", lineno)
        if docid in docs:
            raise ParseError(f"request {qid!r} repeats document {docid!r}", lineno)
        ranks.add(rank)
        docs.add(docid)
        records.append((qid, docid, rank, score, tag))
    per_request = {}
    for rec in records:
        per_request.setdefault(rec[0], []).append(rec)
    rankings = {q: tuple(r[1] for r in sorted(recs, key=lambda r: r[2]))
                for q, recs in per_request.items()}
    return records, rankings


def oracle_parse_qrels(lines, warnings=None):
    """Judgments parsed one line at a time.

    Returns ({request: {doc: grade}}, [warning messages]) with repeated keys
    last-wins, or raises the first bad line's ParseError; the warnings go to
    ``warnings`` when given, so they survive an error.
    """
    from fairrank import ParseError

    table, warnings = {}, [] if warnings is None else warnings
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 4 whitespace-separated fields, got {len(parts)}", lineno)
        qid, _, docid, grade_s = parts
        try:
            grade = float(grade_s)
        except ValueError:
            raise ParseError(f"grade {grade_s!r} is not a number", lineno) from None
        if not math.isfinite(grade):
            raise ParseError(f"grade {grade_s!r} is not finite", lineno)
        if grade < 0:
            raise ParseError(f"negative grade {grade}", lineno)
        bucket = table.setdefault(qid, {})
        if docid in bucket:
            warnings.append(f"qrels line {lineno} overrides earlier grade for ({qid}, {docid})")
        bucket[docid] = grade
    return table, warnings


def oracle_parse_scores(lines, warnings=None):
    """Score rows parsed one CSV record at a time.

    A first non-blank row whose first cell is ``qid`` (any case) is a header.
    Returns ({request: {doc: score}}, [warning messages]) with repeated keys
    last-wins, or raises the first bad record's ParseError (or csv.Error); the
    warnings go to ``warnings`` when given, so they survive an error.
    """
    import csv

    from fairrank import ParseError

    out, warnings = {}, [] if warnings is None else warnings
    first = True
    for lineno, cells in enumerate(csv.reader(lines), start=1):
        if not cells or all(not c.strip() for c in cells):
            continue
        if first and cells[0].strip().lower() == "qid":
            first = False
            continue
        first = False
        if len(cells) != 3:
            raise ParseError(f"expected qid,docid,score, got {len(cells)} columns", lineno)
        qid, docid = cells[0].strip(), cells[1].strip()
        try:
            score = float(cells[2])
        except ValueError:
            raise ParseError(f"score {cells[2]!r} is not a number", lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"score {cells[2]!r} is not finite", lineno)
        bucket = out.setdefault(qid, {})
        if docid in bucket:
            warnings.append(f"scores line {lineno} overrides earlier score for ({qid}, {docid})")
        bucket[docid] = score
    return out, warnings


# --- per-list bodies the batched kernels replaced ---------------------------
#
# Each function below is the per-ranking (or per-request) code the library
# ran before its metric families became one array pass per group of lists.
# The batched kernels must reproduce them bit for bit: they add the same
# elements in the same order.  They share ``weight_vector`` and the compiled
# view with the library, which other tests check on their own.


def list_scores(results, direction=None):
    """``ListScores`` of per-list results, a raised ``Degenerate`` counting as its reason."""
    from fairrank.metrics_single import ListScores

    values = np.full(len(results), math.nan)
    reasons = np.full(len(results), None, dtype=object)
    for i, res in enumerate(results):
        if isinstance(res, Degenerate):
            reasons[i] = res.reason
        else:
            values[i], reasons[i] = res.value, res.degenerate
            direction = res.direction
    return ListScores(values, reasons, direction or Direction.ZERO_IS_FAIR)


def outcome(fn, *args):
    """``fn(*args)``, or the ``Degenerate`` it raises."""
    try:
        return fn(*args)
    except Degenerate as exc:
        return exc


def list_exposure(weights, rows, dense):
    """Group exposure of one list: weights of its labeled positions times their rows."""
    kept = np.flatnonzero(rows >= 0)
    if kept.size == 0:
        raise Degenerate("no labeled documents in ranking")
    return weights[kept] @ dense[rows[kept]]


def draws_mean(per_ranking, draws):
    """Mean exposure over a request's draws; a draw without labeled documents adds zero."""
    per_draw = [per_ranking[r] for r in draws if not isinstance(per_ranking[r], Degenerate)]
    if not per_draw:
        raise Degenerate("no labeled documents in any draw")
    return np.sum(per_draw, axis=0) / len(draws)


def _list_prefix_raw(cols, target, dist, step):
    from fairrank.distance import KL_TARGET_FLOOR

    ks = np.array(_prefix_lengths(cols.shape[-2], step))
    shares = np.cumsum(cols, axis=-2)[..., ks - 1, :] / ks[:, None]
    if dist == "kl":
        t = np.maximum(target, KL_TARGET_FLOOR)
        t = t / t.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(shares > 0, shares * np.log2(shares / t), 0.0)
        deltas = np.maximum(terms.sum(axis=-1), 0.0)
    elif dist == "nd":
        deltas = shares[..., 0] - target[0]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            deltas = shares[..., 0] / (1.0 - shares[..., 0]) - target[0] / (1.0 - target[0])
        deltas[np.any(shares[..., 0] >= 1, axis=-1) | (target[0] >= 1)] = math.nan
    terms = np.abs(deltas) / np.log2(ks)
    return np.array([np.sum(row) for row in terms.reshape(-1, ks.size)]).reshape(terms.shape[:-1])


def list_prefd(cols, groups, target, dist, step, threshold):
    """prefD of one list given by its labeled alignment rows, in rank order."""
    from fairrank import DegenerateDenominator, SingleListResult

    n = len(cols)
    if n == 0:
        return SingleListResult(math.nan, Direction.ZERO_IS_FAIR, degenerate="no_labeled_docs")
    if n < step:
        return SingleListResult(0.0, Direction.ZERO_IS_FAIR, degenerate="short_list")
    if dist == "kl":
        if target is None:
            if n == step:
                return SingleListResult(0.0, Direction.ZERO_IS_FAIR,
                                        degenerate="undefined_normalizer")
            cols = cols[:, cols.sum(axis=0) > 0]
            tvec = cols.mean(axis=0)
        else:
            tvec = target.probs
    else:
        p = groups.require_protected()
        cols = cols[:, [p]] >= threshold
        tvec = np.array([target.scalar(p) if target is not None else cols.sum() / n])
    arrangements = [cols]
    for j in range(cols.shape[1]):
        order = np.argsort(cols[:, j], kind="stable")
        arrangements += [cols[order], cols[order[::-1]]]
    raws = _list_prefix_raw(np.stack(arrangements), tvec, dist, step)
    if math.isnan(raws[0]):
        raise DegenerateDenominator("the target or a prefix has no unprotected documents")
    best = max((float(r) for r in raws[1:] if not math.isnan(r)), default=None)
    if best is None:
        raise Degenerate("no extreme arrangement is scorable under this distance")
    if best <= 0:
        return SingleListResult(0.0, Direction.ZERO_IS_FAIR, degenerate="undefined_normalizer")
    return SingleListResult(min(float(raws[0]) / best, 1.0), Direction.ZERO_IS_FAIR)


def list_fair(mask, p_hat):
    """FAIR of one protected mask, from the prefix binomial CDF recurrence."""
    from fairrank import SingleListResult

    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return SingleListResult(math.nan, Direction.ONE_IS_FAIR, degenerate="no_labeled_docs")
    n = mask.size
    counts = np.cumsum(mask)
    trials = np.arange(n)
    fails = trials - counts
    possible = fails >= 0
    fails = np.where(possible, fails, 0)
    log_fact = np.array([math.lgamma(i + 1) for i in range(2 * n + 1)])
    log_pmf = (log_fact[trials] - log_fact[counts] - log_fact[fails]
               + counts * math.log(p_hat) + fails * math.log1p(-p_hat))
    steps = np.where(possible, np.exp(log_pmf), 0.0) * np.where(mask, 1.0 - p_hat, -p_hat)
    probs = np.clip(1.0 + np.cumsum(steps), 0.0, 1.0)
    return SingleListResult(float(np.mean(probs)), Direction.ONE_IS_FAIR)


def list_awrf(eps, groups, target, dist, signed):
    """AWRF of one list given by its raw group exposure (or the ``Degenerate`` it has)."""
    from fairrank import DegenerateDenominator, SingleListResult
    from fairrank.distance import KL_TARGET_FLOOR

    if not isinstance(eps, Degenerate):
        total = float(eps.sum())
        eps = (eps / total if total > 0
               else Degenerate("labeled documents received zero exposure mass"))
    if isinstance(eps, Degenerate):
        return SingleListResult(math.nan, Direction.ZERO_IS_FAIR, degenerate=eps.reason)
    t = target.probs
    if dist == "kl":
        t = np.maximum(t, KL_TARGET_FLOOR)
        t = t / t.sum()
        mask = eps > 0
        d = max(float(np.sum(eps[mask] * np.log2(eps[mask] / t[mask]))), 0.0)
    elif dist == "nd":
        p = groups.protected_index
        d = float(eps[p] - t[p])
    else:
        p = groups.protected_index
        o_plus, t_plus = float(eps[p]), float(t[p])
        if 1.0 - o_plus <= 0:
            raise DegenerateDenominator("unprotected share is zero; ratio difference undefined")
        if t_plus >= 1:
            raise DegenerateDenominator("target places all mass on the protected group")
        d = o_plus / (1.0 - o_plus) - t_plus / (1.0 - t_plus)
    return SingleListResult(d if signed else abs(d), Direction.ZERO_IS_FAIR)


def per_draw_of_rankings(view, outcomes, label, system):
    """Per-draw aggregation over each request's draws, given each distinct ranking's
    outcome (a result or a ``Degenerate``); as ``oracle_per_draw`` returns it."""
    values, flags, notes = {}, {}, []
    conventions = 0
    direction = None
    for i, q in enumerate(view.requests):
        draw_vals, draw_flags = [], []
        for r in view.draw_of[view.draw_at[i]:view.draw_at[i + 1]]:
            res = outcomes[r]
            if isinstance(res, Degenerate):
                draw_flags.append(res.reason)
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
            flags[q] = draw_flags[0]
    if conventions:
        notes.append(f"{label}: {conventions} draws scored by edge-case convention")
    try:
        result = aggregate(values, flags, label, system, direction or Direction.ZERO_IS_FAIR)
    except FairRankError as exc:
        result = (type(exc), str(exc))
    return result, notes


def ideal_list_exposure(grades, rows, dense, model, stop):
    """Ideal-policy exposure of one candidate set in id order (rows -1: unlabeled)."""
    from fairrank.exposure import weight_vector

    if not np.any(rows >= 0):
        raise Degenerate("no labeled candidates")
    order = np.argsort(-grades, kind="stable")
    sorted_grades = grades[order]
    weights = weight_vector(model, np.arange(1, len(grades) + 1), sorted_grades, stop=stop)
    new_tier = np.concatenate(([True], sorted_grades[1:] != sorted_grades[:-1]))
    bounds = [*np.flatnonzero(new_tier).tolist(), len(grades)]
    tier_weight = np.array([weights[a:b].sum() / (b - a) for a, b in zip(bounds, bounds[1:])])
    doc_weights = np.empty(len(grades))
    doc_weights[order] = tier_weight[np.cumsum(new_tier) - 1]
    return list_exposure(doc_weights, rows, dense)


def request_pool(view, q, kind):
    """One request's candidate documents, ascending, and their grades (0 when unjudged),
    read from a compiled system's judgment keys one request at a time."""
    from fairrank.compiled import lookup, sorted_distinct

    i = view.request_index[q]
    a, b = view._judged_at[i], view._judged_at[i + 1]
    judged, grades = view._keys[a:b] - i * len(view.docs), view._grades[a:b]
    if kind == "judged":
        return judged, grades
    pool = view.ids[view.starts[i]:view.starts[i + 1]]
    pool = pool[pool >= 0]
    if kind == "union":
        pool = np.concatenate((pool, judged))
    pool = sorted_distinct(pool)
    return pool, lookup(judged, grades, pool)


def request_group_utility(view, labels, n_groups, pool):
    """Group utility of a compiled system, one request at a time in arrival order."""
    from fairrank import EmptyGroup

    sums, mass = np.zeros(n_groups), np.zeros(n_groups)
    for q in view.arrival:
        cands, grades = request_pool(view, q, pool)
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
    if np.any(mass <= 0):
        raise EmptyGroup("a group has no members in any candidate pool")
    return sums / mass


def request_discounted_utility(view, labels, n_groups, weights):
    """Discounted group utility of a compiled system, one ranking at a time."""
    masses = []
    for r, rows in enumerate(labels.rows):
        kept = np.flatnonzero(rows >= 0)
        w = weights if weights.ndim == 1 else weights[r]
        masses.append((w[kept] * view.grades[r, kept]) @ labels.dense[rows[kept]])
    total = np.zeros(n_groups)
    for q in view.arrival:
        i = view.request_index[q]
        draws = [masses[r] for r in view.draw_of[view.draw_at[i]:view.draw_at[i + 1]]]
        total += view.rho.get(q, 0.0) * (sum(draws, np.zeros(n_groups)) / len(draws))
    return total


def request_exposure_loss(view, labels, n_groups, model, stop, exposures, pool):
    """(EEL, EER, EED_raw, n_requests, n_skipped) one request at a time in arrival order;
    ``exposures`` maps each non-degenerate request to its raw exposure."""
    from fairrank import AllDegenerate, ee_decompose

    zero = np.zeros(n_groups)
    eps_acc, tgt_acc = np.zeros(n_groups), np.zeros(n_groups)
    weight_total, n_requests, n_skipped = 0.0, 0, 0
    for q in view.arrival:
        n_requests += 1
        cands, grades = request_pool(view, q, pool)
        if not cands.size or grades.max() <= 0:
            n_skipped += 1
            continue
        try:
            tgt = ideal_list_exposure(grades, labels.row_of[cands], labels.dense, model, stop)
        except Degenerate:
            n_skipped += 1
            continue
        w = view.rho.get(q, 0.0)
        eps_acc += w * exposures.get(q, zero)
        tgt_acc += w * tgt
        weight_total += w
    if weight_total <= 0:
        raise AllDegenerate("no request has a scorable ideal policy")
    return (*ee_decompose(eps_acc / weight_total, tgt_acc / weight_total), n_requests, n_skipped)


def request_predicted_utility(view, q, labels):
    """Per-group predicted-utility mass of one request's scored labeled documents, or None."""
    scored = view.scored_docs(q)
    if scored is None:
        return None
    ids, scores, _ = scored
    rows = labels.row_of[ids]
    kept = np.flatnonzero(rows >= 0)
    if not kept.size:
        return None
    raw = scores[kept]
    shifted = raw - raw.min()
    total = float(shifted.sum())
    util = shifted / total if total > 0 else np.full(kept.size, 1.0 / kept.size)
    return labels.dense[rows[kept]].T @ util
