"""Differential tests: prefD (``pref_fairness``) against the brute-force oracles.

Random lists mix hard, soft and unlabeled documents over 2 to 4 groups, with
``step`` in {2, 3, 10} and up to 40 labeled documents, so some lists have 8 or
more prefixes.  Targets are the list's composition (for kl, over the
groups present in the list, and no unfairness when the whole list is the
only prefix) or an explicit distribution, possibly with zero entries (which
the KL floor must absorb).
The kl value must match ``oracle_prefd_kl_raw``, and the nd and rd values
``oracle_prefd_raw``, each normalized by ``oracle_prefd_sorted_normalizer``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    DegenerateDenominator,
    GroupSpace,
    Ranking,
    TargetDistribution,
    pref_fairness,
)

from oracles import oracle_prefd_kl_raw, oracle_prefd_raw, oracle_prefd_sorted_normalizer


@st.composite
def lists(draw):
    g = draw(st.integers(2, 4))
    step = draw(st.sampled_from((2, 3, 10)))
    n = draw(st.integers(step, 40))
    rows = {}
    for i in range(n):
        if draw(st.booleans()):
            row = np.zeros(g)
            row[draw(st.integers(0, g - 1))] = 1.0
        else:
            row = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=g, max_size=g)))
            if row.sum() <= 0:
                row[0] = 1.0
        rows[f"d{i}"] = row / row.sum()
    docs = list(rows) + [f"u{i}" for i in range(draw(st.integers(0, 5)))]
    docs = draw(st.permutations(docs))
    target = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)),
                                     min_size=g, max_size=g)))
        if raw.sum() <= 0:
            raw[-1] = 1.0
        target = raw / raw.sum()
    protected = draw(st.integers(0, g - 1))
    return g, step, rows, tuple(docs), target, protected


def _expected(raw, best):
    """The pref_fairness result the oracle raw and normalizer imply."""
    if best is None:
        return Degenerate
    if best <= 0:
        return "undefined_normalizer"
    return min(raw / best, 1.0)


def _check(res_or_exc, want):
    if want is Degenerate:
        assert isinstance(res_or_exc, Degenerate)
    elif want == "undefined_normalizer":
        assert res_or_exc.degenerate == "undefined_normalizer" and res_or_exc.value == 0.0
    else:
        assert res_or_exc.ok
        assert res_or_exc.value == pytest.approx(want, rel=1e-12, abs=1e-12)


def _run(*args, **kwargs):
    try:
        return pref_fairness(*args, **kwargs)
    except Degenerate as exc:
        return exc


@given(lists())
@settings(max_examples=300, deadline=None)
def test_pref_fairness_matches_oracle(case):
    g, step, rows, docs, target, protected = case
    al = AlignmentMatrix(rows, n_groups=g)
    gs = GroupSpace(tuple(f"g{i}" for i in range(g)), protected_index=protected)
    ranking = Ranking("q", docs)
    td = TargetDistribution(target) if target is not None else None
    labeled = [[float(x) for x in rows[d]] for d in docs if d in rows]
    n = len(labeled)

    # kl over every group; the composition target covers the groups present
    kl_rows = labeled
    if target is None:
        present = [j for j in range(g) if sum(row[j] for row in labeled) > 0]
        kl_rows = [[row[j] for j in present] for row in labeled]
    tvec = list(target) if target is not None else [
        sum(row[j] for row in kl_rows) / n for j in range(len(kl_rows[0]))]
    raw = oracle_prefd_kl_raw(kl_rows, tvec, step)
    best = oracle_prefd_sorted_normalizer(
        kl_rows, lambda arr: oracle_prefd_kl_raw(arr, tvec, step))
    # a single prefix (the whole list) matches its own composition exactly
    want = ("undefined_normalizer" if target is None and n == step
            else _expected(raw, best))
    _check(_run(ranking, al, gs, td, dist="kl", step=step), want)

    # nd and rd over the thresholded protected column
    mask = [row[protected] >= 0.5 for row in labeled]
    p_hat = float(target[protected]) if target is not None else sum(mask) / n
    for dist in ("nd", "rd"):
        res = _run(ranking, al, gs, td, dist=dist, step=step)
        try:
            raw = oracle_prefd_raw(mask, p_hat, step, dist)
        except ZeroDivisionError:
            assert isinstance(res, DegenerateDenominator), dist
            continue
        best = oracle_prefd_sorted_normalizer(
            [[m] for m in mask],
            lambda arr: oracle_prefd_raw([m for (m,) in arr], p_hat, step, dist))
        _check(res, _expected(raw, best))
