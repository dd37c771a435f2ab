"""Differential tests: the batched metric kernels against the per-list bodies they replaced.

Each metric family runs as one array pass over all of a system's rankings (or
requests), grouped by labeled length or draw count.  Random systems here
mix rankings of many labeled lengths (so a batch holds several groups),
lists shorter than, equal to and longer than ``step``, all-unlabeled
rankings, hard and soft rows, requests with several draws (shared ``Ranking``
objects and equal copies), requests with and without scores, every weight
model (the cascade most often), both unknown policies and every pool.

The kernels must equal the per-list bodies in ``tests/oracles.py`` exactly,
since a batched reduction adds the same elements in the same order; and the
plain-loop oracles within 1e-12.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    FairRankError,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    WeightModel,
)
from fairrank.compiled import POOLS
from fairrank.exposure import WEIGHT_KINDS, ideal_exposures, resolve_stop
from fairrank.ingest import EvalConfig
from fairrank.metrics_single import awrf_scores, fair_scores, prefd_scores
from fairrank.opportunity import (
    discounted_utility_of,
    exposure_loss,
    exposure_loss_of,
    predicted_utility_of,
)
from fairrank.pipeline import _Context, _per_draw

from conftest import as_row, compile_run
from oracles import (
    draws_mean,
    ideal_list_exposure,
    list_awrf,
    list_exposure,
    list_fair,
    list_prefd,
    list_scores,
    oracle_fair,
    oracle_group_exposure,
    oracle_kl_bits,
    oracle_prefd_raw,
    oracle_prefd_sorted_normalizer,
    oracle_weights,
    outcome,
    per_draw_of_rankings,
    request_discounted_utility,
    request_exposure_loss,
    request_group_utility,
    request_pool,
    request_predicted_utility,
    view_rankings,
)

DOCS = tuple(f"d{i}" for i in range(24))  # long enough for more than 8 prefixes at step 2
UNLABELED = ("u0", "u1", "u2")  # never given an alignment row


@st.composite
def systems(draw):
    g = draw(st.integers(2, 3))
    rows = {}
    for d in DOCS:
        kind = draw(st.sampled_from(("hard", "hard", "soft", "unlabeled")))
        if kind == "hard":
            row = np.zeros(g)
            row[draw(st.integers(0, g - 1))] = 1.0
            rows[d] = row
        elif kind == "soft":
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g)))
            rows[d] = raw / raw.sum()
    draws, grades, scores = [], {}, {}
    for i in range(draw(st.integers(1, 4))):
        q = f"q{i}"
        grades[q] = {d: y for d in DOCS + UNLABELED
                     if (y := draw(st.sampled_from((None, 0.0, 1.0, 2.0)))) is not None}
        # one request in eight draws each of 8 to 40 rankings once, so that its mean of
        # exposure rows adds one draw after another where a pairwise sum would not
        wide = draw(st.integers(0, 7)) == 0
        rankings = []
        for _ in range(draw(st.integers(8, 40) if wide else st.integers(1, 3))):
            pool = UNLABELED if draw(st.integers(0, 4)) == 0 else DOCS + UNLABELED
            order = draw(st.permutations(pool))
            rankings.append(Ranking(q, tuple(order[:draw(st.integers(1, len(order)))])))
        for r in rankings if wide else (draw(st.sampled_from(rankings))
                                        for _ in range(draw(st.integers(1, 5)))):
            draws.append((q, r if draw(st.booleans()) else Ranking(q, r.docs)))
        if draw(st.booleans()):
            scored = draw(st.lists(st.sampled_from(DOCS + UNLABELED), unique=True, max_size=8))
            scores[q] = {d: draw(st.sampled_from((-1.0, 0.0, 0.25, 2.0))) for d in scored}
    seq = RankingSequence(tuple(draw(st.permutations(draws))))
    model = WeightModel(draw(st.sampled_from(("cascade", *WEIGHT_KINDS))),
                        draw(st.floats(0.1, 1.0)))
    policy = draw(st.sampled_from(("exclude", "group")))
    step = draw(st.integers(2, 4))
    raw = np.array(draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 1.0)), min_size=g, max_size=g)))
    raw[-1] += raw.sum() <= 0
    target = TargetDistribution(raw / raw.sum())
    al = AlignmentMatrix(rows, n_groups=g)
    groups = GroupSpace(tuple(f"g{i}" for i in range(g)), protected_index=0)
    ctx = _Context("s", *compile_run(seq, RelevanceTable(grades), al, groups,
                                     EvalConfig(unknown_policy=policy), scores or None))
    return ctx, rows, grades, model, step, target


def _assert_same_scores(got, outcomes):
    want = list_scores(outcomes)
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert got.reasons.tolist() == want.reasons.tolist()


def _draws(view, i):
    return view.draw_of[view.draw_at[i]:view.draw_at[i + 1]]


def _per_ranking_exposures(ctx, model, variant):
    labels, w = ctx.labels[variant], ctx.weights(model)
    return [outcome(list_exposure, w if w.ndim == 1 else w[r], rows, labels.dense)
            for r, rows in enumerate(labels.rows)]


@given(systems())
@settings(max_examples=200, deadline=None)
def test_exposure_kernels_match_the_per_list_bodies(system):
    ctx, rows, grades, model, _, _ = system
    view = ctx.view
    for variant in ("base", "ext", "bin"):
        eps, count = ctx.ranking_exposures(model, variant)
        for r, want in enumerate(_per_ranking_exposures(ctx, model, variant)):
            if isinstance(want, Degenerate):
                assert count[r] == 0 and not eps[r].any()
            else:
                assert count[r] > 0 and np.array_equal(eps[r], want)
    y_max = ctx.qrels.max_grade()
    stop = (lambda y: y / y_max) if y_max > 0 else None
    for binarized in (False, True):
        per_ranking = _per_ranking_exposures(ctx, model, "bin" if binarized else "ext")
        got = ctx.exposures(model, binarized)
        for i, q in enumerate(view.requests):
            want = outcome(draws_mean, per_ranking, _draws(view, i))
            if isinstance(want, Degenerate):
                assert not got.labeled[i] and not got.eps[i].any()
            else:
                assert got.labeled[i] and np.array_equal(got.eps[i], want)
    # and the plain loops, on the base alignment
    got = ctx.exposures(model, binarized=False)
    if ctx.config.unknown_policy == "exclude":
        for i, q in enumerate(view.requests):
            total = 0.0
            for r in _draws(view, i):
                docs = view_rankings(view)[r].docs
                ys = [grades[q].get(d, 0.0) for d in docs]
                w = oracle_weights(model.kind, model.gamma, range(1, len(docs) + 1), ys, stop)
                total = total + oracle_group_exposure(docs, rows, w, ctx.groups.g)
            assert got.eps[i] == pytest.approx(total / len(_draws(view, i)),
                                               rel=1e-12, abs=1e-14)


@given(systems(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_single_list_kernels_match_the_per_list_bodies(system, signed):
    ctx, rows, _, model, step, target = system
    base, binary = ctx.labels["base"], ctx.labels["bin"]
    labeled = [base.dense[r[r >= 0]] for r in base.rows]
    for dist in ("nd", "rd", "kl"):
        for tgt in (None, target):
            # nd and rd read the protected column (0) of the binarized rows, kl the soft rows
            labels = base if dist == "kl" else binary
            probs = None if tgt is None else tgt.probs if dist == "kl" else tgt.probs[:1]
            got = prefd_scores(labels.rows, labels.dense, probs, dist, step)
            _assert_same_scores(got, [outcome(list_prefd, cols, ctx.groups, tgt, dist, step, 0.5)
                                      for cols in labeled])
    # prefD nd against the plain loops
    nd = prefd_scores(binary.rows, binary.dense, None, "nd", step)
    for r, cols in enumerate(labeled):
        mask = [bool(m) for m in cols[:, 0] >= 0.5]
        if len(mask) <= step:
            continue
        p_hat = sum(mask) / len(mask)
        best = oracle_prefd_sorted_normalizer(
            [[m] for m in mask], lambda arr: oracle_prefd_raw([m for (m,) in arr], p_hat, step))
        if best > 0:
            want = min(oracle_prefd_raw(mask, p_hat, step) / best, 1.0)
            assert nd.values[r] == pytest.approx(want, rel=1e-12, abs=1e-12)

    for p_hat in (0.3, 0.5):
        got = fair_scores(binary.rows, binary.dense, p_hat)
        _assert_same_scores(got, [list_fair(cols[:, 0] >= 0.5, p_hat) for cols in labeled])
        for r, cols in enumerate(labeled):
            if len(cols):
                assert got.values[r] == pytest.approx(oracle_fair(list(cols[:, 0] >= 0.5), p_hat),
                                                      rel=1e-12, abs=1e-12)

    eps, count = ctx.ranking_exposures(model, "base")
    per_ranking = _per_ranking_exposures(ctx, model, "base")
    for dist in ("nd", "rd", "kl"):
        for tgt in (target, TargetDistribution.equal(ctx.groups.g)):
            got = awrf_scores(eps, count, ctx.groups, tgt, dist, signed)
            outcomes = [outcome(list_awrf, e, ctx.groups, tgt, dist, signed) for e in per_ranking]
            _assert_same_scores(got, outcomes)
            # the per-draw aggregation of these outcomes
            label = f"AWRF_{dist}"
            notes = []
            try:
                res = _per_draw(ctx, got, SimpleNamespace(name="awrf", label=label), notes)
            except FairRankError as exc:
                res = (type(exc), str(exc))
            want, want_notes = per_draw_of_rankings(ctx.view, outcomes, label, "s")
            assert (res, notes) == (as_row(want), want_notes)


@given(systems())
@settings(max_examples=200, deadline=None)
def test_request_kernels_match_the_per_request_bodies(system):
    ctx, _, _, model, _, _ = system
    view = ctx.view
    binary, ext = ctx.labels["bin"], ctx.labels["ext"]
    stop = resolve_stop(model, ctx.qrels)
    per_ranking = _per_ranking_exposures(ctx, model, "ext")
    exposures = {}
    for i, q in enumerate(view.requests):
        eps = outcome(draws_mean, per_ranking, _draws(view, i))
        if not isinstance(eps, Degenerate):
            exposures[q] = eps
    for pool in POOLS:
        got = outcome(ctx.utility, pool, "arrival")
        want = outcome(request_group_utility, view, binary, 2, pool)
        assert type(got) is type(want)
        if not isinstance(want, Degenerate):
            assert np.array_equal(got, want)

        docs, grades, at = view.pools(pool)
        for i, q in enumerate(view.requests):
            cands, ys = request_pool(view, q, pool)
            assert np.array_equal(docs[at[i]:at[i + 1]], cands)
            assert np.array_equal(grades[at[i]:at[i + 1]], ys)
        targets, count = ideal_exposures(grades, ext.row_of[docs], at, ext.dense, model, stop)
        for i in range(len(view.requests)):
            a, b = at[i], at[i + 1]
            want = outcome(ideal_list_exposure, grades[a:b], ext.row_of[docs[a:b]], ext.dense,
                           model, stop)
            if isinstance(want, Degenerate):
                assert count[i] == 0 and not targets[i].any()
            else:
                assert count[i] > 0 and np.array_equal(targets[i], want)

        try:
            res = exposure_loss(view, "arrival", *exposure_loss_of(
                view, ext, model, stop, ctx.exposures(model, binarized=False).eps, pool))
            got = (res.eel, res.eer, res.eed_raw, res.n_requests, res.n_skipped)
        except FairRankError as exc:
            got = type(exc)
        try:
            want = request_exposure_loss(view, ext, ctx.ext_groups.g, model, stop, exposures,
                                         pool)
        except FairRankError as exc:
            want = type(exc)
        assert got == want

    got, _ = view.reduce("arrival", *discounted_utility_of(view, binary, ctx.weights(model)))
    assert np.array_equal(got, request_discounted_utility(view, binary, 2, ctx.weights(model)))

    utils, has = predicted_utility_of(view, ext)
    for i, q in enumerate(view.requests):
        want = request_predicted_utility(view, q, ext)
        assert has[i] == (want is not None)
        if want is not None:
            assert np.array_equal(utils[i], want)


def test_kl_kernels_tell_apart_groups_past_the_64th():
    # Three lists over 70 groups whose present groups differ only past index 63.
    g = 70
    dense = np.eye(g)[[0, 65, 66]]
    rows = np.array([[0, 1, 0, 1, 0, 1], [0, 2, 0, 2, 0, 2], [0, 1, 2, 0, 1, 2]])
    groups = GroupSpace(tuple(f"g{i}" for i in range(g)), protected_index=0)
    target = TargetDistribution(np.arange(1.0, g + 1) / np.arange(1.0, g + 1).sum())
    for tgt in (None, target):
        got = prefd_scores(rows, dense, None if tgt is None else tgt.probs, "kl", 2)
        _assert_same_scores(got, [outcome(list_prefd, dense[r], groups, tgt, "kl", 2, 0.5)
                                  for r in rows])
    observed = dense[rows].mean(axis=1)
    got = awrf_scores(observed, np.full(len(rows), 6), groups, target, "kl", False)
    _assert_same_scores(got, [list_awrf(o, groups, target, "kl", False) for o in observed])
    floored = np.maximum(target.probs, 1e-10) / np.maximum(target.probs, 1e-10).sum()
    for value, o in zip(got.values, observed):
        assert value == pytest.approx(oracle_kl_bits(o, floored), rel=1e-12, abs=1e-14)
