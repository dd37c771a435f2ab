"""Differential tests: the pipeline's compiled view and its kernels against oracles.

``_Context`` compiles one system's rankings and judgments into document-number
arrays and reads every alignment variant through one index: the extended
variant's row indices, cut to the base alignment's length for the base and
binarized variants.  Random corpora mix hard, soft and unlabeled documents,
requests whose draws share ``Ranking`` objects with draws holding their own,
the ``exclude`` and ``group`` unknown policies (the latter appends rows for
unlabeled documents), every weight model including the cascade, and the
``judged``, ``retrieved`` and ``union`` pools.  Checked against plain loops
over strings (``tests/oracles.py``): the index invariant and the compiled
arrays, per-ranking and per-request exposure on each variant, AWRF from the
base exposures, the labeled rows prefD and FAIR read, group utility per
pool, discounted utility, and the expected exposure loss with its
ideal-policy target.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    AlignmentMatrix,
    AllDegenerate,
    EmptyGroup,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    WeightModel,
    fair_score,
)
from fairrank.exposure import WEIGHT_KINDS, resolve_stop
from fairrank.ingest import EvalConfig
from fairrank.metrics_single import awrf_scores
from fairrank.opportunity import discounted_utility_of, exposure_loss, exposure_loss_of
from fairrank.pipeline import _Context

from conftest import compile_run
from oracles import (
    oracle_binarize_rows,
    oracle_fair,
    oracle_group_exposure,
    oracle_group_utility,
    oracle_kl_bits,
    oracle_pool,
    oracle_target_exposure,
    oracle_unknown_rows,
    oracle_weights,
    view_rankings,
)

DOCS = ("d0", "d1", "d2", "d3")  # with UNLABELED, pools stay small enough to enumerate
UNLABELED = ("u0", "u1")  # never given an alignment row
EXTRA = ("s0",)  # scored only: in the universe, in no ranking and no pool


def _ranking(draw, q):
    order = draw(st.permutations(DOCS + UNLABELED))
    return Ranking(q, tuple(order[:draw(st.integers(1, 5))]))


@st.composite
def corpora(draw):
    g = draw(st.integers(2, 3))
    rows = {}
    for d in DOCS:
        kind = draw(st.sampled_from(("hard", "soft", "unlabeled")))
        if kind == "hard":
            row = np.zeros(g)
            row[draw(st.integers(0, g - 1))] = 1.0
            rows[d] = row
        elif kind == "soft":
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g)))
            rows[d] = raw / raw.sum()
    draws, grades = [], {}
    for i in range(draw(st.integers(1, 3))):
        q = f"q{i}"
        grades[q] = {d: y for d in DOCS + UNLABELED
                     if (y := draw(st.sampled_from((None, None, 0.0, 1.0, 2.0)))) is not None}
        shared = [] if draw(st.booleans()) else [
            _ranking(draw, q) for _ in range(draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(1, 4))):
            draws.append((q, draw(st.sampled_from(shared)) if shared else _ranking(draw, q)))
    draws = draw(st.permutations(draws))
    grades["q_other"] = {"o0": 1.0}  # judged outside the sequence
    model = WeightModel(draw(st.sampled_from(WEIGHT_KINDS)), draw(st.floats(0.1, 1.0)))
    policy = draw(st.sampled_from(("exclude", "group")))
    pool = draw(st.sampled_from(("judged", "retrieved", "union")))
    return g, rows, RankingSequence(tuple(draws)), grades, model, policy, pool


def _context(g, rows, seq, grades, policy):
    al = AlignmentMatrix(rows, n_groups=g)
    groups = GroupSpace(tuple(f"g{i}" for i in range(g)), protected_index=0)
    scores = {"q0": {d: 1.0 for d in EXTRA}}
    return _Context("s", *compile_run(seq, RelevanceTable(grades), al, groups,
                                      EvalConfig(unknown_policy=policy), scores))


def _variant_rows(ctx, rows, universe):
    """Each variant's rows per document, from the oracles."""
    ext = rows
    if ctx.config.unknown_policy == "group":
        ext = oracle_unknown_rows(rows, ctx.groups.g, universe)
    return {"base": rows, "ext": ext, "bin": oracle_binarize_rows(rows, 0, 0.5)}


def _labeled(ctx, r):
    """The base alignment rows of ranking r's labeled documents, in rank order."""
    rows = ctx.labels["base"].rows[r]
    return ctx.alignment.dense()[rows[rows >= 0]]


def _oracle_draw_exposure(ranking, rows, judged, n_groups, model, y_max, utility=False):
    stop = (lambda y: y / y_max) if y_max > 0 else None
    ys = [judged.get(d, 0.0) for d in ranking.docs]
    w = oracle_weights(model.kind, model.gamma, list(range(1, len(ranking) + 1)), ys, stop)
    if utility:
        w = [wi * y for wi, y in zip(w, ys)]
    return oracle_group_exposure(ranking.docs, rows, w, n_groups)


def _close(got, want):
    return np.allclose(got, want, rtol=1e-12, atol=1e-14)


@given(corpora())
@settings(max_examples=200, deadline=None)
def test_compiled_context_matches_oracles(corpus):
    g, rows, seq, grades, model, policy, pool = corpus
    ctx = _context(g, rows, seq, grades, policy)
    rel = ctx.qrels
    view = ctx.view
    universe = ({d for _, r in seq.draws for d in r.docs} | set(EXTRA)
                | {d for judged in grades.values() for d in judged})
    assert view.docs == sorted(universe)

    # binarize keeps the row order and the group policy only appends rows, so
    # one index serves every variant
    base_docs = list(ctx.alignment.docs())
    assert list(ctx.bin_alignment.docs()) == base_docs
    assert list(ctx.ext_alignment.docs())[:len(base_docs)] == base_docs
    variants = _variant_rows(ctx, rows, universe)
    n_groups = {"base": g, "ext": ctx.ext_groups.g, "bin": 2}
    alignments = {"base": ctx.alignment, "ext": ctx.ext_alignment, "bin": ctx.bin_alignment}
    for name, labels in ctx.labels.items():
        assert np.array_equal(labels.dense, alignments[name].dense())
        for r, ranking in enumerate(view_rankings(view)):
            docs = list(ranking.docs) + [None] * (view.ids.shape[1] - len(ranking))
            for k, d in enumerate(docs):
                i = labels.rows[r, k]
                if d is None or d not in variants[name]:
                    assert i == -1
                else:
                    assert labels.dense[i].tolist() == pytest.approx(list(variants[name][d]))
                    assert alignments[name].row(d).tolist() == labels.dense[i].tolist()
    for r, ranking in enumerate(view_rankings(view)):
        want = [rel.grade(ranking.request, d) for d in ranking.docs]
        assert view.grades[r].tolist() == want + [0.0] * (view.ids.shape[1] - len(ranking))
        labeled = [rows[d] for d in ranking.docs if d in rows]
        assert np.array_equal(_labeled(ctx, r), np.array(labeled).reshape(-1, g))

    # exposure per ranking and per request, on every variant
    y_max = rel.max_grade()
    for name in ("base", "ext", "bin"):
        per_ranking, count = ctx.ranking_exposures(model, name)
        for r, ranking in enumerate(view_rankings(view)):
            if any(d in variants[name] for d in ranking.docs):
                want = _oracle_draw_exposure(ranking, variants[name], grades[ranking.request],
                                             n_groups[name], model, y_max)
                assert _close(per_ranking[r], want)
            else:
                assert count[r] == 0 and not per_ranking[r].any()
    # AWRF reads the base exposures; FAIR the labeled rows' protected column
    equal = TargetDistribution.equal(g)
    awrfs = {dist: awrf_scores(*ctx.ranking_exposures(model, "base"), ctx.groups, equal, dist,
                               signed=True)
             for dist in ("nd", "kl")}
    for r, ranking in enumerate(view_rankings(view)):
        labeled_docs = [d for d in ranking.docs if d in rows]
        want = _oracle_draw_exposure(ranking, rows, grades[ranking.request], g, model, y_max)
        for dist in ("nd", "kl"):
            value, reason = awrfs[dist].values[r], awrfs[dist].reasons[r]
            if not labeled_docs or want.sum() <= 0:
                assert np.isnan(value) and reason is not None
                continue
            share = want / want.sum()
            expected = (share[0] - 1.0 / g if dist == "nd"
                        else oracle_kl_bits(share.tolist(), [1.0 / g] * g))
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)
        mask = [rows[d][0] >= 0.5 for d in labeled_docs]
        res = fair_score(_labeled(ctx, r)[:, 0] >= 0.5, 0.3)
        if mask:
            assert res.value == pytest.approx(oracle_fair(mask, 0.3), rel=1e-9, abs=1e-12)
        else:
            assert res.degenerate == "no_labeled_docs"

    for binarized in (False, True):
        name = "bin" if binarized else "ext"
        got = ctx.exposures(model, binarized)
        for q in seq.requests():
            draws = seq.draws_for(q)
            i = view.request_index[q]
            if any(d in variants[name] for r in draws for d in r.docs):
                want = sum(_oracle_draw_exposure(r, variants[name], grades[q], n_groups[name],
                                                 model, y_max) for r in draws) / len(draws)
                assert got.labeled[i] and _close(got.eps[i], want)
            else:
                assert not got.labeled[i] and not got.eps[i].any()

    # pools, group utility and discounted utility on the binarized variant
    rho = seq.rho()
    pools = {q: oracle_pool(grades[q], seq.draws_for(q), pool) for q in seq.requests()}
    docs, ys, at = view.pools(pool)
    for q in seq.requests():
        i = view.request_index[q]
        assert [view.docs[d] for d in docs[at[i]:at[i + 1]]] == pools[q]
        assert ys[at[i]:at[i + 1]].tolist() == [grades[q].get(d, 0.0) for d in pools[q]]
    try:
        want = oracle_group_utility(seq.requests(), rho, pools, grades, variants["bin"], 2)
    except EmptyGroup:
        with pytest.raises(EmptyGroup):
            ctx.utility(pool, "arrival")
    else:
        assert _close(ctx.utility(pool, "arrival"), want)
    gamma_disc = sum(rho[q] * sum(_oracle_draw_exposure(r, variants["bin"], grades[q], 2, model,
                                                        y_max, utility=True)
                                  for r in seq.draws_for(q)) / len(seq.draws_for(q))
                     for q in seq.requests())
    got, _ = view.reduce("arrival", *discounted_utility_of(view, ctx.labels["bin"],
                                                            ctx.weights(model)))
    assert _close(got, gamma_disc)

    # expected exposure loss over the pool, with the ideal policy as target
    exposures = ctx.exposures(model, binarized=False).eps
    stop = (lambda y: y / y_max) if y_max > 0 else None
    eps_acc, tgt_acc, weight, skipped = 0.0, 0.0, 0.0, 0
    for q in seq.requests():
        cands = pools[q]
        ys = [grades[q].get(d, 0.0) for d in cands]
        if not cands or max(ys) <= 0 or not any(d in variants["ext"] for d in cands):
            skipped += 1
            continue
        tgt = oracle_target_exposure(cands, ys, variants["ext"], n_groups["ext"], model.kind,
                                     model.gamma, stop)
        eps_acc = eps_acc + rho[q] * exposures[view.request_index[q]]
        tgt_acc = tgt_acc + rho[q] * tgt
        weight += rho[q]
    args = (view, "arrival", *exposure_loss_of(view, ctx.labels["ext"], model,
                                               resolve_stop(model, rel), exposures, pool))
    if weight == 0:
        with pytest.raises(AllDegenerate):
            exposure_loss(*args)
        return
    res = exposure_loss(*args)
    eps, tgt = eps_acc / weight, tgt_acc / weight
    assert (res.n_requests, res.n_skipped) == (len(seq.requests()), skipped)
    assert res.eel == pytest.approx(float((eps - tgt) @ (eps - tgt)), rel=1e-9, abs=1e-12)
    assert res.eer == pytest.approx(2.0 * float(eps @ tgt), rel=1e-9, abs=1e-12)
    assert res.eed_raw == pytest.approx(float(eps @ eps), rel=1e-9, abs=1e-12)
