"""Acceptance suite: one test per exit criterion, with oracle recomputation.

Each test prints a PASS line on success (visible with ``pytest -s`` or in the
captured output); a failing criterion fails its test.  Expected values are
recomputed by the independent oracles in ``oracles.py`` before being asserted
against the implementation.
"""

import math
import time
from itertools import permutations

import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    DegenerateDenominator,
    DegenerateUtility,
    EmptyGroup,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    UndefinedNormalizer,
    WeightModel,
    accuracy_table,
    awrf,
    delta_kl,
    delta_nd,
    delta_rd,
    demographic_parity,
    discounted_group_utility,
    ee_decompose,
    eed,
    eur,
    expected_exposure,
    fair_score,
    group_exposure,
    group_utility,
    iaa,
    intra_inter,
    kendall_tau_c,
    pairwise_accuracy,
    position_weights,
    pref_fairness,
    pref_normalizer,
    protected_mask,
    rur,
    sample_pairs,
    system_exposure,
    request_exposure,
    target_exposure,
)
from fairrank.cli import main
from fairrank.distance import share_pair
from fairrank.exposure import weight_vector
from fairrank.ingest import parse_alignment, parse_run, parse_sequence
from fairrank.report import correlation_matrix, read_metrics_table
from fairrank.synth import SynthSpec, generate

from conftest import request_exposures
from oracles import (
    oracle_fair,
    oracle_group_exposure,
    oracle_kl_bits,
    oracle_pairwise_accuracy,
    oracle_prefd_normalizer_exhaustive,
    oracle_prefd_raw,
    oracle_tau_c,
    oracle_tau_c_pairs,
    oracle_target_exposure,
    oracle_weights,
)

GS = GroupSpace(("A", "B"), protected_index=0)
GEO = WeightModel("geometric", 0.5)
TOL = 1e-9


def _report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_c01_hand_value_suite():
    """Every derived example: oracle first, then implementation, to 1e-9."""
    start = time.time()
    checks = []

    def check(name, got, want):
        assert got == pytest.approx(want, abs=TOL), f"{name}: {got} != {want}"
        checks.append(name)

    # position weights
    check("geometric-weights",
          weight_vector(GEO, [1, 2, 3]).tolist(),
          oracle_weights("geometric", 0.5, [1, 2, 3]))
    assert oracle_weights("geometric", 0.5, [1, 2, 3]) == pytest.approx([0.5, 0.25, 0.125])
    check("log-weights",
          weight_vector(WeightModel("logarithmic"), [1, 2, 4]).tolist(),
          oracle_weights("logarithmic", 0.5, [1, 2, 4]))
    assert oracle_weights("logarithmic", 0.5, [1, 2, 4]) == pytest.approx([1.0, 1.0, 0.5])

    # group exposure, raw and normalized
    al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
    r = Ranking("q", ("a", "b"))
    w = position_weights(GEO, r)
    raw_oracle = oracle_group_exposure(["a", "b"], {"a": [1, 0], "b": [0, 1]},
                                       oracle_weights("geometric", 0.5, [1, 2]), 2)
    check("group-exposure-raw", group_exposure(r, al, w, GS).tolist(), raw_oracle.tolist())
    assert raw_oracle == pytest.approx([0.5, 0.25])
    check("group-exposure-norm", group_exposure(r, al, w, GS, normalize=True).tolist(),
          (raw_oracle / raw_oracle.sum()).tolist())

    # weighted system exposure
    per = {"q1": np.array([1.0, 0.0]), "q2": np.array([0.0, 1.0])}
    check("system-exposure-weighted",
          system_exposure(per, {"q1": 0.25, "q2": 0.75}).tolist(),
          [0.25 * 1.0, 0.75 * 1.0])

    # target exposure over the two ideal orderings of grades [1,1,0]
    al2 = AlignmentMatrix({"x": [1, 0], "y": [1, 0], "z": [0, 1]})
    rel2 = RelevanceTable({"q": {"x": 1.0, "y": 1.0, "z": 0.0}})
    tgt_oracle = oracle_target_exposure(
        ["x", "y", "z"], [1.0, 1.0, 0.0],
        {"x": np.array([1.0, 0]), "y": np.array([1.0, 0]), "z": np.array([0, 1.0])},
        2, "geometric", 0.5)
    check("target-exposure",
          target_exposure("q", ["x", "y", "z"], rel2, al2, GEO, GS).tolist(),
          tgt_oracle.tolist())
    assert tgt_oracle == pytest.approx([0.75, 0.125])

    # distances
    check("delta-nd-under", delta_nd(share_pair(0.3), share_pair(0.5)), 0.3 - 0.5)
    check("delta-nd-over", delta_nd(share_pair(1.0), share_pair(0.5)), 1.0 - 0.5)
    check("delta-rd", delta_rd(share_pair(0.2), share_pair(0.5)), 0.25 - 1.0)
    check("delta-kl-max", delta_kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])),
          oracle_kl_bits([1.0, 0.0], [0.5, 0.5]))
    check("delta-kl-hand", delta_kl(np.array([0.75, 0.25]), np.array([0.5, 0.5])),
          oracle_kl_bits([0.75, 0.25], [0.5, 0.5]))

    # prefix fairness: protected block first, composition target
    mask = [True] * 10 + [False] * 10
    al3 = AlignmentMatrix({f"d{i}": ([1, 0] if m else [0, 1]) for i, m in enumerate(mask)})
    r3 = Ranking("q", tuple(f"d{i}" for i in range(20)))
    raw = oracle_prefd_raw(mask, 0.5, 10)
    z = oracle_prefd_normalizer_exhaustive(12, 6, 0.5, 10)  # sanity: oracle works
    assert z >= 0
    z20 = max(oracle_prefd_raw([True] * 10 + [False] * 10, 0.5, 10),
              oracle_prefd_raw([False] * 10 + [True] * 10, 0.5, 10))
    check("prefd-block", pref_fairness(r3, al3, GS).value, min(raw / z20, 1.0))
    assert raw / z20 == pytest.approx(1.0)
    check("pref-normalizer", pref_normalizer(20, 10, 0.5), z20)
    assert z20 == pytest.approx(0.5 / math.log2(10))
    # random-permutation search never beats the extreme-arrangement normalizer
    rng = np.random.default_rng(0)
    for _ in range(200):
        perm = list(rng.permutation(mask))
        assert oracle_prefd_raw(perm, 0.5, 10) <= z20 + 1e-12
    # spec example "N=10, n_protected=5 -> 0.1505" contradicts the normalizer
    # definition; the exhaustive oracle shows no arrangement scores above zero
    assert oracle_prefd_normalizer_exhaustive(10, 5, 0.5, 10) == 0.0
    with pytest.raises(UndefinedNormalizer):
        pref_normalizer(10, 5, 0.5)
    checks.append("pref-normalizer-degenerate-composition")

    # FAIR, both conventions
    check("fair-n1-cdf", fair_score(np.array([True]), 0.5).value,
          oracle_fair([True], 0.5))
    check("fair-n1-verbatim", fair_score(np.array([True]), 0.5, paper_verbatim=True).value,
          oracle_fair([True], 0.5, include_zero=False))
    assert oracle_fair([True], 0.5) == pytest.approx(1.0)
    assert oracle_fair([True], 0.5, include_zero=False) == pytest.approx(0.5)
    check("fair-n2-protected", fair_score(np.array([True, True]), 0.5).value,
          oracle_fair([True, True], 0.5))
    check("fair-n2-unprotected", fair_score(np.array([False, False]), 0.5).value,
          oracle_fair([False, False], 0.5))
    assert oracle_fair([False, False], 0.5) == pytest.approx(0.375)

    # AWRF
    check("awrf-two-docs",
          awrf(r, al, GS, GEO, TargetDistribution(np.array([0.5, 0.5]))).value,
          abs(raw_oracle[0] / raw_oracle.sum() - 0.5))
    assert abs(raw_oracle[0] / raw_oracle.sum() - 0.5) == pytest.approx(1 / 6)
    al_one = AlignmentMatrix({"a": [1, 0], "b": [1, 0]})
    check("awrf-single-group",
          awrf(Ranking("q", ("a", "b")), al_one, GS, GEO,
               TargetDistribution(np.array([0.5, 0.5]))).value, 0.5)

    # exposure ratios
    check("dp-ratio", demographic_parity(np.array([0.25, 0.75]), GS), 0.25 / 0.75)
    check("eed-half", eed(np.array([0.5, 0.5])), 0.25 + 0.25)
    check("eed-max", eed(np.array([1.0, 0.0])), 1.0)
    check("eur-hand", eur(np.array([0.5, 0.5]), np.array([0.25, 0.75]), GS),
          (0.5 / 0.25) / (0.5 / 0.75))
    check("rur-hand", rur(np.array([0.2, 0.1]), np.array([0.4, 0.4]), GS),
          (0.2 / 0.4) / (0.1 / 0.4))
    check("iaa-hand", iaa(np.array([0.6, 0.4]), np.array([0.5, 0.5])),
          abs(0.6 - 0.5) + abs(0.4 - 0.5))
    check("iaa-max", iaa(np.array([1.0, 0.0]), np.array([0.0, 1.0])), 2.0)

    # group utilities
    al4 = AlignmentMatrix({"p1": [1, 0], "p2": [1, 0], "u1": [0, 1], "u2": [0, 1]})
    rel4 = RelevanceTable({"q": {"p1": 1.0, "p2": 0.0, "u1": 1.0, "u2": 1.0}})
    seq4 = RankingSequence((("q", Ranking("q", ("p1", "p2", "u1", "u2"))),))
    check("upsilon-means", group_utility(seq4, rel4, al4, GS).tolist(),
          [(1.0 + 0.0) / 2, (1.0 + 1.0) / 2])
    al5 = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
    rel5 = RelevanceTable({"q": {"a": 1.0}})
    seq5 = RankingSequence((("q", Ranking("q", ("a", "b"))),))
    check("gamma-single-draw",
          discounted_group_utility(seq5, rel5, al5, GS, GEO).tolist(), [0.5 * 1.0, 0.0])
    seq5b = RankingSequence((("q", Ranking("q", ("a", "b"))),
                             ("q", Ranking("q", ("b", "a")))))
    check("gamma-two-draws",
          discounted_group_utility(seq5b, rel5, al5, GS, GEO).tolist(),
          [(0.5 + 0.25) / 2, 0.0])

    # expected-exposure decomposition
    check("ee-hand", ee_decompose(np.array([0.6, 0.4]), np.array([0.5, 0.5])),
          (0.01 + 0.01, 2 * (0.3 + 0.2), 0.36 + 0.16))
    check("ee-max-loss", ee_decompose(np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0], 2.0)

    # pairwise: the tie rule over one (protected relevant, unprotected negative)
    # pair per request
    tie_scores = {"q1": {"a": 0.9, "b": 0.1}, "q2": {"c": 0.8, "d": 0.2},
                  "q3": {"e": 0.5, "f": 0.5}}
    tie_rel = RelevanceTable({"q1": {"a": 1.0}, "q2": {"c": 1.0}, "q3": {"e": 1.0}})
    tie_al = AlignmentMatrix({d: [1, 0] if d in "ace" else [0, 1] for d in "abcdef"})
    pairs = sample_pairs(tie_rel, tie_scores, tie_al, GS).pairs
    check("pairwise-tie-rule", pairwise_accuracy(pairs, 0, 1), (1 + 1 + 0.5) / 3)
    check("intra-inter-hand",
          intra_inter({(1, 1): 0.9, (0, 0): 0.7, (1, 0): 0.8, (0, 1): 0.8}), (0.2, 0.0))
    rel6 = RelevanceTable({"q": {"p1": 1.0, "n1": 0.0, "n2": 0.0}})
    sc6 = {"q": {"p1": 0.9, "n1": 0.5, "n2": 0.7}}
    al6 = AlignmentMatrix({"p1": [1, 0], "n1": [0, 1], "n2": [0, 1]})
    check("sample-pairs-count",
          len(sample_pairs(rel6, sc6, al6, GS, n_negatives=10).pairs), 2)

    # tau-c
    check("tau-one-swap", kendall_tau_c([1, 2, 3, 4], [1, 3, 2, 4]),
          oracle_tau_c_pairs([1, 2, 3, 4], [1, 3, 2, 4]))
    assert oracle_tau_c_pairs([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)
    check("tau-reversed", kendall_tau_c([1, 2, 3, 4], [4, 3, 2, 1]),
          oracle_tau_c([1, 2, 3, 4], [4, 3, 2, 1]))
    assert oracle_tau_c([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    elapsed = time.time() - start
    assert elapsed < 5.0, f"hand-value suite took {elapsed:.1f}s"
    _report("C1", f"{len(checks)} derived examples match their oracles to 1e-9 "
                  f"in {elapsed:.2f}s")


def test_c01_synth_unbiased_dp_near_parity(tmp_path):
    """Zero-skew generator: DP ~ 1, checked against a from-scratch oracle."""
    spec = SynthSpec(n_docs=240, n_requests=40, n_systems=1, depth=16, seed=5,
                     exposure_skew=0.0, relevance_skew=0.0)
    paths = generate(spec, tmp_path)
    run = parse_run(paths["runs"][0])
    al, gs = parse_alignment(paths["alignment"])
    gs = GroupSpace(gs.names, protected_index=0)
    seq = parse_sequence(paths["sequence"], run)

    # oracle: plain loops over the files, logarithmic weights, hard membership
    plus = minus = 0.0
    for q in sorted(run.rankings):
        e_plus = e_minus = 0.0
        for i, d in enumerate(run.rankings[q].docs, start=1):
            row = al.row(d)
            if row is None:
                continue
            w = 1.0 / math.log2(max(i, 2))
            if row[0] >= 0.5:
                e_plus += w
            else:
                e_minus += w
        plus += e_plus / len(run.rankings)
        minus += e_minus / len(run.rankings)
    dp_oracle = plus / minus

    from fairrank import binarize
    bal, bgs = binarize(al, gs)
    model = WeightModel("logarithmic")
    per = {q: request_exposure(seq, q, bal, bgs, model) for q in seq.requests()}
    dp_impl = demographic_parity(system_exposure(per, seq.rho()), bgs)
    assert dp_impl == pytest.approx(dp_oracle, abs=TOL)
    assert abs(math.log2(dp_impl)) < 0.5, f"DP={dp_impl} too far from parity"
    _report("C1", f"unbiased synthetic system has DP={dp_impl:.3f} (~1), "
                  "matching the file-level oracle")


def test_c02_target_and_request_exposure_oracle():
    start = time.time()
    rng = np.random.default_rng(202)
    stop = lambda y: y / 2.0
    kinds = ("geometric", "logarithmic", "rbp", "cascade")
    n_corpora = 0
    while n_corpora < 200:
        n = int(rng.integers(2, 7))
        g = int(rng.integers(2, 4))
        docs = [f"d{i}" for i in range(n)]
        rows = {}
        for d in docs:
            if rng.random() < 0.15:
                continue  # unlabeled
            if rng.random() < 0.5:
                vec = rng.dirichlet(np.ones(g))
            else:
                vec = np.zeros(g)
                vec[rng.integers(g)] = 1.0
            rows[d] = vec
        if not rows:
            continue
        grades = {d: float(rng.integers(0, 3)) for d in docs}
        al = AlignmentMatrix(rows, n_groups=g)
        rel = RelevanceTable({"q": grades})
        gs = GroupSpace(tuple(f"g{i}" for i in range(g)), protected_index=0)
        kind = kinds[n_corpora % 4]
        model = WeightModel(kind, float(rng.uniform(0.3, 0.9)),
                            stop=stop if kind == "cascade" else None)

        got = target_exposure("q", docs, rel, al, model, gs)
        want = oracle_target_exposure(docs, [grades[d] for d in docs], rows, g,
                                      kind, model.gamma,
                                      stop=stop if kind == "cascade" else None)
        assert np.max(np.abs(got - want)) <= 1e-12

        # request exposure equals the mean over enumerated draws
        k = int(rng.integers(1, 4))
        draws = []
        for _ in range(k):
            m = int(rng.integers(1, n + 1))
            perm = [docs[i] for i in rng.permutation(n)[:m]]
            draws.append(Ranking("q", tuple(perm)))
        if all(not any(d in rows for d in r.docs) for r in draws):
            continue
        usable = [r for r in draws if any(d in rows for d in r.docs)]
        if len(usable) != len(draws):
            continue
        seq = RankingSequence(tuple(("q", r) for r in draws))
        got_req = request_exposure(seq, "q", al, gs, model, rel)
        per_draw = []
        for r in draws:
            ws = oracle_weights(kind, model.gamma, list(range(1, len(r.docs) + 1)),
                                [grades[d] for d in r.docs],
                                stop if kind == "cascade" else None)
            per_draw.append(oracle_group_exposure(list(r.docs), rows, ws, g))
        want_req = np.mean(np.stack(per_draw), axis=0)
        assert np.max(np.abs(got_req - want_req)) <= 1e-12
        n_corpora += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"exposure oracle suite took {elapsed:.1f}s"
    _report("C2", f"200 random corpora match exhaustive ideal-policy averaging "
                  f"and enumerated-draw means to 1e-12 in {elapsed:.1f}s")


def test_c03_ee_decomposition_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        g = int(rng.integers(1, 6))
        eps = rng.random(g) * rng.uniform(0.1, 5)
        tgt = rng.random(g) * rng.uniform(0.1, 5)
        eel, eer, eed_raw = ee_decompose(eps, tgt)
        resid = abs(eel - (eed_raw - eer + float(tgt @ tgt)))
        worst = max(worst, resid)
        assert resid <= 1e-12
    _report("C3", f"EEL = EED_raw - EER + ||target||^2 holds on 1000 random pairs "
                  f"(worst residual {worst:.2e})")


def _random_system(rng):
    """A small random corpus + single-request ranking sequence."""
    n = int(rng.integers(10, 17))
    docs = [f"d{i}" for i in range(n)]
    rows = {}
    for d in docs:
        if rng.random() < 0.1:
            continue
        vec = np.zeros(2)
        vec[int(rng.integers(2))] = 1.0
        rows[d] = vec
    if not rows:
        return None
    al = AlignmentMatrix(rows, n_groups=2)
    grades = {d: float(rng.choice([0, 0, 1, 2])) for d in docs}
    rel = RelevanceTable({"q": grades})
    ranked = [docs[i] for i in rng.permutation(n)]
    ranking = Ranking("q", tuple(ranked))
    seq = RankingSequence((("q", ranking),))
    scores = {"q": {d: float(rng.random()) for d in docs}}
    return al, rel, ranking, seq, scores


def test_c04_ranges_and_fair_endpoints():
    rng = np.random.default_rng(404)
    catalog_target = TargetDistribution(np.array([0.5, 0.5]))
    n_checked = 0
    while n_checked < 500:
        made = _random_system(rng)
        if made is None:
            continue
        al, rel, ranking, seq, scores = made
        res = awrf(ranking, al, GS, GEO, catalog_target)
        if res.ok:
            assert 0.0 <= res.value <= 1.0
        res = pref_fairness(ranking, al, GS)
        if math.isfinite(res.value):
            assert 0.0 <= res.value <= 1.0
        mask = protected_mask(ranking, al, GS)
        if mask.size:
            assert 0.0 <= fair_score(mask, 0.5).value <= 1.0
        try:
            ee = expected_exposure(seq, rel, al, GS, GEO,
                                   request_exposures(seq, rel, al, GS, GEO))
            assert ee.eel >= 0.0
        except Exception:
            pass
        per = {"q": request_exposure(seq, "q", al, GS, GEO, rel)}
        eps = system_exposure(per)
        assert eed(eps) >= 0.0
        util = np.array([sum(v for d, v in scores["q"].items()
                             if d in al and al.row(d)[g] > 0.5) for g in range(2)])
        if util.sum() > 0 and eps.sum() > 0:
            assert 0.0 <= iaa(eps, util) <= 2.0
        n_checked += 1

    # perfectly fair constructions hit each More-Fair endpoint
    al_soft = AlignmentMatrix({"m": [0.6, 0.4]})
    v = awrf(Ranking("q", ("m",)), al_soft, GS, GEO,
             TargetDistribution(np.array([0.6, 0.4]))).value
    assert abs(v - 0.0) < 1e-6  # exposure == target

    inter = [f"d{i}" for i in range(20)]
    al_inter = AlignmentMatrix({d: [1, 0] if i % 2 == 0 else [0, 1]
                                for i, d in enumerate(inter)})
    assert abs(pref_fairness(Ranking("q", tuple(inter)), al_inter, GS).value) < 1e-6

    assert abs(fair_score(np.array([True] * 12), 0.5).value - 1.0) < 1e-6

    # ideal policy: draws enumerate the within-tier permutations
    al_i = AlignmentMatrix({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
    rel_i = RelevanceTable({"q": {"a": 1.0, "b": 1.0, "c": 0.0}})
    seq_i = RankingSequence((("q", Ranking("q", ("a", "b", "c"))),
                             ("q", Ranking("q", ("b", "a", "c")))))
    ee_i = expected_exposure(seq_i, rel_i, al_i, GS, GEO,
                             request_exposures(seq_i, rel_i, al_i, GS, GEO), pool="judged")
    assert abs(ee_i.eel) < 1e-6
    tgt_i = target_exposure("q", ["a", "b", "c"], rel_i, al_i, GEO, GS)
    assert abs(ee_i.eer - 2 * float(tgt_i @ tgt_i)) < 1e-6  # EER at its ideal value

    assert abs(eed(np.array([0.7, 0.7])) - 0.5) < 1e-6      # equality -> 1/g
    assert abs(demographic_parity(np.array([0.3, 0.3]), GS) - 1.0) < 1e-6
    assert abs(iaa(np.array([0.4, 0.6]), np.array([0.8, 1.2]))) < 1e-6

    # group-symmetric scorer: mirrored corpus, zero intra/inter gaps
    rel_s = RelevanceTable({"q": {"p_hi": 2.0, "u_hi": 2.0, "p_lo": 1.0, "u_lo": 1.0}})
    sc_s = {"q": {"p_hi": 0.9, "u_hi": 0.9, "p_lo": 0.4, "u_lo": 0.4,
                  "p_n": 0.1, "u_n": 0.1}}
    al_s = AlignmentMatrix({d: [1, 0] if d.startswith("p") else [0, 1] for d in sc_s["q"]})
    sample = sample_pairs(rel_s, sc_s, al_s, GS, n_negatives=100)
    intra, inter_ = intra_inter(accuracy_table(sample.pairs))
    assert abs(intra) < 1e-6 and abs(inter_) < 1e-6

    _report("C4", "500 random systems respect the documented ranges; fair "
                  "constructions hit every More-Fair endpoint within 1e-6")


def test_c05_edge_case_ledger():
    # empty unprotected side: ratio distance blows up, never a finite value
    with pytest.raises(DegenerateDenominator):
        delta_rd(share_pair(1.0), share_pair(0.5))

    al_all_prot = AlignmentMatrix({f"d{i}": [1, 0] for i in range(12)})
    r_all_prot = Ranking("q", tuple(f"d{i}" for i in range(12)))
    with pytest.raises(DegenerateDenominator):
        pref_fairness(r_all_prot, al_all_prot, GS,
                      target=TargetDistribution(np.array([0.5, 0.5])), dist="rd")

    # zero-utility group
    with pytest.raises(DegenerateUtility):
        eur(np.array([0.5, 0.5]), np.array([0.0, 0.5]), GS)
    with pytest.raises(DegenerateUtility):
        rur(np.array([0.2, 0.2]), np.array([0.5, 0.0]), GS)
    with pytest.raises(DegenerateDenominator):
        rur(np.array([0.2, 0.0]), np.array([0.5, 0.5]), GS)

    # empty protected group: utilities are undefined upstream
    al_unprot = AlignmentMatrix({"b1": [0, 1], "b2": [0, 1]})
    rel = RelevanceTable({"q": {"b1": 1.0, "b2": 1.0}})
    seq = RankingSequence((("q", Ranking("q", ("b1", "b2"))),))
    with pytest.raises(EmptyGroup):
        group_utility(seq, rel, al_unprot, GS)
    # ... and prefD's composition admits no unfairness: flagged, not silent
    r12 = Ranking("q", tuple(f"b{i}" for i in range(12)))
    al12 = AlignmentMatrix({f"b{i}": [0, 1] for i in range(12)})
    res = pref_fairness(r12, al12, GS)
    assert res.degenerate == "undefined_normalizer"

    # all-unlabeled list
    al_none = AlignmentMatrix({"elsewhere": [1, 0]})
    r_unl = Ranking("q", ("x", "y", "z"))
    res = pref_fairness(r_unl, al_none, GS)
    assert res.degenerate == "no_labeled_docs" and math.isnan(res.value)
    res = awrf(r_unl, al_none, GS, GEO, TargetDistribution(np.array([0.5, 0.5])))
    assert res.degenerate is not None and math.isnan(res.value)
    with pytest.raises(Degenerate):
        group_exposure(r_unl, al_none, np.ones(3), GS)

    # short list
    r_short = Ranking("q", tuple(f"d{i}" for i in range(8)))
    al_short = AlignmentMatrix({f"d{i}": [1, 0] if i < 4 else [0, 1] for i in range(8)})
    res = pref_fairness(r_short, al_short, GS)
    assert res.degenerate == "short_list" and res.value == 0.0

    _report("C5", "empty-group, zero-utility, all-unlabeled, and short-list edges "
                  "all produce their documented flags or errors")


def test_c06_pairwise_oracle_and_antisymmetry():
    rng = np.random.default_rng(606)
    for trial in range(40):
        n = int(rng.integers(4, 21))
        docs = [f"d{i}" for i in range(n)]
        judged = {d: float(rng.choice([0, 0, 0, 1, 2])) for d in docs}
        scores = {d: float(rng.integers(0, 5)) for d in docs}
        labels = {d: int(rng.integers(0, 2)) for d in docs}
        rel = RelevanceTable({"q": judged})
        al = AlignmentMatrix({d: [1, 0] if g == 0 else [0, 1] for d, g in labels.items()})
        sample = sample_pairs(rel, {"q": scores}, al, GS, n_negatives=10**6)
        cells = {}
        for g1 in (0, 1):
            for g2 in (0, 1):
                want = oracle_pairwise_accuracy(judged, scores, labels.get, g1, g2)
                if want is None:
                    continue
                got = pairwise_accuracy(sample.pairs, g1, g2)
                assert got == want, f"exact mismatch at ({g1},{g2})"
                cells[(g1, g2)] = got
        if len(cells) == 4:
            intra, inter = intra_inter(cells)
            swapped = {(1 - a, 1 - b): v for (a, b), v in cells.items()}
            intra2, inter2 = intra_inter(swapped)
            assert intra2 == -intra and inter2 == -inter
    _report("C6", "exhaustive-fallback sampling equals brute-force pair counting "
                  "exactly; group-swap antisymmetry is exact")


def test_c07_tau_c_oracle():
    # exhaustive: every ordering of up to 8 systems against the identity
    for n in range(2, 9):
        base = list(range(1, n + 1))
        for perm in permutations(base):
            got = kendall_tau_c(base, perm)
            want = oracle_tau_c_pairs(base, perm)
            assert got == pytest.approx(want, abs=1e-12)
    # scipy cross-check on every ordering of up to 6 systems
    for n in range(2, 7):
        base = list(range(1, n + 1))
        for perm in permutations(base):
            assert kendall_tau_c(base, perm) == pytest.approx(
                oracle_tau_c(base, perm), abs=1e-12)
    # 1000 random tied lists against both oracles
    rng = np.random.default_rng(707)
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 10))
        x = rng.integers(0, 4, n).astype(float)
        y = rng.integers(0, 4, n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        got = kendall_tau_c(x, y)
        assert got == pytest.approx(oracle_tau_c(x, y), abs=1e-12)
        assert got == pytest.approx(oracle_tau_c_pairs(list(x), list(y)), abs=1e-12)
        done += 1
    assert kendall_tau_c([1, 2, 3, 4, 5], [2, 4, 6, 8, 10]) == pytest.approx(1.0)
    assert kendall_tau_c([1, 2, 3, 4, 5], [9, 7, 5, 3, 1]) == pytest.approx(-1.0)
    _report("C7", "tau-c matches brute-force pair classification exhaustively "
                  "(n<=8) and on 1000 random tied lists")


def test_c08_metric_disagreement_smoke(tmp_path):
    start = time.time()
    spec = SynthSpec(n_docs=600, n_requests=40, n_systems=10, depth=20, seed=42,
                     exposure_skew=0.9, relevance_skew=0.4, unlabeled_fraction=0.05)
    paths = generate(spec, tmp_path / "corpus")
    argv = ["evaluate"]
    for p in paths["runs"]:
        argv += ["--run", str(p)]
    for p in paths["scores"]:
        argv += ["--scores", str(p)]
    argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
             "--sequence", str(paths["sequence"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert main(["compare", "--results", str(tmp_path / "out")]) == 0

    matrix = correlation_matrix(read_metrics_table(tmp_path / "out" / "metrics.csv"))
    ee_awrf = matrix.tau("EEL", "AWRF_equal")
    assert ee_awrf > 0.0, "EEL and AWRF_equal should agree on this construction"
    k = len(matrix.metrics)
    off_diag = [matrix.taus[i, j] for i in range(k) for j in range(i + 1, k)
                if not math.isnan(matrix.taus[i, j])]
    assert min(off_diag) < 0.5, "expected at least one disagreeing metric pair"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"smoke reproduction took {elapsed:.1f}s"
    _report("C8", f"10-system fixture: min pair tau={min(off_diag):.2f} < 0.5, "
                  f"EEL~AWRF_equal tau={ee_awrf:.2f} > 0 ({elapsed:.1f}s)")


def test_c09_end_to_end_determinism(tmp_path):
    spec = SynthSpec(n_docs=200, n_requests=20, n_systems=3, depth=15, seed=11,
                     exposure_skew=0.5, soft_fraction=0.2, unlabeled_fraction=0.1)
    paths = generate(spec, tmp_path / "corpus")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        argv = ["evaluate"]
        for p in paths["runs"]:
            argv += ["--run", str(p)]
        for p in paths["scores"]:
            argv += ["--scores", str(p)]
        argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
                 "--sequence", str(paths["sequence"]), "--out", str(out)]
        assert main(argv) == 0
        assert main(["compare", "--results", str(out), "--long"]) == 0
        outs.append(out)
    for fname in ("metrics.csv", "correlations.csv", "correlations_long.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between runs"
    _report("C9", "two evaluate+compare invocations produced byte-identical outputs")


def test_c10_scale_check(tmp_path):
    spec = SynthSpec(n_docs=5000, n_requests=500, n_systems=25, depth=100,
                     pool_size=150, seed=1, exposure_skew=0.6,
                     unlabeled_fraction=0.05)
    paths = generate(spec, tmp_path / "corpus")
    argv = ["evaluate"]
    for p in paths["runs"]:
        argv += ["--run", str(p)]
    argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
             "--sequence", str(paths["sequence"]), "--out", str(tmp_path / "out")]
    start = time.time()
    assert main(argv) == 0
    elapsed = time.time() - start
    assert elapsed < 60.0, f"scale evaluation took {elapsed:.1f}s"
    rows = read_metrics_table(tmp_path / "out" / "metrics.csv")
    assert len({r.system for r in rows}) == 25
    _report("C10", f"25 systems x 500 requests x depth-100 evaluated in {elapsed:.1f}s")


def test_c10_scores_scale_check(tmp_path):
    spec = SynthSpec(n_docs=5000, n_requests=500, n_systems=3, depth=100,
                     pool_size=150, seed=1, exposure_skew=0.6,
                     unlabeled_fraction=0.05)
    paths = generate(spec, tmp_path / "corpus")
    argv = ["evaluate"]
    for p in paths["runs"]:
        argv += ["--run", str(p)]
    for p in paths["scores"]:
        argv += ["--scores", str(p)]
    argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
             "--sequence", str(paths["sequence"]), "--out", str(tmp_path / "out")]
    start = time.time()
    assert main(argv) == 0
    elapsed = time.time() - start
    assert elapsed < 15.0, f"scale evaluation with scores took {elapsed:.1f}s"
    rows = {(r.system, r.metric) for r in read_metrics_table(tmp_path / "out" / "metrics.csv")}
    for system in paths["systems"]:
        for metric in ("IAA", "IntraAcc", "InterAcc"):
            assert (system, metric) in rows, (system, metric)
    _report("C10-scores", f"3 systems x 500 requests x depth-100 with score files "
                          f"evaluated in {elapsed:.1f}s")
