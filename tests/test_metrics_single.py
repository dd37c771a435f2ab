import math
import numpy as np
import pytest
from scipy.stats import binom

from fairrank import (
    AlignmentMatrix,
    DegenerateDenominator,
    Direction,
    FairRankError,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    UndefinedNormalizer,
    WeightModel,
    awrf,
    fair_score,
    pref_fairness,
    pref_normalizer,
)
from fairrank.ingest import EvalConfig, _make_metric
from fairrank.pipeline import evaluate_system

from conftest import compile_run
from oracles import (
    oracle_fair,
    oracle_prefd_kl_raw,
    oracle_prefd_normalizer_exhaustive,
    oracle_prefd_raw,
    oracle_prefd_sorted_normalizer,
)


def _alignment_from_mask(mask):
    return AlignmentMatrix(
        {f"d{i}": ([1.0, 0.0] if m else [0.0, 1.0]) for i, m in enumerate(mask)},
        n_groups=2,
    )


def _ranking(mask):
    return Ranking("q", tuple(f"d{i}" for i in range(len(mask))))


GS = GroupSpace(("A", "B"), protected_index=0)


class TestPrefFairness:
    def test_worst_block_arrangement_scores_one(self):
        mask = [True] * 10 + [False] * 10
        res = pref_fairness(_ranking(mask), _alignment_from_mask(mask), GS)
        assert res.value == pytest.approx(1.0)
        assert res.direction is Direction.ZERO_IS_FAIR

    def test_interleaved_scores_zero(self):
        mask = [i % 2 == 0 for i in range(20)]
        res = pref_fairness(_ranking(mask), _alignment_from_mask(mask), GS)
        assert res.value == pytest.approx(0.0)

    def test_short_list_flagged_maximally_fair(self):
        mask = [True, False] * 4  # 8 docs
        res = pref_fairness(_ranking(mask), _alignment_from_mask(mask), GS)
        assert res.value == 0.0
        assert res.degenerate == "short_list"

    def test_all_unlabeled_degenerate(self):
        al = AlignmentMatrix({"zz": [1.0, 0.0]})
        res = pref_fairness(Ranking("q", ("x", "y")), al, GS)
        assert res.degenerate == "no_labeled_docs"
        assert math.isnan(res.value)

    def test_step_below_two_rejected(self):
        mask = [True, False] * 6  # 12 docs: step 1 used to score NaN, unflagged
        with pytest.raises(FairRankError, match="step"):
            pref_fairness(_ranking(mask), _alignment_from_mask(mask), GS, step=1)

    def test_uniform_composition_undefined_normalizer(self):
        mask = [False] * 12
        res = pref_fairness(_ranking(mask), _alignment_from_mask(mask), GS)
        assert res.value == 0.0
        assert res.degenerate == "undefined_normalizer"

    def test_raw_matches_bruteforce_up_to_30(self):
        from fairrank.metrics_single import _prefix_raw

        rng = np.random.default_rng(11)
        for n in range(10, 31):  # below step the metric short-circuits
            for _ in range(5):
                mask = rng.random(n) < 0.4
                for p_hat in (0.3, mask.sum() / n):
                    for dist in ("nd", "rd"):
                        got = _prefix_raw(mask[:, None], np.array([p_hat]), dist, 10)
                        try:
                            want = oracle_prefd_raw(mask.tolist(), p_hat, 10, dist)
                        except ZeroDivisionError:
                            assert math.isnan(got), (n, p_hat, dist)
                            continue
                        assert got == pytest.approx(want, abs=1e-12), (n, p_hat, dist)

    def test_value_matches_bruteforce_with_exhaustive_normalizer(self):
        rng = np.random.default_rng(12)
        for n in (10, 11, 12):
            for _ in range(10):
                mask = rng.random(n) < 0.4
                if not 0 < mask.sum() < n:
                    continue
                al = _alignment_from_mask(mask)
                res = pref_fairness(_ranking(mask), al, GS)
                p_hat = mask.sum() / n
                raw = oracle_prefd_raw(mask.tolist(), p_hat, 10)
                z = oracle_prefd_normalizer_exhaustive(n, int(mask.sum()), p_hat, 10)
                if z > 0:
                    assert res.value == pytest.approx(min(raw / z, 1.0), abs=1e-9)
                else:
                    assert res.degenerate == "undefined_normalizer"

    def test_global_target_override(self):
        mask = [True] * 10 + [False] * 10
        res = pref_fairness(
            _ranking(mask), _alignment_from_mask(mask), GS,
            target=TargetDistribution(np.array([0.3, 0.7])),
        )
        assert res.ok
        assert 0.0 <= res.value <= 1.0

    def test_rd_degenerate_denominator_propagates(self):
        mask = [True] * 12
        with pytest.raises(DegenerateDenominator):
            pref_fairness(
                _ranking(mask), _alignment_from_mask(mask), GS,
                target=TargetDistribution(np.array([0.5, 0.5])), dist="rd",
            )

    def test_kl_variant_soft_alignment(self):
        rows = {f"d{i}": [0.5 + 0.04 * (i % 3), 0.5 - 0.04 * (i % 3)] for i in range(15)}
        al = AlignmentMatrix(rows)
        r = Ranking("q", tuple(rows))
        res = pref_fairness(r, al, GS, dist="kl")
        assert res.ok
        assert 0.0 <= res.value <= 1.0

    def test_kl_composition_ignores_groups_absent_from_list(self):
        # documents alternating a and b: the space (a, b, c) must score the
        # list as the space (a, b) does, not as (maximally) unfair
        three_groups = GroupSpace(("a", "b", "c"), protected_index=0)
        for n in (10, 20):
            docs = tuple(f"d{i}" for i in range(n))
            two = AlignmentMatrix({d: [1, 0] if i % 2 == 0 else [0, 1]
                                   for i, d in enumerate(docs)})
            three = AlignmentMatrix({d: [1, 0, 0] if i % 2 == 0 else [0, 1, 0]
                                     for i, d in enumerate(docs)})
            r = Ranking("q", docs)
            want = pref_fairness(r, two, GS, dist="kl", step=10)
            got = pref_fairness(r, three, three_groups, dist="kl", step=10)
            assert (got.value, got.degenerate) == (want.value, want.degenerate), n
            assert want.value == 0.0


class TestPrefNormalizer:
    def test_hand_value(self):
        # worst arrangement: one fully-protected prefix of 10 then parity at 20
        assert pref_normalizer(20, 10, 0.5) == pytest.approx(0.5 / math.log2(10), abs=1e-12)

    def test_zero_protected_undefined_under_composition_target(self):
        # a single-group list cannot be unfair against its own composition
        with pytest.raises(UndefinedNormalizer):
            pref_normalizer(12, 0, 0.0)

    def test_single_prefix_fixed_composition_undefined(self):
        # with one prefix (the full list) the composition pins the share at p_hat
        with pytest.raises(UndefinedNormalizer):
            pref_normalizer(10, 5, 0.5)

    def test_extremes_reach_exhaustive_max_nd(self):
        for n, k in ((10, 3), (11, 6), (12, 5)):
            p_hat = k / n
            want = oracle_prefd_normalizer_exhaustive(n, k, p_hat, 10)
            if want == 0:
                with pytest.raises(UndefinedNormalizer):
                    pref_normalizer(n, k, p_hat)
            else:
                assert pref_normalizer(n, k, p_hat) == pytest.approx(want, abs=1e-12)

    def test_kl_scores_both_columns_against_the_two_group_target(self):
        # one column alone is always at zero KL from (p_hat,), so kl needs both
        for n, k, p_hat, step in ((20, 5, 0.25, 10), (12, 4, 0.5, 3), (15, 9, 0.3, 4)):
            rows = [[1.0, 0.0] if i < k else [0.0, 1.0] for i in range(n)]
            want = oracle_prefd_sorted_normalizer(
                rows, lambda arr: oracle_prefd_kl_raw(arr, [p_hat, 1.0 - p_hat], step))
            assert pref_normalizer(n, k, p_hat, "kl", step) == pytest.approx(want, abs=1e-12)

    def test_extremes_bound_random_arrangements(self):
        rng = np.random.default_rng(5)
        n, k, p_hat = 25, 9, 0.4
        z = pref_normalizer(n, k, p_hat)
        base = [True] * k + [False] * (n - k)
        for _ in range(300):
            mask = list(rng.permutation(base))
            assert oracle_prefd_raw(mask, p_hat, 10) <= z + 1e-12


class TestFairScore:
    def test_single_protected_both_conventions(self):
        assert fair_score(np.array([True]), 0.5).value == pytest.approx(1.0)
        assert fair_score(np.array([True]), 0.5, paper_verbatim=True).value == pytest.approx(0.5)

    def test_two_protected(self):
        assert fair_score(np.array([True, True]), 0.5).value == pytest.approx(1.0)

    def test_two_unprotected(self):
        assert fair_score(np.array([False, False]), 0.5).value == pytest.approx(0.375)

    def test_matches_comb_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 61))
            mask = rng.random(n) < rng.uniform(0.0, 1.0)
            p = float(rng.uniform(0.01, 0.99))
            assert fair_score(mask, p).value == pytest.approx(oracle_fair(mask, p), abs=1e-12)
            assert fair_score(mask, p, paper_verbatim=True).value == pytest.approx(
                oracle_fair(mask, p, include_zero=False), abs=1e-12)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.9, 0.99])
    def test_matches_scipy_at_depth_1000(self, p):
        rng = np.random.default_rng(11)
        masks = [
            rng.random(1000) < p,
            # the pmf tail underflows once the unprotected block ends
            np.r_[np.zeros(500, dtype=bool), np.ones(500, dtype=bool)],
        ]
        ks = np.arange(1, 1001)
        for mask in masks:
            counts = np.cumsum(mask)
            cdf = binom.cdf(counts, ks, p)
            verbatim = np.where(counts >= 1, cdf - (1.0 - p) ** ks, 0.0)
            assert fair_score(mask, p).value == pytest.approx(np.mean(cdf), abs=1e-12)
            assert fair_score(mask, p, paper_verbatim=True).value == pytest.approx(
                np.mean(verbatim), abs=1e-12)

    def test_monotone_under_protected_promotion_exhaustive(self):
        # swapping a protected doc one position earlier never decreases the score
        for n in range(2, 9):
            for bits in range(2**n):
                mask = [(bits >> i) & 1 == 1 for i in range(n)]
                base = fair_score(np.array(mask), 0.4).value
                for i in range(n - 1):
                    if not mask[i] and mask[i + 1]:
                        swapped = list(mask)
                        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                        assert fair_score(np.array(swapped), 0.4).value >= base - 1e-12

    def test_fully_protected_prefixes_score_one(self):
        assert fair_score(np.array([True] * 9), 0.7).value == pytest.approx(1.0)

    def test_empty_mask_degenerate(self):
        res = fair_score(np.array([], dtype=bool), 0.5)
        assert res.degenerate == "no_labeled_docs"

    def test_p_hat_domain(self):
        with pytest.raises(Exception):
            fair_score(np.array([True]), 1.0)

    @pytest.mark.parametrize("g", [2, 3])
    def test_equal_target_is_the_equal_distribution(self, g):
        # FAIR reads the protected entry of the target prefD and AWRF read: 1/g for equal
        groups = GroupSpace(tuple(f"g{j}" for j in range(g)), protected_index=0)
        docs = tuple(f"d{i}" for i in range(12))
        al = AlignmentMatrix({d: np.eye(g)[(i * i) % g] for i, d in enumerate(docs)}, n_groups=g)
        seq = RankingSequence((("q", Ranking("q", docs)),))
        rel = RelevanceTable({"q": {"d0": 1.0}})

        def fair(**target):
            config = EvalConfig(metrics=(_make_metric({"name": "fair", **target}, "metrics[0]"),))
            return evaluate_system("s", *compile_run(seq, rel, al, groups, config)).results[0].value

        assert fair(target="equal") == fair(target="custom", custom_target=[1 / g] * g)


class TestAwrf:
    def test_hand_example(self, two_groups):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
        res = awrf(Ranking("q", ("a", "b")), al, two_groups, WeightModel("geometric", 0.5),
                   TargetDistribution(np.array([0.5, 0.5])))
        assert res.value == pytest.approx(1 / 6)

    def test_parity_scores_zero(self, two_groups):
        al = AlignmentMatrix({"a": [0.5, 0.5]})
        res = awrf(Ranking("q", ("a",)), al, two_groups, WeightModel("geometric", 0.5),
                   TargetDistribution(np.array([0.5, 0.5])))
        assert res.value == pytest.approx(0.0)

    def test_single_group_list(self, two_groups):
        al = AlignmentMatrix({"a": [1, 0], "b": [1, 0]})
        res = awrf(Ranking("q", ("a", "b")), al, two_groups, WeightModel("geometric", 0.5),
                   TargetDistribution(np.array([0.5, 0.5])))
        assert res.value == pytest.approx(0.5)

    def test_no_labeled_docs_degenerate(self, two_groups):
        al = AlignmentMatrix({"zz": [1, 0]})
        res = awrf(Ranking("q", ("x",)), al, two_groups, WeightModel("geometric", 0.5),
                   TargetDistribution(np.array([0.5, 0.5])))
        assert res.degenerate == "no labeled documents in ranking"
        assert math.isnan(res.value)

    def test_within_group_permutation_invariance(self, two_groups):
        # identically-aligned docs can swap places without changing exposure
        al = AlignmentMatrix({"a1": [1, 0], "a2": [1, 0], "b": [0, 1]})
        model = WeightModel("geometric", 0.5)
        tgt = TargetDistribution(np.array([0.5, 0.5]))
        v1 = awrf(Ranking("q", ("a1", "b", "a2")), al, two_groups, model, tgt).value
        v2 = awrf(Ranking("q", ("a2", "b", "a1")), al, two_groups, model, tgt).value
        assert v1 == pytest.approx(v2, abs=1e-15)

    def test_signed_mode(self, two_groups):
        al = AlignmentMatrix({"a": [0, 1], "b": [0, 1]})
        res = awrf(Ranking("q", ("a", "b")), al, two_groups, WeightModel("geometric", 0.5),
                   TargetDistribution(np.array([0.5, 0.5])), signed=True)
        assert res.value == pytest.approx(-0.5)

    def test_values_in_unit_interval_random(self, two_groups):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            docs = [f"d{i}" for i in range(n)]
            al = AlignmentMatrix({d: [1, 0] if rng.random() < 0.5 else [0, 1] for d in docs})
            tgt = TargetDistribution(np.array([0.4, 0.6]))
            res = awrf(Ranking("q", tuple(docs)), al, two_groups,
                       WeightModel("geometric", 0.5), tgt)
            assert 0.0 <= res.value <= 1.0
