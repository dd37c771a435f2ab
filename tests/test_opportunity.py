from itertools import permutations

import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    AllDegenerate,
    Degenerate,
    DegenerateDenominator,
    DegenerateUtility,
    EmptyGroup,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    WeightModel,
    discounted_group_utility,
    ee_decompose,
    eur,
    expected_exposure,
    group_utility,
    iaa,
    rur,
)

from conftest import request_exposures

GS = GroupSpace(("A", "B"), protected_index=0)
GEO = WeightModel("geometric", 0.5)


def _seq(rankings):
    return RankingSequence(tuple((r.request, r) for r in rankings))


class TestGroupUtility:
    def test_hand_means(self):
        al = AlignmentMatrix({"p1": [1, 0], "p2": [1, 0], "u1": [0, 1], "u2": [0, 1]})
        rel = RelevanceTable({"q": {"p1": 1.0, "p2": 0.0, "u1": 1.0, "u2": 1.0}})
        seq = _seq([Ranking("q", ("p1", "p2", "u1", "u2"))])
        ups = group_utility(seq, rel, al, GS)
        assert np.allclose(ups, [0.5, 1.0])

    def test_constant_relevance(self):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
        rel = RelevanceTable({"q": {"a": 2.0, "b": 2.0}})
        seq = _seq([Ranking("q", ("a", "b"))])
        assert np.allclose(group_utility(seq, rel, al, GS), [2.0, 2.0])

    def test_empty_group_raises(self):
        al = AlignmentMatrix({"b1": [0, 1], "b2": [0, 1]})
        rel = RelevanceTable({"q": {"b1": 1.0, "b2": 0.0}})
        seq = _seq([Ranking("q", ("b1", "b2"))])
        with pytest.raises(EmptyGroup):
            group_utility(seq, rel, al, GS)

    def test_retrieved_pool_counts_unjudged_as_zero(self):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1], "c": [1, 0]})
        rel = RelevanceTable({"q": {"a": 1.0}})
        seq = _seq([Ranking("q", ("a", "b", "c"))])
        ups = group_utility(seq, rel, al, GS, pool="retrieved")
        assert np.allclose(ups, [0.5, 0.0])


class TestDiscountedGroupUtility:
    def test_single_draw(self):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
        rel = RelevanceTable({"q": {"a": 1.0}})
        seq = _seq([Ranking("q", ("a", "b"))])
        gamma = discounted_group_utility(seq, rel, al, GS, GEO)
        assert np.allclose(gamma, [0.5, 0.0])

    def test_irrelevant_docs_contribute_nothing(self):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
        rel = RelevanceTable({"q": {"a": 0.0, "b": 0.0}})
        seq = _seq([Ranking("q", ("a", "b"))])
        assert np.allclose(discounted_group_utility(seq, rel, al, GS, GEO), [0.0, 0.0])

    def test_mean_over_draws(self):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
        rel = RelevanceTable({"q": {"a": 1.0}})
        seq = RankingSequence((
            ("q", Ranking("q", ("a", "b"))),
            ("q", Ranking("q", ("b", "a"))),
        ))
        gamma = discounted_group_utility(seq, rel, al, GS, GEO)
        assert np.allclose(gamma, [(0.5 + 0.25) / 2, 0.0])


class TestRatios:
    def test_eur_proportional_is_one(self):
        assert eur(np.array([0.3, 0.7]), np.array([0.3, 0.7]), GS) == pytest.approx(1.0)

    def test_eur_hand_value(self):
        assert eur(np.array([0.5, 0.5]), np.array([0.25, 0.75]), GS) == pytest.approx(3.0)

    def test_eur_guards(self):
        with pytest.raises(DegenerateUtility):
            eur(np.array([0.5, 0.5]), np.array([0.5, 0.0]), GS)
        with pytest.raises(DegenerateDenominator):
            eur(np.array([0.5, 0.0]), np.array([0.5, 0.5]), GS)

    def test_eur_scale_invariant_in_grades(self):
        base = eur(np.array([0.4, 0.6]), np.array([0.2, 0.5]), GS)
        scaled = eur(np.array([0.4, 0.6]), 7.3 * np.array([0.2, 0.5]), GS)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rur_hand_values(self):
        assert rur(np.array([0.2, 0.3]), np.array([0.4, 0.6]), GS) == pytest.approx(1.0)
        assert rur(np.array([0.2, 0.1]), np.array([0.4, 0.4]), GS) == pytest.approx(2.0)

    def test_rur_guards(self):
        with pytest.raises(DegenerateDenominator):
            rur(np.array([0.2, 0.0]), np.array([0.4, 0.4]), GS)
        with pytest.raises(DegenerateUtility):
            rur(np.array([0.2, 0.1]), np.array([0.0, 0.4]), GS)

    def test_ideal_policy_mirrored_grades_gives_one(self):
        # enumerate every relevance-sorted ranking as the policy's draws.
        # parity needs mirrored grade multisets (equal means alone are not
        # enough: group-summed exposure vs per-member mean utility diverge
        # when group sizes or tier shapes differ)
        from fairrank import group_exposure, position_weights

        cases = [
            {"a": ([1, 0], 1.0), "b": ([0, 1], 1.0), "c": ([1, 0], 0.0), "d": ([0, 1], 0.0)},
            {"a": ([1, 0], 2.0), "b": ([0, 1], 2.0)},
            {"a": ([1, 0], 2.0), "b": ([0, 1], 2.0), "c": ([1, 0], 1.0), "d": ([0, 1], 1.0)},
        ]
        for spec in cases:
            rows = {d: v[0] for d, v in spec.items()}
            grades = {d: v[1] for d, v in spec.items()}
            al = AlignmentMatrix(rows)
            rel = RelevanceTable({"q": grades})
            draws = []
            for perm in permutations(tuple(rows)):
                gs = [grades[d] for d in perm]
                if all(gs[i] >= gs[i + 1] for i in range(len(gs) - 1)):
                    draws.append(Ranking("q", perm))
            seq = _seq(draws)
            ups = group_utility(seq, rel, al, GS)
            assert ups[0] == pytest.approx(ups[1], abs=1e-12)
            eps = np.zeros(2)
            for r in draws:
                eps += group_exposure(r, al, position_weights(GEO, r), GS)
            eps /= len(draws)
            assert eur(eps, ups, GS) == pytest.approx(1.0, abs=1e-12)
            gamma = discounted_group_utility(seq, rel, al, GS, GEO)
            assert rur(gamma, ups, GS) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_policy_equal_means_alone_insufficient(self):
        # counterexample kept on purpose: equal group means, asymmetric tiers
        # and sizes, ideal policy -- EUR sits away from 1
        from fairrank import group_exposure, position_weights

        rows = {"a": [1, 0], "b": [0, 1], "c": [1, 0], "d": [0, 1], "e": [1, 0]}
        grades = {"a": 2.0, "b": 2.0, "c": 1.0, "d": 1.0, "e": 1.5}
        al = AlignmentMatrix(rows)
        rel = RelevanceTable({"q": grades})
        draws = []
        for perm in permutations(tuple(rows)):
            gs = [grades[d] for d in perm]
            if all(gs[i] >= gs[i + 1] for i in range(len(gs) - 1)):
                draws.append(Ranking("q", perm))
        seq = _seq(draws)
        ups = group_utility(seq, rel, al, GS)
        assert ups[0] == pytest.approx(ups[1], abs=1e-12)
        eps = np.zeros(2)
        for r in draws:
            eps += group_exposure(r, al, position_weights(GEO, r), GS)
        eps /= len(draws)
        assert eur(eps, ups, GS) == pytest.approx(1.2962962962962963)


class TestIaa:
    def test_hand_values(self):
        assert iaa(np.array([0.6, 0.4]), np.array([0.5, 0.5])) == pytest.approx(0.2)
        assert iaa(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == pytest.approx(0.0)
        assert iaa(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_zero_utility_degenerate(self):
        with pytest.raises(Degenerate):
            iaa(np.array([0.5, 0.5]), np.array([0.0, 0.0]))

    def test_bounded_by_two(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = int(rng.integers(2, 6))
            a, b = rng.random(g) + 1e-9, rng.random(g) + 1e-9
            assert 0.0 <= iaa(a, b) <= 2.0 + 1e-12


class TestExpectedExposure:
    def test_decomposition_hand_values(self):
        assert ee_decompose(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(
            (0.0, 1.0, 0.5))
        eel, eer, eed_raw = ee_decompose(np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        assert (eel, eer, eed_raw) == pytest.approx((0.02, 1.0, 0.52))
        assert ee_decompose(np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0] == pytest.approx(2.0)

    def test_identity_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = int(rng.integers(1, 6))
            eps, tgt = rng.random(g) * 3, rng.random(g) * 3
            eel, eer, eed_raw = ee_decompose(eps, tgt)
            assert abs(eel - (eed_raw - eer + float(tgt @ tgt))) < 1e-12
            assert eel >= 0.0

    def test_ideal_policy_zero_loss(self):
        # draws enumerate all within-tier permutations over the judged pool
        docs = ("a", "b", "c")
        al = AlignmentMatrix({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
        rel = RelevanceTable({"q": {"a": 1.0, "b": 1.0, "c": 0.0}})
        draws = [Ranking("q", ("a", "b", "c")), Ranking("q", ("b", "a", "c"))]
        seq = _seq(draws)
        res = expected_exposure(seq, rel, al, GS, GEO, request_exposures(seq, rel, al, GS, GEO),
                                pool="judged")
        assert res.eel == pytest.approx(0.0, abs=1e-15)
        assert res.n_skipped == 0

    def test_zero_relevance_requests_skipped(self):
        al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
        rel = RelevanceTable({"q1": {"a": 1.0}, "q2": {"b": 0.0}})
        seq = _seq([Ranking("q1", ("a", "b")), Ranking("q2", ("b", "a"))])
        res = expected_exposure(seq, rel, al, GS, GEO, request_exposures(seq, rel, al, GS, GEO))
        assert res.n_requests == 2
        assert res.n_skipped == 1
        rel_none = RelevanceTable({"q1": {"a": 0.0}, "q2": {"b": 0.0}})
        with pytest.raises(AllDegenerate):
            expected_exposure(seq, rel_none, al, GS, GEO,
                              request_exposures(seq, rel_none, al, GS, GEO))

    def test_unlabeled_draw_contributes_zero_mass(self):
        al = AlignmentMatrix({"a": [1, 0]})
        rel = RelevanceTable({"q": {"a": 1.0}})
        seq = RankingSequence((
            ("q", Ranking("q", ("a",))),
            ("q", Ranking("q", ("zz",))),  # fully unlabeled draw
        ))
        res = expected_exposure(seq, rel, al, GS, GEO, request_exposures(seq, rel, al, GS, GEO),
                                pool="judged")
        # eps averages [1*gamma, 0] with the zero vector
        assert res.eed_raw == pytest.approx((0.5 / 2) ** 2)
