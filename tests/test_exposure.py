
import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    FairRankError,
    Ranking,
    RankingSequence,
    RelevanceTable,
    UnknownRequest,
    WeightModel,
    position_weights,
    request_exposure,
    target_exposure,
)
from fairrank.exposure import default_stop, weight_vector

from conftest import exposure_of, mean_exposure
from oracles import oracle_target_exposure, oracle_weights


def test_geometric_weights():
    w = weight_vector(WeightModel("geometric", 0.5), [1, 2, 3])
    assert np.allclose(w, [0.5, 0.25, 0.125])


def test_logarithmic_weights_with_gaps():
    w = weight_vector(WeightModel("logarithmic"), [1, 2, 4])
    assert np.allclose(w, [1.0, 1.0, 0.5])


def test_rbp_weights():
    assert np.allclose(weight_vector(WeightModel("rbp", 0.5), [1, 2, 3]), [1.0, 0.5, 0.25])


def test_cascade_full_patience_no_stopping():
    w = weight_vector(WeightModel("cascade", 1.0, stop=lambda y: 0.0), [1, 2, 3])
    assert np.allclose(w, [1.0, 1.0, 1.0])


def test_cascade_matches_oracle_with_stopping():
    stop = lambda y: y / 2.0
    grades = [2.0, 1.0, 0.0, 1.0]
    got = weight_vector(WeightModel("cascade", 0.8, stop=stop), [1, 2, 3, 4], grades)
    want = oracle_weights("cascade", 0.8, [1, 2, 3, 4], grades, stop)
    assert np.allclose(got, want)


def test_cascade_needs_relevance():
    with pytest.raises(FairRankError, match="relevance"):
        position_weights(WeightModel("cascade", 0.5), Ranking("q", ("a",)))


def test_weight_model_validation():
    with pytest.raises(FairRankError):
        WeightModel("zipf")
    with pytest.raises(FairRankError):
        WeightModel("geometric", 0.0)
    with pytest.raises(FairRankError):
        WeightModel("geometric", 1.5)


def test_weights_non_increasing():
    for kind in ("geometric", "logarithmic", "rbp"):
        w = weight_vector(WeightModel(kind, 0.3), range(1, 30))
        assert np.all(np.diff(w) <= 1e-15)


def test_geometric_partial_sum():
    gamma, n = 0.5, 50
    w = weight_vector(WeightModel("geometric", gamma), range(1, n + 1))
    assert abs(w.sum() - (1 - (1 - gamma) ** n)) < 1e-12


def test_group_exposure_hand_example():
    al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
    r = Ranking("q", ("a", "b"))
    w = position_weights(WeightModel("geometric", 0.5), r)
    eps = exposure_of(r, al, w)[0]
    assert np.allclose(eps, [0.5, 0.25])
    assert np.allclose(eps / eps.sum(), [2 / 3, 1 / 3])


def test_group_exposure_single_group_and_soft():
    al1 = AlignmentMatrix({"a": [1.0], "b": [1.0]})
    r = Ranking("q", ("a", "b"))
    eps = exposure_of(r, al1, np.array([0.9, 0.1]))[0]
    assert np.allclose(eps / eps.sum(), [1.0])

    al2 = AlignmentMatrix({"a": [0.5, 0.5]})
    single = Ranking("q", ("a",))
    assert np.allclose(exposure_of(single, al2, np.array([0.8]))[0], [0.4, 0.4])


def test_group_exposure_linear_in_weights(hard_alignment):
    r = Ranking("q", ("d0", "d5", "d1"))
    w = np.array([0.5, 0.3, 0.2])
    eps = exposure_of(r, hard_alignment, w)[0]
    assert np.allclose(exposure_of(r, hard_alignment, 2 * w)[0], 2 * eps)


def test_group_exposure_all_unlabeled_degenerate(hard_alignment):
    eps, count = exposure_of(Ranking("q", ("x", "y")), hard_alignment, np.array([1.0, 1.0]))
    assert count == 0 and not eps.any()


def test_request_exposure_mean_of_draws(two_groups):
    al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
    ra = Ranking("q", ("a",))
    rb = Ranking("q", ("b",))
    model = WeightModel("rbp", 0.5)  # rank 1 weight = 1
    seq = RankingSequence((("q", ra), ("q", rb)))
    assert np.allclose(request_exposure(seq, "q", al, two_groups, model), [0.5, 0.5])
    one = RankingSequence((("q", ra),))
    assert np.allclose(request_exposure(one, "q", al, two_groups, model), [1.0, 0.0])
    three = RankingSequence((("q", ra),) * 3)
    assert np.allclose(request_exposure(three, "q", al, two_groups, model), [1.0, 0.0])
    with pytest.raises(UnknownRequest):
        request_exposure(seq, "missing", al, two_groups, model)


def test_request_exposure_unlabeled_draw_counts_zero(two_groups):
    al = AlignmentMatrix({"a": [1, 0], "b": [0, 1]})
    model = WeightModel("geometric", 0.5)
    seq = RankingSequence((("q", Ranking("q", ("a", "b"))), ("q", Ranking("q", ("zz",)))))
    # the labeled draw gives [0.5, 0.25]; the unlabeled one adds zero exposure
    assert np.allclose(request_exposure(seq, "q", al, two_groups, model), [0.25, 0.125])
    only_unlabeled = RankingSequence((("q", Ranking("q", ("zz",))),) * 2)
    with pytest.raises(Degenerate):
        request_exposure(only_unlabeled, "q", al, two_groups, model)


def test_system_exposure_weighting():
    per = {"q1": np.array([1.0, 0.0]), "q2": np.array([0.0, 1.0])}
    assert np.allclose(mean_exposure(per), [0.5, 0.5])
    assert np.allclose(mean_exposure(per, {"q1": 1.0, "q2": 0.0}), [1.0, 0.0])
    assert np.allclose(mean_exposure(per, {"q1": 0.25, "q2": 0.75}), [0.25, 0.75])


def test_target_exposure_hand_example(two_groups):
    al = AlignmentMatrix({"x": [1, 0], "y": [1, 0], "z": [0, 1]})
    rel = RelevanceTable({"q": {"x": 1.0, "y": 1.0, "z": 0.0}})
    eps = target_exposure("q", ["x", "y", "z"], rel, al, WeightModel("geometric", 0.5), two_groups)
    assert np.allclose(eps, [0.75, 0.125])


def test_target_exposure_single_tier_symmetry(two_groups):
    al = AlignmentMatrix({"x": [1, 0], "y": [0, 1], "z": [0, 1]})
    rel = RelevanceTable({"q": {"x": 1.0, "y": 1.0, "z": 1.0}})
    model = WeightModel("geometric", 0.5)
    eps = target_exposure("q", ["x", "y", "z"], rel, al, model, two_groups)
    mean_w = np.mean([0.5, 0.25, 0.125])
    assert np.allclose(eps, [mean_w, 2 * mean_w])


def test_target_exposure_distinct_grades_deterministic(two_groups):
    al = AlignmentMatrix({"x": [1, 0], "y": [0, 1], "z": [0, 1]})
    rel = RelevanceTable({"q": {"x": 2.0, "y": 1.0, "z": 0.0}})
    model = WeightModel("geometric", 0.5)
    eps = target_exposure("q", ["z", "x", "y"], rel, al, model, two_groups)
    # unique sorted ranking x, y, z
    assert np.allclose(eps, [0.5, 0.25 + 0.125])


def test_target_exposure_permutation_invariance(two_groups):
    rng = np.random.default_rng(3)
    docs = [f"d{i}" for i in range(6)]
    al = AlignmentMatrix({d: [1, 0] if i % 2 else [0, 1] for i, d in enumerate(docs)})
    rel = RelevanceTable({"q": {d: float(rng.integers(0, 3)) for d in docs}})
    model = WeightModel("rbp", 0.7)
    base = target_exposure("q", docs, rel, al, model, two_groups)
    for _ in range(5):
        perm = list(rng.permutation(docs))
        assert np.allclose(target_exposure("q", perm, rel, al, model, two_groups), base, atol=1e-15)


def test_target_exposure_matches_bruteforce_all_models(two_groups):
    docs = ["a", "b", "c", "d", "e"]
    rows = {"a": [1, 0], "b": [0.5, 0.5], "c": [0, 1], "d": [1, 0], "e": [0, 1]}
    al = AlignmentMatrix(rows)
    grades = {"a": 2.0, "b": 1.0, "c": 1.0, "d": 0.0, "e": 1.0}
    rel = RelevanceTable({"q": grades})
    stop = lambda y: y / 2.0
    for kind in ("geometric", "logarithmic", "rbp", "cascade"):
        model = WeightModel(kind, 0.6, stop=stop if kind == "cascade" else None)
        got = target_exposure("q", docs, rel, al, model, two_groups)
        want = oracle_target_exposure(
            docs, [grades[d] for d in docs],
            {d: np.asarray(r, float) for d, r in rows.items()},
            2, kind, 0.6, stop=stop if kind == "cascade" else None,
        )
        assert np.allclose(got, want, atol=1e-12), kind


def test_target_exposure_unlabeled_candidates(two_groups):
    al = AlignmentMatrix({"a": [1, 0]})
    rel = RelevanceTable({"q": {"a": 1.0, "x": 1.0}})
    model = WeightModel("geometric", 0.5)
    # unlabeled x still occupies a position block
    eps = target_exposure("q", ["a", "x"], rel, al, model, two_groups)
    assert np.allclose(eps, [(0.5 + 0.25) / 2, 0.0])
    with pytest.raises(Degenerate):
        target_exposure("q", ["x", "y"], rel, al, model, two_groups)
    with pytest.raises(FairRankError):
        target_exposure("q", [], rel, al, model, two_groups)


def test_default_stop_scales_by_max_grade():
    rel = RelevanceTable({"q": {"a": 2.0, "b": 1.0}})
    stop = default_stop(rel)
    assert stop(2.0) == 1.0
    assert stop(1.0) == 0.5
    assert stop(0.0) == 0.0
    empty = RelevanceTable({})
    assert default_stop(empty)(5.0) == 0.0
