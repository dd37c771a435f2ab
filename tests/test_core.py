import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    FairRankError,
    GroupSpace,
    Ranking,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    apply_unknown_policy,
    binarize,
    protected_mask,
)


def test_ranking_rejects_duplicates():
    with pytest.raises(FairRankError, match="duplicate"):
        Ranking("q", ("d1", "d2", "d1"))


def test_ranking_scores_validated():
    with pytest.raises(FairRankError):
        Ranking("q", ("a", "b"), scores=(1.0,))


def test_group_space_validation():
    with pytest.raises(FairRankError):
        GroupSpace(("A", "A"))
    with pytest.raises(FairRankError):
        GroupSpace(("A", "B"), protected_index=5)
    with pytest.raises(FairRankError):
        GroupSpace(("A", "B"), protected_index=0, unknown_index=0)
    gs = GroupSpace(("A", "B", "unk"), protected_index=0, unknown_index=2)
    assert gs.g == 3
    assert gs.index_of("B") == 1


def test_alignment_row_validation():
    with pytest.raises(FairRankError, match="sum"):
        AlignmentMatrix({"d": [0.5, 0.6]})
    with pytest.raises(FairRankError, match="non-negative"):
        AlignmentMatrix({"d": [1.5, -0.5]})
    al = AlignmentMatrix({"d": [0.25, 0.75]})
    assert al.row("d")[1] == 0.75
    assert "missing" not in al


def test_relevance_table_basics():
    rel = RelevanceTable({"q": {"a": 2.0, "b": 0.0}})
    assert rel.grade("q", "a") == 2.0
    assert rel.grade("q", "zzz") == 0.0
    assert rel.max_grade() == 2.0
    assert RelevanceTable().max_grade() == 0.0
    with pytest.raises(FairRankError):
        RelevanceTable({"q": {"a": -1.0}})


def test_target_distribution_validation():
    with pytest.raises(FairRankError):
        TargetDistribution(np.array([0.5, 0.6]))
    t = TargetDistribution.equal(4)
    assert t.scalar(0) == 0.25


def test_protected_mask_thresholding(two_groups):
    al = AlignmentMatrix({"a": [1, 0], "b": [0, 1], "c": [0.5, 0.5], "d": [0.4, 0.6]})
    r = Ranking("q", ("a", "b", "c", "d"))
    mask = protected_mask(r, al, two_groups, threshold=0.5)
    assert mask.tolist() == [True, False, True, False]


def test_protected_mask_skips_unlabeled_and_partitions(two_groups, hard_alignment):
    r = Ranking("q", ("d0", "nolabel", "d9"))
    mask = protected_mask(r, hard_alignment, two_groups)
    assert mask.tolist() == [True, False]
    # every labeled doc lands in exactly one class at any threshold
    for thr in (0.1, 0.5, 0.9, 1.0):
        m = protected_mask(r, hard_alignment, two_groups, thr)
        assert m.size == 2


def test_protected_mask_requires_protected_index(hard_alignment):
    gs = GroupSpace(("A", "B"))
    with pytest.raises(FairRankError, match="protected"):
        protected_mask(Ranking("q", ("d0",)), hard_alignment, gs)


def test_binarize(two_groups):
    al = AlignmentMatrix({"a": [0.7, 0.3], "b": [0.2, 0.8]})
    bal, bgs = binarize(al, two_groups)
    assert bgs.names == ("A", "rest")
    assert bgs.protected_index == 0
    assert bal.row("a").tolist() == [1.0, 0.0]
    assert bal.row("b").tolist() == [0.0, 1.0]


def test_ranking_sequence_rho():
    r1 = Ranking("q1", ("a",))
    r2 = Ranking("q2", ("b",))
    seq = RankingSequence((("q1", r1), ("q1", r1), ("q2", r2)))
    assert seq.requests() == ["q1", "q2"]
    assert seq.rho() == {"q1": 2 / 3, "q2": 1 / 3}
    weighted = RankingSequence((("q1", r1), ("q2", r2)), request_weights={"q1": 0.25, "q2": 0.75})
    assert weighted.rho()["q2"] == 0.75
    with pytest.raises(FairRankError, match="match"):
        RankingSequence((("q9", r1),))


def test_ranking_sequence_index_keeps_draw_and_first_draw_order():
    r2a, r2b = Ranking("q2", ("a",)), Ranking("q2", ("b",))
    r1 = Ranking("q1", ("c",))
    seq = RankingSequence((("q2", r2a), ("q1", r1), ("q2", r2b)))
    assert seq.requests() == ["q2", "q1"]
    assert seq.draws_for("q2") == [r2a, r2b]
    assert seq.draws_for("q9") == []
    assert list(seq.rho().items()) == [("q2", 2 / 3), ("q1", 1 / 3)]


def test_apply_unknown_policy(two_groups):
    al = AlignmentMatrix({"a": [1, 0]})
    universe = ["a", "b"]
    same_al, same_gs = apply_unknown_policy(al, two_groups, universe, "exclude")
    assert same_al is al and same_gs is two_groups

    ext_al, ext_gs = apply_unknown_policy(al, two_groups, universe, "group")
    assert ext_gs.names == ("A", "B", "unknown")
    assert ext_gs.unknown_index == 2
    assert ext_al.row("b").tolist() == [0.0, 0.0, 1.0]
    assert ext_al.row("a").tolist() == [1.0, 0.0, 0.0]

    with pytest.raises(FairRankError, match="unlabeled"):
        apply_unknown_policy(al, two_groups, universe, "error")
    # no missing docs: error policy passes through
    ok_al, _ = apply_unknown_policy(al, two_groups, ["a"], "error")
    assert ok_al is al


def test_apply_unknown_policy_existing_unknown_group():
    gs = GroupSpace(("A", "B", "unk"), protected_index=0, unknown_index=2)
    al = AlignmentMatrix({"a": [1, 0, 0]})
    ext_al, ext_gs = apply_unknown_policy(al, gs, ["a", "b"], "group")
    assert ext_gs == gs
    assert ext_al.row("b").tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("weights, named", [
    ({"q1": 1.5, "q2": -0.5}, "q2"),
    ({"q1": float("nan"), "q2": 1.0}, "q1"),
    ({"q1": 1.0, "q2": float("inf")}, "q2"),
])
def test_ranking_sequence_rejects_bad_request_weights(weights, named):
    r1, r2 = Ranking("q1", ("a",)), Ranking("q2", ("b",))
    with pytest.raises(FairRankError, match=f"request weight for '{named}' must be finite"):
        RankingSequence((("q1", r1), ("q2", r2)), request_weights=weights)


def test_map_draws_calls_fn_once_per_distinct_ranking():
    shared, other = Ranking("q1", ("a", "b")), Ranking("q1", ("b", "a"))
    twin = Ranking("q1", ("a", "b"))  # equal to ``shared`` but its own object
    single = Ranking("q2", ("c",))
    seq = RankingSequence((("q1", shared), ("q2", single), ("q1", other), ("q1", shared),
                           ("q1", twin), ("q1", shared)))
    calls = []

    def fn(r):
        calls.append(r)
        if r is other:
            raise Degenerate("boom")
        return r.docs

    out = seq.map_draws("q1", fn)
    assert [c is r for c, r in zip(calls, (shared, other, twin))] == [True] * 3
    assert len(calls) == 3
    assert out[:1] + out[2:] == [("a", "b")] * 4
    assert isinstance(out[1], Degenerate) and out[1].reason == "boom"
    assert seq.map_draws("q2", fn) == [("c",)]
    assert seq.map_draws("q9", fn) == []
    assert len(calls) == 4


# Each faulty row with the message that names it.
ROW_FAULTS = {
    "length": ([0.5, 0.25, 0.25], "has wrong length"),
    "nan": ([float("nan"), 1.0], "must be finite and non-negative"),
    "inf": ([float("inf"), 0.0], "must be finite and non-negative"),
    "negative": ([1.5, -0.5], "must be finite and non-negative"),
    "sum": ([0.5, 0.6], "does not sum to 1"),
    "ragged": ([[0.5, 0.5]], "has wrong length"),
}


def _alignment_error(rows, n_groups):
    with pytest.raises(FairRankError) as info:
        AlignmentMatrix(rows, n_groups=n_groups)
    assert type(info.value) is FairRankError
    return str(info.value)


@pytest.mark.parametrize("n_groups", [2, None])
@pytest.mark.parametrize("fault", ROW_FAULTS)
def test_alignment_names_faulty_row(fault, n_groups):
    row, message = ROW_FAULTS[fault]
    rows = {"ok": [0.5, 0.5], "bad": row, "later": [1.0, 0.0]}
    assert _alignment_error(rows, n_groups) == f"alignment row for 'bad' {message}"


@pytest.mark.parametrize("second", ROW_FAULTS)
@pytest.mark.parametrize("first", ROW_FAULTS)
def test_alignment_names_first_faulty_row_in_insertion_order(first, second):
    rows = {"ok": [0.0, 1.0], "one": ROW_FAULTS[first][0], "two": ROW_FAULTS[second][0]}
    assert _alignment_error(rows, 2) == f"alignment row for 'one' {ROW_FAULTS[first][1]}"


def test_alignment_first_row_sets_group_count():
    assert _alignment_error({"a": [1.0, 0.0, 0.0], "b": [0.5, 0.5]}, None) == \
        "alignment row for 'b' has wrong length"
    assert AlignmentMatrix({"a": [0.5, 0.25, 0.25]}).n_groups == 3


def test_alignment_empty_mapping():
    with pytest.raises(FairRankError, match="cannot infer group count"):
        AlignmentMatrix({})
    al = AlignmentMatrix({}, n_groups=3)
    assert len(al) == 0 and al.n_groups == 3
    assert al.dense().shape == (0, 3)
    kept, rows = al.gather(["a", "b"])
    assert kept.size == 0 and rows.size == 0
    with pytest.raises(Degenerate):
        al.mean_row()
    bal, _ = binarize(al, GroupSpace(("A", "B", "C"), protected_index=1))
    assert bal.dense().shape == (0, 2)
    ext, gs = apply_unknown_policy(al, GroupSpace(("A", "B", "C")), ["x"], "group")
    assert gs.unknown_index == 3 and ext.row("x").tolist() == [0.0, 0.0, 0.0, 1.0]


def test_alignment_rows_are_read_only_copies():
    source = np.array([0.25, 0.75])
    al = AlignmentMatrix({"d": source, "e": [1, 0]})
    for view in (al.row("d"), al.dense(), al.dense()[1]):
        with pytest.raises(ValueError):
            view[0] = 0.5
    source[0] = 0.5  # the caller's array stays its own
    assert al.row("d").tolist() == [0.25, 0.75]
    assert al.row("e").dtype == float and al.row("missing") is None
