"""The value semantics of every record type.

For each type: construction by position and by keyword (with its defaults),
each validation and its message, refusal to assign or delete an attribute,
``==``/``!=`` across instances, ``hash`` (or its absence) and ``repr``.
``SystemEvaluation`` is the one mutable record, and ``PairCounts`` compares
its arrays and is unhashable.
"""

import math
import re

import numpy as np
import pytest

from fairrank import (
    ConfigError,
    CorrelationMatrix,
    Degenerate,
    Direction,
    ExpectedExposureResult,
    FairRankError,
    GroupSpace,
    MetricResult,
    PairCounts,
    PairSample,
    Ranking,
    RankingSequence,
    SingleListResult,
    TargetDistribution,
    WeightModel,
)
from fairrank.ingest import EvalConfig, MetricConfig, load_config
from fairrank.pipeline import SystemEvaluation
from fairrank.registry import MetricSpec
from fairrank.synth import SynthSpec

ZERO = Direction.ZERO_IS_FAIR
R1 = Ranking("q1", ("a", "b"))
R2 = Ranking("q2", ("c",))


def _counts(scale=1.0):
    return PairCounts(np.array([[2.0, 1.0], [0.0, 4.0]]) * scale, np.full((2, 2), 2.0))


class Case:
    """One record type: a value built by position and by keyword, its fields, an unequal
    value, its repr and whether it hashes."""

    def __init__(self, cls, args, kwargs, fields, other, text, hashable=True):
        self.cls, self.args, self.kwargs, self.fields = cls, args, kwargs, fields
        self.other, self.text, self.hashable = other, text, hashable

    def build(self):
        return self.cls(*self.args)


CASES = [
    Case(MetricSpec, ("X", {"gamma": 0.5}, (("{}", ZERO),), "arrival"),
         {"label": "X", "keys": {"gamma": 0.5}, "rows": (("{}", ZERO),),
          "request_weighting": "arrival"},
         {"label": "X", "keys": {"gamma": 0.5}, "rows": (("{}", ZERO),),
          "request_weighting": "arrival", "needs_scores": False},
         lambda: MetricSpec("X", {"gamma": 0.5}, (("{}", ZERO),), "uniform"),
         "MetricSpec(label='X', keys={'gamma': 0.5}, rows=(('{}', "
         "<Direction.ZERO_IS_FAIR: 'ZeroIsFair'>),), request_weighting='arrival', "
         "needs_scores=False)",
         hashable=False),
    Case(MetricResult, ("AWRF", "s1", 0.25, 10, 2, ZERO),
         {"metric": "AWRF", "system": "s1", "value": 0.25, "n_requests": 10,
          "n_degenerate": 2, "direction": ZERO},
         {"metric": "AWRF", "system": "s1", "value": 0.25, "n_requests": 10,
          "n_degenerate": 2, "direction": ZERO},
         lambda: MetricResult("AWRF", "s2", 0.25, 10, 2, ZERO),
         "MetricResult(metric='AWRF', system='s1', value=0.25, n_requests=10, n_degenerate=2, "
         "direction=<Direction.ZERO_IS_FAIR: 'ZeroIsFair'>)"),
    Case(CorrelationMatrix, (("A", "B"), {(0, 1): 0.5}),
         {"metrics": ("A", "B"), "taus": {(0, 1): 0.5}},
         {"metrics": ("A", "B"), "taus": {(0, 1): 0.5}},
         lambda: CorrelationMatrix(("A", "B"), {(0, 1): -0.5}),
         "CorrelationMatrix(metrics=('A', 'B'), taus={(0, 1): 0.5})", hashable=False),
    Case(Ranking, ("q1", ["a", "b"]), {"request": "q1", "docs": ["a", "b"]},
         {"request": "q1", "docs": ("a", "b")},
         lambda: Ranking("q1", ("b", "a")),
         "Ranking(request='q1', docs=('a', 'b'))"),
    Case(GroupSpace, (["p", "r"],), {"names": ["p", "r"]},
         {"names": ("p", "r"), "protected_index": None, "unknown_index": None},
         lambda: GroupSpace(("p", "r"), 0),
         "GroupSpace(names=('p', 'r'), protected_index=None, unknown_index=None)"),
    Case(TargetDistribution, ([1.0],), {"probs": (1.0,)},
         {"probs": np.array([1.0])},
         lambda: TargetDistribution([1.0 - 2 ** -40]),
         "TargetDistribution(probs=array([1.]))", hashable=False),
    Case(RankingSequence, ([("q1", R1), ("q2", R2)],),
         {"draws": (("q1", R1), ("q2", R2))},
         {"draws": (("q1", R1), ("q2", R2)), "request_weights": None},
         lambda: RankingSequence((("q1", R1), ("q2", R2)), {"q1": 0.5, "q2": 0.5}),
         "RankingSequence(draws=(('q1', Ranking(request='q1', docs=('a', 'b'))), "
         "('q2', Ranking(request='q2', docs=('c',)))), request_weights=None)"),
    Case(WeightModel, ("geometric",), {"kind": "geometric"},
         {"kind": "geometric", "gamma": 0.5, "stop": None},
         lambda: WeightModel("geometric", 0.25),
         "WeightModel(kind='geometric', gamma=0.5, stop=None)"),
    Case(MetricConfig, ("awrf", "AWRF"), {"name": "awrf", "label": "AWRF"},
         {"name": "awrf", "label": "AWRF", "weight_model": None, "gamma": None, "dist": None,
          "target": None, "custom_target": None, "step": None, "n_negatives": None,
          "pool": None, "signed": None},
         lambda: MetricConfig("awrf", "AWRF", gamma=0.5),
         "MetricConfig(name='awrf', label='AWRF', weight_model=None, gamma=None, dist=None, "
         "target=None, custom_target=None, step=None, n_negatives=None, pool=None, "
         "signed=None)"),
    Case(EvalConfig, (), {},
         {"protected": None, "unknown": None, "unknown_policy": "exclude", "threshold": 0.5,
          "metrics": (), "explicit_metrics": False},
         lambda: EvalConfig("prot"),
         "EvalConfig(protected=None, unknown=None, unknown_policy='exclude', threshold=0.5, "
         "metrics=(), explicit_metrics=False)"),
    Case(SingleListResult, (0.5, ZERO), {"value": 0.5, "direction": ZERO},
         {"value": 0.5, "direction": ZERO, "degenerate": None},
         lambda: SingleListResult(0.5, ZERO, "short list"),
         "SingleListResult(value=0.5, direction=<Direction.ZERO_IS_FAIR: 'ZeroIsFair'>, "
         "degenerate=None)"),
    Case(ExpectedExposureResult, (0.5, 0.25, 0.125, 4, 1),
         {"eel": 0.5, "eer": 0.25, "eed_raw": 0.125, "n_requests": 4, "n_skipped": 1},
         {"eel": 0.5, "eer": 0.25, "eed_raw": 0.125, "n_requests": 4, "n_skipped": 1},
         lambda: ExpectedExposureResult(0.5, 0.25, 0.125, 4, 0),
         "ExpectedExposureResult(eel=0.5, eer=0.25, eed_raw=0.125, n_requests=4, n_skipped=1)"),
    Case(PairCounts, (np.array([[2.0, 1.0], [0.0, 4.0]]), np.full((2, 2), 2.0)),
         {"twice_hits": np.array([[2.0, 1.0], [0.0, 4.0]]), "totals": np.full((2, 2), 2.0)},
         {"twice_hits": np.array([[2.0, 1.0], [0.0, 4.0]]), "totals": np.full((2, 2), 2.0)},
         lambda: _counts(0.5),
         "PairCounts(twice_hits=array([[2., 1.],\n       [0., 4.]]), "
         "totals=array([[2., 2.],\n       [2., 2.]]))", hashable=False),
    Case(PairSample, (_counts(), 1, 2), {"pairs": _counts(), "n_fallback": 1, "n_skipped": 2},
         {"pairs": _counts(), "n_fallback": 1, "n_skipped": 2},
         lambda: PairSample(_counts(0.5), 1, 2),
         "PairSample(pairs=PairCounts(twice_hits=array([[2., 1.],\n       [0., 4.]]), "
         "totals=array([[2., 2.],\n       [2., 2.]])), n_fallback=1, n_skipped=2)",
         hashable=False),
    Case(SystemEvaluation, ("s1",), {"system": "s1"},
         {"system": "s1", "results": [], "notes": [], "failures": []},
         lambda: SystemEvaluation("s1", notes=["IAA: degenerate"]),
         "SystemEvaluation(system='s1', results=[], notes=[], failures=[])", hashable=False),
    Case(SynthSpec, (50, 4), {"n_docs": 50, "n_requests": 4},
         {"n_docs": 50, "n_requests": 4, "n_groups": 2, "n_systems": 1, "depth": 20,
          "pool_size": None, "seed": 42, "protected_fraction": 0.5, "unlabeled_fraction": 0.0,
          "soft_fraction": 0.0, "exposure_skew": 0.0, "relevance_skew": 0.0, "max_draws": 1,
          "empty_protected": False, "zero_relevance_group": False},
         lambda: SynthSpec(50, 4, seed=43),
         "SynthSpec(n_docs=50, n_requests=4, n_groups=2, n_systems=1, depth=20, "
         "pool_size=None, seed=42, protected_fraction=0.5, unlabeled_fraction=0.0, "
         "soft_fraction=0.0, exposure_skew=0.0, relevance_skew=0.0, max_draws=1, "
         "empty_protected=False, zero_relevance_group=False)"),
]
RECORDS = [pytest.param(case, id=case.cls.__name__) for case in CASES]
FROZEN = [param for param in RECORDS if param.values[0].cls is not SystemEvaluation]


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got == want


@pytest.mark.parametrize("case", RECORDS)
def test_position_keyword_and_defaults_give_the_same_fields(case):
    for record in (case.cls(*case.args), case.cls(**case.kwargs)):
        assert type(record) is case.cls
        for name, want in case.fields.items():
            assert _same(getattr(record, name), want), name


@pytest.mark.parametrize("case", RECORDS)
def test_equal_values_compare_equal_and_others_do_not(case):
    a, b, other = case.build(), case.build(), case.other()
    assert a == a and a == b and not a != b
    assert a != other and not a == other and other != a
    assert a != object() and not a == tuple(case.fields.values())


@pytest.mark.parametrize("case", RECORDS)
def test_hash_follows_equality_or_is_refused(case):
    a, b = case.build(), case.build()
    if case.hashable:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("case", RECORDS)
def test_repr_names_every_field(case):
    assert repr(case.build()) == case.text


@pytest.mark.parametrize("case", FROZEN)
def test_attributes_can_be_neither_assigned_nor_deleted(case):
    record = case.build()
    for name in (*case.fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for name, want in case.fields.items():
        assert _same(getattr(record, name), want), name
    assert not hasattr(record, "extra")


def test_system_evaluation_is_mutable_with_a_list_of_its_own_per_field():
    a, b = SystemEvaluation("s1"), SystemEvaluation("s1")
    a.notes.append("note")
    assert b.notes == [] and a != b
    a.system = "s2"
    del a.failures
    a.failures = ["IAA"]
    assert (a.system, a.failures) == ("s2", ["IAA"])


def test_pair_counts_compare_their_arrays_and_lock_them():
    counts = _counts()
    assert counts == PairCounts(counts.twice_hits.copy(), counts.totals.copy())
    assert not counts.twice_hits.flags.writeable and not counts.totals.flags.writeable
    assert len(counts) == 8


def test_target_distribution_keeps_a_read_only_float_copy():
    raw = np.array([1, 0])
    target = TargetDistribution(raw)
    assert target.probs.dtype == float and not target.probs.flags.writeable
    raw[0] = 0
    assert target.probs.tolist() == [1.0, 0.0]


def test_ranking_sequence_indexes_its_draws():
    seq = RankingSequence([("q1", R1), ("q2", R2), ("q1", R1)])
    assert seq.candidates == (R1, R2) and seq.slots == (0, 1, 0)
    assert seq.requests() == ["q1", "q2"] and seq.draws_for("q1") == [R1, R1]
    assert seq == RankingSequence((("q1", R1), ("q2", R2), ("q1", R1)))


def test_eval_config_defaults_are_readable_on_the_class():
    assert EvalConfig.threshold == 0.5 and EvalConfig.unknown_policy == "exclude"
    config = load_config(None)
    assert (config.threshold, config.unknown_policy) == (0.5, "exclude")
    with pytest.raises(ConfigError, match="threshold"):
        load_config(__import__("io").StringIO("threshold: 2\n"))


INVALID = [
    (MetricResult, ("AWRF", "s1", math.nan, 10, 0, ZERO), Degenerate,
     "AWRF value nan is not finite"),
    (MetricResult, ("AWRF", "s1", math.inf, 10, 0, ZERO), Degenerate,
     "AWRF value inf is not finite"),
    (MetricResult, ("AWRF", "s1", 0.5, 3, 4, ZERO), FairRankError,
     "degenerate count exceeds request count"),
    (Ranking, ("q1", ["a", "b", "a"]), FairRankError,
     "duplicate document in ranking for request 'q1'"),
    (GroupSpace, ((),), FairRankError, "group space needs at least one group"),
    (GroupSpace, (("p", "p"),), FairRankError, "group labels must be unique"),
    (GroupSpace, (("p", "r"), 2), FairRankError, "protected_index 2 out of range"),
    (GroupSpace, (("p", "r"), None, -1), FairRankError, "unknown_index -1 out of range"),
    (GroupSpace, (("p", "r"), 1, 1), FairRankError, "protected group cannot be the unknown group"),
    (TargetDistribution, ([],), FairRankError, "target distribution must be a non-empty vector"),
    (TargetDistribution, ([[1.0]],), FairRankError,
     "target distribution must be a non-empty vector"),
    (TargetDistribution, ([1.5, -0.5],), FairRankError, "target entries must lie in [0, 1]"),
    (TargetDistribution, ([math.nan, 1.0],), FairRankError, "target entries must lie in [0, 1]"),
    (TargetDistribution, ([0.5, 0.4],), FairRankError, "target distribution must sum to 1"),
    (RankingSequence, ([("q2", R1)],), FairRankError,
     "draw key 'q2' does not match ranking request 'q1'"),
    (RankingSequence, ([("q1", R1)], {"q1": -1.0}), FairRankError,
     "request weight for 'q1' must be finite and non-negative"),
    (RankingSequence, ([("q1", R1)], {"q1": math.inf}), FairRankError,
     "request weight for 'q1' must be finite and non-negative"),
    (RankingSequence, ([("q1", R1)], {"q1": 0.5}), FairRankError,
     "request weights must sum to 1"),
    (WeightModel, ("zipf",), FairRankError, "unknown weight model 'zipf'"),
    (WeightModel, ("rbp", 0.0), FairRankError, "gamma must lie in (0, 1], got 0.0"),
    (WeightModel, ("rbp", 1.5), FairRankError, "gamma must lie in (0, 1], got 1.5"),
    (SynthSpec, (1, 4), FairRankError, "need at least 2 docs, 1 request, and 1 system"),
    (SynthSpec, (50, 0), FairRankError, "need at least 2 docs, 1 request, and 1 system"),
    (SynthSpec, (50, 4, 1), FairRankError, "need at least 2 groups"),
    (SynthSpec, (50, 4, 2, 0), FairRankError, "need at least 2 docs, 1 request, and 1 system"),
    (SynthSpec, (50, 4, 2, 1, 0), FairRankError, "depth and max_draws must be >= 1"),
    (SynthSpec, (50, 4, 2, 1, 20, None, 42, 1.5), FairRankError,
     "protected_fraction must lie in [0, 1], got 1.5"),
    (SynthSpec, (50, 4, 2, 1, 20, None, 42, 0.5, -0.1), FairRankError,
     "unlabeled_fraction must lie in [0, 1], got -0.1"),
    (SynthSpec, (50, 4, 2, 1, 20, None, 42, 0.5, 0.0, 2.0), FairRankError,
     "soft_fraction must lie in [0, 1], got 2.0"),
    (SynthSpec, (50, 4, 2, 1, 20, None, 42, 0.5, 0.0, 0.0, 1.5), FairRankError,
     "skews must lie in [-1, 1]"),
    (SynthSpec, (50, 4, 2, 1, 20, None, 42, 0.5, 0.0, 0.0, 0.0, -2.0), FairRankError,
     "skews must lie in [-1, 1]"),
    (SynthSpec, (50, 4, 2, 1, 20, None, 42, 0.5, 0.0, 0.0, 0.0, 0.0, 0), FairRankError,
     "depth and max_draws must be >= 1"),
]


@pytest.mark.parametrize("cls, args, error, message", [
    pytest.param(*entry, id=f"{entry[0].__name__}-{i}") for i, entry in enumerate(INVALID)])
def test_each_validation_raises_its_message(cls, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(*args)
