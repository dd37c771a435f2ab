"""``import fairrank`` resolves its public names on first access.

The names, and the objects they resolve to, must stay what they were when
the package imported every module eagerly, less the per-object wrappers that
no command, README example or benchmark hook reached (``REMOVED_NAMES``).
"""

import importlib
import os
import subprocess
import sys

import pytest

import fairrank

PUBLIC_NAMES = [
    "AlignmentMatrix", "AllDegenerate", "ConfigError", "CorrelationMatrix", "Degenerate",
    "DegenerateDenominator", "DegenerateUtility", "Direction", "EmptyGroup",
    "ExpectedExposureResult", "FairRankError", "GroupSpace", "MetricResult", "NoPairs",
    "PairCounts", "PairSample", "ParseError", "Ranking", "RankingSequence", "RelevanceTable",
    "SingleListResult", "TargetDistribution", "UndefinedNormalizer", "UnknownRequest",
    "WeightModel", "accuracy_table", "apply_unknown_policy", "awrf", "binarize",
    "correlation_matrix", "demographic_parity", "discounted_group_utility", "ee_decompose",
    "eed", "emit_tables", "eur", "expected_exposure", "fair_score", "group_utility", "iaa",
    "intra_inter", "kendall_tau_c", "pairwise_accuracy", "position_weights", "pref_fairness",
    "pref_normalizer", "request_exposure", "rur", "target_exposure",
]
REMOVED_NAMES = [
    "aggregate", "delta", "delta_kl", "delta_nd", "delta_rd", "group_exposure",
    "protected_mask", "sample_pairs", "system_exposure",
]


def test_all_lists_the_same_49_names():
    assert len(PUBLIC_NAMES) == 49
    assert fairrank.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_a_removed_name_raises_attribute_error(name):
    assert name not in dir(fairrank)
    with pytest.raises(AttributeError, match=name):
        getattr(fairrank, name)


def test_each_name_is_the_object_its_defining_module_holds():
    for name in PUBLIC_NAMES:
        obj = getattr(fairrank, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert obj.__module__.startswith("fairrank."), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fairrank import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(fairrank, name), name


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(PUBLIC_NAMES) <= set(dir(fairrank))
    assert "__version__" in dir(fairrank)
    with pytest.raises(AttributeError, match="no_such_name"):
        fairrank.no_such_name


def test_submodules_the_package_used_to_import_stay_attributes():
    # a fresh interpreter, since any earlier import binds the submodule here
    code = ("import sys, fairrank; print(fairrank.report.read_metrics_table.__module__, "
            "fairrank.core.Ranking is fairrank.Ranking, fairrank.compiled.__name__, "
            "fairrank.distance.__name__, 'numpy' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["fairrank.report", "True", "fairrank.compiled",
                                  "fairrank.distance", "True"]
