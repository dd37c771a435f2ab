"""Group fairness metrics for ranked retrieval and recommendation outputs.

Public names load their module on first access (PEP 562), so ``import
fairrank`` stays cheap and a caller that only reads and correlates metric
tables never loads numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULE_NAMES = {
    "errors": ("AllDegenerate", "ConfigError", "Degenerate", "DegenerateDenominator",
               "DegenerateUtility", "Direction", "EmptyGroup", "FairRankError", "InputWarning",
               "NoPairs", "ParseError", "UndefinedNormalizer", "UnknownRequest"),
    "core": ("AlignmentMatrix", "GroupSpace", "Ranking", "RankingSequence", "RelevanceTable",
             "TargetDistribution", "apply_unknown_policy", "binarize"),
    "exposure": ("WeightModel", "position_weights", "request_exposure", "target_exposure"),
    "metrics_multi": ("demographic_parity", "eed"),
    "metrics_single": ("SingleListResult", "awrf", "fair_score", "pref_fairness",
                       "pref_normalizer"),
    "opportunity": ("ExpectedExposureResult", "discounted_group_utility", "ee_decompose", "eur",
                    "expected_exposure", "group_utility", "iaa", "rur"),
    "pairwise": ("PairCounts", "PairSample", "accuracy_table", "intra_inter",
                 "pairwise_accuracy"),
    "report": ("CorrelationMatrix", "MetricResult", "correlation_matrix", "emit_tables",
               "kendall_tau_c"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # submodules the package once imported eagerly
    if name in _MODULE_NAMES or name in ("compiled", "distance"):
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
