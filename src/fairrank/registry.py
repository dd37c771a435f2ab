"""The metric registry: each family's keys, defaults, rows and directions, and the default
battery.  It imports only ``errors`` and ``record``, so ``report`` and ``compare`` read the
rows that ``ingest`` and ``pipeline`` evaluate without loading numpy."""

from __future__ import annotations

from typing import Mapping

from .errors import Direction
from .record import Record

TARGET_MODES = ("catalog", "equal", "custom", "composition")


class MetricSpec(Record):
    """One metric family: its default label, the config keys it reads with their defaults,
    its rows (a name template and a ``Direction`` each), how ``compiled.reduce_requests``
    weighs its requests (not a config key: ``uniform`` alike, so a draw count moves nothing,
    or ``arrival`` by rho, their share of the draws) and whether it needs score files.  A
    template's ``{}`` is the label; under the default label a leading ``{}_`` is dropped."""

    def __init__(self, label: str, keys: Mapping[str, object],
                 rows: tuple[tuple[str, Direction], ...], request_weighting: str,
                 needs_scores: bool = False):
        self._set(label, keys, rows, request_weighting, needs_scores)

    def row_names(self, label: str) -> tuple[str, ...]:
        return tuple(template[3:] if label == self.label and template.startswith("{}_")
                     else template.replace("{}", label) for template, _ in self.rows)


# Parity-in-sequence ratios weight positions logarithmically, expected-exposure
# metrics by rbp, the rest geometrically.
_GEOMETRIC, _LOGARITHMIC, _RBP = ({"weight_model": model, "gamma": 0.5}
                                  for model in ("geometric", "logarithmic", "rbp"))
_TARGET = {"target": "catalog", "custom_target": None}
_ZERO = (("{}", Direction.ZERO_IS_FAIR),)
_RATIO = (("{}", Direction.ONE_IS_FAIR), ("log{}", Direction.ZERO_IS_FAIR))

# Every metric family, in the default battery's order.
FAMILIES = {
    "prefd": MetricSpec("prefD", {"dist": "nd", **_TARGET, "target": "composition", "step": 10},
                        _ZERO, "uniform"),
    "awrf": MetricSpec("AWRF", {**_GEOMETRIC, "dist": "nd", **_TARGET, "signed": False}, _ZERO,
                       "uniform"),
    "fair": MetricSpec("FAIR", _TARGET, (("{}", Direction.ONE_IS_FAIR),), "uniform"),
    "dp": MetricSpec("DP", _LOGARITHMIC, _RATIO, "arrival"),
    "eed": MetricSpec("EED", _RBP, _ZERO, "arrival"),
    "eur": MetricSpec("EUR", {**_LOGARITHMIC, "pool": "judged"}, _RATIO, "arrival"),
    "rur": MetricSpec("RUR", {**_LOGARITHMIC, "pool": "judged"}, _RATIO, "arrival"),
    "eel": MetricSpec("EEL", {**_RBP, "pool": "union"},
                      (*_ZERO, ("{}_EER", Direction.HIGHER_IS_BETTER)), "arrival"),
    "iaa": MetricSpec("IAA", _GEOMETRIC, _ZERO, "arrival", needs_scores=True),
    # PAIR pools its pair counts over the scored requests, each once, whatever it draws.
    "pair": MetricSpec("PAIR", {"n_negatives": 10000}, (("{}_IntraAcc", Direction.ZERO_IS_FAIR),
                                                        ("{}_InterAcc", Direction.ZERO_IS_FAIR)),
                       "uniform", needs_scores=True),
}

# The default battery's metric entries: each family once, and AWRF on the equal target.
BATTERY = ({"name": "prefd"}, {"name": "awrf"},
           {"name": "awrf", "label": "AWRF_equal", "target": "equal"}, {"name": "fair"},
           {"name": "dp"}, {"name": "eed"}, {"name": "eur"}, {"name": "rur"}, {"name": "eel"},
           {"name": "iaa"}, {"name": "pair"})

# The default battery's rows, in its order: the order of the correlation matrix.
BATTERY_ROWS = tuple(row for entry in BATTERY for row in FAMILIES[entry["name"]].row_names(
    entry.get("label", FAMILIES[entry["name"]].label)))

# The raw ratio rows under their default labels, correlated only through their log forms.
RATIO_ROWS = frozenset(spec.label for spec in FAMILIES.values()
                       if any(template == "log{}" for template, _ in spec.rows))
