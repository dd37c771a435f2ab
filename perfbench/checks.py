"""Output checks for one evaluate or compare invocation.

Each function returns a list of problems; an empty list means the output
passed.  The checks read the CSV files directly and do not use fairrank's own
readers, so a defect in ``report`` cannot hide itself.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

from scipy.stats import kendalltau

REL_TOL = 1e-9
# Raw ratio rows are left out of the correlation matrix (their log rows stay).
CORRELATION_EXCLUDE = {"DP", "EUR", "RUR"}
ZERO_IS_FAIR = "ZeroIsFair"

Rows = dict[tuple[str, str], tuple[float, int, int, str]]


def read_metrics(path: Path) -> Rows:
    """``(system, metric) -> (value, n_requests, n_degenerate, direction)``."""
    rows: Rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            key = (rec["system"], rec["metric"])
            if key in rows:
                raise ValueError(f"{path}: duplicate row {key}")
            rows[key] = (float(rec["value"]), int(rec["n_requests"]),
                         int(rec["n_degenerate"]), rec["direction"])
    return rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _agree(a: float, b: float) -> bool:
    """Close, or both NaN (an undefined tau-c cell)."""
    return (math.isnan(a) and math.isnan(b)) or _close(a, b)


def check_metrics(path: Path, systems: list[str], metrics: tuple[str, ...],
                  reference: Path) -> list[str]:
    """Row set, finiteness and agreement with the reference table."""
    try:
        rows = read_metrics(path)
        ref = read_metrics(reference)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable metrics table: {exc}"]
    problems = []
    expected = {(s, m) for s in systems for m in metrics}
    if set(rows) != expected:
        missing = sorted(expected - set(rows))[:3]
        extra = sorted(set(rows) - expected)[:3]
        problems.append(f"row set differs from expected: missing {missing}, extra {extra}")
    for key, (value, *_) in sorted(rows.items()):
        if not math.isfinite(value):
            problems.append(f"{key}: non-finite value {value!r}")
    if set(ref) != set(rows):
        problems.append("row set differs from the reference table")
    for key in sorted(set(ref) & set(rows)):
        got, want = rows[key], ref[key]
        if not _close(got[0], want[0]) or got[1:] != want[1:]:
            problems.append(f"{key}: got {got}, reference {want}")
    return problems[:10]


def _oriented(values: list[float], direction: str) -> list[float]:
    return [-abs(v) for v in values] if direction == ZERO_IS_FAIR else list(values)


def expected_taus(rows: Rows) -> dict[tuple[str, str], float]:
    """Magnitude-oriented tau-c for every pair of correlated metrics (scipy)."""
    by_metric: dict[str, dict[str, float]] = {}
    direction: dict[str, str] = {}
    for (system, metric), (value, _, _, d) in rows.items():
        if metric in CORRELATION_EXCLUDE:
            continue
        by_metric.setdefault(metric, {})[system] = value
        direction[metric] = d
    taus = {}
    for a in by_metric:
        for b in by_metric:
            common = sorted(set(by_metric[a]) & set(by_metric[b]))
            x = _oriented([by_metric[a][s] for s in common], direction[a])
            y = _oriented([by_metric[b][s] for s in common], direction[b])
            if a == b:
                taus[a, b] = 1.0
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                taus[a, b] = float(kendalltau(x, y, variant="c").statistic)
    return taus


def _cell(text: str) -> float:
    return math.nan if text == "" else float(text)


def check_compare(out_dir: Path) -> list[str]:
    """The tau-c matrix (square and long form) against scipy on metrics.csv."""
    try:
        rows = read_metrics(out_dir / "metrics.csv")
        with open(out_dir / "correlations.csv", newline="", encoding="utf-8") as fh:
            square = list(csv.reader(fh))
        names = square[0][1:]
        got = {(line[0], b): _cell(text)
               for line in square[1:] for b, text in zip(names, line[1:])}
        with open(out_dir / "correlations_long.csv", newline="", encoding="utf-8") as fh:
            long_got = {(r["metric_a"], r["metric_b"]): _cell(r["tau"])
                        for r in csv.DictReader(fh)}
    except (OSError, IndexError, KeyError, ValueError) as exc:
        return [f"unreadable compare output: {exc!r}"]
    want = expected_taus(rows)
    problems = []
    if set(got) != set(want):
        problems.append(f"matrix covers {sorted(set(names))}, expected "
                        f"{sorted({a for a, _ in want})}")
    for key in sorted(set(got) & set(want)):
        if not _agree(got[key], want[key]):
            problems.append(f"tau-c {key}: got {got[key]!r}, scipy {want[key]!r}")
    if long_got.keys() != got.keys() or not all(_agree(long_got[k], got[k]) for k in got):
        problems.append("long-format matrix disagrees with the square matrix")
    return problems[:10]
