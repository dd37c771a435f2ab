"""System-level aggregation, metric directionality, and rank correlation.

Every emitted metric row carries a direction (which end of its range is
fair).  Correlations between metrics use Kendall's tau-c (Stuart's variant)
over system orderings, after orienting each metric so that larger means
fairer; by default, signed zero-is-fair metrics enter as magnitudes.

The correlation side is plain Python, so ``compare`` runs without numpy;
only ``aggregate``, on the evaluate path, imports it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import AllDegenerate, Degenerate, Direction, FairRankError

# Canonical row order for tables and correlation matrices.
CANONICAL_ORDER = (
    "prefD", "AWRF", "AWRF_equal", "FAIR",
    "DP", "logDP", "EED",
    "EUR", "logEUR", "RUR", "logRUR", "IAA", "EEL", "EER",
    "IntraAcc", "InterAcc",
)

# Raw ratio rows duplicate their log forms and are not monotone in fairness,
# so only the log forms participate in correlations.
CORRELATION_EXCLUDE = frozenset({"DP", "EUR", "RUR"})

METRICS_COLUMNS = ("system", "metric", "value", "n_requests", "n_degenerate", "direction")


@dataclass(frozen=True)
class MetricResult:
    metric: str
    system: str
    value: float
    n_requests: int
    n_degenerate: int
    direction: Direction

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise Degenerate(f"{self.metric} value {self.value!r} is not finite")
        if self.n_degenerate > self.n_requests:
            raise FairRankError("degenerate count exceeds request count")


@dataclass(frozen=True)
class CorrelationMatrix:
    metrics: tuple[str, ...]
    taus: dict[tuple[int, int], float]  # taus[i, j] for every cell; NaN marks missing ones

    def tau(self, a: str, b: str) -> float:
        return self.taus[self.metrics.index(a), self.metrics.index(b)]


def aggregate(
    per_request: Mapping[str, float],
    degenerate_flags: Mapping[str, str],
    metric: str,
    system: str,
    direction: Direction,
) -> MetricResult:
    """Mean over non-degenerate requests, with degenerate counts retained."""
    import numpy as np  # evaluate path only; compare never loads numpy

    values = [v for q, v in per_request.items() if q not in degenerate_flags]
    n_requests = len(per_request) + sum(1 for q in degenerate_flags if q not in per_request)
    if not values:
        raise AllDegenerate(f"every request degenerate for {metric}")
    return MetricResult(metric, system, float(np.mean(values)), n_requests,
                        len(degenerate_flags), direction)


def orient(values: Iterable[float], direction: Direction | None,
           magnitude: bool = True) -> list[float]:
    """Rescale values so that larger always means fairer (no direction: as given)."""
    v = [float(x) for x in values]
    if direction is Direction.ZERO_IS_FAIR:
        return [-abs(x) for x in v] if magnitude else [-x for x in v]
    return v


def kendall_tau_c(
    x: Iterable[float],
    y: Iterable[float],
    direction_x: Direction | None = None,
    direction_y: Direction | None = None,
    magnitude: bool = True,
) -> float:
    """Stuart's tau-c between two system orderings.

    tau_c = 2 m (C - D) / (n^2 (m - 1)) with m the smaller number of distinct
    values; tied pairs count as neither concordant nor discordant.  Lists are
    oriented per their directions first when given.
    """
    xs, ys = orient(x, direction_x, magnitude), orient(y, direction_y, magnitude)
    n = len(xs)
    if n != len(ys):
        raise FairRankError("value lists have different lengths")
    if n < 2:
        raise FairRankError("need at least 2 systems")
    m = min(len(set(xs)), len(set(ys)))
    if m < 2:
        raise Degenerate("a value list is constant; tau-c undefined")
    concordant = discordant = 0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        for xj, yj in zip(xs[i + 1:], ys[i + 1:]):
            prod = (xj - xi) * (yj - yi)
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    return 2.0 * m * (concordant - discordant) / (n * n * (m - 1))


def correlation_matrix(
    results: Iterable[MetricResult],
    magnitude: bool = True,
    exclude: frozenset[str] = CORRELATION_EXCLUDE,
) -> CorrelationMatrix:
    """Pairwise tau-c over the per-metric system orderings.

    Each pair uses the intersection of the two metrics' system sets; cells
    with fewer than two common systems, or a constant value list, are NaN.
    """
    by_metric: dict[str, dict[str, float]] = {}
    directions: dict[str, Direction] = {}
    for r in results:
        if r.metric in exclude:
            continue
        by_metric.setdefault(r.metric, {})[r.system] = r.value
        directions[r.metric] = r.direction
    if len(by_metric) < 2:
        raise FairRankError("need at least 2 metrics to correlate")
    names = [m for m in CANONICAL_ORDER if m in by_metric]
    names += sorted(set(by_metric) - set(names))
    k = len(names)
    taus = {(i, j): 1.0 if i == j else math.nan for i in range(k) for j in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            a, b = by_metric[names[i]], by_metric[names[j]]
            common = sorted(set(a) & set(b))
            if len(common) < 2:
                continue
            try:
                t = kendall_tau_c(
                    [a[s] for s in common], [b[s] for s in common],
                    directions[names[i]], directions[names[j]], magnitude,
                )
            except Degenerate:
                continue
            taus[i, j] = taus[j, i] = t
    return CorrelationMatrix(tuple(names), taus)


def _fmt(v: float) -> str:
    return repr(float(v))


def emit_tables(
    results: Iterable[MetricResult],
    matrix: CorrelationMatrix | None,
    out_dir: str | Path,
    long_format: bool = False,
) -> list[Path]:
    """Write the per-system metric table and (optionally) the tau-c matrix.

    ``metrics.csv`` rows are sorted by (system, metric); missing matrix cells
    are left empty.  ``long_format`` additionally writes the matrix as
    (metric_a, metric_b, tau) rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    rows = sorted(results, key=lambda r: (r.system, r.metric))
    if not rows:
        raise FairRankError("no metric results to write")
    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for r in rows:
            writer.writerow([r.system, r.metric, _fmt(r.value), r.n_requests,
                             r.n_degenerate, r.direction.value])
    written.append(metrics_path)

    if matrix is not None:
        corr_path = out_dir / "correlations.csv"
        with open(corr_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric", *matrix.metrics])
            for i, name in enumerate(matrix.metrics):
                cells = ["" if math.isnan(matrix.taus[i, j]) else _fmt(matrix.taus[i, j])
                         for j in range(len(matrix.metrics))]
                writer.writerow([name, *cells])
        written.append(corr_path)
        if long_format:
            long_path = out_dir / "correlations_long.csv"
            with open(long_path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["metric_a", "metric_b", "tau"])
                for i, a in enumerate(matrix.metrics):
                    for j, b in enumerate(matrix.metrics):
                        t = matrix.taus[i, j]
                        writer.writerow([a, b, "" if math.isnan(t) else _fmt(t)])
            written.append(long_path)
    return written


def read_metrics_table(path: str | Path) -> list[MetricResult]:
    """Read back a metrics.csv written by ``emit_tables``.

    Each (system, metric) pair may appear once; a repeat is an error, since
    the correlation would silently keep only the last value.
    """
    out: list[MetricResult] = []
    first_line: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in METRICS_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise FairRankError(f"{path}:1: missing column {column!r}")
        for row in reader:
            lineno = reader.line_num
            try:
                result = MetricResult(
                    metric=row["metric"],
                    system=row["system"],
                    value=float(row["value"]),
                    n_requests=int(row["n_requests"]),
                    n_degenerate=int(row["n_degenerate"]),
                    direction=Direction(row["direction"]),
                )
            except (TypeError, ValueError, FairRankError) as exc:  # TypeError: a short row
                raise FairRankError(f"{path}:{lineno}: bad metrics row ({exc})") from None
            key = (result.system, result.metric)
            if key in first_line:
                raise FairRankError(f"{path}:{lineno}: repeated row for system {key[0]!r}, "
                                    f"metric {key[1]!r} (first at line {first_line[key]})")
            first_line[key] = lineno
            out.append(result)
    return out
