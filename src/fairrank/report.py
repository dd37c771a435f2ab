"""Metric rows, metric directionality, and rank correlation.

Every emitted metric row carries a direction (which end of its range is
fair).  Correlations between metrics use Kendall's tau-c (Stuart's variant)
over system orderings, after orienting each metric so that larger means
fairer; by default, signed zero-is-fair metrics enter as magnitudes.  The
``registry`` names the matrix's row order and the raw ratio rows it leaves out.

The module is plain Python, so ``compare`` runs without numpy.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable

from .errors import Degenerate, Direction, FairRankError, ParseError, _named, _read_text
from .record import Record
from .registry import BATTERY_ROWS, RATIO_ROWS

METRICS_COLUMNS = ("system", "metric", "value", "n_requests", "n_degenerate", "direction")


class MetricResult(Record):
    def __init__(self, metric: str, system: str, value: float, n_requests: int,
                 n_degenerate: int, direction: Direction):
        if not math.isfinite(value):
            raise Degenerate(f"{metric} value {value!r} is not finite")
        if n_degenerate < 0:
            raise FairRankError("degenerate count is negative")
        if n_degenerate > n_requests:
            raise FairRankError("degenerate count exceeds request count")
        self._set(metric, system, value, n_requests, n_degenerate, direction)


class CorrelationMatrix(Record):
    """``taus[i, j]`` for every cell of the ``metrics`` x ``metrics`` matrix; NaN marks
    missing ones."""

    def __init__(self, metrics: tuple[str, ...], taus: dict[tuple[int, int], float]):
        self._set(metrics, taus)

    def tau(self, a: str, b: str) -> float:
        return self.taus[self.metrics.index(a), self.metrics.index(b)]


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


def correlation_matrix(results: Iterable[MetricResult],
                       magnitude: bool = True) -> CorrelationMatrix:
    """Pairwise tau-c over the per-metric system orderings.

    A raw ratio row is left out: one of the registry's ``RATIO_ROWS``, or a one-is-fair
    row ``X`` (a labelled ratio) next to a zero-is-fair ``logX``.  Each pair uses the
    intersection of the two metrics' system sets; cells with fewer than two common
    systems, or a constant value list, are NaN.
    """
    by_metric: dict[str, dict[str, float]] = {}
    directions: dict[str, Direction] = {}
    for r in results:
        by_metric.setdefault(r.metric, {})[r.system] = r.value
        directions[r.metric] = r.direction
    ratio_and_log = (Direction.ONE_IS_FAIR, Direction.ZERO_IS_FAIR)  # of rows X and logX
    by_metric = {m: v for m, v in by_metric.items() if m not in RATIO_ROWS
                 and (directions[m], directions.get(f"log{m}")) != ratio_and_log}
    if len(by_metric) < 2:
        raise FairRankError("need at least 2 metrics to correlate")
    names = [m for m in BATTERY_ROWS if m in by_metric]
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


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable[object]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_tables(results: Iterable[MetricResult], out_dir: str | Path) -> Path:
    """Write the per-system metric table, ``metrics.csv``, its rows sorted by (system,
    metric); ``compare`` writes the tau-c matrix through ``emit_correlations``."""
    rows = sorted(results, key=lambda r: (r.system, r.metric))
    if not rows:
        raise FairRankError("no metric results to write")
    return _write_csv(Path(out_dir) / "metrics.csv", METRICS_COLUMNS,
                      ([r.system, r.metric, _fmt(r.value), r.n_requests, r.n_degenerate,
                        r.direction.value] for r in rows))


def emit_correlations(matrix: CorrelationMatrix, out_dir: str | Path,
                      long_format: bool = False) -> list[Path]:
    """Write the tau-c matrix as ``correlations.csv``, missing cells left empty;
    ``long_format`` also writes it as (metric_a, metric_b, tau) rows."""
    out_dir = Path(out_dir)
    names = matrix.metrics
    cells = [["" if math.isnan(matrix.taus[i, j]) else _fmt(matrix.taus[i, j])
              for j in range(len(names))] for i in range(len(names))]
    written = [_write_csv(out_dir / "correlations.csv", ["metric", *names],
                          ([a, *row] for a, row in zip(names, cells)))]
    if long_format:
        written.append(_write_csv(out_dir / "correlations_long.csv",
                                  ["metric_a", "metric_b", "tau"],
                                  ([a, b, cell] for a, row in zip(names, cells)
                                   for b, cell in zip(names, row))))
    return written


def read_metrics_table(path: str | Path) -> list[MetricResult]:
    """Read back a metrics.csv written by ``emit_tables``, decoded as every input is.

    Each (system, metric) pair may appear once; a repeat is an error, since
    the correlation would silently keep only the last value.
    """
    out: list[MetricResult] = []
    first_line: dict[tuple[str, str], int] = {}
    try:
        reader = csv.DictReader(io.StringIO(_read_text(path)))
    except ParseError as exc:  # a byte that is not UTF-8, at its line
        raise _named(exc, path)
    for column in METRICS_COLUMNS:
        if column not in (reader.fieldnames or ()):
            raise FairRankError(f"{path}:1: missing column {column!r}")
    for row in reader:
        lineno = reader.line_num
        try:
            if None in row:  # DictReader files the cells past the header's under None
                raise ValueError(f"cells past the header: {row[None]!r}")
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
