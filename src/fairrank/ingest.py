"""Parsers, writers, and evaluation configuration.

File formats (UTF-8, LF or CRLF):

* run:       ``qid Q0 docid rank score tag`` whitespace-separated; ``#``
             lines are comments.  Each request's documents are ordered by
             the rank column, and gaps in it are closed (ranks 3, 7, 10 sit
             at positions 1, 2, 3); the score column never reorders them,
             unlike trec_eval, which sorts by score.
* qrels:     ``qid iter docid grade`` whitespace-separated.
* alignment: CSV, header ``docid,<group1>,...,<groupG>``; a row with every
             group cell empty marks the document unlabeled.
* sequence:  CSV ``seq_no,qid`` referencing rankings in a run.
* scores:    CSV ``qid,docid,score``.

Parsers read line by line (the alignment parser keeps its lines, to convert
and check the cells as one array) and either produce a value or fail with a
1-based line number, after the file's path when given a path.  A run may not
repeat a document within a request; duplicate alignment/qrels/score keys are
last-wins with a warning.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, TextIO, TypeVar

import numpy as np

from .core import (
    AlignmentMatrix,
    ConfigError,
    FairRankError,
    GroupSpace,
    ParseError,
    Ranking,
    RankingSequence,
    RelevanceTable,
    UnknownRequest,
)

log = logging.getLogger("fairrank")


class DuplicateRank(ParseError):
    """A request assigned the same rank to two documents."""


class NegativeWeight(ParseError):
    """An alignment cell is negative."""


class RowSumOutOfTolerance(ParseError):
    """An alignment row does not sum close enough to 1."""


ALIGNMENT_SUM_TOL = 0.01

T = TypeVar("T")


class RunRecord(NamedTuple):
    request: str
    doc: str
    rank: int
    score: float
    tag: str


@dataclass(frozen=True)
class RunFile:
    """A parsed system run: raw records plus per-request rankings."""

    records: tuple[RunRecord, ...]
    rankings: dict[str, Ranking]

    @property
    def tag(self) -> str | None:
        return self.records[0].tag if self.records else None

    def requests(self) -> list[str]:
        return sorted(self.rankings)


def _lines(source: TextIO | Iterable[str] | str | Path) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    yield from source


def _names_path(parse: Callable[..., T]) -> Callable[..., T]:
    """A parser that, given a path, puts it before the message of the error it raises."""

    @functools.wraps(parse)
    def parse_file(source, *args, **kwargs):
        try:
            return parse(source, *args, **kwargs)
        except FairRankError as exc:
            if isinstance(source, (str, Path)):
                exc.args = (f"{source}: {exc}", *exc.args[1:])
            raise

    return parse_file


def _finite(text: str, what: str, lineno: int) -> float:
    """Parse a finite number, or fail naming the line (inf and nan included)."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not a number", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"{what} {text!r} is not finite", lineno)
    return value


@_names_path
def parse_run(source: TextIO | Iterable[str] | str | Path) -> RunFile:
    """Parse a TREC-style run file into records and per-request rankings.

    Rankings follow the rank column, with gaps closed; scores ride along.
    """
    records: list[RunRecord] = []
    seen: dict[str, tuple[set[int], set[str]]] = {}  # per request: ranks and documents
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 whitespace-separated fields, got {len(parts)}", lineno)
        qid, _, docid, rank_s, score_s, tag = parts
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(f"rank {rank_s!r} is not an integer", lineno) from None
        score = _finite(score_s, "score", lineno)
        ranks, docs = seen.setdefault(qid, (set(), set()))
        if rank in ranks:
            raise DuplicateRank(f"request {qid!r} repeats rank {rank}", lineno)
        if docid in docs:
            raise ParseError(f"request {qid!r} repeats document {docid!r}", lineno)
        ranks.add(rank)
        docs.add(docid)
        records.append(RunRecord(qid, docid, rank, score, tag))

    per_request: dict[str, list[RunRecord]] = {}
    for rec in records:
        per_request.setdefault(rec.request, []).append(rec)
    rankings = {}
    for qid, recs in per_request.items():
        recs.sort(key=lambda r: r.rank)
        rankings[qid] = Ranking(qid, tuple(r.doc for r in recs), tuple(r.score for r in recs))
    return RunFile(tuple(records), rankings)


def write_run(fh: TextIO, run: RunFile) -> None:
    for rec in run.records:
        fh.write(f"{rec.request} Q0 {rec.doc} {rec.rank} {float(rec.score)!r} {rec.tag}\n")


@_names_path
def parse_qrels(source: TextIO | Iterable[str] | str | Path) -> RelevanceTable:
    """Parse 4-column relevance judgments; negative grades are rejected."""
    table: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 4 whitespace-separated fields, got {len(parts)}", lineno)
        qid, _, docid, grade_s = parts
        grade = _finite(grade_s, "grade", lineno)
        if grade < 0:
            raise ParseError(f"negative grade {grade}", lineno)
        bucket = table.setdefault(qid, {})
        if docid in bucket:
            log.warning("qrels line %d overrides earlier grade for (%s, %s)", lineno, qid, docid)
        bucket[docid] = grade
    return RelevanceTable(table)


def write_qrels(fh: TextIO, table: RelevanceTable) -> None:
    for qid in sorted(table.requests()):
        judged = table.judged(qid)
        for docid in sorted(judged):
            fh.write(f"{qid} 0 {docid} {judged[docid]!r}\n")


@_names_path
def parse_alignment(source: TextIO | Iterable[str] | str | Path) -> tuple[AlignmentMatrix, GroupSpace]:
    """Parse the alignment CSV into soft membership rows and a group space.

    Rows summing within 0.01 of 1 are renormalized to exactly 1; anything
    further off is rejected.  Empty cells read as 0, except an all-empty row,
    which marks the document unlabeled.  The cells are converted and checked
    as one array; only when that check fails are the lines checked one by
    one, to name the first bad line.
    """
    reader = csv.reader(_lines(source))
    header = next(reader, None)
    if not header or len(header) < 2:
        raise ParseError("alignment header must be docid,<group1>,...", 1)
    names = tuple(h.strip() for h in header[1:])
    lines = [(lineno, cells) for lineno, cells in enumerate(reader, start=2)
             if cells and not all(not c.strip() for c in cells)]
    labeled = []  # (line, doc, group cells) of every labeled row
    for lineno, cells in lines:
        if len(cells) != len(names) + 1:
            _raise_first_bad_line(lines, names)
        raw = [c.strip() for c in cells[1:]]
        if any(raw):
            labeled.append((lineno, cells[0].strip(), raw))
    try:
        vals = np.array([[float(c) if c else 0.0 for c in raw] for _, _, raw in labeled],
                        dtype=float).reshape(len(labeled), len(names))
    except ValueError:
        _raise_first_bad_line(lines, names)
    totals = vals.sum(axis=1)
    if (not np.all(np.isfinite(vals)) or np.any(vals < 0)
            or np.any(np.abs(totals - 1.0) > ALIGNMENT_SUM_TOL)):
        _raise_first_bad_line(lines, names)
    # a repeated document keeps its first position and takes its last row
    row_of: dict[str, int] = {}
    for i, (lineno, doc, _) in enumerate(labeled):
        if doc in row_of:
            log.warning("alignment line %d overrides earlier row for %s", lineno, doc)
        row_of[doc] = i
    dense = (vals / totals[:, None])[list(row_of.values())]
    return AlignmentMatrix._stacked(list(row_of), dense), GroupSpace(names)


def _raise_first_bad_line(lines: list[tuple[int, list[str]]], names: tuple[str, ...]) -> NoReturn:
    """Check the alignment lines one at a time and fail naming the first bad one."""
    for lineno, cells in lines:
        if len(cells) != len(names) + 1:
            raise ParseError(f"expected {len(names) + 1} columns, got {len(cells)}", lineno)
        doc = cells[0].strip()
        raw = [c.strip() for c in cells[1:]]
        if all(not c for c in raw):
            continue  # unlabeled
        vec = np.array([_finite(c, "alignment cell", lineno) if c else 0.0 for c in raw])
        if np.any(vec < 0):
            raise NegativeWeight(f"negative alignment weight for {doc!r}", lineno)
        total = float(vec.sum())
        if abs(total - 1.0) > ALIGNMENT_SUM_TOL:
            raise RowSumOutOfTolerance(f"row for {doc!r} sums to {total:.6g}", lineno)
    raise AssertionError("the bulk alignment checks refused lines that pass one by one")


def write_alignment(fh: TextIO, alignment: AlignmentMatrix, groups: GroupSpace) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["docid", *groups.names])
    for doc in sorted(alignment.docs()):
        writer.writerow([doc, *[repr(float(v)) for v in alignment.row(doc)]])


@_names_path
def parse_sequence(source: TextIO | Iterable[str] | str | Path, run: RunFile) -> RankingSequence:
    """Parse draw rows ``seq_no,qid`` against a run's rankings."""
    draws: list[tuple[int, str]] = []
    reader = csv.reader(_lines(source))
    for lineno, cells in enumerate(reader, start=1):
        if not cells or all(not c.strip() for c in cells):
            continue
        if cells[0].strip().lower() == "seq_no":
            continue  # optional header
        if len(cells) != 2:
            raise ParseError(f"expected seq_no,qid, got {len(cells)} columns", lineno)
        try:
            seq_no = int(cells[0])
        except ValueError:
            raise ParseError(f"seq_no {cells[0]!r} is not an integer", lineno) from None
        qid = cells[1].strip()
        if qid not in run.rankings:
            raise UnknownRequest(f"sequence line {lineno} references unknown request {qid!r}")
        draws.append((seq_no, qid))
    draws.sort(key=lambda t: t[0])
    return RankingSequence(tuple((qid, run.rankings[qid]) for _, qid in draws))


def fallback_sequence(run: RunFile) -> RankingSequence:
    """No sequence file: one draw per distinct request (deterministic policy)."""
    return RankingSequence.single_draws(run.rankings)


def write_sequence(fh: TextIO, seq: RankingSequence) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["seq_no", "qid"])
    for i, (qid, _) in enumerate(seq.draws, start=1):
        writer.writerow([i, qid])


@_names_path
def parse_scores(source: TextIO | Iterable[str] | str | Path) -> dict[str, dict[str, float]]:
    """Parse ``qid,docid,score`` rows into a nested score map."""
    out: dict[str, dict[str, float]] = {}
    reader = csv.reader(_lines(source))
    for lineno, cells in enumerate(reader, start=1):
        if not cells or all(not c.strip() for c in cells):
            continue
        if cells[0].strip().lower() == "qid":
            continue
        if len(cells) != 3:
            raise ParseError(f"expected qid,docid,score, got {len(cells)} columns", lineno)
        qid, docid = cells[0].strip(), cells[1].strip()
        score = _finite(cells[2], "score", lineno)
        bucket = out.setdefault(qid, {})
        if docid in bucket:
            log.warning("scores line %d overrides earlier score for (%s, %s)", lineno, qid, docid)
        bucket[docid] = score
    return out


def write_scores(fh: TextIO, scores: Mapping[str, Mapping[str, float]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["qid", "docid", "score"])
    for qid in sorted(scores):
        for docid in sorted(scores[qid]):
            writer.writerow([qid, docid, repr(float(scores[qid][docid]))])


# --- evaluation configuration -------------------------------------------

METRIC_NAMES = ("prefd", "awrf", "fair", "dp", "eed", "eur", "rur", "iaa", "eel", "pair")
TARGET_MODES = ("catalog", "equal", "custom", "composition")

# Table-driven per-metric weighting defaults: parity-in-sequence ratios use
# the logarithmic model, expected-exposure metrics use rbp, the rest geometric.
_DEFAULT_WEIGHTS = {"dp": "logarithmic", "eur": "logarithmic", "rur": "logarithmic",
                    "eed": "rbp", "eel": "rbp"}


@dataclass(frozen=True)
class MetricConfig:
    name: str
    label: str
    weight_model: str = "geometric"
    gamma: float = 0.5
    dist: str = "nd"
    target: str = "catalog"
    custom_target: tuple[float, ...] | None = None
    step: int = 10
    n_negatives: int = 10000
    pool: str = "judged"
    signed: bool = False


@dataclass(frozen=True)
class EvalConfig:
    protected: str | None = None
    unknown: str | None = None
    unknown_policy: str = "exclude"
    threshold: float = 0.5
    seed: int = 42
    metrics: tuple[MetricConfig, ...] = ()
    explicit_metrics: bool = False


def default_metrics() -> tuple[MetricConfig, ...]:
    """The full default metric battery (one entry per metric family)."""
    mk = _make_metric
    return (
        mk({"name": "prefd"}, "metrics[0]"),
        mk({"name": "awrf"}, "metrics[1]"),
        mk({"name": "awrf", "label": "AWRF_equal", "target": "equal"}, "metrics[2]"),
        mk({"name": "fair"}, "metrics[3]"),
        mk({"name": "dp"}, "metrics[4]"),
        mk({"name": "eed"}, "metrics[5]"),
        mk({"name": "eur"}, "metrics[6]"),
        mk({"name": "rur"}, "metrics[7]"),
        mk({"name": "eel"}, "metrics[8]"),
        mk({"name": "iaa"}, "metrics[9]"),
        mk({"name": "pair"}, "metrics[10]"),
    )


_DEFAULT_LABELS = {"prefd": "prefD", "awrf": "AWRF", "fair": "FAIR", "dp": "DP",
                   "eed": "EED", "eur": "EUR", "rur": "RUR", "iaa": "IAA",
                   "eel": "EEL", "pair": "PAIR"}

_DEFAULT_TARGETS = {"prefd": "composition"}


def _domain(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"ParameterOutOfDomain: {message}", path)


def _make_metric(entry: Mapping, path: str) -> MetricConfig:
    if not isinstance(entry, Mapping) or "name" not in entry:
        raise ConfigError("metric entries need a 'name'", path)
    name = str(entry["name"]).lower()
    if name not in METRIC_NAMES:
        raise ConfigError(f"UnknownMetric: {name!r}", f"{path}.name")
    known = {"name", "label", "weight_model", "gamma", "dist", "target",
             "custom_target", "step", "n_negatives", "pool", "signed"}
    for key in entry:
        if key not in known:
            raise ConfigError(f"unknown parameter {key!r}", f"{path}.{key}")
    weight_model = str(entry.get("weight_model", _DEFAULT_WEIGHTS.get(name, "geometric")))
    gamma = float(entry.get("gamma", 0.5))
    dist = str(entry.get("dist", "nd")).lower()
    target = str(entry.get("target", _DEFAULT_TARGETS.get(name, "catalog"))).lower()
    step = int(entry.get("step", 10))
    n_negatives = int(entry.get("n_negatives", 10000))
    pool = str(entry.get("pool", "union" if name == "eel" else "judged"))
    _domain(weight_model in ("geometric", "logarithmic", "rbp", "cascade"),
            f"{path}.weight_model", f"unknown weight model {weight_model!r}")
    _domain(0 < gamma <= 1, f"{path}.gamma", f"gamma {gamma} outside (0, 1]")
    _domain(dist in ("nd", "rd", "kl"), f"{path}.dist", f"unknown distance {dist!r}")
    _domain(target in TARGET_MODES, f"{path}.target", f"unknown target mode {target!r}")
    _domain(name == "prefd" or target != "composition",
            f"{path}.target", "composition target only applies to prefd")
    _domain(step >= 2, f"{path}.step", f"step {step} must be >= 2")
    _domain(n_negatives >= 1, f"{path}.n_negatives", f"n_negatives {n_negatives} must be >= 1")
    _domain(pool in ("judged", "retrieved", "union"), f"{path}.pool", f"unknown pool {pool!r}")
    custom = entry.get("custom_target")
    if custom is not None:
        custom = tuple(float(v) for v in custom)
        _domain(abs(sum(custom) - 1.0) <= 1e-6, f"{path}.custom_target", "must sum to 1")
    _domain(target != "custom" or custom is not None,
            f"{path}.custom_target", "custom target mode needs custom_target")
    label = str(entry.get("label", _DEFAULT_LABELS[name]))
    return MetricConfig(name, label, weight_model, gamma, dist, target, custom,
                        step, n_negatives, pool, bool(entry.get("signed", False)))


def load_config(source: str | Path | TextIO | None) -> EvalConfig:
    """Load a YAML evaluation config, filling documented defaults.

    ``None`` (or an empty document) yields all defaults, including the full
    default metric battery.
    """
    doc: Mapping = {}
    if source is not None:
        import yaml  # only a config file needs it

        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh) or {}
        else:
            doc = yaml.safe_load(source) or {}
    if not isinstance(doc, Mapping):
        raise ConfigError("config document must be a mapping")
    known = {"protected", "unknown", "unknown_policy", "threshold", "seed", "metrics"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown parameter {key!r}", str(key))
    threshold = float(doc.get("threshold", 0.5))
    _domain(0 < threshold <= 1, "threshold", f"threshold {threshold} outside (0, 1]")
    policy = str(doc.get("unknown_policy", "exclude"))
    _domain(policy in ("exclude", "group", "error"), "unknown_policy",
            f"unknown policy {policy!r}")
    raw_metrics = doc.get("metrics")
    if raw_metrics is None:
        metrics = default_metrics()
        explicit = False
    else:
        if not isinstance(raw_metrics, list) or not raw_metrics:
            raise ConfigError("metrics must be a non-empty list", "metrics")
        metrics = tuple(_make_metric(m, f"metrics[{i}]") for i, m in enumerate(raw_metrics))
        explicit = True
    return EvalConfig(
        protected=str(doc["protected"]) if "protected" in doc and doc["protected"] is not None else None,
        unknown=str(doc["unknown"]) if "unknown" in doc and doc["unknown"] is not None else None,
        unknown_policy=policy,
        threshold=threshold,
        seed=int(doc.get("seed", 42)),
        metrics=metrics,
        explicit_metrics=explicit,
    )
