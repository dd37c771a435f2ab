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

A sequence or scores file may open with a header row (first cell ``seq_no``
or ``qid``, any case), recognized on the first non-blank row only.

Runs, qrels and score files are read whole: one split of the file gives
every field, each numeric column is converted by one ``map(int)`` or
``map(float)`` and checked as one array, and a run's requests are grouped by
one sort.  The alignment parser reads its group columns the same way.  Only
when a check fails, or a qrels, score or alignment key repeats, are the lines
read again one at a time, to fail at the first bad line or to warn at each
repeat; the sequence parser reads line by line.  Every parser either produces a
value or fails with a 1-based line number, after the file's path when given a
path.  A run may not repeat a document within a request; duplicate
alignment/qrels/score keys are last-wins with a warning.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
from dataclasses import dataclass
from itertools import chain, compress, groupby, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, TextIO, TypeVar

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
    """A parsed system run: per-request rankings plus the file's columns.

    Data line i of the file is ``qids[i] Q0 docids[i] ranks[i] scores[i]
    tags[i]``.  A run built from rankings alone has empty columns.
    """

    rankings: dict[str, Ranking]
    qids: tuple[str, ...] = ()
    docids: tuple[str, ...] = ()
    ranks: tuple[int, ...] = ()
    scores: tuple[float, ...] = ()
    tags: tuple[str, ...] = ()

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """One record per data line, in file order, derived from the columns."""
        return tuple(map(RunRecord, self.qids, self.docids, self.ranks, self.scores, self.tags))

    @property
    def tag(self) -> str | None:
        return self.tags[0] if self.tags else None

    def requests(self) -> list[str]:
        return sorted(self.rankings)


def _lines(source: TextIO | Iterable[str] | str | Path) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    yield from source


def _read(source: TextIO | Iterable[str] | str | Path) -> tuple[str | None, list[str]]:
    """The text of ``source`` and its lines.

    A file is read whole with universal newlines, and its lines are its text
    split at line feeds, without them.  Other sources give the lines iterating
    over them gives, and their text when it splits at line feeds into them
    (every line but the last ends in its only line feed), else None.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        return text, lines
    lines = list(source)
    text = "".join(lines)
    if (text.count("\n") != len(lines) - (not text.endswith("\n"))
            or not all(map(str.endswith, lines[:-1], repeat("\n")))):
        return None, lines
    return text, lines


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


def _columns(rows: list[str], width: int, sep: str | None = None) -> list[list[str]] | None:
    """The ``width`` columns of ``rows``, each as one list; None when a row has another width.

    Fields are split at whitespace (``sep`` None) or at ``sep``.  The rows are
    joined with a NUL field after each, so one split of the whole text gives
    every field and the NULs show where each row ended.
    """
    if not rows:
        return [[] for _ in range(width)]
    glue = " " if sep is None else sep
    fields, stride = (f"{glue}\0{glue}".join(rows) + f"{glue}\0").split(sep), width + 1
    if (len(fields) != len(rows) * stride or fields.count("\0") != len(rows)
            or fields[width::stride].count("\0") != len(rows)):
        return None  # a row of another width, or a NUL field of its own
    return [fields[i::stride] for i in range(width)]


def _csv_rows(text: str) -> list[str] | None:
    """One CSV record per line of ``text``, without its line break, when splitting at
    commas reads them as ``csv.reader`` does; otherwise None.

    That holds when the text has no quote, no NUL, no carriage return but
    before a line feed, and no line longer than a CSV field may be.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    rows = text.split("\n")
    if not rows[-1]:
        rows.pop()
    if len(text) > csv.field_size_limit() and max(map(len, rows)) > csv.field_size_limit():
        return None
    return rows


def _all_finite(values: list[float], minimum: float = -math.inf) -> bool:
    """Whether every value is finite and at least ``minimum``.

    One inf or nan makes the sum non-finite; so does a sum that overflows,
    which only sends the file to the line-by-line parser.
    """
    return math.isfinite(sum(values)) and min(values, default=minimum) >= minimum


def _stripped(cells: list[str]) -> list[str]:
    """``cells`` without surrounding whitespace (the list itself when no cell has any)."""
    joined = "".join(cells)
    return cells if joined.split() == [joined] else list(map(str.strip, cells))


def _request_codes(qids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct requests in first-appearance order, and each line's index among them."""
    runs = [(q, len(list(group))) for q, group in groupby(qids)]
    requests = [q for q, _ in runs]
    if len(set(requests)) == len(runs):  # each request's lines are contiguous
        return requests, np.repeat(np.arange(len(runs)), [n for _, n in runs])
    requests = list(dict.fromkeys(requests))
    index = dict(zip(requests, range(len(requests))))
    return requests, np.fromiter(map(index.__getitem__, qids), dtype=np.intp, count=len(qids))


def _nested(qids: list[str], docids: list[str],
            values: list[float]) -> dict[str, dict[str, float]] | None:
    """``{request: {document: value}}``, requests in first-appearance order and each
    request's documents in file order; None when a (request, document) key repeats.

    One stable sort by request groups the lines, unless each request's lines
    are contiguous already.
    """
    requests, code = _request_codes(qids)
    if np.any(code[1:] < code[:-1]):
        order = np.argsort(code, kind="stable")
        code, order = code[order], order.tolist()
        docids, values = (list(map(col.__getitem__, order)) for col in (docids, values))
    bounds = np.searchsorted(code, np.arange(len(requests) + 1)).tolist()
    out = {q: dict(zip(docids[a:b], values[a:b])) for q, a, b in zip(requests, bounds, bounds[1:])}
    return out if sum(map(len, out.values())) == len(values) else None


@_names_path
def parse_run(source: TextIO | Iterable[str] | str | Path) -> RunFile:
    """Parse a TREC-style run file into its columns and per-request rankings.

    Rankings follow the rank column, with gaps closed.  The columns are
    converted and checked whole; only when that fails are the lines parsed
    one by one, to name the first bad line.
    """
    _, lines = _read(source)
    run = _run_of_columns(lines)
    return run if run is not None else _parse_run_lines(lines)


def _run_of_columns(lines: list[str]) -> RunFile | None:
    """The run, when its columns pass every check whole; else None."""
    columns = _columns(lines, 6)
    if columns is None or "#" in "".join(columns[0]):  # blank or comment lines, or a bad one
        columns = _columns([line for line in lines
                            if line.strip() and not line.lstrip().startswith("#")], 6)
    if columns is None:
        return None
    qids, _, docids, rank_cells, score_cells, tags = columns
    try:
        ranks = list(map(int, rank_cells))
        scores = list(map(float, score_cells))
        rank_key = np.array(ranks, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if not _all_finite(scores):
        return None
    requests, code = _request_codes(qids)
    order = np.lexsort((rank_key, code))
    code, rank_key = code[order], rank_key[order]
    if np.any((code[1:] == code[:-1]) & (rank_key[1:] == rank_key[:-1])):
        return None  # a repeated rank
    ranked = list(map(docids.__getitem__, order.tolist()))
    bounds = np.searchsorted(code, np.arange(len(requests) + 1)).tolist()
    try:
        rankings = {q: Ranking(q, tuple(ranked[a:b]))
                    for q, a, b in zip(requests, bounds, bounds[1:])}
    except FairRankError:
        return None  # a repeated document
    return RunFile(rankings, tuple(qids), tuple(docids), tuple(ranks), tuple(scores), tuple(tags))


def _parse_run_lines(lines: list[str]) -> RunFile:
    """Parse the run lines one at a time, failing at the first bad line."""
    columns: tuple[list, ...] = ([], [], [], [], [])  # qids, docids, ranks, scores, tags
    seen: dict[str, tuple[set[int], set[str]]] = {}  # per request: ranks and documents
    for lineno, line in enumerate(lines, start=1):
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
        for column, value in zip(columns, (qid, docid, rank, score, tag)):
            column.append(value)
    qids, docids, ranks, scores, tags = columns
    per_request: dict[str, list[int]] = {}
    for i, qid in enumerate(qids):
        per_request.setdefault(qid, []).append(i)
    rankings = {q: Ranking(q, tuple(docids[i] for i in sorted(rows, key=ranks.__getitem__)))
                for q, rows in per_request.items()}
    return RunFile(rankings, *map(tuple, columns))


def write_run(fh: TextIO, run: RunFile) -> None:
    for qid, docid, rank, score, tag in zip(run.qids, run.docids, run.ranks, run.scores, run.tags):
        fh.write(f"{qid} Q0 {docid} {rank} {float(score)!r} {tag}\n")


@_names_path
def parse_qrels(source: TextIO | Iterable[str] | str | Path) -> RelevanceTable:
    """Parse 4-column relevance judgments; negative grades are rejected.

    The columns are converted and checked whole; a failed check or a
    repeated (request, document) key reparses the lines one by one.
    """
    _, lines = _read(source)
    table = _qrels_of_columns(lines)
    return table if table is not None else _parse_qrels_lines(lines)


def _qrels_of_columns(lines: list[str]) -> RelevanceTable | None:
    """The judgments, when their columns pass every check whole and no key repeats; else None."""
    columns = _columns(lines, 4) or _columns(list(filter(str.strip, lines)), 4)
    if columns is None:
        return None
    qids, _, docids, grade_cells = columns
    try:
        grades = list(map(float, grade_cells))
    except ValueError:
        return None
    if not _all_finite(grades, minimum=0.0):
        return None
    table = _nested(qids, docids, grades)
    return None if table is None else RelevanceTable._trusted(table)


def _parse_qrels_lines(lines: list[str]) -> RelevanceTable:
    """Parse the qrels lines one at a time: fail at the first bad line, warn at each repeat."""
    table: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(lines, start=1):
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
    return RelevanceTable._trusted(table)


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
    which marks the document unlabeled.  The columns are converted and
    checked whole; a failed check, a repeated document or CSV quoting
    reparses the lines one by one.
    """
    text, lines = _read(source)
    parsed = _alignment_of_columns(text) if text is not None else None
    if parsed is not None:
        return parsed
    return _parse_alignment_lines(lines if text is None else io.StringIO(text))


def _alignment_of_columns(text: str) -> tuple[AlignmentMatrix, GroupSpace] | None:
    """The alignment, when its columns pass every check whole and no document repeats;
    else None."""
    rows = _csv_rows(text)
    if not rows:
        return None
    header = rows[0].split(",")
    if len(header) < 2:
        return None
    columns = _columns(rows[1:], len(header), ",")
    if columns is None:  # blank rows, or a row of another width
        columns = _columns([row for row in rows[1:] if row.replace(",", "").strip()],
                           len(header), ",")
    if columns is None:
        return None
    cells = [_stripped(column) for column in columns[1:]]
    filled = np.array([list(map(bool, column)) for column in cells], dtype=bool).reshape(
        len(cells), -1)
    labeled = filled.any(axis=0)
    docs = list(compress(_stripped(columns[0]), labeled))
    if len(set(docs)) != len(docs):
        return None  # a repeated document
    values = np.zeros(filled.shape)
    try:
        values[filled] = list(map(float, compress(chain.from_iterable(cells), filled.ravel())))
    except ValueError:
        return None
    vals = np.ascontiguousarray(values.T[labeled])
    totals = vals.sum(axis=1)
    if (not np.all(np.isfinite(vals)) or np.any(vals < 0)
            or np.any(np.abs(totals - 1.0) > ALIGNMENT_SUM_TOL)):
        return None
    return (AlignmentMatrix._stacked(docs, vals / totals[:, None]),
            GroupSpace(tuple(name.strip() for name in header[1:])))


def _parse_alignment_lines(lines: Iterable[str]) -> tuple[AlignmentMatrix, GroupSpace]:
    """Parse the alignment lines one at a time through ``csv.reader``: fail at the first
    bad line, warn at each repeated document (which keeps its first position and
    takes its last row)."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if not header or len(header) < 2:
        raise ParseError("alignment header must be docid,<group1>,...", 1)
    names = tuple(h.strip() for h in header[1:])
    rows: dict[str, np.ndarray] = {}
    for lineno, cells in enumerate(reader, start=2):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != len(names) + 1:
            raise ParseError(f"expected {len(names) + 1} columns, got {len(cells)}", lineno)
        doc = cells[0].strip()
        raw = [c.strip() for c in cells[1:]]
        if all(not c for c in raw):
            continue  # unlabeled
        vec = np.array([_finite(c, "alignment cell", lineno) if c else 0.0 for c in raw])
        if np.any(vec < 0):
            raise NegativeWeight(f"negative alignment weight for {doc!r}", lineno)
        total = vec.sum()
        if abs(total - 1.0) > ALIGNMENT_SUM_TOL:
            raise RowSumOutOfTolerance(f"row for {doc!r} sums to {total:.6g}", lineno)
        if doc in rows:
            log.warning("alignment line %d overrides earlier row for %s", lineno, doc)
        rows[doc] = vec / total
    dense = np.array(list(rows.values())).reshape(len(rows), len(names))
    return AlignmentMatrix._stacked(list(rows), dense), GroupSpace(names)


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
    first = True
    for lineno, cells in enumerate(reader, start=1):
        if not cells or all(not c.strip() for c in cells):
            continue
        if first and cells[0].strip().lower() == "seq_no":
            first = False
            continue  # optional header, on the first non-blank row only
        first = False
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
    """Parse ``qid,docid,score`` rows into a nested score map.

    A first non-blank row whose first cell is ``qid`` (any case) is a header.
    The columns are converted and checked whole; a failed check, a repeated
    (request, document) key or CSV quoting reparses the lines one by one.
    """
    text, lines = _read(source)
    if text is None:
        return _parse_scores_lines(lines)
    scores = _scores_of_columns(text)
    return scores if scores is not None else _parse_scores_lines(io.StringIO(text))


def _scores_of_columns(text: str) -> dict[str, dict[str, float]] | None:
    """The score map, when its columns pass every check whole and no key repeats; else None."""
    rows = _csv_rows(text)
    if rows is None:
        return None
    columns = _columns(_without_header(rows), 3, ",")
    if columns is None:  # blank rows, or a row of another width
        columns = _columns(_without_header(list(filter(str.strip, rows))), 3, ",")
    if columns is None:
        return None
    qids, docids, score_cells = columns
    try:
        scores = list(map(float, score_cells))
    except ValueError:
        return None
    if not _all_finite(scores):
        return None
    return _nested(_stripped(qids), _stripped(docids), scores)


def _without_header(rows: list[str]) -> list[str]:
    """Score rows past a first row whose first cell is ``qid`` (any case)."""
    return rows[1:] if rows and rows[0].split(",", 1)[0].strip().lower() == "qid" else rows


def _parse_scores_lines(lines: Iterable[str]) -> dict[str, dict[str, float]]:
    """Parse the score rows one at a time: fail at the first bad row, warn at each repeated key."""
    out: dict[str, dict[str, float]] = {}
    first = True
    for lineno, cells in enumerate(csv.reader(lines), start=1):
        if not cells or all(not c.strip() for c in cells):
            continue
        if first and cells[0].strip().lower() == "qid":
            first = False
            continue  # header, on the first non-blank row only
        first = False
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
