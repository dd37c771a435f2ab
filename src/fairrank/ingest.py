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

Each format has one parser: a row source and one ordered cascade of column
checks.  The row source is one split of the whole text, which gives every
field column by column; a CSV file with quotes, a NUL or a lone carriage
return, or a source whose lines do not join into one text, is read through
``csv.reader`` instead.  The checks run in the order one line's checks would:
field count, ``int``/``float`` conversion, finite, sign and row sum, then
repeated ranks and documents.  Each runs on the rows before the earliest
failure found so far, so the first bad line wins, and line numbers are looked
up only for a failure or a warning.  Every parser either produces a value or
fails with a 1-based line number, after the file's path when given a path; a
file that ``csv.reader`` refuses partway (a field longer than
``csv.field_size_limit()``) fails at the line the reader stopped on.  A
run may not repeat a rank or a document within a request; a repeated alignment,
qrels or score key keeps its first position and takes its last value, with a
warning at each repeat before the first bad line.

Each writer formats its file in one pass over sorted or file-order columns,
streaming the lines rather than holding the whole text.  CSV lines are joined
directly unless a cell needs quoting, which ``csv.writer`` then does.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
from dataclasses import dataclass
from itertools import chain, compress, count, groupby, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO, TypeVar

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


def _csv_source(source: TextIO | Iterable[str] | str | Path) -> tuple[list, Exception | None]:
    """The rows of a CSV input, and the error that stopped ``csv.reader`` partway.

    The rows are the lines of the text, to be split at commas, when that reads
    them as ``csv.reader`` does; otherwise the records ``csv.reader`` gives.
    For a file, the error is a ``ParseError`` at the line the reader stopped
    on; for other sources, the ``csv.Error`` itself.
    """
    text, lines = _read(source)
    rows = None if text is None else _csv_rows(text)
    if rows is not None:
        return rows, None
    records: list[list[str]] = []
    reader = csv.reader(lines if text is None else io.StringIO(text))
    try:
        records.extend(reader)
    except csv.Error as exc:
        if isinstance(source, (str, Path)):
            return records, ParseError(str(exc), reader.line_num)
        return records, exc
    return records, None


def _stripped(cells: list[str]) -> list[str]:
    """``cells`` without surrounding whitespace (the list itself when no cell has any)."""
    joined = "".join(cells)
    return cells if joined.split() == [joined] else list(map(str.strip, cells))


class _Table:
    """A file's data rows, column by column, checked in the order one line's checks run.

    Each check looks at the first ``n`` rows only, those before the earliest
    failure found so far.  So ``error`` ends up the first bad line's, and of
    the checks that fail on that line, the one that ran first.  Data row i is
    line ``lines[i]`` of the file.
    """

    def __init__(self, columns: list[list[str]], lines: Sequence[int], error: Exception | None):
        self.columns, self.lines, self.n, self.error = columns, lines, len(lines), error

    def head(self, values: list[T]) -> list[T]:
        """The entries of ``values`` for the first ``n`` rows (``values`` when it has no more)."""
        return values if len(values) <= self.n else values[:self.n]

    def fail(self, i: int, error: Exception) -> None:
        """Row ``i`` fails with ``error``, if it comes before every failure found so far."""
        if i < self.n:
            self.n, self.error = i, error

    def check(self, bad: Sequence[bool] | np.ndarray, error: Callable[[int], Exception]) -> None:
        """Fail at the first of the first ``n`` rows where ``bad`` holds, with ``error(row)``."""
        hits = np.flatnonzero(bad[:self.n])
        if hits.size:
            self.fail(int(hits[0]), error(int(hits[0])))

    def numbers(self, cells: list[str], what: str, convert: Callable[[str], T] = float,
                row_of: np.ndarray | None = None) -> list[T]:
        """``convert`` of the cells of the first ``n`` rows, failing at the first cell that it
        refuses or, for floats, that is not finite.

        Cell j belongs to row ``row_of[j]`` (row j when None), in row order.
        """
        cells = self.head(cells) if row_of is None else cells[:np.searchsorted(row_of, self.n)]
        values: list[T] = []
        try:
            values.extend(map(convert, cells))
        except ValueError:
            pass
        bad = len(values)
        if convert is float and not math.isfinite(sum(values)):
            finite = np.isfinite(values)
            if not finite.all():
                bad = int(finite.argmin())
        if bad < len(cells):
            problem = ("is not finite" if bad < len(values)
                       else "is not an integer" if convert is int else "is not a number")
            i = bad if row_of is None else int(row_of[bad])
            self.fail(i, ParseError(f"{what} {cells[bad]!r} {problem}", self.lines[i]))
        return values

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _tabulate(rows: list, width: int, sep: str | None, shape: str, *, header: str | None = None,
              comments: bool = False, first_line: int = 1,
              error: Exception | None = None) -> _Table:
    """The data rows of ``rows``: lines to split at ``sep`` (whitespace when None), or
    ``csv.reader`` records.

    Blank rows are skipped, and with ``comments`` so are rows whose first field
    starts with ``#``.  The first other row is a header when its first cell is
    ``header`` (any case).  A data row of another width fails with ``shape``
    formatted with its width.  Row i of ``rows`` is line ``first_line + i``, and
    ``error`` is what stopped the rows after their last.
    """
    if rows and isinstance(rows[0], str):
        skip = int(header is not None and rows[0].split(sep, 1)[0].strip().lower() == header)
        columns = _columns(rows[skip:], width, sep)
        if columns is not None:
            first = columns[0] if sep is None else _stripped(columns[0])
            if all(first) and not (comments and "#" in "".join(first)):
                start = first_line + skip
                return _Table(columns, range(start, start + len(first)), error)
        rows = list(map(str.split, rows, repeat(sep)))
    kept = [i for i, cells in enumerate(rows)
            if "".join(cells).strip() and not (comments and cells[0].startswith("#"))]
    if header is not None and kept and rows[kept[0]][0].strip().lower() == header:
        del kept[0]
    bad = next((j for j, i in enumerate(kept) if len(rows[i]) != width), len(kept))
    columns = [list(column) for column in zip(*map(rows.__getitem__, kept[:bad]))]
    table = _Table(columns or [[] for _ in range(width)], [i + first_line for i in kept], error)
    if bad < len(kept):
        table.fail(bad, ParseError(shape.format(len(rows[kept[bad]])), table.lines[bad]))
    return table


def _repeats(keys: list) -> list[int]:
    """The positions of the keys that equal an earlier key, in order."""
    if len(set(keys)) == len(keys):
        return []
    first: dict = {}
    firsts = np.fromiter(map(first.setdefault, keys, count()), dtype=np.intp, count=len(keys))
    return np.flatnonzero(firsts != np.arange(len(keys))).tolist()


def _int_key(values: list[int]) -> np.ndarray:
    """int64 keys that order and compare as ``values`` do, which may exceed 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        index = {v: k for k, v in enumerate(sorted(set(values)))}
        return np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def _request_codes(qids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct requests in first-appearance order, and each line's index among them."""
    runs = [(q, len(list(group))) for q, group in groupby(qids)]
    requests = [q for q, _ in runs]
    if len(set(requests)) == len(runs):  # each request's lines are contiguous
        return requests, np.repeat(np.arange(len(runs)), [n for _, n in runs])
    requests = list(dict.fromkeys(requests))
    index = dict(zip(requests, range(len(requests))))
    return requests, np.fromiter(map(index.__getitem__, qids), dtype=np.intp, count=len(qids))


def _nested(table: _Table, qids: list[str], docids: list[str], values: list[float],
            warning: str) -> dict[str, dict[str, float]]:
    """``{request: {document: value}}``, requests in first-appearance order and each
    request's documents in file order.

    A repeated (request, document) key keeps its first position and takes its
    last value; each repeat logs ``warning`` with its line and key.  One stable
    sort by request groups the lines, unless each request's lines are
    contiguous already.
    """
    requests, code = _request_codes(qids)
    docs, vals = docids, values
    if np.any(code[1:] < code[:-1]):
        order = np.argsort(code, kind="stable")
        code, order = code[order], order.tolist()
        docs, vals = (list(map(col.__getitem__, order)) for col in (docids, values))
    bounds = np.searchsorted(code, np.arange(len(requests) + 1)).tolist()
    out = {q: dict(zip(docs[a:b], vals[a:b])) for q, a, b in zip(requests, bounds, bounds[1:])}
    if sum(map(len, out.values())) != len(values):
        for i in _repeats(list(zip(qids, docids))):
            log.warning(warning, table.lines[i], qids[i], docids[i])
    return out


@_names_path
def parse_run(source: TextIO | Iterable[str] | str | Path) -> RunFile:
    """Parse a TREC-style run file into its columns and per-request rankings.

    Rankings follow the rank column, with gaps closed.  A request may not
    repeat a rank or a document.
    """
    table = _tabulate(_read(source)[1], 6, None,
                      "expected 6 whitespace-separated fields, got {}", comments=True)
    qids, _, docids, rank_cells, score_cells, tags = table.columns
    ranks = table.numbers(rank_cells, "rank", int)
    scores = table.numbers(score_cells, "score")
    requests, code = _request_codes(table.head(qids))
    rank_key = _int_key(table.head(ranks))
    order = np.lexsort((rank_key, code))
    code, rank_key = code[order], rank_key[order]
    repeated = order[1:][(code[1:] == code[:-1]) & (rank_key[1:] == rank_key[:-1])]
    if repeated.size:
        i = int(repeated.min())
        table.fail(i, DuplicateRank(f"request {qids[i]!r} repeats rank {ranks[i]}",
                                    table.lines[i]))
    ranked = list(map(docids.__getitem__, order.tolist()))
    bounds = np.searchsorted(code, np.arange(len(requests) + 1)).tolist()
    try:
        rankings = {q: Ranking(q, tuple(ranked[a:b]))
                    for q, a, b in zip(requests, bounds, bounds[1:])}
    except FairRankError:  # a repeated document, so raise_first reports it or an earlier line
        for i in _repeats(list(zip(table.head(qids), table.head(docids))))[:1]:
            table.fail(i, ParseError(f"request {qids[i]!r} repeats document {docids[i]!r}",
                                     table.lines[i]))
    table.raise_first()
    return RunFile(rankings, tuple(qids), tuple(docids), tuple(ranks), tuple(scores), tuple(tags))


def write_run(fh: TextIO, run: RunFile) -> None:
    fh.writelines(f"{qid} Q0 {docid} {rank} {score!r} {tag}\n" for qid, docid, rank, score, tag
                  in zip(run.qids, run.docids, run.ranks, map(float, run.scores), run.tags))


@_names_path
def parse_qrels(source: TextIO | Iterable[str] | str | Path) -> RelevanceTable:
    """Parse 4-column relevance judgments; negative grades are rejected."""
    table = _tabulate(_read(source)[1], 4, None, "expected 4 whitespace-separated fields, got {}")
    qids, _, docids, grade_cells = table.columns
    grades = table.numbers(grade_cells, "grade")
    if min(grades, default=0.0) < 0:
        table.check(np.array(grades) < 0,
                    lambda i: ParseError(f"negative grade {grades[i]}", table.lines[i]))
    judged = _nested(table, table.head(qids), table.head(docids), table.head(grades),
                     "qrels line %d overrides earlier grade for (%s, %s)")
    table.raise_first()
    return RelevanceTable._trusted(judged)


def write_qrels(fh: TextIO, table: RelevanceTable) -> None:
    qids, docids, grades = _sorted_cells({q: table.judged(q) for q in table.requests()})
    fh.writelines(f"{qid} 0 {docid} {grade}\n"
                  for qid, docid, grade in zip(qids, docids, _reprs(grades)))


@_names_path
def parse_alignment(source: TextIO | Iterable[str] | str | Path) -> tuple[AlignmentMatrix, GroupSpace]:
    """Parse the alignment CSV into soft membership rows and a group space.

    Rows summing within 0.01 of 1 are renormalized to exactly 1; anything
    further off is rejected.  Empty cells read as 0, except an all-empty row,
    which marks the document unlabeled.  A repeated document keeps its first
    position and takes its last row.
    """
    rows, error = _csv_source(source)
    if not rows and error is not None:
        raise error
    header = (rows[0].split(",") if isinstance(rows[0], str) else rows[0]) if rows else []
    if len(header) < 2:
        raise ParseError("alignment header must be docid,<group1>,...", 1)
    g = len(header) - 1
    table = _tabulate(rows[1:], g + 1, ",", f"expected {g + 1} columns, got {{}}",
                      first_line=2, error=error)
    n = table.n  # the columns' length
    docs = _stripped(table.columns[0])
    dense, labeled = np.zeros((n, g)), np.zeros(n, dtype=bool)
    for j, column in enumerate(table.columns[1:]):  # a row's cells are checked left to right
        column = _stripped(column)
        filled = np.fromiter(map(bool, column), dtype=bool, count=n)
        at = np.flatnonzero(filled)
        values = table.numbers(list(filter(None, column)), "alignment cell", row_of=at)
        dense[at[:len(values)], j] = values
        labeled |= filled
    dense, labeled = dense[:table.n], labeled[:table.n]
    table.check((dense < 0).any(axis=1), lambda i: NegativeWeight(
        f"negative alignment weight for {docs[i]!r}", table.lines[i]))
    table.check(labeled & (np.abs(dense.sum(axis=1) - 1.0) > ALIGNMENT_SUM_TOL),
                lambda i: RowSumOutOfTolerance(f"row for {docs[i]!r} sums to {dense[i].sum():.6g}",
                                               table.lines[i]))
    labeled = labeled[:table.n]
    kept_docs = list(compress(docs, labeled.tolist()))
    repeated = _repeats(kept_docs)
    for j, i in zip(repeated, np.flatnonzero(labeled)[repeated].tolist()):
        log.warning("alignment line %d overrides earlier row for %s", table.lines[i], kept_docs[j])
    table.raise_first()
    vals = dense[labeled]
    vals = vals / vals.sum(axis=1)[:, None]
    if repeated:  # a repeated document keeps its first position and takes its last row
        last = dict(zip(kept_docs, range(len(kept_docs))))
        kept_docs, vals = list(last), vals[list(last.values())]
    return (AlignmentMatrix._stacked(kept_docs, vals),
            GroupSpace(tuple(name.strip() for name in header[1:])))


def write_alignment(fh: TextIO, alignment: AlignmentMatrix, groups: GroupSpace) -> None:
    header = ("docid", *groups.names)
    docs = sorted(alignment.docs())
    rows = _reprs(alignment.dense()[alignment.indices(docs)])
    _write_csv(fh, chain(header, docs),
               chain([header], ((doc, *row) for doc, row in zip(docs, rows))))


@_names_path
def parse_sequence(source: TextIO | Iterable[str] | str | Path, run: RunFile) -> RankingSequence:
    """Parse draw rows ``seq_no,qid`` against a run's rankings, in seq_no order (stably)."""
    rows, error = _csv_source(source)
    table = _tabulate(rows, 2, ",", "expected seq_no,qid, got {} columns", header="seq_no",
                      error=error)
    seq_cells, qid_cells = table.columns
    seq_nos = table.numbers(seq_cells, "seq_no", int)
    qids = _stripped(table.head(qid_cells))
    table.check(np.logical_not(list(map(run.rankings.__contains__, qids))),
                lambda i: UnknownRequest(
                    f"sequence line {table.lines[i]} references unknown request {qids[i]!r}",
                    table.lines[i]))
    table.raise_first()
    order = sorted(range(table.n), key=seq_nos.__getitem__)
    return RankingSequence(tuple((q, run.rankings[q]) for q in map(qids.__getitem__, order)))


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
    """
    rows, error = _csv_source(source)
    table = _tabulate(rows, 3, ",", "expected qid,docid,score, got {} columns", header="qid",
                      error=error)
    qids, docids, score_cells = table.columns
    scores = table.numbers(score_cells, "score")
    out = _nested(table, _stripped(table.head(qids)), _stripped(table.head(docids)),
                  table.head(scores), "scores line %d overrides earlier score for (%s, %s)")
    table.raise_first()
    return out


def write_scores(fh: TextIO, scores: Mapping[str, Mapping[str, float]]) -> None:
    header = ("qid", "docid", "score")
    qids, docids, values = _sorted_cells(scores)
    _write_csv(fh, chain(header, qids, docids),
               chain([header], zip(qids, docids, map(repr, map(float, values)))))


def _sorted_cells(table: Mapping[str, Mapping[str, float]]) -> tuple[list, list, list]:
    """The (request, document, value) columns of a nested map, sorted by request, then
    document."""
    qids: list[str] = []
    docids: list[str] = []
    values: list[float] = []
    for qid in sorted(table):
        row = table[qid]
        docs = sorted(row)
        qids += repeat(qid, len(docs))
        docids += docs
        values += map(row.__getitem__, docs)
    return qids, docids, values


def _reprs(values: Sequence[float] | np.ndarray) -> list:
    """``repr`` of each value as a float, in nested lists of the values' shape.

    Grades and membership weights take few distinct values, so each distinct
    value (by its bits: -0.0 is not 0.0) is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=float)
    distinct, at = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return text[at.reshape(values.shape)].tolist()


def _write_csv(fh: TextIO, cells: Iterable[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``rows`` of string cells as ``csv.writer`` does.

    ``cells`` are all cells of ``rows`` but the formatted numbers.  When none
    holds a comma, a quote or a line break (the files ``_csv_rows`` reads
    without ``csv.reader``), the cells are joined directly.
    """
    text = "".join(cells)
    if '"' in text or "," in text or "\r" in text or "\n" in text:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    else:
        fh.writelines(",".join(row) + "\n" for row in rows)


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


def _as(kind: type, value, path: str):
    """``value`` as a ``kind`` (bool, int or float), or a ConfigError at ``path``.

    Only a YAML boolean is a bool, and no boolean is a number.  A number may
    be written as a string (YAML reads ``1e-3`` as one); an int must be whole.
    """
    try:
        if isinstance(value, bool) != (kind is bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", path) from None


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
    gamma = _as(float, entry.get("gamma", 0.5), f"{path}.gamma")
    dist = str(entry.get("dist", "nd")).lower()
    target = str(entry.get("target", _DEFAULT_TARGETS.get(name, "catalog"))).lower()
    step = _as(int, entry.get("step", 10), f"{path}.step")
    n_negatives = _as(int, entry.get("n_negatives", 10000), f"{path}.n_negatives")
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
        if not isinstance(custom, (list, tuple)):
            raise ConfigError(f"expected a list of numbers, got {custom!r}",
                              f"{path}.custom_target")
        custom = tuple(_as(float, v, f"{path}.custom_target[{i}]") for i, v in enumerate(custom))
        _domain(abs(sum(custom) - 1.0) <= 1e-6, f"{path}.custom_target", "must sum to 1")
    _domain(target != "custom" or custom is not None,
            f"{path}.custom_target", "custom target mode needs custom_target")
    label = str(entry.get("label", _DEFAULT_LABELS[name]))
    signed = _as(bool, entry.get("signed", False), f"{path}.signed")
    return MetricConfig(name, label, weight_model, gamma, dist, target, custom,
                        step, n_negatives, pool, signed)


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
    threshold = _as(float, doc.get("threshold", 0.5), "threshold")
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
        seed=_as(int, doc.get("seed", 42), "seed"),
        metrics=metrics,
        explicit_metrics=explicit,
    )
