"""Parsers, writers, and evaluation configuration.

File formats (UTF-8, LF or CRLF; one leading byte-order mark is ignored):

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

Each format has one parser: the one tokenizer, ``_tabulate``, and one ordered
cascade of column checks.  The tokenizer reads the text once and splits all of
it once, a NUL field marking each line feed, which gives every field column by
column.  It reads line by line only where that split cannot stand in for it: a
line of another width, a blank or ``#`` line, or a NUL; for CSV, also a quote,
a lone carriage return, or a field (not a line) longer than
``csv.field_size_limit()``; or a source whose lines do not join into one text.
Then each line is split at whitespace, or ``csv.reader`` reads the CSV
records.  The checks run in the order one line's checks would: field count,
``int``/``float`` conversion, finite, sign and row sum, then repeated ranks
and documents.  Each runs on the rows before the earliest failure found so
far, so the first bad line wins, and line numbers are looked up only for a
failure or a warning.  Every parser either produces a value or fails with a
1-based line number, after the file's path when given a path; a CSV record
that ``csv.reader`` refuses (a field over the limit) fails at the line the
reader stopped on, as a ``ParseError`` for a file and the ``csv.Error`` for
another source.  A run may not repeat a rank or a document within a request;
a repeated alignment, qrels or score key keeps its first position and takes
its last value, with an ``InputWarning`` at each repeat before the first bad
line.

Each writer formats each value once, with ``format_numbers`` (``repr``; a
grade or membership weight once per distinct value), and joins the text
columns into lines, which it streams to the file one request or one chunk of
lines at a time rather than holding the whole text.  ``write_run_rows`` and
``write_score_rows`` take columns already formatted, so a caller that holds a
score matrix (``synth``) formats each score once for both files.  CSV lines are
joined directly unless a cell needs quoting, which ``csv.writer`` then does.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from itertools import chain, compress, count, groupby, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO, TypeVar

import numpy as np

from .compiled import POOLS, RankingTable, ranks, sorted_distinct
from .core import (
    UNKNOWN_POLICIES,
    AlignmentMatrix,
    ConfigError,
    FairRankError,
    GroupSpace,
    ParseError,
    Ranking,
    RankingSequence,
    RelevanceTable,
    Scores,
    TargetDistribution,
    UnknownRequest,
    first_codes,
)
from .distance import DISTANCE_KINDS
from .errors import InputWarning
from .exposure import WEIGHT_KINDS
from .record import Record
from .registry import BATTERY, FAMILIES, TARGET_MODES


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


class RunFile:
    """A parsed system run: its rankings as flat columns (``table``) plus the file's columns.

    Data line i of the file is ``qids[i] Q0 docids[i] ranks[i] scores[i]
    tags[i]``.  The table lists the requests in first-appearance order.  A run
    built from rankings alone has empty file columns.
    """

    def __init__(self, rankings: Mapping[str, Ranking] | RankingTable,
                 qids: tuple[str, ...] = (), docids: tuple[str, ...] = (),
                 ranks: tuple[int, ...] = (), scores: tuple[float, ...] = (),
                 tags: tuple[str, ...] = ()):
        self.table = (rankings if isinstance(rankings, RankingTable)
                      else RankingTable.of(rankings.values()))
        self.qids, self.docids, self.ranks, self.scores, self.tags = (
            qids, docids, ranks, scores, tags)

    @functools.cached_property
    def rankings(self) -> dict[str, Ranking]:
        """Each request's ranking, built on first use."""
        table = self.table
        docs = list(map(table.docs.__getitem__, table.codes.tolist()))
        return {q: Ranking(q, tuple(docs[a:b]))
                for q, a, b in zip(table.requests, table.at.tolist(), table.at[1:].tolist())}

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """One record per data line, in file order, derived from the columns."""
        return tuple(map(RunRecord, self.qids, self.docids, self.ranks, self.scores, self.tags))

    @property
    def tag(self) -> str | None:
        return self.tags[0] if self.tags else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunFile):
            return NotImplemented
        return (self.rankings == other.rankings
                and self.records == other.records)


def _read(source: TextIO | Iterable[str] | str | Path) -> str | list[str]:
    """The text of ``source`` without one leading byte-order mark, or its lines when they do
    not join into one text.

    A file is read whole with universal newlines.  Another source's lines join
    into its text when every line but the last ends in its only line feed.
    """
    if isinstance(source, (str, Path)):
        return _read_text(source)
    lines = list(source)
    lines[:1] = (line.removeprefix("\ufeff") for line in lines[:1])
    text = "".join(lines)
    if (text.count("\n") != len(lines) - (not text.endswith("\n"))
            or not all(map(str.endswith, lines[:-1], repeat("\n")))):
        return lines
    return text


def _read_text(path: str | Path) -> str:
    """The text of a UTF-8 file with universal newlines (``\\r\\n`` and a lone ``\\r`` read as
    ``\\n``) and without one leading byte-order mark; a byte that is not UTF-8 is a
    ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})",
                         line) from None
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _named(exc: FairRankError, source) -> FairRankError:
    """``exc`` with the path ``source`` (when it is one) before its message."""
    if isinstance(source, (str, Path)):
        exc.args = (f"{source}: {exc}", *exc.args[1:])
    return exc


def _names_path(parse: Callable[..., T]) -> Callable[..., T]:
    """A parser that, given a path, puts it before the message of the error it raises."""

    @functools.wraps(parse)
    def parse_file(source, *args, **kwargs):
        try:
            return parse(source, *args, **kwargs)
        except FairRankError as exc:
            _named(exc, source)
            raise

    return parse_file


def _stripped(cells: list[str]) -> list[str]:
    """``cells`` without surrounding whitespace (the list itself when no cell has any)."""
    joined = "".join(cells)
    return cells if joined.split() == [joined] else list(map(str.strip, cells))


class _Table:
    """A file's data rows, column by column, checked in the order one line's checks run.

    Each check looks at the first ``n`` rows only, those before the earliest
    failure found so far.  So ``error`` ends up the first bad line's, and of
    the checks that fail on that line, the one that ran first.  Data row i is
    line ``lines[i]`` of the file; ``header`` holds line 1's cells when that
    line is a header that sets the width.
    """

    def __init__(self, columns: list[list[str]], lines: Sequence[int], error: Exception | None,
                 header: list[str] | None = None):
        self.columns, self.lines, self.n, self.error = columns, lines, len(lines), error
        self.header = header

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


def _tabulate(source: TextIO | Iterable[str] | str | Path, width: int | None, sep: str | None,
              shape: str, *, header: str | None = None, comments: bool = False) -> _Table:
    """The data rows of ``source``, their fields split at ``sep`` (whitespace when None).

    Blank rows are skipped, and with ``comments`` so are rows whose first field
    starts with ``#``.  The first other row is a header when its first cell is
    ``header`` (any case).  With ``width`` None, line 1 is a header whose width
    every data row must have.  A data row of another width fails with ``shape``,
    formatted with the row's width and, as ``width``, the expected one.

    The text is read once and split once, whole, unless ``_split_once`` finds
    that split cannot stand in for reading line by line.  Only then is each
    line split, or each CSV record read by ``csv.reader``; a record the reader
    refuses ends the rows, and the table keeps its error.
    """
    text = _read(source)
    table = _split_once(text, width, sep, header, comments) if isinstance(text, str) else None
    if table is not None:
        return table
    error = None
    if sep is None:
        rows = list(map(str.split, text.split("\n") if isinstance(text, str) else text))
    else:
        rows, reader = [], csv.reader(io.StringIO(text) if isinstance(text, str) else text)
        try:
            rows.extend(reader)
        except csv.Error as exc:
            error = (ParseError(str(exc), reader.line_num) if isinstance(source, (str, Path))
                     else exc)
    start, heading = 0, None
    if width is None:
        if not rows and error is not None:
            raise error
        heading = rows[0] if rows else []
        width, start = len(heading), 1
    kept = [i for i in range(start, len(rows))
            if "".join(rows[i]).strip() and not (comments and rows[i][0].startswith("#"))]
    if header is not None and kept and rows[kept[0]][0].strip().lower() == header:
        del kept[0]
    bad = next((j for j, i in enumerate(kept) if len(rows[i]) != width), len(kept))
    columns = [list(column) for column in zip(*map(rows.__getitem__, kept[:bad]))]
    table = _Table(columns or [[] for _ in range(width)], [i + 1 for i in kept], error, heading)
    if bad < len(kept):
        table.fail(bad, ParseError(shape.format(len(rows[kept[bad]]), width=width),
                                   table.lines[bad]))
    return table


def _split_once(text: str, width: int | None, sep: str | None, header: str | None,
                comments: bool) -> _Table | None:
    """``_tabulate``'s table from one split of the whole ``text``, a NUL field marking each
    line feed; None when that split cannot stand in for reading line by line.

    It cannot when a line has another width or a blank first field (as a blank
    line has), a first field holds ``#`` (with ``comments``), or the text holds
    a NUL; for CSV, also when the text holds a quote, a carriage return but
    before a line feed, or a field longer than ``csv.field_size_limit()``,
    which ``csv.reader`` would refuse.  A line may be longer than that limit.
    """
    if sep is not None and "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text or "\0" in text or sep is not None and ('"' in text or "\r" in text):
        return None
    glue = " " if sep is None else sep
    fields = text.replace("\n", f"{glue}\0{glue}").split(sep)
    if not text.endswith("\n"):
        fields.append("\0")
    elif sep is not None:
        fields.pop()  # the empty field after the last line feed's NUL
    heading = None
    if width is None:
        width = fields.index("\0")
        heading = fields[:width]
    n, stride = text.count("\n") + (not text.endswith("\n")), width + 1
    if len(fields) != n * stride or fields[width::stride].count("\0") != n:
        return None  # a line of another width
    limit = csv.field_size_limit()
    if sep is not None and len(text) > limit and max(map(len, fields)) > limit:
        return None
    skip = int(heading is not None
               or header is not None and fields[0].strip().lower() == header)
    columns = [fields[skip * stride + i::stride] for i in range(width)]
    first = columns[0] if sep is None else _stripped(columns[0])
    if not all(first) or comments and "#" in "".join(first):
        return None  # a blank or comment line, or one that may be
    return _Table(columns, range(1 + skip, n + 1), None, heading)


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


def _keyed(table: _Table, qids: list[str], docids: list[str], values: list[float],
           warning: str) -> Scores:
    """The (request, document) values of the rows as ``Scores`` columns: requests in
    first-appearance order, each request's documents in file order.

    A repeated key keeps its first position and takes its last value; each
    repeat warns (``InputWarning``) with ``warning`` filled in with its line and key.
    """
    requests, code = _request_codes(qids)
    docs, doc_code = first_codes(docids)
    values = np.array(values, dtype=float)
    keys = code * len(docs) + doc_code
    if sorted_distinct(keys).size < keys.size:  # each key at its first position, last index
        keys = keys.tolist()
        for i in _repeats(keys):
            warnings.warn(warning % (table.lines[i], qids[i], docids[i]), InputWarning)
        last = dict(zip(keys, range(len(keys))))
        code, doc_code = np.divmod(np.fromiter(last, dtype=np.intp, count=len(last)), len(docs))
        values = values[list(last.values())]
    order = np.argsort(code, kind="stable")
    return Scores(requests, docs, doc_code[order],
                  np.searchsorted(code[order], np.arange(len(requests) + 1)), values[order])


@_names_path
def parse_run(source: TextIO | Iterable[str] | str | Path) -> RunFile:
    """Parse a TREC-style run file into its columns and per-request rankings.

    Rankings follow the rank column, with gaps closed.  A request may not
    repeat a rank or a document.
    """
    table = _tabulate(source, 6, None, "expected 6 whitespace-separated fields, got {}",
                      comments=True)
    qids, _, docids, rank_cells, score_cells, tags = table.columns
    ranks = table.numbers(rank_cells, "rank", int)
    scores = table.numbers(score_cells, "score")
    requests, code = _request_codes(table.head(qids))
    docs, doc_code = first_codes(table.head(docids))
    rank_key = _int_key(table.head(ranks))
    order = np.lexsort((rank_key, code))
    code, rank_key = code[order], rank_key[order]
    repeated = order[1:][(code[1:] == code[:-1]) & (rank_key[1:] == rank_key[:-1])]
    if repeated.size:
        i = int(repeated.min())
        table.fail(i, DuplicateRank(f"request {qids[i]!r} repeats rank {ranks[i]}",
                                    table.lines[i]))
    if sorted_distinct(code * len(docs) + doc_code[order]).size < order.size:
        # a repeated document, so raise_first reports it or an earlier line
        for i in _repeats(list(zip(table.head(qids), table.head(docids))))[:1]:
            table.fail(i, ParseError(f"request {qids[i]!r} repeats document {docids[i]!r}",
                                     table.lines[i]))
    table.raise_first()
    at = np.searchsorted(code, np.arange(len(requests) + 1))
    return RunFile(RankingTable(requests, docs, doc_code[order], at), tuple(qids), tuple(docids),
                   tuple(ranks), tuple(scores), tuple(tags))


def write_run(fh: TextIO, run: RunFile) -> None:
    write_run_rows(fh, run.qids, run.docids, map(str, run.ranks), format_numbers(run.scores),
                   run.tags)


def write_run_rows(fh: TextIO, qids: Iterable[str], docids: Iterable[str], ranks: Iterable[str],
                   scores: Iterable[str], tags: Iterable[str]) -> None:
    """Write the run lines of text columns, the scores formatted by ``format_numbers``."""
    _write_rows(fh, " ", zip(qids, repeat("Q0"), docids, ranks, scores, tags))


@_names_path
def parse_qrels(source: TextIO | Iterable[str] | str | Path) -> RelevanceTable:
    """Parse 4-column relevance judgments; negative grades are rejected."""
    table = _tabulate(source, 4, None, "expected 4 whitespace-separated fields, got {}")
    qids, _, docids, grade_cells = table.columns
    grades = table.numbers(grade_cells, "grade")
    if min(grades, default=0.0) < 0:
        table.check(np.array(grades) < 0,
                    lambda i: ParseError(f"negative grade {grades[i]}", table.lines[i]))
    judged = _keyed(table, table.head(qids), table.head(docids), table.head(grades),
                    "qrels line %d overrides earlier grade for (%s, %s)")
    table.raise_first()
    return RelevanceTable._trusted(judged)


def write_qrels(fh: TextIO, table: RelevanceTable) -> None:
    columns, sizes = table.columns, np.diff(table.columns.at)
    order = np.argsort(np.repeat(ranks(columns.requests) * len(columns.docs), sizes)
                       + ranks(columns.docs)[columns.codes])  # by request, then document
    qids = np.repeat(np.array(columns.requests, dtype=object), sizes)[order]
    docids = np.array(columns.docs, dtype=object)[columns.codes[order]]
    _write_rows(fh, " ", zip(qids, repeat("0"), docids, _reprs(columns.score[order])))


@_names_path
def parse_alignment(source: TextIO | Iterable[str] | str | Path) -> tuple[AlignmentMatrix, GroupSpace]:
    """Parse the alignment CSV into soft membership rows and a group space.

    Rows summing within 0.01 of 1 are renormalized to exactly 1; anything
    further off is rejected.  Empty cells read as 0, except an all-empty row,
    which marks the document unlabeled.  A repeated document keeps its first
    position and takes its last row.
    """
    table = _tabulate(source, None, ",", "expected {width} columns, got {}")
    header = table.header
    if len(header) < 2:
        raise ParseError("alignment header must be docid,<group1>,...", 1)
    names = tuple(name.strip() for name in header[1:])
    if "" in names:
        raise ParseError("alignment header has an empty group label", 1)
    again = _repeats(list(names))
    if again:
        raise ParseError(f"alignment header repeats group label {names[again[0]]!r}", 1)
    g = len(names)
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
        warnings.warn(f"alignment line {table.lines[i]} overrides earlier row for {kept_docs[j]}",
                      InputWarning)
    table.raise_first()
    vals = dense[labeled]
    vals = vals / vals.sum(axis=1)[:, None]
    if repeated:  # a repeated document keeps its first position and takes its last row
        last = dict(zip(kept_docs, range(len(kept_docs))))
        kept_docs, vals = list(last), vals[list(last.values())]
    return AlignmentMatrix._stacked(kept_docs, vals), GroupSpace(names)


def write_alignment(fh: TextIO, alignment: AlignmentMatrix, groups: GroupSpace) -> None:
    header = ("docid", *groups.names)
    docs = sorted(alignment.docs())
    weights = _reprs(alignment.dense()[alignment.indices(docs)].T)
    _write_csv(fh, chain(header, docs), chain([header], zip(docs, *weights)))


class Draws(NamedTuple):
    """A sequence file's draws, read once and checked against each run later.

    ``qids[i]`` is the request of data row i, at line ``lines[i]``, for the
    rows before the first bad one, whose error (path first) is ``error``;
    ``order`` lists the rows in draw order, by seq_no, stably.
    """

    qids: list[str]
    lines: Sequence[int]
    order: list[int]
    error: Exception | None
    where: str  # the path and ": " before an error message, or ""

    def resolve(self, requests: Sequence[str]) -> np.ndarray:
        """Each draw's index into ``requests``, in draw order.

        A request not among them fails as ``UnknownRequest`` at the first line
        that names one, unless a bad row comes first.
        """
        index = dict(zip(requests, range(len(requests))))
        at = np.fromiter(map(index.get, self.qids, repeat(-1)), dtype=np.intp,
                         count=len(self.qids))
        unknown = np.flatnonzero(at < 0)
        if unknown.size:
            line, q = self.lines[unknown[0]], self.qids[unknown[0]]
            raise UnknownRequest(
                f"{self.where}sequence line {line} references unknown request {q!r}", line)
        if self.error is not None:
            raise self.error
        return at[self.order]


@_names_path
def read_draws(source: TextIO | Iterable[str] | str | Path) -> Draws:
    """Read draw rows ``seq_no,qid`` once, to check against each run with ``Draws.resolve``."""
    table = _tabulate(source, 2, ",", "expected seq_no,qid, got {} columns", header="seq_no")
    seq_cells, qid_cells = table.columns
    seq_nos = table.numbers(seq_cells, "seq_no", int)
    qids = _stripped(table.head(qid_cells))
    return Draws(qids, table.lines, sorted(range(table.n), key=seq_nos.__getitem__),
                 table.error if table.error is None else _named(table.error, source),
                 f"{source}: " if isinstance(source, (str, Path)) else "")


def parse_sequence(source: TextIO | Iterable[str] | str | Path, run: RunFile) -> RankingSequence:
    """Parse draw rows ``seq_no,qid`` against a run's rankings, in seq_no order (stably)."""
    requests, rankings = run.table.requests, run.rankings
    return RankingSequence(tuple((q, rankings[q]) for q in map(
        requests.__getitem__, read_draws(source).resolve(requests).tolist())))


def write_draws(fh: TextIO, qids: Sequence[str]) -> None:
    """Write a sequence file that draws the requests ``qids``, in order."""
    header = ("seq_no", "qid")
    _write_csv(fh, chain(header, qids), chain([header], zip(map(str, count(1)), qids)))


@_names_path
def parse_scores(source: TextIO | Iterable[str] | str | Path) -> Scores:
    """Parse ``qid,docid,score`` rows into ``Scores``, the mapping ``{request: {document:
    score}}`` held as columns.

    A first non-blank row whose first cell is ``qid`` (any case) is a header.
    """
    table = _tabulate(source, 3, ",", "expected qid,docid,score, got {} columns", header="qid")
    qids, docids, score_cells = table.columns
    scores = table.numbers(score_cells, "score")
    out = _keyed(table, _stripped(table.head(qids)), _stripped(table.head(docids)),
                 table.head(scores), "scores line %d overrides earlier score for (%s, %s)")
    table.raise_first()
    return out


def write_scores(fh: TextIO, scores: Mapping[str, Mapping[str, float]]) -> None:
    write_scores_header(fh)
    for qid in sorted(scores):
        row = scores[qid]
        docids = sorted(row)
        write_score_rows(fh, qid, docids, format_numbers([row[d] for d in docids]))


def write_scores_header(fh: TextIO) -> None:
    header = ("qid", "docid", "score")
    _write_csv(fh, header, [header])


def write_score_rows(fh: TextIO, qid: str, docids: Sequence[str], scores: Iterable[str]) -> None:
    """Write the score lines of one request's documents, the scores formatted by
    ``format_numbers``."""
    _write_csv(fh, chain((qid,), docids), zip(repeat(qid), docids, scores))


def format_numbers(values: Sequence[float] | np.ndarray) -> list[str]:
    """The text of each value as a float, ``repr`` (-0.0 stays -0.0), flattened in order.

    Every number a writer writes is formatted here.
    """
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _reprs(values: Sequence[float] | np.ndarray) -> list:
    """``format_numbers`` of each value, in nested lists of the values' shape.

    Grades and membership weights take few distinct values, so each distinct
    value (by its bits: -0.0 is not 0.0) is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=float)
    distinct, at = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(format_numbers(distinct.view(float)), dtype=object)
    return text[at.reshape(values.shape)].tolist()


def _write_csv(fh: TextIO, cells: Iterable[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``rows`` of string cells as ``csv.writer`` does.

    ``cells`` are all cells of ``rows`` but the formatted numbers.  When none
    holds a comma, a quote or a line break (the files ``_tabulate`` reads
    without ``csv.reader``), the cells are joined directly.
    """
    text = "".join(cells)
    if '"' in text or "," in text or "\r" in text or "\n" in text:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    else:
        _write_rows(fh, ",", rows)


_CHUNK_LINES = 1024  # per write call: few calls, and never a whole file's text at once


def _write_rows(fh: TextIO, sep: str, rows: Iterable[Sequence[str]]) -> None:
    """Write each row's cells joined by ``sep``, one line per row, in chunks of lines."""
    lines = map(sep.join, rows)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        fh.write("\n".join(chunk) + "\n")


# --- evaluation configuration: entries read against registry.FAMILIES ---


class MetricConfig(Record):
    """One metric entry.  A key its family does not read is None."""

    def __init__(self, name: str, label: str, weight_model: str | None = None,
                 gamma: float | None = None, dist: str | None = None, target: str | None = None,
                 custom_target: tuple[float, ...] | None = None, step: int | None = None,
                 n_negatives: int | None = None, pool: str | None = None,
                 signed: bool | None = None):
        self._set(name, label, weight_model, gamma, dist, target, custom_target, step,
                  n_negatives, pool, signed)


class EvalConfig(Record):
    def __init__(self, protected: str | None = None, unknown: str | None = None,
                 unknown_policy: str = "exclude", threshold: float = 0.5,
                 metrics: tuple[MetricConfig, ...] = (), explicit_metrics: bool = False):
        self._set(protected, unknown, unknown_policy, threshold, metrics, explicit_metrics)

    def check_targets(self, groups: GroupSpace) -> None:
        """Refuse a custom target whose width is not the number of groups."""
        for i, mc in enumerate(self.metrics):
            if mc.target == "custom" and len(mc.custom_target) != groups.g:
                raise ConfigError(f"custom target has {len(mc.custom_target)} entries for "
                                  f"{groups.g} groups", f"metrics[{i}].custom_target")


def default_metrics() -> tuple[MetricConfig, ...]:
    """The default metric battery, the registry's ``BATTERY``."""
    return tuple(_make_metric(entry, f"metrics[{i}]") for i, entry in enumerate(BATTERY))


def _domain(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"ParameterOutOfDomain: {message}", path)


def _as(kind: type, value, path: str):
    """``value`` as a ``kind`` (bool, int or float), or a ConfigError at ``path``.

    Only a YAML boolean is a bool, and no boolean is a number.  A number may
    be written as a string (YAML reads ``1e-3`` as one); an int must be finite
    and whole, in any form (``1000``, ``1000.0``, ``1e3``).
    """
    try:
        number = value
        if kind is int and isinstance(value, str) and any(c in value for c in ".eE"):
            number = float(value)
        if isinstance(value, bool) != (kind is bool) or (
                kind is int and isinstance(number, float) and not number.is_integer()):
            raise ValueError
        return kind(number)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", path) from None


def _distribution(value, path: str) -> tuple[float, ...] | None:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {value!r}", path)
    value = tuple(_as(float, v, f"{path}[{i}]") for i, v in enumerate(value))
    try:
        TargetDistribution(value)
    except FairRankError as exc:
        raise ConfigError(f"ParameterOutOfDomain: {exc}", path) from None
    return value


# Each metric key: how its value is read at its key path, the values it may take
# (None: any) and the refusal of any other.
_TEXT, _MODE = (lambda value, path: str(value)), (lambda value, path: str(value).lower())
_FLOAT, _INT, _BOOL = (functools.partial(_as, kind) for kind in (float, int, bool))
_KEY_RULES: dict[str, tuple[Callable, Callable | None, str]] = {
    "label": (_TEXT, None, ""),
    "weight_model": (_TEXT, WEIGHT_KINDS.__contains__, "unknown weight model {!r}"),
    "gamma": (_FLOAT, lambda v: 0 < v <= 1, "gamma {} outside (0, 1]"),
    "dist": (_MODE, DISTANCE_KINDS.__contains__, "unknown distance {!r}"),
    "target": (_MODE, TARGET_MODES.__contains__, "unknown target mode {!r}"),
    "custom_target": (_distribution, None, ""),
    "step": (_INT, lambda v: v >= 2, "step {} must be >= 2"),
    "n_negatives": (_INT, lambda v: v >= 1, "n_negatives {} must be >= 1"),
    "pool": (_TEXT, POOLS.__contains__, "unknown pool {!r}"),
    "signed": (_BOOL, None, ""),
}


def _make_metric(entry: Mapping, path: str) -> MetricConfig:
    if not isinstance(entry, Mapping) or "name" not in entry:
        raise ConfigError("metric entries need a 'name'", path)
    name = str(entry["name"]).lower()
    if name not in FAMILIES:
        raise ConfigError(f"UnknownMetric: {name!r}", f"{path}.name")
    spec = FAMILIES[name]
    keys = {"label": spec.label, **spec.keys}
    for key in entry:
        if key != "name" and key not in keys:
            raise ConfigError(f"{name} does not read {key!r}" if key in _KEY_RULES
                              else f"unknown parameter {key!r}", f"{path}.{key}")
    values = {}
    for key, default in keys.items():
        read, domain, message = _KEY_RULES[key]
        values[key] = value = read(entry.get(key, default), f"{path}.{key}")
        _domain(domain is None or domain(value), f"{path}.{key}", message.format(value))
    target = values.get("target")
    _domain(name == "prefd" or target != "composition",
            f"{path}.target", "composition target only applies to prefd")
    _domain(target != "custom" or values["custom_target"] is not None,
            f"{path}.custom_target", "custom target mode needs custom_target")
    _domain(target == "custom" or values.get("custom_target") is None,
            f"{path}.custom_target", "custom_target needs target: custom")
    return MetricConfig(name, **values)


def load_config(source: str | Path | TextIO | None) -> EvalConfig:
    """Load a YAML evaluation config, filling documented defaults.

    ``None`` (or an empty document) yields all defaults, including the full
    default metric battery.
    """
    doc: Mapping = {}
    if source is not None:
        import yaml  # only a config file needs it

        try:
            text = _read_text(source) if isinstance(source, (str, Path)) else source
            doc = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:  # a syntax error, at its line when the parser marks one
            mark = getattr(exc, "problem_mark", None)
            raise _named(ParseError(getattr(exc, "problem", None) or str(exc),
                                    None if mark is None else mark.line + 1), source) from None
        except ParseError as exc:
            _named(exc, source)
            raise
    if not isinstance(doc, Mapping):
        raise ConfigError("config document must be a mapping")
    known = {"protected", "unknown", "unknown_policy", "threshold", "metrics"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown parameter {key!r}", str(key))
    threshold = _as(float, doc.get("threshold", EvalConfig.threshold), "threshold")
    _domain(0 < threshold <= 1, "threshold", f"threshold {threshold} outside (0, 1]")
    policy = str(doc.get("unknown_policy", EvalConfig.unknown_policy))
    _domain(policy in UNKNOWN_POLICIES, "unknown_policy", f"unknown policy {policy!r}")
    raw_metrics = doc.get("metrics")
    if raw_metrics is None:
        metrics = default_metrics()
        explicit = False
    else:
        if not isinstance(raw_metrics, list) or not raw_metrics:
            raise ConfigError("metrics must be a non-empty list", "metrics")
        metrics = tuple(_make_metric(m, f"metrics[{i}]") for i, m in enumerate(raw_metrics))
        writer: dict[str, int] = {}  # the entry that writes each row
        for i, mc in enumerate(metrics):
            for row in FAMILIES[mc.name].row_names(mc.label):
                j = writer.setdefault(row, i)
                if j != i:
                    raise ConfigError(f"row {row!r} is also written by metrics[{j}]",
                                      f"metrics[{i}]")
        for row, i in writer.items():  # logX is the log form of X, so only X's entry writes it
            j = writer.get(row[3:], i) if row.startswith("log") else i
            if j != i:
                raise ConfigError(f"row {row!r} reads as the log form of row {row[3:]!r}, "
                                  f"which metrics[{j}] writes", f"metrics[{i}].label")
        explicit = True
    return EvalConfig(
        protected=str(doc["protected"]) if "protected" in doc and doc["protected"] is not None else None,
        unknown=str(doc["unknown"]) if "unknown" in doc and doc["unknown"] is not None else None,
        unknown_policy=policy,
        threshold=threshold,
        metrics=metrics,
        explicit_metrics=explicit,
    )
