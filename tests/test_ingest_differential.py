"""Differential tests: the whole-column parsers against line-by-line oracles.

Random files mix data lines with comments, blank lines, CRLF endings, tabs
and runs of spaces, repeated ranks, documents and keys, non-numeric,
``inf``/``nan``, negative and ``3_0``-style fields, ranks beyond 64 bits,
wrong field counts (also a line wrapped one field early, which keeps the
file's field count a multiple of the width), NUL fields and, for scores,
quoted cells, stray headers and lone carriage returns.
Each file is parsed from a ``StringIO``, from a list of lines without line
breaks, and from a path.  ``parse_run``, ``parse_qrels`` and
``parse_scores`` must give what ``oracle_parse_run``, ``oracle_parse_qrels``
and ``oracle_parse_scores`` give for the same lines: the same value (floats
compared by ``repr``, dict order included), or an exception of the same
class with the same message and line (after the path, given a path), and
the same warnings in the same order.  ``parse_alignment`` is held to
``oracle_parse_alignment`` the same way, over hard, soft, unlabeled and
blank rows, empty and padded cells, repeated documents, rows off the
sum tolerance, odd headers and quoted cells; its rows are compared within
1e-15, since the oracle sums each row with ``math.fsum``.  ``parse_sequence``
is held to ``oracle_parse_sequence`` over headers (also further down), blank
rows, quoted cells, wrong widths, unknown requests and odd ``seq_no`` cells.
"""

import io
import logging
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairrank.ingest import (
    parse_alignment,
    parse_qrels,
    parse_run,
    parse_scores,
    parse_sequence,
)

from oracles import (
    oracle_parse_alignment,
    oracle_parse_qrels,
    oracle_parse_run,
    oracle_parse_scores,
    oracle_parse_sequence,
)

SETTINGS = settings(max_examples=300, deadline=None)

SEPARATORS = st.sampled_from((" ", " ", " ", "\t", "  ", " \t "))
ENDINGS = st.sampled_from(("\n", "\n", "\n", "\r\n"))
NUMBERS = ("0", "1", "2", "0.5", "-2", "-0", "3_0", "1_0.5", "1e3", "inf", "-inf", "nan",
           "NaN", "1e400", "x", "1,5", "٣")
INTS = ("1", "2", "3", "10", "-1", "+2", "3_0", "٣", str(2**70), str(-2**70), "x", "1.0", "2e1")


def _odd(draw, usual, odd):
    """``usual`` most of the time, else one of ``odd`` (bad, repeated or unusual values)."""
    return draw(st.sampled_from(odd)) if draw(st.integers(0, 11)) == 0 else usual


def _tokens(draw, fields):
    """One whitespace-separated line: usually ``fields``, sometimes one short or long."""
    width = _odd(draw, len(fields), (len(fields) - 1, len(fields) + 1))
    fields = (fields + [draw(st.sampled_from(("extra", "\x00")))])[:width]
    line = draw(SEPARATORS).join(fields)
    return draw(st.sampled_from(("", "", "", " ", "\t"))) + line + draw(
        st.sampled_from(("", "", "", " ")))


def _doc(draw, i):
    """Line i's document: new, or sometimes the previous line's (a repeated key)."""
    return draw(st.sampled_from((f"d{i}",) * 4 + (f"d{i - 1}",)))


def _noise(draw, comments):
    """A line that is not data: blank, whitespace, or a comment (data in qrels)."""
    options = ["", "  ", "\t"]
    if comments:
        options += ["# comment", "  # indented", "#x a b c d e", "#"]
    return draw(st.sampled_from(options))


@st.composite
def run_texts(draw):
    lines = []
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(_noise(draw, comments=True))
            continue
        qid = draw(st.sampled_from(("q1", "q1", "q2", "q3", "Q#1")))
        doc = _odd(draw, f"d{i}", ("d1", "d2", "d#"))
        rank = _odd(draw, str(12 - i), INTS)
        score = _odd(draw, f"{i / 3!r}", NUMBERS)
        tag = _odd(draw, "runA", ("runB", "\x00", "r\x00"))
        lines.append(_tokens(draw, [qid, "Q0", doc, rank, score, tag]))
    return _join(draw, lines)


@st.composite
def qrels_texts(draw):
    lines = []
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(_noise(draw, comments=draw(st.booleans())))
            continue
        qid = draw(st.sampled_from(("q1", "q1", "q2", "q3")))
        doc = _odd(draw, _doc(draw, i), ("d1", "d2", "\x00"))
        grade = _odd(draw, draw(st.sampled_from(("0", "1", "2", "0.5"))), NUMBERS)
        lines.append(_tokens(draw, [qid, "0", doc, grade]))
    return _join(draw, lines)


@st.composite
def score_texts(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(("qid,docid,score", "QID,DocId,Score", " qid ,x,y"))))
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 23))
        if kind == 0:
            lines.append(draw(st.sampled_from(("", "  ", ", ,", ",,", "\t"))))
            continue
        if kind == 1:  # a stray header, a quoted cell, a NUL or a lone carriage return
            lines.append(draw(st.sampled_from((
                "qid,docid,score", "QID,d2,0.7", "qid,d9,1", '"q1",d1,0.5', 'q1,"d,1",0.5',
                'q1,"d\n1",0.5', "q1,d\x001,0.5", "q1,d\r1,0.5"))))
            continue
        qid = draw(st.sampled_from(("q1", "q1", "q2", " q3", "QID", "q1 ")))
        doc = _odd(draw, _doc(draw, i), ("d1", "d2", " d1"))
        score = _odd(draw, f"{i / 7!r}", NUMBERS + (" 0.5", "0.5 ", ""))
        cells = [qid, doc, score]
        width = _odd(draw, 3, (2, 4))
        lines.append(",".join((cells + ["extra"])[:width]))
    return _join(draw, lines, ",")


ALIGNMENT_ROWS = {
    1: (("1",), (" 1 ",), ("1.005",)),
    2: (("1", "0"), ("0", "1"), ("", "1"), ("0.25", "0.75"), ("0.5", "0.505"), (" 0.3", "0.7 ")),
    3: (("1", "0", "0"), ("", "", "1"), ("0.2", "0.3", "0.5"), ("0.5", "0", "0.5")),
}
ODD_CELLS = ("x", "-0.5", "1.5", "inf", "nan", "1e400", "0.9", "1_0", "٣", '"1"', "\x00")


@st.composite
def alignment_texts(draw):
    g = draw(st.integers(1, 3))
    lines = [_odd(draw, ",".join(["docid", *(f" g{j}" for j in range(g))]),
                  ("", "docid", "docid,a", '"docid",g0,g1'))]
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:  # blank
            lines.append(draw(st.sampled_from(("", "  ", ",,", ", ,", ","))))
            continue
        doc = _odd(draw, _doc(draw, i), (" d1", "d1 ", ""))
        cells = [""] * g if kind == 1 else list(draw(st.sampled_from(ALIGNMENT_ROWS[g])))
        if draw(st.integers(0, 7)) == 0:
            cells[draw(st.integers(0, g - 1))] = draw(st.sampled_from(ODD_CELLS))
        width = _odd(draw, g, (g - 1, g + 1))
        lines.append(",".join([doc, *(cells + ["0"])[:width]]))
    return _join(draw, lines, ",")


def _join(draw, lines, sep=" "):
    if len(lines) > 1 and draw(st.integers(0, 5)) == 0:
        # wrap a line one field early: the fields still come in multiples of the width
        i = draw(st.integers(0, len(lines) - 2))
        head, _, tail = lines[i].rstrip().rpartition(sep)
        if head:
            lines[i], lines[i + 1] = head, tail + sep + lines[i + 1]
    text = "".join(line + draw(ENDINGS) for line in lines)
    if text and draw(st.integers(0, 4)) == 0:
        text = text.rstrip("\r\n")  # no line break after the last line
    return text


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def _warnings():
    handler = _Warnings()
    logger = logging.getLogger("fairrank")
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def _sources(text, tmp):
    """(parser source, oracle lines, path prefix of an error message) per source kind."""
    path = tmp / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        file_lines = list(fh)
    return [(io.StringIO(text), list(io.StringIO(text)), ""),
            (text.split("\n"), text.split("\n"), ""),
            (path, file_lines, f"{path}: ")]


def _check(parse, oracle, view, text, tmp):
    """``oracle(lines, warnings)`` returns the value ``view`` must give, or raises."""
    for source, lines, prefix in _sources(text, tmp):
        want, want_exc, want_warnings = None, None, []
        try:
            want = oracle(lines, want_warnings)
        except Exception as exc:  # noqa: BLE001 - compared below
            want_exc = exc
        got, got_exc = None, None
        with _warnings() as got_warnings:
            try:
                got = parse(source)
            except Exception as exc:  # noqa: BLE001 - compared below
                got_exc = exc
        if want_exc is not None:
            assert type(got_exc) is type(want_exc), (got_exc, want_exc)
            assert str(got_exc) == prefix + str(want_exc)
            assert getattr(got_exc, "line", None) == getattr(want_exc, "line", None)
        else:
            assert got_exc is None, got_exc
            assert repr(view(got)) == repr(want)
        assert got_warnings == want_warnings


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@SETTINGS
@given(run_texts())
@example(f"q1 Q0 d1 {2**70} 0.5 r\nq1 Q0 d2 -3 0.5 r\n")
@example("q1 Q0 d1 1 1e308 r\nq1 Q0 d2 2 1e308 r\n")  # the scores' sum overflows
def test_parse_run_matches_oracle(tmp, text):
    def view(run):
        return [tuple(r) for r in run.records], {q: r.docs for q, r in run.rankings.items()}

    _check(parse_run, lambda lines, _: oracle_parse_run(lines), view, text, tmp)


@SETTINGS
@given(qrels_texts())
@example("q1 0 d1 1 \x00\nq2 0 2\n")  # a NUL field ends a long line where a short one starts
@example("q1 0 d1 1\nq1 0 d2 -0.5\n")
@example("q1 0 d1 -0\nq2 0 d2 0\n")
def test_parse_qrels_matches_oracle(tmp, text):
    def view(table):
        return {q: dict(table.judged(q)) for q in table.requests()}, table.max_grade()

    def oracle(lines, warnings):
        table, _ = oracle_parse_qrels(lines, warnings)
        return table, max((g for docs in table.values() for g in docs.values()), default=0.0)

    _check(parse_qrels, oracle, view, text, tmp)


@SETTINGS
@given(score_texts())
def test_parse_scores_matches_oracle(tmp, text):
    _check(parse_scores, lambda lines, warnings: oracle_parse_scores(lines, warnings)[0],
           lambda scores: scores, text, tmp)



@SETTINGS
@given(alignment_texts())
@example("docid,F,M\nd1,1,0\nd1,0,1\n")  # a repeated document: first position, last row
@example("docid,F,M\nd1,,\nd2,nan,1\n")
@example("docid,F,M\r\nd1,0.25,0.75\r\n,,\r\nd2,,1")
def test_parse_alignment_matches_oracle(tmp, text):
    try:
        want_rows, want_warnings = oracle_parse_alignment(text)
        want_exc = None
    except Exception as exc:  # noqa: BLE001 - compared below
        want_exc = exc
    for source, _, prefix in _sources(text, tmp):
        with _warnings() as got_warnings:
            try:
                alignment, groups = parse_alignment(source)
                got_exc = None
            except Exception as exc:  # noqa: BLE001 - compared below
                got_exc = exc
        if want_exc is not None:
            assert type(got_exc) is type(want_exc), (got_exc, want_exc)
            assert str(got_exc) == prefix + str(want_exc)
            assert getattr(got_exc, "line", None) == getattr(want_exc, "line", None)
            continue
        assert got_exc is None, got_exc
        assert list(alignment.docs()) == list(want_rows)
        for doc, row in want_rows.items():
            assert alignment.row(doc).tolist() == pytest.approx(row, rel=1e-15, abs=0)
        assert groups.names == tuple(h.strip() for h in text.split("\n")[0].split(",")[1:])
        assert got_warnings == want_warnings


SEQUENCE_RUN = parse_run(io.StringIO("q1 Q0 a 1 1.0 r\nq2 Q0 b 1 1.0 r\nq2 Q0 c 2 0.5 r\n"))


@st.composite
def sequence_texts(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(("seq_no,qid", "SEQ_NO,QID", " Seq_No ,x", "seq_no"))))
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(("", "  ", ",", ", ,", "\t"))))
            continue
        if kind == 1:  # a stray header, a quoted cell, a NUL or a lone carriage return
            lines.append(draw(st.sampled_from((
                "seq_no,qid", "SEQ_NO,q1", '"3",q1', '4,"q2"', '5,"q\n1"', '"6,q1"',
                "7,q\x001", "8,q\r1"))))
            continue
        seq_no = _odd(draw, str(draw(st.integers(-2, 9))),
                      ("x", " 3", "3 ", "3_0", "٣", "+2", "1.0", "", str(2**70)))
        qid = _odd(draw, draw(st.sampled_from(("q1", "q2", " q2", "q1 "))), ("q9", "Q1", ""))
        cells = [seq_no, qid]
        width = _odd(draw, 2, (1, 3))
        lines.append(",".join((cells + ["extra"])[:width]))
    return _join(draw, lines, ",")


@SETTINGS
@given(sequence_texts())
@example("seq_no,qid\n2,q2\n1,q1\n2,q1\n")  # draws ordered by seq_no, stably
@example("\r\nSEQ_NO,QID\r\n 3,q1\r\nseq_no,q2\r\n")
@example('1,q1\n"2",q2\n3,q9\n')
def test_parse_sequence_matches_oracle(tmp, text):
    def view(seq):
        return [(q, r.docs) for q, r in seq.draws]

    _check(lambda source: parse_sequence(source, SEQUENCE_RUN),
           lambda lines, _: view(oracle_parse_sequence(lines, SEQUENCE_RUN)), view, text, tmp)
