import io
import re

import numpy as np
import pytest

from fairrank import ConfigError, ParseError, UnknownRequest
from fairrank.ingest import (
    DuplicateRank,
    NegativeWeight,
    RowSumOutOfTolerance,
    fallback_sequence,
    load_config,
    parse_alignment,
    parse_qrels,
    parse_run,
    parse_scores,
    parse_sequence,
    write_alignment,
    write_qrels,
    write_run,
    write_scores,
    write_sequence,
)

from oracles import oracle_parse_alignment


class TestParseRun:
    def test_basic_record(self):
        run = parse_run(io.StringIO("q1 Q0 doc42 1 13.7 runA\n"))
        assert run.records[0] == ("q1", "doc42", 1, 13.7, "runA")
        assert run.rankings["q1"].docs == ("doc42",)
        assert run.tag == "runA"

    def test_empty_file(self):
        run = parse_run(io.StringIO(""))
        assert run.records == ()
        assert run.rankings == {}

    def test_duplicate_rank(self):
        text = "q1 Q0 d1 1 2.0 r\nq1 Q0 d2 1 1.0 r\n"
        with pytest.raises(DuplicateRank, match="line 2"):
            parse_run(io.StringIO(text))

    def test_repeated_document_fails_at_its_line(self):
        text = "q1 Q0 d1 1 2.0 r\nq1 Q0 d2 2 1.0 r\nq1 Q0 d1 3 0.5 r\nq2 Q0 d1 1 1.0 r\n"
        with pytest.raises(ParseError, match="line 3: request 'q1' repeats document 'd1'") as err:
            parse_run(io.StringIO(text))
        assert err.value.line == 3
        # the same document in another request is fine
        assert parse_run(io.StringIO(text.replace("d1 3", "d3 3"))).rankings["q2"].docs == ("d1",)

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\nq1 Q0 d1 1 2.0 r\n"
        assert len(parse_run(io.StringIO(text)).records) == 1

    def test_rank_order_reconstruction(self):
        text = "q1 Q0 second 2 1.0 r\nq1 Q0 first 1 2.0 r\n"
        run = parse_run(io.StringIO(text))
        assert run.rankings["q1"].docs == ("first", "second")
        assert run.scores == (1.0, 2.0)  # the columns keep file order

    def test_orders_by_rank_not_score_and_closes_gaps(self):
        text = "q1 Q0 a 10 9.0 r\nq1 Q0 b 3 0.5 r\nq1 Q0 c 7 1.0 r\n"
        run = parse_run(io.StringIO(text))
        assert run.rankings["q1"].docs == ("b", "c", "a")
        assert (run.ranks, run.scores) == ((10, 3, 7), (9.0, 0.5, 1.0))

    def test_malformed_lines(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_run(io.StringIO("q1 Q0 d1 1 2.0\n"))
        with pytest.raises(ParseError, match="not an integer"):
            parse_run(io.StringIO("q1 Q0 d1 one 2.0 r\n"))
        with pytest.raises(ParseError, match="not a number"):
            parse_run(io.StringIO("q1 Q0 d1 1 high r\n"))

    def test_non_finite_score_rejected(self):
        for score in ("inf", "-inf", "nan"):
            with pytest.raises(ParseError, match="line 2.*not finite"):
                parse_run(io.StringIO(f"q1 Q0 d1 1 2.0 r\nq1 Q0 d2 2 {score} r\n"))

    def test_round_trip(self):
        text = "q1 Q0 d1 1 2.5 r\nq1 Q0 d2 2 1.25 r\nq2 Q0 d9 1 0.125 r\n"
        run = parse_run(io.StringIO(text))
        buf = io.StringIO()
        write_run(buf, run)
        again = parse_run(io.StringIO(buf.getvalue()))
        assert again == run


class TestParseQrels:
    def test_basic(self):
        rel = parse_qrels(io.StringIO("q1 0 doc42 1\n"))
        assert rel.grade("q1", "doc42") == 1.0

    def test_graded(self):
        rel = parse_qrels(io.StringIO("q1 0 d 2\n"))
        assert rel.grade("q1", "d") == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_qrels(io.StringIO("q1 0 d -1\n"))

    def test_non_finite_grade_rejected_with_line(self):
        for grade in ("nan", "inf"):
            with pytest.raises(ParseError, match="line 2.*not finite") as err:
                parse_qrels(io.StringIO(f"q1 0 a 1\nq1 0 d {grade}\n"))
            assert err.value.line == 2

    def test_duplicate_last_wins_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="fairrank"):
            rel = parse_qrels(io.StringIO("q1 0 d 1\nq1 0 d 2\n"))
        assert rel.grade("q1", "d") == 2.0
        assert any("overrides" in r.message for r in caplog.records)

    def test_round_trip(self):
        text = "q1 0 a 1.0\nq1 0 b 2.0\nq2 0 c 0.0\n"
        rel = parse_qrels(io.StringIO(text))
        buf = io.StringIO()
        write_qrels(buf, rel)
        again = parse_qrels(io.StringIO(buf.getvalue()))
        for q in ("q1", "q2"):
            assert dict(again.judged(q)) == dict(rel.judged(q))


class TestParseAlignment:
    def test_hard_soft_unlabeled(self):
        text = "docid,F,M\nd1,1,0\nd2,0.5,0.5\nd3,,\n"
        al, gs = parse_alignment(io.StringIO(text))
        assert gs.names == ("F", "M")
        assert al.row("d1").tolist() == [1.0, 0.0]
        assert al.row("d2").tolist() == [0.5, 0.5]
        assert "d3" not in al

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight, match="line 2"):
            parse_alignment(io.StringIO("docid,F,M\nd1,-0.5,1.5\n"))

    def test_non_finite_cell_rejected_with_line(self):
        for cell in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError, match="line 3.*not finite") as err:
                parse_alignment(io.StringIO(f"docid,A,B\nd1,1,0\nd2,{cell},1\n"))
            assert err.value.line == 3

    def test_row_sum_tolerance(self):
        # within 0.01 renormalizes; beyond rejects
        al, _ = parse_alignment(io.StringIO("docid,F,M\nd1,0.5,0.505\n"))
        assert al.row("d1").sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(RowSumOutOfTolerance, match="line 2"):
            parse_alignment(io.StringIO("docid,F,M\nd1,0.5,0.6\n"))

    @pytest.mark.parametrize("body", [
        "d1,1,0\nd2,0.5\n",                      # wrong column count
        "d1,1,0\nd2,0.5,0.5,0\n",                # too many columns
        "d1,nan,1\n", "d1,1,inf\n", "d1,-inf,1\n",
        "d1,x,1\n",                               # not a number
        "d1,1,0\nd2,-0.5,1.5\n",                 # negative cell
        "d1,0.5,0.6\n",                           # bad row sum
        "d1,0.5,0.6\nd2,-1,2\n",                 # two faulty lines, sum first
        "d1,-1,2\nd2,0.5,0.6\n",                 # two faulty lines, negative first
        "d1,1,0\nd2,0.5\nd3,nan,0\n",           # column count after a good line
        "d1,nan,0\nd2,0.5\n",                    # bad cell before a bad column count
        "d1,,\nd2,0.2,0.2\n",                    # unlabeled row, then a bad sum
        "d1,1,0\nd1,0.2,0.2\n",                  # duplicate document with a bad row
        ",,\nd1,0.4,0.4\n",                      # blank line, then a bad sum
    ])
    def test_errors_match_the_line_by_line_parser(self, body):
        text = "docid,F,M\n" + body
        with pytest.raises(ParseError) as want:
            oracle_parse_alignment(text)
        with pytest.raises(ParseError) as got:
            parse_alignment(io.StringIO(text))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert got.value.line == want.value.line

    @pytest.mark.parametrize("body", [
        "d1,1,0\nd2,0.25,0.75\nd3,,\n",          # hard, soft, unlabeled
        "d1,,\nd2,,\n",                          # only unlabeled rows
        "d2,1,0\nd1,0.3,0.7\nd2,0.5,0.505\n",   # duplicate: first position, last row
        "d1,0.5,0.505\n\nd2,,1\n",              # renormalized, blank line, empty cell
        "",
    ])
    def test_rows_and_warnings_match_the_line_by_line_parser(self, body, caplog):
        text = "docid,F,M\n" + body
        want_rows, want_warnings = oracle_parse_alignment(text)
        with caplog.at_level("WARNING", logger="fairrank"):
            al, gs = parse_alignment(io.StringIO(text))
        assert gs.names == ("F", "M")
        assert list(al.docs()) == list(want_rows)
        for d, row in want_rows.items():
            assert al.row(d).tolist() == pytest.approx(row, rel=1e-15)
        assert [r.getMessage() for r in caplog.records] == want_warnings

    def test_round_trip(self):
        text = "docid,F,M\nd1,1,0\nd2,0.25,0.75\n"
        al, gs = parse_alignment(io.StringIO(text))
        buf = io.StringIO()
        write_alignment(buf, al, gs)
        again, gs2 = parse_alignment(io.StringIO(buf.getvalue()))
        assert gs2.names == gs.names
        assert sorted(again.docs()) == sorted(al.docs())
        for d in al.docs():
            assert np.array_equal(again.row(d), al.row(d))


class TestParseSequence:
    def test_draw_order(self):
        run = parse_run(io.StringIO("q1 Q0 a 1 1.0 r\nq2 Q0 b 1 1.0 r\n"))
        seq = parse_sequence(io.StringIO("1,q1\n2,q1\n3,q2\n"), run)
        assert [q for q, _ in seq.draws] == ["q1", "q1", "q2"]

    def test_unknown_request(self):
        run = parse_run(io.StringIO("q1 Q0 a 1 1.0 r\n"))
        with pytest.raises(UnknownRequest):
            parse_sequence(io.StringIO("1,q9\n"), run)

    def test_fallback_one_draw_per_request(self):
        run = parse_run(io.StringIO("q2 Q0 a 1 1.0 r\nq1 Q0 b 1 1.0 r\n"))
        seq = fallback_sequence(run)
        assert [q for q, _ in seq.draws] == ["q1", "q2"]

    def test_header_only_on_the_first_non_blank_row(self):
        run = parse_run(io.StringIO("q1 Q0 a 1 1.0 r\n"))
        seq = parse_sequence(io.StringIO("\nSeq_No,qid\n1,q1\n2,q1\n"), run)
        assert [q for q, _ in seq.draws] == ["q1", "q1"]
        with pytest.raises(ParseError, match="^line 3: seq_no 'seq_no' is not an integer$"):
            parse_sequence(io.StringIO("seq_no,qid\n1,q1\nseq_no,qid\n2,q1\n"), run)
        with pytest.raises(ParseError, match="^line 2: seq_no 'SEQ_NO' is not an integer$"):
            parse_sequence(io.StringIO("1,q1\nSEQ_NO,q1\n"), run)

    def test_round_trip(self):
        run = parse_run(io.StringIO("q1 Q0 a 1 1.0 r\nq2 Q0 b 1 1.0 r\n"))
        seq = parse_sequence(io.StringIO("seq_no,qid\n1,q2\n2,q1\n3,q2\n"), run)
        buf = io.StringIO()
        write_sequence(buf, seq)
        again = parse_sequence(io.StringIO(buf.getvalue()), run)
        assert [q for q, _ in again.draws] == [q for q, _ in seq.draws]


class TestParseScores:
    def test_basic_and_header(self):
        sc = parse_scores(io.StringIO("qid,docid,score\nq1,d1,0.9\n"))
        assert sc == {"q1": {"d1": 0.9}}

    def test_duplicate_last_wins(self, caplog):
        with caplog.at_level("WARNING", logger="fairrank"):
            sc = parse_scores(io.StringIO("q1,d1,0.9\nq1,d1,0.1\n"))
        assert sc["q1"]["d1"] == 0.1
        assert any("overrides" in r.message for r in caplog.records)

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scores(io.StringIO("q1,d1,high\n"))

    def test_non_finite_rejected(self):
        for score in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError, match="line 2.*not finite"):
                parse_scores(io.StringIO(f"qid,docid,score\nq1,d1,{score}\n"))

    def test_header_only_on_the_first_non_blank_row(self):
        # a request named like the header column is data anywhere past the first row
        sc = parse_scores(io.StringIO("qid,docid,score\nq1,d1,0.5\nQID,d2,0.7\n"))
        assert sc == {"q1": {"d1": 0.5}, "QID": {"d2": 0.7}}
        text = "\n , \nQid,DocId,Score\nq1,d1,0.5\n"  # the header after blank rows
        assert parse_scores(io.StringIO(text)) == {"q1": {"d1": 0.5}}
        assert parse_scores(io.StringIO("QID,d2,0.7\n")) == {}  # the first row is the header

    def test_stray_header_fails_at_its_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("q1,d1,0.5\nqid,docid,score\nq1,d2,0.7\n")
        with pytest.raises(ParseError, match=f"^{path}: line 2: score 'score' is not a number$"):
            parse_scores(path)

    def test_round_trip(self):
        sc = {"q1": {"d1": 0.125, "d2": 3.5}, "q2": {"d9": -1.75}}
        buf = io.StringIO()
        write_scores(buf, sc)
        assert parse_scores(io.StringIO(buf.getvalue())) == sc


class TestLoadConfig:
    def test_empty_gives_defaults(self):
        cfg = load_config(None)
        assert cfg.threshold == 0.5
        assert cfg.seed == 42
        assert not cfg.explicit_metrics
        names = [m.label for m in cfg.metrics]
        assert {"prefD", "AWRF", "AWRF_equal", "FAIR", "DP", "EED",
                "EUR", "RUR", "EEL", "IAA", "PAIR"} <= set(names)
        by_label = {m.label: m for m in cfg.metrics}
        assert by_label["DP"].weight_model == "logarithmic"
        assert by_label["EEL"].weight_model == "rbp"
        assert by_label["AWRF"].weight_model == "geometric"
        assert by_label["AWRF_equal"].target == "equal"
        assert by_label["prefD"].target == "composition"
        assert by_label["PAIR"].n_negatives == 10000

    def test_gamma_out_of_domain(self):
        doc = io.StringIO("metrics:\n  - name: awrf\n    gamma: 1.5\n")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(doc)

    def test_unknown_metric(self):
        doc = io.StringIO("metrics:\n  - name: ndcg\n")
        with pytest.raises(ConfigError, match="UnknownMetric"):
            load_config(doc)

    def test_error_paths_name_the_key(self):
        for step in (0, 1):  # step 1 would divide the first prefix by log2(1) = 0
            doc = io.StringIO(f"metrics:\n  - name: awrf\n    step: {step}\n")
            with pytest.raises(ConfigError, match=r"metrics\[0\].step"):
                load_config(doc)

    def test_equal_target_mode(self):
        doc = io.StringIO("metrics:\n  - name: awrf\n    target: equal\n")
        cfg = load_config(doc)
        assert cfg.metrics[0].target == "equal"
        assert cfg.explicit_metrics

    def test_custom_target_needs_vector(self):
        doc = io.StringIO("metrics:\n  - name: awrf\n    target: custom\n")
        with pytest.raises(ConfigError, match="custom_target"):
            load_config(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="typo"):
            load_config(io.StringIO("typo: 1\n"))

    def test_composition_only_for_prefd(self):
        doc = io.StringIO("metrics:\n  - name: awrf\n    target: composition\n")
        with pytest.raises(ConfigError, match="composition"):
            load_config(doc)

    @pytest.mark.parametrize("text, path", [
        ("threshold: abc\n", "threshold"),
        ("seed: x\n", "seed"),
        ("seed: 4.5\n", "seed"),
        ("metrics: [{name: awrf, gamma: x}]\n", "metrics[0].gamma"),
        ("metrics: [{name: awrf, target: custom, custom_target: 5}]\n", "metrics[0].custom_target"),
        ("metrics: [{name: awrf, custom_target: [0.5, x]}]\n", "metrics[0].custom_target[1]"),
        ("metrics: [{name: awrf, step: 2.5}]\n", "metrics[0].step"),
        ("metrics: [{name: pair, n_negatives: 10.5}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: awrf, signed: 'false'}]\n", "metrics[0].signed"),
        ("metrics: [{name: awrf, signed: 0}]\n", "metrics[0].signed"),
        ("metrics: [{name: awrf, gamma: true}]\n", "metrics[0].gamma"),
    ])
    def test_value_of_the_wrong_type_names_its_key(self, text, path):
        with pytest.raises(ConfigError, match=r"^" + re.escape(path) + ": expected "):
            load_config(io.StringIO(text))

    def test_whole_and_string_numbers_still_read(self):
        cfg = load_config(io.StringIO(
            "threshold: '0.25'\nseed: 7.0\nmetrics: [{name: awrf, gamma: 1e-1, step: '4', "
            "signed: true, target: custom, custom_target: [0.5, '0.5']}]\n"))
        assert (cfg.threshold, cfg.seed) == (0.25, 7)
        metric = cfg.metrics[0]
        assert (metric.gamma, metric.step, metric.signed) == (0.1, 4, True)
        assert metric.custom_target == (0.5, 0.5)
        assert type(cfg.seed) is int and type(metric.step) is int


@pytest.mark.parametrize("parse, text, line", [
    (parse_run, "q1 Q0 d1 1 2.0 r\nq1 Q0 d2 x 1.0 r\n", 2),
    (parse_qrels, "q1 0 d1 1\nq1 0 d2\n", 2),
    (parse_alignment, "docid,F,M\nd1,1,0\nd2,-1,2\n", 3),
    (parse_scores, "qid,docid,score\nq1,d1,nan\n", 2),
])
def test_parse_errors_from_a_path_name_the_file(tmp_path, parse, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as from_path:
        parse(path)
    with pytest.raises(ParseError) as from_text:
        parse(io.StringIO(text))
    assert str(from_path.value) == f"{path}: {from_text.value}"
    assert str(from_text.value).startswith(f"line {line}: ")
    assert type(from_path.value) is type(from_text.value) and from_path.value.line == line
    # a path given as a string is named the same way
    with pytest.raises(ParseError, match=f"^{path}: line {line}: "):
        parse(str(path))


def test_sequence_parse_error_names_the_file(tmp_path):
    run = parse_run(io.StringIO("q1 Q0 d1 1 2.0 r\n"))
    path = tmp_path / "seq.csv"
    path.write_text("seq_no,qid\n1,q1\ntwo,q1\n")
    with pytest.raises(ParseError, match=f"^{path}: line 3: seq_no 'two' is not an integer"):
        parse_sequence(path, run)
    path.write_text("seq_no,qid\n1,q1\n2,q9\n")
    with pytest.raises(UnknownRequest, match=f"^{path}: sequence line 3 references unknown"):
        parse_sequence(path, run)


def test_unknown_request_in_a_sequence_carries_its_line(tmp_path):
    run = parse_run(io.StringIO("q1 Q0 d1 1 2.0 r\n"))
    path = tmp_path / "seq.csv"
    path.write_text("seq_no,qid\n1,q1\n\n2,q9\n")
    for source in (path, io.StringIO(path.read_text()), path.read_text().split("\n")):
        with pytest.raises(UnknownRequest) as caught:
            parse_sequence(source, run)
        assert caught.value.line == 4
        assert str(caught.value).endswith("sequence line 4 references unknown request 'q9'")
