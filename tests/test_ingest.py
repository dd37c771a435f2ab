import ast
import csv
import io
import re
from pathlib import Path

import numpy as np
import pytest

from fairrank import (ConfigError, InputWarning, ParseError, RankingSequence, RelevanceTable,
                      UnknownRequest)
from fairrank.ingest import (
    DuplicateRank,
    NegativeWeight,
    RowSumOutOfTolerance,
    load_config,
    parse_alignment,
    parse_qrels,
    parse_run,
    parse_scores,
    parse_sequence,
    read_draws,
    write_alignment,
    write_draws,
    write_qrels,
    write_run,
    write_scores,
)

from conftest import input_warnings
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

    def test_duplicate_last_wins_with_warning(self):
        with pytest.warns(InputWarning, match="overrides"):
            rel = parse_qrels(io.StringIO("q1 0 d 1\nq1 0 d 2\n"))
        assert rel.grade("q1", "d") == 2.0

    def test_round_trip(self):
        text = "q1 0 a 1.0\nq1 0 b 2.0\nq2 0 c 0.0\n"
        rel = parse_qrels(io.StringIO(text))
        buf = io.StringIO()
        write_qrels(buf, rel)
        again = parse_qrels(io.StringIO(buf.getvalue()))
        for q in ("q1", "q2"):
            assert dict(again.judged(q)) == dict(rel.judged(q))

    def test_written_table_parses_back_to_equal_columns(self):
        # requests and documents in sorted order, as write_qrels writes them
        rel = RelevanceTable({"q1": {"a": 1.0, "c": 0.0}, "q2": {"a": 2.0, "b": -0.0}})
        buf = io.StringIO()
        write_qrels(buf, rel)
        parsed = parse_qrels(io.StringIO(buf.getvalue())).columns
        assert (parsed.requests, parsed.docs) == (rel.columns.requests, rel.columns.docs)
        for name in ("codes", "at", "score"):  # the score bytes keep the sign of -0.0
            assert getattr(parsed, name).tobytes() == getattr(rel.columns, name).tobytes(), name


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
    def test_rows_and_warnings_match_the_line_by_line_parser(self, body):
        text = "docid,F,M\n" + body
        want_rows, want_warnings = oracle_parse_alignment(text)
        with input_warnings() as got_warnings:
            al, gs = parse_alignment(io.StringIO(text))
        assert gs.names == ("F", "M")
        assert list(al.docs()) == list(want_rows)
        for d, row in want_rows.items():
            assert al.row(d).tolist() == pytest.approx(row, rel=1e-15)
        assert got_warnings == want_warnings

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
        seq = RankingSequence.single_draws(run.rankings)
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
        write_draws(buf, [q for q, _ in seq.draws])
        again = parse_sequence(io.StringIO(buf.getvalue()), run)
        assert [q for q, _ in again.draws] == [q for q, _ in seq.draws]

    @pytest.mark.parametrize("qids", [["q1", "q2", "q1"], ["q,1", 'q"2', "q\n3"]])
    def test_draws_written_as_csv_writer_writes_them(self, qids):
        buf, want = io.StringIO(), io.StringIO()
        write_draws(buf, qids)
        csv.writer(want, lineterminator="\n").writerows([["seq_no", "qid"], *enumerate(qids, 1)])
        assert buf.getvalue() == want.getvalue()


class TestParseScores:
    def test_basic_and_header(self):
        sc = parse_scores(io.StringIO("qid,docid,score\nq1,d1,0.9\n"))
        assert sc == {"q1": {"d1": 0.9}}

    def test_duplicate_last_wins(self):
        with pytest.warns(InputWarning, match="overrides"):
            sc = parse_scores(io.StringIO("q1,d1,0.9\nq1,d1,0.1\n"))
        assert sc["q1"]["d1"] == 0.1

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
        assert not hasattr(cfg, "seed")  # no metric draws at random
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
            doc = io.StringIO(f"metrics:\n  - name: prefd\n    step: {step}\n")
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

    @pytest.mark.parametrize("target", ["[0.3333333, 0.6666666]", "[1.5, -0.5]"])
    def test_custom_target_must_be_a_distribution(self, target):
        doc = io.StringIO(f"metrics: [{{name: awrf, target: custom, custom_target: {target}}}]\n")
        with pytest.raises(ConfigError, match=r"^metrics\[0\]\.custom_target: "):
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
        ("metrics: [{name: awrf, gamma: x}]\n", "metrics[0].gamma"),
        ("metrics: [{name: awrf, target: custom, custom_target: 5}]\n", "metrics[0].custom_target"),
        ("metrics: [{name: awrf, custom_target: [0.5, x]}]\n", "metrics[0].custom_target[1]"),
        ("metrics: [{name: prefd, step: 2.5}]\n", "metrics[0].step"),
        ("metrics: [{name: pair, n_negatives: 10.5}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: pair, n_negatives: 2.5e0}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: pair, n_negatives: '25e-1'}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: pair, n_negatives: 1e400}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: pair, n_negatives: -1e400}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: pair, n_negatives: nan}]\n", "metrics[0].n_negatives"),
        ("metrics: [{name: prefd, step: 1e}]\n", "metrics[0].step"),
        ("metrics: [{name: awrf, signed: 'false'}]\n", "metrics[0].signed"),
        ("metrics: [{name: awrf, signed: 0}]\n", "metrics[0].signed"),
        ("metrics: [{name: awrf, gamma: true}]\n", "metrics[0].gamma"),
    ])
    def test_value_of_the_wrong_type_names_its_key(self, text, path):
        with pytest.raises(ConfigError, match=r"^" + re.escape(path) + ": expected "):
            load_config(io.StringIO(text))

    @pytest.mark.parametrize("label, got", [
        ("null", "None"), ("''", "''"), ("' '", "' '"), ("[1, 2]", "[1, 2]"),
        ("{a: 1}", "{'a': 1}")])
    def test_a_null_blank_or_collection_label_is_refused(self, label, got):
        # each wrote a row 'None', '', ' ' or '[1, 2]' that compare read as a metric of its own
        with pytest.raises(ConfigError) as info:
            load_config(io.StringIO(f"metrics: [{{name: dp}}, {{name: eed, label: {label}}}]\n"))
        assert str(info.value) == f"metrics[1].label: expected a non-empty label, got {got}"

    def test_a_scalar_label_reads_as_text(self):
        cfg = load_config(io.StringIO("metrics: [{name: dp, label: 7}, {name: eed, label: x}]\n"))
        assert [mc.label for mc in cfg.metrics] == ["7", "x"]

    def test_every_enumerated_value_is_read_in_any_case(self):
        cfg = load_config(io.StringIO(
            "unknown_policy: Group\nmetrics:\n  - {name: EUR, weight_model: RBP, pool: Judged}\n"
            "  - {name: Awrf, dist: KL, target: EQUAL}\n"))
        assert cfg == load_config(io.StringIO(
            "unknown_policy: group\nmetrics:\n  - {name: eur, weight_model: rbp, pool: judged}\n"
            "  - {name: awrf, dist: kl, target: equal}\n"))
        assert (cfg.unknown_policy, cfg.metrics[0].weight_model, cfg.metrics[0].pool) == (
            "group", "rbp", "judged")

    def test_a_stream_outside_the_plain_subset_reads_as_a_stream(self):
        # PyYAML names a stream after its ``name``, or "<file>", and reads bytes as well
        class Named(io.StringIO):
            name = "conf.yaml"

        for stream, where in ((io.StringIO, "<file>"), (Named, "conf.yaml")):
            with pytest.raises(ParseError) as info:
                load_config(stream("threshold: \x01\n"))
            assert str(info.value) == ("unacceptable character #x0001: special characters are "
                                       f'not allowed\n  in "{where}", position 11')
        assert load_config(io.BytesIO(b"threshold: 0.25\n")).threshold == 0.25

    @pytest.mark.parametrize("text", ["seed: x\n", "seed: 4.5\n", "seed: 42\n"])
    def test_seed_is_refused(self, text):
        # pair counts are expectations, so nothing reads a seed
        with pytest.raises(ConfigError) as info:
            load_config(io.StringIO(text))
        assert str(info.value) == "seed: unknown parameter 'seed'"

    def test_custom_target_needs_target_custom(self):
        with pytest.raises(ConfigError) as info:
            load_config(io.StringIO("metrics: [{name: awrf, custom_target: [0.3, 0.7]}]\n"))
        assert str(info.value) == ("metrics[0].custom_target: ParameterOutOfDomain: "
                                   "custom_target needs target: custom")

    def test_whole_and_string_numbers_still_read(self):
        cfg = load_config(io.StringIO(
            "threshold: '0.25'\nmetrics: [{name: awrf, gamma: 1e-1, "
            "signed: true, target: custom, custom_target: [0.5, '0.5']}, "
            "{name: prefd, step: '4'}, {name: pair, n_negatives: 7.0}]\n"))
        assert cfg.threshold == 0.25
        metric, prefd, pair = cfg.metrics
        assert (metric.gamma, prefd.step, metric.signed, pair.n_negatives) == (0.1, 4, True, 7)
        assert metric.custom_target == (0.5, 0.5)
        assert type(prefd.step) is int and type(pair.n_negatives) is int

    def test_a_whole_number_in_exponent_form_reads_as_an_int(self):
        # YAML reads 1e3 as a string and 1.0e+3 as a float
        cfg = load_config(io.StringIO(
            "metrics: [{name: pair, n_negatives: 1e3}, {name: prefd, step: 1E1}, "
            "{name: pair, label: P2, n_negatives: 1.0e+3}]\n"))
        pair, prefd, pair2 = cfg.metrics
        assert (pair.n_negatives, prefd.step, pair2.n_negatives) == (1000, 10, 1000)
        assert type(pair.n_negatives) is int and type(prefd.step) is int


    @pytest.mark.parametrize("metrics, row", [
        ("[{name: awrf}, {name: awrf}]", "AWRF"),
        ("[{name: pair}, {name: pair}]", "IntraAcc"),
        ("[{name: dp, label: X}, {name: awrf, label: logX}]", "logX"),
        ("[{name: eel, label: EER}, {name: eel}]", "EER"),
    ])
    def test_a_row_two_entries_write_is_refused(self, metrics, row):
        with pytest.raises(ConfigError) as info:
            load_config(io.StringIO(f"metrics: {metrics}\n"))
        assert str(info.value) == f"metrics[1]: row {row!r} is also written by metrics[0]"

    @pytest.mark.parametrize("metrics, at, row, by", [
        ("[{name: fair, label: P}, {name: awrf, label: logP}]", 1, "logP", 0),
        ("[{name: awrf, label: logP}, {name: fair, label: P}]", 0, "logP", 1),
        ("[{name: fair, label: P}, {name: dp, label: logP}]", 1, "logP", 0),
        ("[{name: eed, label: logEEL}, {name: eel}]", 0, "logEEL", 1),
    ])
    def test_a_log_row_of_another_entrys_row_is_refused(self, metrics, at, row, by):
        with pytest.raises(ConfigError) as info:
            load_config(io.StringIO(f"metrics: {metrics}\n"))
        assert str(info.value) == (f"metrics[{at}].label: row {row!r} reads as the log form of "
                                   f"row {row[3:]!r}, which metrics[{by}] writes")

    @pytest.mark.parametrize("metrics", [
        "[{name: dp, label: X}]",
        "[{name: eur, label: Y}]",
        "[{name: dp, label: X}, {name: eur, label: Y}, {name: fair, label: logZ}]",
        "[{name: dp, label: logX}, {name: fair}]",
    ])
    def test_a_ratio_entrys_own_log_row_loads(self, metrics):
        assert load_config(io.StringIO(f"metrics: {metrics}\n")).explicit_metrics

    def test_the_default_battery_written_out_loads(self):
        default = load_config(None).metrics
        battery = ", ".join(f"{{name: {mc.name}, label: {mc.label}}}" for mc in default)
        cfg = load_config(io.StringIO(f"metrics: [{battery}]\n"))
        assert [mc.label for mc in cfg.metrics] == [mc.label for mc in default]

    @pytest.mark.parametrize("name, key, value", [
        ("fair", "gamma", "0.9"), ("dp", "dist", "kl"), ("eed", "signed", "true")])
    def test_a_key_the_family_does_not_read_is_refused(self, name, key, value):
        with pytest.raises(ConfigError) as info:
            load_config(io.StringIO(f"metrics: [{{name: {name}, {key}: {value}}}]\n"))
        assert str(info.value) == f"metrics[0].{key}: {name} does not read {key!r}"
        cfg = load_config(io.StringIO(f"metrics: [{{name: {name}}}]\n"))
        assert getattr(cfg.metrics[0], key) is None


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


@pytest.mark.parametrize("parse, text, message", [
    (parse_qrels, "q1 0 d1 1\nq1 0 d1 2\n", "qrels line 2 overrides earlier grade for (q1, d1)"),
    (parse_alignment, "docid,F,M\nd1,1,0\nd1,0,1\n",
     "alignment line 3 overrides earlier row for d1"),
    (parse_scores, "qid,docid,score\nq1,d1,0.5\nq1,d1,0.25\n",
     "scores line 3 overrides earlier score for (q1, d1)"),
])
def test_a_repeated_key_warns_at_the_callers_line(tmp_path, parse, text, message):
    # the warning is reported where the parser was called, not inside fairrank, and
    # names the file when given a path, as a parse error does
    path = tmp_path / "input.txt"
    path.write_text(text)
    for source, prefix in ((io.StringIO(text), ""), (path, f"{path}: "), (str(path), f"{path}: ")):
        with pytest.warns(InputWarning) as record:
            parse(source)
        assert [str(w.message) for w in record] == [prefix + message]
        assert [w.filename for w in record] == [__file__]


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


NOT_UTF8 = {  # each format: a good line, a line broken by CRLF and lone CR, then a bad byte
    "run": (b"q1 Q0 d1 1 2.0 r\r\nq1 Q0 d2 2 1.0 r\rq1 Q0 d\xe93 3 0.5 r\n", parse_run),
    "qrels": (b"q1 0 d1 1\r\nq1 0 d2 0\rq1 0 d\xe93 1\n", parse_qrels),
    "alignment": (b"docid,F,M\r\nd1,1,0\rd\xe92,0,1\n", parse_alignment),
    "sequence": (b"seq_no,qid\r\n1,q1\r2,q\xe91\n",
                 lambda path: parse_sequence(path, parse_run(io.StringIO("q1 Q0 d1 1 2.0 r\n")))),
    "scores": (b"qid,docid,score\r\nq1,d1,0.5\rq1,d\xe92,0.7\n", parse_scores),
    "config": (b"unknown: unk\r\nthreshold: 0.5\rprotected: F\xe9\n", load_config),
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_a_byte_that_is_not_utf8_fails_at_its_line(tmp_path, name):
    data, parse = NOT_UTF8[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as caught:
        parse(path)
    assert str(caught.value) == f"{path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"
    assert caught.value.line == 3


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_a_leading_byte_order_mark_moves_no_line_number(tmp_path, name):
    data, parse = NOT_UTF8[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(b"\xef\xbb\xbf" + data)
    with pytest.raises(ParseError) as caught:
        parse(path)
    assert str(caught.value) == f"{path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"


LIMIT = csv.field_size_limit()
KEYED = {  # each CSV format: its text with the key ``key`` on line 3, and the keys it reads
    "scores": (lambda key: f"qid,docid,score\nq,d,0.5\nq,{key},0.5\n", parse_scores,
               lambda scores: list(scores["q"])),
    "sequence": (lambda key: f"seq_no,qid\n1,d\n2,{key}\n", read_draws,
                 lambda draws: [draws.qids[i] for i in draws.resolve(draws.qids)]),
    "alignment": (lambda key: f"docid,F,M\nd,1,0\n{key},0,1\n", parse_alignment,
                  lambda parsed: list(parsed[0].docs())),
}


def _every_source(tmp_path, text):
    """A path, a text file object, and lists of lines with and without line ends."""
    path = tmp_path / "input.csv"
    path.write_text(text)
    return [path, io.StringIO(text), text.splitlines(keepends=True), text.splitlines()]


@pytest.mark.parametrize("name", sorted(KEYED))
def test_a_line_longer_than_the_csv_field_limit_reads_when_no_field_is(tmp_path, name):
    text, parse, keys = KEYED[name]
    key = "k" * LIMIT  # as long as a field may be, on a longer line
    for source in _every_source(tmp_path, text(key)):
        assert keys(parse(source)) == ["d", key]


@pytest.mark.parametrize("name", sorted(KEYED))
def test_a_field_longer_than_the_csv_field_limit_fails_at_its_line(tmp_path, name):
    text, parse, keys = KEYED[name]
    long = text("k" * (LIMIT + 1))
    message = f"field larger than field limit ({LIMIT})"
    path, *others = _every_source(tmp_path, long)
    with pytest.raises(ParseError) as caught:
        keys(parse(path))
    assert str(caught.value) == f"{path}: line 3: {message}" and caught.value.line == 3
    for source in others:
        with pytest.raises(csv.Error, match=re.escape(message)):
            keys(parse(source))
    for source in _every_source(tmp_path, long.replace("\n", "\nx\n", 1)):  # a bad line 2 wins
        with pytest.raises(ParseError) as caught:
            keys(parse(source))
        assert caught.value.line == 2


def test_only_the_tokenizer_reads_an_input_or_calls_csv_reader():
    calls = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "fairrank").glob("*.py")):
        for outer in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(outer):
                name = isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None))
                if name in ("reader", "_read"):
                    calls.append((path.name, name, getattr(outer, "name", None)))
    assert sorted(calls) == [("ingest.py", "_read", "_tabulate"),
                             ("ingest.py", "reader", "_tabulate")]


def test_a_config_with_bad_yaml_fails_at_its_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("metrics:\n  - {name: awrf\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: expected ','"):
        load_config(path)
    with pytest.raises(ParseError, match="^line 2: mapping values are not allowed here$"):
        load_config(io.StringIO("protected: F\nthreshold: a: b\n"))


_RUN = "q0 Q0 d1 1 2.0 r\n"
MARKED = {  # each format: its text, a bad second line, and the parse as comparable values
    "run": (_RUN + "q0 Q0 d2 2 1.0 r\n", "x", parse_run,
            lambda run: (run.records, run.rankings)),
    "qrels": ("q0 0 d1 1\nq1 0 d2 2\n", "q0 0 d3", parse_qrels,
              lambda table: {q: table.judged(q) for q in table.requests()}),
    "alignment": ("docid,F,M\nd1,1,0\nd2,0,1\n", "d3,1", parse_alignment,
                  lambda parsed: ({d: parsed[0].row(d).tolist() for d in parsed[0].docs()},
                                  parsed[1])),
    "sequence": ("seq_no,qid\n1,q0\n", "x,q0",
                 lambda source: parse_sequence(source, parse_run(io.StringIO(_RUN))),
                 lambda seq: seq.draws),
    "scores": ("q0,d1,0.5\nq0,d2,0.7\n", "q0,d3", parse_scores, dict),
}


@pytest.mark.parametrize("name", sorted(MARKED))
def test_a_leading_byte_order_mark_reads_alike_from_every_source(tmp_path, name):
    text, bad, parse, value = MARKED[name]
    path, marked = tmp_path / f"{name}.txt", tmp_path / f"marked_{name}.txt"
    path.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    want = value(parse(path))
    assert value(parse(marked)) == want
    with open(marked, encoding="utf-8") as fh:
        assert value(parse(fh)) == want
    lines = text.splitlines()
    assert value(parse(("\ufeff" + text).splitlines(keepends=True))) == want
    assert value(parse(["\ufeff" + lines[0], *lines[1:]])) == want  # lines without line ends
    for source in (io.StringIO(f"\ufeff{lines[0]}\n{bad}\n"), ["\ufeff" + lines[0], bad]):
        with pytest.raises(ParseError) as caught:
            parse(source)
        assert caught.value.line == 2
