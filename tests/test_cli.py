import csv
import errno
import os
import subprocess
import sys

import pytest

from fairrank import GroupSpace
from fairrank.cli import main
from fairrank.compiled import CompiledSystem, Corpus
from fairrank.ingest import (load_config, parse_alignment, parse_qrels, parse_run, parse_scores,
                             read_draws)
from fairrank.pipeline import SharedInputs, evaluate_system
from fairrank.report import read_metrics_table
from fairrank.synth import SynthSpec, generate

from conftest import logged


def _synth(tmp_path, **kw):
    args = dict(n_docs=120, n_requests=12, n_systems=2, depth=12, seed=9,
                exposure_skew=0.5)
    args.update(kw)
    spec = SynthSpec(**args)
    out = tmp_path / "corpus"
    return generate(spec, out), out


def _evaluate_args(paths, out, runs=None, scores=False, extra=()):
    argv = ["evaluate"]
    for p in runs or paths["runs"]:
        argv += ["--run", str(p)]
    argv += ["--qrels", str(paths["qrels"]), "--alignment", str(paths["alignment"]),
             "--sequence", str(paths["sequence"]), "--out", str(out)]
    if scores:
        for p in paths["scores"]:
            argv += ["--scores", str(p)]
    argv.extend(extra)
    return argv


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(n_docs=80, n_requests=8, n_systems=2, seed=4, exposure_skew=0.3)
        generate(spec, tmp_path / "a")
        generate(spec, tmp_path / "b")
        for name in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_files_parse_back(self, tmp_path):
        paths, _ = _synth(tmp_path, unlabeled_fraction=0.1, soft_fraction=0.2)
        run = parse_run(paths["runs"][0])
        assert run.rankings
        rel = parse_qrels(paths["qrels"])
        assert len(rel) > 0
        al, gs = parse_alignment(paths["alignment"])
        assert gs.names[0] == "prot"

    def test_group_domain_guard(self):
        with pytest.raises(Exception, match="group"):
            SynthSpec(n_docs=10, n_requests=2, n_groups=1)

    def test_cli_synth_rejects_bad_groups(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--groups", "1"])
        assert rc == 2

    def test_edge_case_switches(self, tmp_path):
        paths, _ = _synth(tmp_path, empty_protected=True)
        al, _ = parse_alignment(paths["alignment"])
        assert all(al.dense()[:, 0] == 0.0)
        paths2, _ = _synth(tmp_path / "z", zero_relevance_group=True)
        rel = parse_qrels(paths2["qrels"])
        al2, _ = parse_alignment(paths2["alignment"])
        for q in rel.requests():
            for d, grade in rel.judged(q).items():
                row = al2.row(d)
                if row is not None and row[0] >= 0.5:
                    assert grade == 0.0


class TestEvaluate:
    def test_default_battery_and_outputs(self, tmp_path):
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        rc = main(_evaluate_args(paths, out, scores=True))
        assert rc == 0
        rows = read_metrics_table(out / "metrics.csv")
        metrics = {r.metric for r in rows}
        assert {"AWRF", "AWRF_equal", "FAIR", "EED", "EEL", "EER", "prefD",
                "DP", "logDP", "IAA", "IntraAcc", "InterAcc"} <= metrics
        assert {r.system for r in rows} == {"sys00", "sys01"}

    def test_pair_on_pools_smaller_than_n_negatives_logs_no_note(self, tmp_path, capsys):
        # every request's negative pool is far below the default n_negatives: counted whole
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        assert main(_evaluate_args(paths, out, scores=True)) == 0
        assert {"IntraAcc", "InterAcc"} <= {r.metric for r in read_metrics_table(out / "metrics.csv")}
        assert not [m for m in logged(capsys) if "PAIR" in m]

    def test_scores_missing_skips_pair_and_iaa(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        rc = main(_evaluate_args(paths, out, scores=False))
        assert rc == 0
        metrics = {r.metric for r in read_metrics_table(out / "metrics.csv")}
        assert "IAA" not in metrics and "IntraAcc" not in metrics
        messages = logged(capsys, "WARNING")
        for system in ("sys00", "sys01"):
            for label in ("IAA", "PAIR"):
                assert f"{system}: {label}: skipped (system score file not provided)" in messages

    def test_non_finite_metric_row_dropped_and_logged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fairrank.pipeline.eed", lambda eps: float("inf"))
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        rc = main(_evaluate_args(paths, out))
        assert rc == 0
        metrics = {r.metric for r in read_metrics_table(out / "metrics.csv")}
        assert "EED" not in metrics and "AWRF" in metrics
        assert any("EED: degenerate (EED value inf is not finite)" in m
                   for m in logged(capsys, "WARNING"))

    def test_malformed_run_exits_2(self, tmp_path):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 one 3.5 tag\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[bad]))
        assert rc == 2

    def test_parse_error_names_the_run_file(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 1 3.5 tag\nq0000 Q0 d000002 x 3.0 tag\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[paths["runs"][0], bad]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [f"{bad}: line 2: rank 'x' is not an integer"]

    def test_csv_field_over_the_size_limit_names_file_and_line(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        bad = paths["scores"][0]
        lines = bad.read_text().split("\n")
        lines[2] = "q0000," + "d" * (csv.field_size_limit() + 10) + ",0.5"
        bad.write_text("\n".join(lines))
        rc = main(_evaluate_args(paths, tmp_path / "out", scores=True))
        assert rc == 2
        assert logged(capsys, "ERROR") == [
            f"{bad}: line 3: field larger than field limit ({csv.field_size_limit()})"]

    def test_explicit_degenerate_metric_exits_3(self, tmp_path):
        paths, _ = _synth(tmp_path, zero_relevance_group=True)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics:\n  - name: eur\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 3

    @pytest.mark.parametrize("name", ["fair", "awrf"])
    def test_custom_target_of_the_wrong_width_fails(self, tmp_path, capsys, name):
        # the corpus has two groups: a three-entry target fits neither FAIR nor AWRF
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"metrics:\n  - {{name: {name}, target: custom, "
                       "custom_target: [0.3, 0.2, 0.5]}\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert any("custom target has 3 entries for 2 groups" in m
                   for m in logged(capsys, "ERROR"))
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("target, reason", [
        ("[0.3333333, 0.6666666]", "target distribution must sum to 1"),
        ("[1.5, -0.5]", "target entries must lie in [0, 1]"),
    ])
    def test_custom_target_that_is_no_distribution_fails_at_load(self, tmp_path, capsys,
                                                                 target, reason):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"metrics:\n  - {{name: fair, target: custom, custom_target: {target}}}\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert (f"metrics[0].custom_target: ParameterOutOfDomain: {reason}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_custom_target_width_is_checked_before_any_run_is_parsed(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 x 3.5 tag\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics: [{name: fair, target: custom, custom_target: [0.3, 0.2, 0.5]}]\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[paths["runs"][0], bad],
                                 extra=["--config", str(cfg)]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [
            "metrics[0].custom_target: custom target has 3 entries for 2 groups"]

    @pytest.mark.parametrize("metrics, row", [
        ("[{name: awrf}, {name: awrf}]", "AWRF"),
        ("[{name: pair}, {name: pair}]", "IntraAcc"),
        ("[{name: dp, label: X}, {name: awrf, label: logX}]", "logX"),
        ("[{name: eel, label: EER}, {name: eel}]", "EER"),
    ])
    def test_a_repeated_row_fails_before_any_run_is_parsed(self, tmp_path, capsys, metrics, row):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 x 3.5 tag\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"metrics: {metrics}\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[bad], scores=True,
                                 extra=["--config", str(cfg)]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [f"metrics[1]: row {row!r} is also written by metrics[0]"]

    def test_a_log_row_of_another_entrys_row_exits_2_at_its_label(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics: [{name: fair, label: P}, {name: awrf, label: logP}]\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2 and not (tmp_path / "out" / "metrics.csv").exists()
        assert logged(capsys, "ERROR") == [
            "metrics[1].label: row 'logP' reads as the log form of row 'P', which metrics[0] "
            "writes"]

    def test_a_labelled_pair_writes_rows_of_its_own(self, tmp_path):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics: [{name: pair}, {name: pair, label: P3, n_negatives: 3}]\n")
        out = tmp_path / "out"
        assert main(_evaluate_args(paths, out, scores=True, extra=["--config", str(cfg)])) == 0
        rows = [(r.system, r.metric) for r in read_metrics_table(out / "metrics.csv")]
        assert sorted(rows) == [(system, metric) for system in ("sys00", "sys01") for metric in
                                ("InterAcc", "IntraAcc", "P3_InterAcc", "P3_IntraAcc")]
        assert main(["compare", "--results", str(out)]) == 0

    def test_a_labelled_ratio_row_enters_the_matrix_as_its_log_form(self, tmp_path):
        paths, _ = _synth(tmp_path, n_systems=3)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics: [{name: dp}, {name: dp, label: DP_rbp, weight_model: rbp}, "
                       "{name: awrf}]\n")
        out = tmp_path / "out"
        assert main(_evaluate_args(paths, out, extra=["--config", str(cfg)])) == 0
        assert {r.metric for r in read_metrics_table(out / "metrics.csv")} == {
            "DP", "logDP", "DP_rbp", "logDP_rbp", "AWRF"}
        assert main(["compare", "--results", str(out)]) == 0
        with open(out / "correlations.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["metric", "AWRF", "logDP", "logDP_rbp"]

    def test_unknown_config_key_exits_2(self, tmp_path):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        for text in ("nonsense: true\n", "signed_correlation: true\n", "seed: 42\n"):
            cfg.write_text(text)
            rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
            assert rc == 2, text

    def test_a_familys_request_weighting_is_no_config_key(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics:\n  - {name: prefd, request_weighting: arrival}\n")
        assert main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)])) == 2
        assert "request_weighting" in capsys.readouterr().err

    def test_there_is_no_verbose_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-v", "compare", "--results", str(tmp_path)])
        assert exc.value.code == 2 and "-v" in capsys.readouterr().err

    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics:\n  - {name: awrf, gamma: x}\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert "metrics[0].gamma: expected float, got 'x'" in capsys.readouterr().err

    def test_config_with_bad_yaml_exits_2_at_its_line(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("metrics:\n  - {name: awrf\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [
            f"{cfg}: line 3: expected ',' or '}}', but got '<stream end>'"]

    def test_run_that_is_not_utf8_exits_2_at_its_line(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_bytes(b"q0000 Q0 d000001 1 3.5 tag\r\nq0000 Q0 d\xe9 2 3.0 tag\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[paths["runs"][0], bad]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [
            f"{bad}: line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)"]

    @pytest.mark.parametrize("name", ["run", "qrels", "scores", "alignment", "sequence", "config"])
    def test_a_leading_byte_order_mark_changes_no_output(self, tmp_path, capsys, name):
        paths, _ = _synth(tmp_path)
        config = tmp_path / "config.yaml"
        config.write_text("unknown_policy: exclude\n")
        files = {"run": paths["runs"][0], "qrels": paths["qrels"], "scores": paths["scores"][0],
                 "alignment": paths["alignment"], "sequence": paths["sequence"], "config": config}
        outputs = []
        for out in ("plain", "marked"):
            rc = main(_evaluate_args(paths, tmp_path / out, scores=True,
                                     extra=["--config", str(config)]))
            outputs.append((rc, logged(capsys, "WARNING"),
                            (tmp_path / out / "metrics.csv").read_bytes()))
            files[name].write_bytes(b"\xef\xbb\xbf" + files[name].read_bytes())
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_shared_inputs_are_built_once_per_evaluate(self, tmp_path, monkeypatch):
        # three runs: the qrels, alignment and sequence files are each read once, and
        # the judgments are numbered once, for all systems
        import fairrank.compiled
        import fairrank.ingest

        paths, _ = _synth(tmp_path, n_systems=3, max_draws=3)
        reads, corpora = [], []
        read_text, corpus_init = fairrank.ingest._read_text, fairrank.compiled.Corpus.__init__

        def counted_read(path):
            reads.append(str(path))
            return read_text(path)

        def counted_corpus(self, *args, **kwargs):
            corpora.append(self)
            corpus_init(self, *args, **kwargs)

        monkeypatch.setattr(fairrank.ingest, "_read_text", counted_read)
        monkeypatch.setattr(fairrank.compiled.Corpus, "__init__", counted_corpus)
        assert main(_evaluate_args(paths, tmp_path / "out", scores=True)) == 0
        for name in ("qrels", "alignment", "sequence"):
            assert reads.count(str(paths[name])) == 1, name
        for path in (*paths["runs"], *paths["scores"]):
            assert reads.count(str(path)) == 1, path
        assert len(corpora) == 1

    @staticmethod
    def _two_systems(tmp_path, runs):
        """A corpus of two hand-written runs over the same requests, labeled a to c."""
        (tmp_path / "qrels.txt").write_text("q1 0 a 1\nq1 0 b 0\n")
        (tmp_path / "alignment.csv").write_text("docid,P,U\na,1,0\nb,0,1\nc,1,0\n")
        (tmp_path / "sequence.csv").write_text("seq_no,qid\n1,q1\n2,q2\n3,q1\n")
        paths = {"qrels": tmp_path / "qrels.txt", "alignment": tmp_path / "alignment.csv",
                 "sequence": tmp_path / "sequence.csv", "runs": []}
        for name, text in runs.items():
            paths["runs"].append(tmp_path / f"{name}.txt")
            paths["runs"][-1].write_text(text)
        return paths

    def test_unknown_policy_error_names_each_systems_own_documents(self, tmp_path, capsys):
        # the corpus holds three unlabeled documents, "m" and "x" of the second
        # system and "z" of the first: each system reports its own count and first one
        paths = self._two_systems(tmp_path, {
            "first": "q1 Q0 a 1 1 first\nq1 Q0 z 2 1 first\nq2 Q0 c 1 1 first\n",
            "second": "q1 Q0 x 1 1 second\nq2 Q0 m 1 1 second\nq2 Q0 a 2 1 second\n"})
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("unknown_policy: error\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert logged(capsys, "ERROR") == ["1 unlabeled documents (first: 'z')"]
        paths["runs"].reverse()
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert logged(capsys, "ERROR") == ["2 unlabeled documents (first: 'm')"]

    def test_unknown_policy_group_rows_of_other_systems_change_no_value(self, tmp_path):
        paths, _ = _synth(tmp_path, n_systems=3, unlabeled_fraction=0.3, max_draws=3)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("unknown_policy: group\n")
        extra = ["--config", str(cfg)]
        assert main(_evaluate_args(paths, tmp_path / "all", scores=True, extra=extra)) == 0
        together = [r for r in read_metrics_table(tmp_path / "all" / "metrics.csv")
                    if r.system == "sys01"]
        alone_paths = dict(paths, runs=[paths["runs"][1]], scores=[paths["scores"][1]])
        assert main(_evaluate_args(alone_paths, tmp_path / "one", scores=True, extra=extra)) == 0
        assert read_metrics_table(tmp_path / "one" / "metrics.csv") == together

    def test_protected_group_named_rest(self, tmp_path):
        # binarize names the other group "rest", which must not collide with a protected "rest"
        paths, _ = _synth(tmp_path)
        assert main(_evaluate_args(paths, tmp_path / "before")) == 0
        text = paths["alignment"].read_text().split("\n", 1)[1]
        paths["alignment"].write_text("docid,rest,other\n" + text)
        assert main(_evaluate_args(paths, tmp_path / "after")) == 0
        assert ((tmp_path / "after" / "metrics.csv").read_bytes()
                == (tmp_path / "before" / "metrics.csv").read_bytes())

    def test_runs_that_resolve_to_one_system_name_exit_2(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        run = paths["runs"][0]
        copies = [tmp_path / d / "run.txt" for d in ("a", "b")]
        for copy in copies:  # the same tag and the same stem
            copy.parent.mkdir()
            copy.write_bytes(run.read_bytes())
        for runs in ([run, run], copies):
            rc = main(_evaluate_args(paths, tmp_path / "out", runs=runs))
            assert rc == 2
            assert (f"runs {runs[0]} and {runs[1]} both resolve to system name "
                    f"{runs[0].stem!r}") in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header, message", [
        ("docid,prot,prot", "alignment header repeats group label 'prot'"),
        ("docid,prot, prot", "alignment header repeats group label 'prot'"),
        ("docid,prot,", "alignment header has an empty group label"),
    ])
    def test_a_bad_alignment_header_exits_2_at_line_1(self, tmp_path, capsys, header, message):
        paths, _ = _synth(tmp_path)
        rows = paths["alignment"].read_text().split("\n", 1)[1]
        # a bad second line too: the header is checked before any data row is read
        paths["alignment"].write_text(f"{header}\nd000001,x,y\n{rows}")
        assert main(_evaluate_args(paths, tmp_path / "out")) == 2
        assert logged(capsys, "ERROR") == [f"{paths['alignment']}: line 1: {message}"]

    def test_a_one_group_alignment_exits_2_before_any_run_is_parsed(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path)
        docs = [line.split(",", 1)[0] for line in paths["alignment"].read_text().split("\n")[1:]]
        paths["alignment"].write_text("docid,a\n" + "".join(f"{d},1\n" for d in docs if d))
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 x 3.5 tag\n")  # would fail at line 1 if parsed
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[paths["runs"][0], bad]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [
            f"{paths['alignment']}: line 1: alignment header names one group; "
            "evaluate needs at least 2"]
        assert not (tmp_path / "out" / "metrics.csv").exists()
        # the library still reads such a file
        assert parse_alignment(paths["alignment"])[1].names == ("a",)

    @pytest.mark.parametrize("key", ["protected", "unknown"])
    def test_a_group_label_the_alignment_lacks_exits_2_at_its_key(self, tmp_path, capsys, key):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: zz\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert logged(capsys, "ERROR") == [f"{key}: unknown group label 'zz'"]


class TestCompare:
    def test_matrix_shape(self, tmp_path):
        paths, _ = _synth(tmp_path, n_systems=4)
        out = tmp_path / "out"
        assert main(_evaluate_args(paths, out)) == 0
        assert main(["compare", "--results", str(out), "--long"]) == 0
        lines = (out / "correlations.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == len(header)  # metric column + square matrix
        assert (out / "correlations_long.csv").exists()

    def test_single_system_exits_4(self, tmp_path):
        paths, _ = _synth(tmp_path, n_systems=1)
        out = tmp_path / "out"
        assert main(_evaluate_args(paths, out, runs=paths["runs"][:1])) == 0
        assert main(["compare", "--results", str(out)]) == 4

    def test_missing_results_exits_2(self, tmp_path):
        assert main(["compare", "--results", str(tmp_path)]) == 2

    def test_negative_counts_exit_2_with_the_line(self, tmp_path, capsys):
        table = tmp_path / "metrics.csv"
        table.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                         "A,X,0.5,-4,-7,ZeroIsFair\nB,X,0.25,10,0,ZeroIsFair\n"
                         "A,Y,0.5,10,0,ZeroIsFair\nB,Y,0.75,10,0,ZeroIsFair\n")
        assert main(["compare", "--results", str(tmp_path)]) == 2
        assert ("metrics.csv:2: bad metrics row (degenerate count is negative)"
                in capsys.readouterr().err)
        assert not (tmp_path / "correlations.csv").exists()

    def test_an_os_error_without_a_file_name_exits_2_as_an_io_error(self, tmp_path, capsys,
                                                                     monkeypatch):
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        (tmp_path / "metrics.csv").write_text(
            "system,metric,value,n_requests,n_degenerate,direction\n"
            "A,X,0.5,10,0,ZeroIsFair\nB,X,0.25,10,0,ZeroIsFair\n"
            "A,Y,0.5,10,0,ZeroIsFair\nB,Y,0.75,10,0,ZeroIsFair\n")
        monkeypatch.setattr("fairrank.cli.emit_correlations", full)
        assert main(["compare", "--results", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "ERROR i/o error: No space left on device\n"

    def test_a_byte_order_mark_changes_no_output(self, tmp_path):
        text = ("system,metric,value,n_requests,n_degenerate,direction\n"
                "A,X,0.5,10,0,ZeroIsFair\nB,X,0.25,10,0,ZeroIsFair\n"
                "A,Y,0.5,10,1,ZeroIsFair\nB,Y,0.75,10,0,ZeroIsFair\n")
        written = []
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            results = tmp_path / name
            results.mkdir()
            (results / "metrics.csv").write_text(mark + text, encoding="utf-8")
            assert main(["compare", "--results", str(results), "--long"]) == 0
            written.append([(results / f).read_bytes()
                            for f in ("correlations.csv", "correlations_long.csv")])
        assert written[0] == written[1]

    def test_writes_only_the_correlation_tables(self, tmp_path):
        table = tmp_path / "results" / "metrics.csv"
        table.parent.mkdir()
        # not in emit_tables' (system, metric) order, which compare must not impose
        table.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                         "A,X,0.5,10,0,ZeroIsFair\nB,X,0.25,10,0,ZeroIsFair\n"
                         "A,Y,0.5,10,1,ZeroIsFair\nB,Y,0.75,10,0,ZeroIsFair\n")
        before, stamp = table.read_bytes(), table.stat().st_mtime_ns
        assert main(["compare", "--results", str(table.parent), "--long"]) == 0
        assert main(["compare", "--results", str(table.parent), "--long",
                     "--out", str(tmp_path / "out")]) == 0
        assert table.read_bytes() == before and table.stat().st_mtime_ns == stamp
        assert sorted(p.name for p in table.parent.iterdir()) == [
            "correlations.csv", "correlations_long.csv", "metrics.csv"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "correlations.csv", "correlations_long.csv"]

    def test_repeated_metrics_row_exits_2_and_writes_nothing(self, tmp_path, capsys):
        paths, _ = _synth(tmp_path, n_systems=2)
        out = tmp_path / "out"
        assert main(_evaluate_args(paths, out)) == 0
        table = out / "metrics.csv"
        lines = table.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        before = "".join(lines) + ",".join(fields[:2] + ["123.0"] + fields[3:])
        table.write_text(before)
        assert main(["compare", "--results", str(out)]) == 2
        assert f"metrics.csv:{len(lines) + 1}: repeated row" in capsys.readouterr().err
        assert table.read_text() == before
        assert not (out / "correlations.csv").exists()


class TestEndToEndDeterminism:
    def test_evaluate_compare_byte_identical(self, tmp_path):
        paths, _ = _synth(tmp_path, n_systems=3, exposure_skew=0.6)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(_evaluate_args(paths, out, scores=True)) == 0
            assert main(["compare", "--results", str(out)]) == 0
            outs.append(out)
        for fname in ("metrics.csv", "correlations.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_inputs_in_memory_give_the_rows_evaluate_writes(tmp_path):
    """``Corpus``, ``SharedInputs``, ``CompiledSystem`` and ``evaluate_system`` on parsed
    inputs give the rows that ``evaluate`` writes for the same files (the benchmark's
    ``smoke`` corpus at seed 42, with a score file per system)."""
    paths = generate(SynthSpec(n_docs=600, n_requests=40, n_systems=10, depth=20, seed=42,
                               exposure_skew=0.6, relevance_skew=0.4, unlabeled_fraction=0.05),
                     tmp_path / "corpus")
    assert main(_evaluate_args(paths, tmp_path / "out", scores=True)) == 0

    qrels = parse_qrels(paths["qrels"])
    alignment, groups = parse_alignment(paths["alignment"])
    runs = [parse_run(p) for p in paths["runs"]]
    scores = [parse_scores(p) for p in paths["scores"]]
    draws = read_draws(paths["sequence"])
    corpus = Corpus([*(run.table.docs for run in runs), *(s.docs for s in scores)], qrels)
    shared = SharedInputs(corpus, qrels, alignment, GroupSpace(groups.names, protected_index=0),
                          load_config(None))
    rows = []
    for run, score in zip(runs, scores):
        view = CompiledSystem(corpus, run.table, draws.resolve(run.table.requests), score)
        rows += evaluate_system(run.tag, view, shared).results
    rows.sort(key=lambda r: (r.system, r.metric))
    assert list(map(repr, rows)) == list(map(repr, read_metrics_table(tmp_path / "out" /
                                                                      "metrics.csv")))


def test_cli_import_loads_no_scipy():
    code = "import sys, fairrank.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _run_python(code):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_package_and_cli_import_load_no_numpy_yaml_ingest_or_pipeline():
    code = ("import sys, fairrank, fairrank.cli; print(sorted(m for m in ('numpy', 'yaml', "
            "'fairrank.ingest', 'fairrank.pipeline') if m in sys.modules))")
    assert _run_python(code) == "[]"


def test_compare_loads_no_dataclasses_inspect_or_logging(tmp_path):
    table = tmp_path / "metrics.csv"
    table.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                     "A,X,0.5,10,0,ZeroIsFair\nB,X,0.25,10,0,ZeroIsFair\n"
                     "A,Y,0.5,10,0,ZeroIsFair\nB,Y,0.75,10,0,ZeroIsFair\n")
    code = ("import sys; from fairrank.cli import main; code = main(%r); "
            "print(code, sorted(m for m in ('dataclasses', 'inspect', 'logging') "
            "if m in sys.modules))")
    assert _run_python(code % ["compare", "--results", str(tmp_path)]) == "0 []"


def test_evaluate_script_loads_neither_dataclasses_nor_logging(tmp_path):
    paths, _ = _synth(tmp_path)
    code = ("import sys; from fairrank import cli; sys.argv = ['fairrank', *%r]\n"
            "try:\n    cli.script()\nexcept SystemExit as exc:\n"
            "    print(exc.code, sorted(m for m in ('dataclasses', 'logging') "
            "if m in sys.modules))")
    assert _run_python(code % _evaluate_args(paths, tmp_path / "out", scores=True)) == "0 []"


def test_no_fairrank_module_imports_logging_or_dataclasses():
    code = ("import importlib, pkgutil, sys, fairrank\n"
            "for info in pkgutil.iter_modules(fairrank.__path__):\n"
            "    importlib.import_module('fairrank.' + info.name)\n"
            "print(sorted(m for m in ('dataclasses', 'logging') if m in sys.modules))")
    assert _run_python(code) == "[]"


def test_compare_runs_without_numpy_and_writes_the_same_tables(tmp_path):
    paths, _ = _synth(tmp_path, n_systems=3, exposure_skew=0.6)
    out = tmp_path / "out"
    assert main(_evaluate_args(paths, out, scores=True)) == 0
    assert main(["compare", "--results", str(out), "--long", "--out", str(tmp_path / "with")]) == 0
    argv = ["compare", "--results", str(out), "--long", "--out", str(tmp_path / "without")]
    code = ("import sys; sys.modules['numpy'] = None; from fairrank.cli import main; "
            "print(main(%r))" % argv)
    assert _run_python(code) == "0"
    for name in ("correlations.csv", "correlations_long.csv"):
        want = (tmp_path / "with" / name).read_bytes()
        assert (tmp_path / "without" / name).read_bytes() == want, name


def _command(argv):
    """Run ``python -m fairrank.cli`` on ``argv``; its exit code and stderr lines."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "fairrank.cli", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stderr.splitlines()


def test_command_stderr_is_one_level_and_message_per_line_in_order(tmp_path):
    # one repeated qrels line, alignment row and score line: each warns as it is parsed,
    # before the per-system notes and the closing line
    paths, _ = _synth(tmp_path, zero_relevance_group=True)
    for path, line in ((paths["qrels"], 0), (paths["alignment"], 1), (paths["scores"][0], 1)):
        text = path.read_text()
        path.write_text(text + text.splitlines(keepends=True)[line])
    out = tmp_path / "out"
    notes = ["WARNING sys00: prefD: 12 draws scored by edge-case convention",
             "WARNING sys00: DP: ratio is zero; log row omitted",
             *(f"WARNING {system}: {label}: degenerate ({reason})" for system in ("sys00", "sys01")
               for label, reason in (
                   ("EUR", "a group's mean relevance is zero; ratio undefined"),
                   ("RUR", "a group's mean relevance is zero; ratio undefined"),
                   ("PAIR", "no pairs with groups (0, 0)")))]
    assert _command(_evaluate_args(paths, out, scores=True)) == (0, [
        "WARNING qrels line 577 overrides earlier grade for (q0000, d000002)",
        "WARNING alignment line 122 overrides earlier row for d000000",
        "WARNING scores line 578 overrides earlier score for (q0000, d000002)",
        *notes,
        f"INFO wrote {out / 'metrics.csv'}"])
    assert _command(["compare", "--results", str(out)]) == (
        0, ["INFO wrote correlation matrix over 9 metrics"])
    bad = tmp_path / "bad_run.txt"
    bad.write_text("q0000 Q0 d000001 x 3.5 tag\n")
    assert _command(_evaluate_args(paths, tmp_path / "bad", runs=[bad])) == (2, [
        "WARNING qrels line 577 overrides earlier grade for (q0000, d000002)",
        "WARNING alignment line 122 overrides earlier row for d000000",
        f"ERROR {bad}: line 1: rank 'x' is not an integer"])


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    import gc

    paths, _ = _synth(tmp_path)
    frozen = gc.get_freeze_count()
    assert main(_evaluate_args(paths, tmp_path / "out")) == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen


def test_script_entry_freezes_the_array_stack_for_evaluate_only(tmp_path):
    # the fairrank command runs in a process of its own: evaluate's modules load with
    # the collector off and are then frozen, and the collector is back on for the run
    paths, _ = _synth(tmp_path, n_systems=3)
    assert main(_evaluate_args(paths, tmp_path / "out")) == 0
    code = ("import gc, sys; from fairrank import cli; sys.argv = ['fairrank', *%r]\n"
            "try:\n    cli.script()\nexcept SystemExit as exc:\n"
            "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)")
    argv = _evaluate_args(paths, tmp_path / "again")
    assert _run_python(code % argv) == "0 True True"
    assert _run_python(code % ["compare", "--results", str(tmp_path / "out")]) == "0 True False"


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child(args, threads):
    """Run ``args`` in a Python child whose only BLAS thread setting is ``threads``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(threads, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def test_script_entry_runs_evaluate_with_one_blas_thread_unless_set(tmp_path):
    # evaluate's numpy loads with OMP_NUM_THREADS=1 unless a BLAS thread count is set, so no
    # idle pool runs beside the main thread; compare loads no numpy and sets nothing
    paths, _ = _synth(tmp_path)
    assert main(_evaluate_args(paths, tmp_path / "out")) == 0
    code = ("import os, sys; from fairrank import cli; sys.argv = ['fairrank', *%r]\n"
            "try:\n    cli.script()\nexcept SystemExit as exc:\n"
            "    status = '/proc/self/status'\n"
            "    threads = [line.split()[1] for line in open(status) if line.startswith('Threads:')]"
            " if os.path.exists(status) else ['-']\n"
            "    print(exc.code, *(os.environ.get(k, '-') for k in %r), *threads)")
    evaluate, compare = (code % (argv, BLAS_THREADS) for argv in (
        _evaluate_args(paths, tmp_path / "again"), ["compare", "--results", str(tmp_path / "out")]))
    alone = "1" if os.path.exists("/proc/self/status") else "-"
    assert _child(["-c", evaluate], {}).stdout.split() == ["0", "1", "-", "-", alone]
    assert _child(["-c", evaluate], {"OMP_NUM_THREADS": "2"}).stdout.split()[:4] == [
        "0", "2", "-", "-"]
    assert _child(["-c", evaluate], {"OPENBLAS_NUM_THREADS": "2"}).stdout.split()[:4] == [
        "0", "1", "2", "-"]
    assert _child(["-c", compare], {}).stdout.split()[:4] == ["0", "-", "-", "-"]


def test_no_metric_depends_on_the_blas_thread_count(tmp_path):
    # the matmuls and dots of IAA, EEL, EUR and EED, and a cascade AWRF with rbp EED and EEL
    paths, _ = _synth(tmp_path, n_systems=3, n_requests=20, soft_fraction=0.2)
    config = tmp_path / "cascade.yaml"
    config.write_text("metrics:\n  - {name: awrf, weight_model: cascade}\n"
                      "  - {name: eed, weight_model: rbp}\n  - {name: eel, weight_model: rbp}\n")
    for name, extra in (("battery", ()), ("cascade", ("--config", str(config)))):
        tables = []
        for threads in ({"OMP_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = tmp_path / name / next(iter(threads))
            _child(["-m", "fairrank.cli", *_evaluate_args(paths, out, scores=True, extra=extra)],
                   threads)
            tables.append((out / "metrics.csv").read_bytes())
        assert tables[0] == tables[1], name


def test_evaluate_loads_no_yaml_numpy_ma_or_numpy_random(tmp_path):
    # no config file: none of these is needed, and only the synth command needs
    # fairrank.synth; a config needs yaml, and pair counts draw nothing even when
    # every negative pool is larger than n_negatives
    paths, _ = _synth(tmp_path)
    config = tmp_path / "pair.yaml"
    config.write_text("metrics: [{name: pair, n_negatives: 1}]\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for name, extra, loaded in (("out", (), "[]"), ("pair", ("--config", str(config)), "['yaml']")):
        argv = _evaluate_args(paths, tmp_path / name, scores=True, extra=extra)
        code = ("import sys; from fairrank.cli import main; rc = main(%r); "
                "print(rc, sorted(m for m in ('yaml', 'numpy.ma', 'numpy.random', 'fairrank.synth') "
                "if m in sys.modules))" % argv)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == f"0 {loaded}", name
    assert {"IAA", "IntraAcc", "EEL"} <= {r.metric for r in read_metrics_table(tmp_path / "out" / "metrics.csv")}
    assert {r.metric for r in read_metrics_table(tmp_path / "pair" / "metrics.csv")} == {
        "IntraAcc", "InterAcc"}
