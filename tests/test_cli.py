import os
import subprocess
import sys

import pytest

from fairrank.cli import main
from fairrank.ingest import parse_alignment, parse_qrels, parse_run
from fairrank.report import read_metrics_table
from fairrank.synth import SynthSpec, generate


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
    def test_default_battery_and_outputs(self, tmp_path, caplog):
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        rc = main(_evaluate_args(paths, out, scores=True))
        assert rc == 0
        rows = read_metrics_table(out / "metrics.csv")
        metrics = {r.metric for r in rows}
        assert {"AWRF", "AWRF_equal", "FAIR", "EED", "EEL", "EER", "prefD",
                "DP", "logDP", "IAA", "IntraAcc", "InterAcc"} <= metrics
        assert {r.system for r in rows} == {"sys00", "sys01"}

    def test_scores_missing_skips_pair_and_iaa(self, tmp_path, caplog):
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="fairrank"):
            rc = main(_evaluate_args(paths, out, scores=False))
        assert rc == 0
        metrics = {r.metric for r in read_metrics_table(out / "metrics.csv")}
        assert "IAA" not in metrics and "IntraAcc" not in metrics
        assert any("skipped" in r.message for r in caplog.records)

    def test_non_finite_metric_row_dropped_and_logged(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr("fairrank.pipeline.eed", lambda eps: float("inf"))
        paths, _ = _synth(tmp_path)
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="fairrank"):
            rc = main(_evaluate_args(paths, out))
        assert rc == 0
        metrics = {r.metric for r in read_metrics_table(out / "metrics.csv")}
        assert "EED" not in metrics and "AWRF" in metrics
        assert any("EED: degenerate (EED value inf is not finite)" in r.message
                   for r in caplog.records)

    def test_malformed_run_exits_2(self, tmp_path):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 one 3.5 tag\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", runs=[bad]))
        assert rc == 2

    def test_parse_error_names_the_run_file(self, tmp_path, caplog):
        paths, _ = _synth(tmp_path)
        bad = tmp_path / "bad_run.txt"
        bad.write_text("q0000 Q0 d000001 1 3.5 tag\nq0000 Q0 d000002 x 3.0 tag\n")
        with caplog.at_level("ERROR", logger="fairrank"):
            rc = main(_evaluate_args(paths, tmp_path / "out", runs=[paths["runs"][0], bad]))
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"{bad}: line 2: rank 'x' is not an integer"]

    def test_explicit_degenerate_metric_exits_3(self, tmp_path):
        paths, _ = _synth(tmp_path, zero_relevance_group=True)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("metrics:\n  - name: eur\n")
        rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 3

    @pytest.mark.parametrize("name", ["fair", "awrf"])
    def test_custom_target_of_the_wrong_width_fails(self, tmp_path, caplog, name):
        # the corpus has two groups: a three-entry target fits neither FAIR nor AWRF
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"metrics:\n  - {{name: {name}, target: custom, "
                       "custom_target: [0.3, 0.2, 0.5]}\n")
        with caplog.at_level("ERROR", logger="fairrank"):
            rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
        assert rc == 2
        assert any("custom target has 3 entries for 2 groups" in r.getMessage()
                   for r in caplog.records)
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        paths, _ = _synth(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        for text in ("nonsense: true\n", "signed_correlation: true\n"):
            cfg.write_text(text)
            rc = main(_evaluate_args(paths, tmp_path / "out", extra=["--config", str(cfg)]))
            assert rc == 2, text


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


def test_cli_import_loads_no_scipy():
    code = "import sys, fairrank.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_evaluate_loads_no_yaml_numpy_ma_or_numpy_random(tmp_path):
    # no config file and no pool larger than n_negatives: none of these is needed,
    # and only the synth command needs fairrank.synth
    paths, _ = _synth(tmp_path)
    argv = _evaluate_args(paths, tmp_path / "out", scores=True)
    code = ("import sys; from fairrank.cli import main; rc = main(%r); "
            "print(rc, sorted(m for m in ('yaml', 'numpy.ma', 'numpy.random', 'fairrank.synth') "
            "if m in sys.modules))" % argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
    assert {"IAA", "IntraAcc", "EEL"} <= {r.metric for r in read_metrics_table(tmp_path / "out" / "metrics.csv")}
