import math

import numpy as np
import pytest

from fairrank import (
    AllDegenerate,
    Degenerate,
    Direction,
    FairRankError,
    MetricResult,
    correlation_matrix,
    emit_tables,
    kendall_tau_c,
)
from fairrank.report import emit_correlations, read_metrics_table

from oracles import aggregate, oracle_tau_c, oracle_tau_c_pairs


def _result(metric, system, value, direction=Direction.ZERO_IS_FAIR):
    return MetricResult(metric, system, value, 10, 0, direction)


class TestAggregate:
    """The reference row of ``pipeline._per_draw`` that ``oracles.oracle_per_draw`` builds."""

    def test_mean(self):
        res = aggregate({"q1": 0.2, "q2": 0.4}, {}, "AWRF", "s", Direction.ZERO_IS_FAIR)
        assert res.value == pytest.approx(0.3)
        assert res.n_requests == 2
        assert res.n_degenerate == 0

    def test_degenerate_excluded(self):
        res = aggregate({"q1": 0.2}, {"q2": "no_labeled_docs"}, "AWRF", "s",
                        Direction.ZERO_IS_FAIR)
        assert res.value == pytest.approx(0.2)
        assert res.n_requests == 2
        assert res.n_degenerate == 1

    def test_all_degenerate(self):
        with pytest.raises(AllDegenerate):
            aggregate({}, {"q1": "x", "q2": "y"}, "AWRF", "s", Direction.ZERO_IS_FAIR)

    def test_permutation_invariant(self):
        vals = {f"q{i}": float(i) for i in range(7)}
        r1 = aggregate(vals, {}, "m", "s", Direction.ZERO_IS_FAIR)
        r2 = aggregate(dict(reversed(list(vals.items()))), {}, "m", "s", Direction.ZERO_IS_FAIR)
        assert r1.value == r2.value


class TestMetricResult:
    def test_non_finite_value_is_degenerate(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(Degenerate, match="not finite"):
                _result("AWRF", "s", value)


class TestKendallTauC:
    def test_identical_orderings(self):
        assert kendall_tau_c([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        assert kendall_tau_c([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value_one_swap(self):
        assert kendall_tau_c([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)

    def test_constant_list_undefined(self):
        with pytest.raises(Degenerate):
            kendall_tau_c([1, 1, 1], [1, 2, 3])

    def test_antisymmetry_under_reversal(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.permutation(6).astype(float)
            y = rng.permutation(6).astype(float)
            t = kendall_tau_c(x, y)
            assert kendall_tau_c(x, -y) == pytest.approx(-t)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.random(7)
            y = rng.random(7)
            t = kendall_tau_c(x, y)
            assert kendall_tau_c(np.exp(4 * x), y) == pytest.approx(t)
            assert kendall_tau_c(x, y**3 + 5) == pytest.approx(t)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            x = rng.integers(0, 4, n).astype(float)
            y = rng.integers(0, 4, n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau_c(x, y) == pytest.approx(oracle_tau_c(x, y), abs=1e-12)
            assert kendall_tau_c(x, y) == pytest.approx(oracle_tau_c_pairs(x, y), abs=1e-12)

    def test_direction_orientation(self):
        # same ordering, but one metric is zero-is-fair: orientation flips it back
        x = [0.1, 0.2, 0.3]   # zero-is-fair: smaller is fairer
        y = [0.9, 0.5, 0.2]   # one-is-fair: larger is fairer
        t = kendall_tau_c(x, y, Direction.ZERO_IS_FAIR, Direction.ONE_IS_FAIR)
        assert t == pytest.approx(1.0)

    def test_magnitude_mode_for_signed_values(self):
        x = [-0.5, 0.1, 0.4]
        y = [0.5, 0.1, 0.4]
        t = kendall_tau_c(x, y, Direction.ZERO_IS_FAIR, Direction.ZERO_IS_FAIR)
        assert t == pytest.approx(1.0)
        signed = kendall_tau_c(x, y, Direction.ZERO_IS_FAIR, Direction.ZERO_IS_FAIR,
                               magnitude=False)
        assert signed != pytest.approx(1.0)


class TestCorrelationMatrix:
    def test_diagonal_and_symmetry(self):
        results = []
        for i, s in enumerate(("s1", "s2", "s3")):
            results.append(_result("A", s, 0.1 * i))
            results.append(_result("B", s, 0.2 * (3 - i)))
        m = correlation_matrix(results)
        assert m.taus[0, 0] == 1.0 and m.taus[1, 1] == 1.0
        assert m.tau("A", "B") == m.tau("B", "A")

    def test_inverted_directionality_same_ranking(self):
        results = []
        for i, s in enumerate(("s1", "s2", "s3")):
            results.append(_result("unfairness", s, 0.1 * i, Direction.ZERO_IS_FAIR))
            results.append(_result("fairness", s, 1 - 0.1 * i, Direction.ONE_IS_FAIR))
        m = correlation_matrix(results)
        assert m.tau("unfairness", "fairness") == pytest.approx(1.0)

    def test_disjoint_systems_missing_cell(self):
        results = [
            _result("A", "s1", 0.1), _result("A", "s2", 0.2),
            _result("B", "s3", 0.1), _result("B", "s4", 0.2),
        ]
        m = correlation_matrix(results)
        assert math.isnan(m.tau("A", "B"))

    def test_ratio_rows_excluded(self):
        results = []
        for i, s in enumerate(("s1", "s2", "s3")):
            results.append(_result("DP", s, 1.0 + i, Direction.ONE_IS_FAIR))
            results.append(_result("logDP", s, float(i), Direction.ZERO_IS_FAIR))
            results.append(_result("EED", s, 0.5 + 0.1 * i, Direction.ZERO_IS_FAIR))
        m = correlation_matrix(results)
        assert "DP" not in m.metrics
        assert "logDP" in m.metrics

    def test_a_ratio_row_without_any_log_row_stays_out(self):
        # DP rows and no logDP row at all, as a zero ratio on every system leaves them
        results = []
        for i, s in enumerate(("s1", "s2", "s3")):
            results.append(_result("DP", s, 1.0 + i, Direction.ONE_IS_FAIR))
            results.append(_result("EED", s, 0.5 + 0.1 * i, Direction.ZERO_IS_FAIR))
            results.append(_result("prefD", s, 0.3 - 0.1 * i, Direction.ZERO_IS_FAIR))
        assert correlation_matrix(results).metrics == ("prefD", "EED")

    def test_a_labelled_ratio_row_enters_only_as_its_log_form(self):
        # DP_rbp's largest value is its least fair one: read as larger-is-fairer,
        # it would rank s3 fairest
        results = []
        for i, s in enumerate(("s1", "s2", "s3")):
            results.append(_result("DP_rbp", s, 1.0 + 100 * i, Direction.ONE_IS_FAIR))
            results.append(_result("logDP_rbp", s, float(i), Direction.ZERO_IS_FAIR))
            results.append(_result("FAIR", s, 1.0 - 0.1 * i, Direction.ONE_IS_FAIR))
            results.append(_result("logFAIR", s, 0.1 * i, Direction.ONE_IS_FAIR))
        m = correlation_matrix(results)
        assert m.metrics == ("FAIR", "logDP_rbp", "logFAIR")
        assert m.tau("FAIR", "logDP_rbp") == pytest.approx(1.0)


class TestEmitTables(object):
    def test_files_and_round_trip(self, tmp_path):
        results = [
            _result("AWRF", "s2", 0.25),
            _result("AWRF", "s1", 0.5),
            _result("EED", "s1", 0.6),
            _result("EED", "s2", 0.55),
        ]
        m = correlation_matrix(results)
        assert emit_tables(results, tmp_path) == tmp_path / "metrics.csv"
        paths = emit_correlations(m, tmp_path, long_format=True)
        assert [p.name for p in paths] == ["correlations.csv", "correlations_long.csv"]
        text = (tmp_path / "metrics.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "system,metric,value,n_requests,n_degenerate,direction"
        # rows sorted by (system, metric)
        assert [l.split(",")[0] for l in lines[1:]] == ["s1", "s1", "s2", "s2"]
        back = read_metrics_table(tmp_path / "metrics.csv")
        assert back == sorted(results, key=lambda r: (r.system, r.metric))
        corr = (tmp_path / "correlations.csv").read_text().strip().splitlines()
        assert corr[0] == "metric,AWRF,EED"
        assert len(corr) == 3

    def test_read_rejects_non_finite_value_with_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        for value in ("nan", "inf"):
            path.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                            "s1,AWRF,0.5,10,0,ZeroIsFair\n"
                            f"s2,AWRF,{value},10,0,ZeroIsFair\n")
            with pytest.raises(FairRankError, match=r"metrics\.csv:3: bad metrics row"):
                read_metrics_table(path)

    def test_read_rejects_negative_counts_with_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        for counts in ("-4,-7", "3,-1"):
            path.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                            "B,X,0.25,10,0,ZeroIsFair\n"
                            f"A,X,0.5,{counts},ZeroIsFair\n")
            with pytest.raises(FairRankError, match=r"metrics\.csv:3: bad metrics row "
                                                    r"\(degenerate count is negative\)"):
                read_metrics_table(path)

    def test_read_rejects_a_repeated_row_with_its_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                        "s1,AWRF,0.5,10,0,ZeroIsFair\n"
                        "s2,AWRF,0.25,10,0,ZeroIsFair\n"
                        "\n"
                        "s1,AWRF,123.0,10,0,ZeroIsFair\n")
        with pytest.raises(FairRankError, match=r"metrics\.csv:5: repeated row for system "
                                                r"'s1', metric 'AWRF' \(first at line 2\)"):
            read_metrics_table(path)

    def test_read_reports_a_missing_column_on_the_header_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        header = "system,metric,value,n_requests,n_degenerate,direction\n"
        row = "s1,AWRF,0.5,10,0,ZeroIsFair\n"
        for text, column in ((header.replace(",n_degenerate", "") + row, "n_degenerate"),
                             ("", "system")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(FairRankError, match=rf"metrics\.csv:1: missing column '{column}'"):
                read_metrics_table(path)

    def test_read_ignores_one_byte_order_mark(self, tmp_path):
        path = tmp_path / "metrics.csv"
        text = ("system,metric,value,n_requests,n_degenerate,direction\n"
                "s1,AWRF,0.5,10,0,ZeroIsFair\n")
        path.write_text(text, encoding="utf-8")
        plain = read_metrics_table(path)
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert read_metrics_table(path) == plain == [_result("AWRF", "s1", 0.5)]
        path.write_text("\ufeff\ufeff" + text, encoding="utf-8")  # only one
        with pytest.raises(FairRankError, match=r"metrics\.csv:1: missing column 'system'"):
            read_metrics_table(path)

    def test_read_rejects_a_short_row_with_its_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("system,metric,value,n_requests,n_degenerate,direction\n"
                        "s1,AWRF,0.5,10,0,ZeroIsFair\n"
                        "s2,AWRF\n")
        with pytest.raises(FairRankError, match=r"metrics\.csv:3: bad metrics row"):
            read_metrics_table(path)

    def test_single_row(self, tmp_path):
        emit_tables([_result("AWRF", "s", 0.1)], tmp_path)
        assert len((tmp_path / "metrics.csv").read_text().strip().splitlines()) == 2

    def test_unwritable_path_errors(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("file, not dir")
        with pytest.raises(OSError):
            emit_tables([_result("A", "s", 0.1)], target)

    def test_byte_identical_reruns(self, tmp_path):
        results = [_result("AWRF", "s1", 1 / 3), _result("AWRF", "s2", 2 / 7)]
        emit_tables(results, tmp_path / "a")
        emit_tables(results, tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
