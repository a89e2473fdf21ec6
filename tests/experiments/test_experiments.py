"""Tests for the experiment harness: config, reporting, runner, tables and figures.

The figure drivers are exercised end-to-end on tiny configurations; the goal
is to assert that every driver produces well-formed rows with the panels the
paper reports, not to re-run the full evaluation (the benchmarks do that).
"""

from __future__ import annotations

import math

import pytest

from repro.ctc.api import available_methods, search
from repro.engine import CTCEngine
from repro.exceptions import ConfigurationError
from repro.experiments.config import FULL_CONFIG, QUICK_CONFIG, ExperimentConfig
from repro.experiments.figures import (
    approximation_quality,
    case_study,
    ground_truth_quality,
    vary_eta,
    vary_gamma,
    vary_inter_distance,
    vary_query_size,
    vary_trussness_k,
)
from repro.experiments.reporting import format_float, format_series, format_table, render_report
from repro.experiments.runner import (
    MethodRun,
    aggregate_percentage_and_density,
    mean_or_nan,
    run_method_on_queries,
    score_against_ground_truth,
)
from repro.experiments.tables import table2_network_statistics, table3_index_statistics

TINY = ExperimentConfig(
    queries_per_point=2,
    query_sizes=(1, 2),
    degree_ranks=(20, 100),
    inter_distances=(1, 2),
    eta_values=(20, 60),
    gamma_values=(1.0, 3.0),
    lctc_eta=60,
    trussness_levels=(3, None),
    ground_truth_queries=3,
    time_budget_seconds=20.0,
    seed=7,
)


@pytest.fixture
def figure1_engine(figure1):
    """An engine over Figure 1(a), the target every driver queries."""
    return CTCEngine(figure1)


class TestConfig:
    def test_defaults_match_paper_design(self):
        config = ExperimentConfig()
        assert config.query_sizes == (1, 2, 4, 8, 16)
        assert config.degree_ranks == (20, 40, 60, 80, 100)
        assert config.inter_distances == (1, 2, 3, 4, 5)
        assert config.lctc_gamma == 3.0

    def test_scaled(self):
        scaled = FULL_CONFIG.scaled(0.1)
        assert scaled.queries_per_point == 2
        assert scaled.ground_truth_queries == 10
        assert scaled.query_sizes == FULL_CONFIG.query_sizes

    def test_quick_config_is_small(self):
        assert QUICK_CONFIG.queries_per_point <= 5


class TestReporting:
    def test_format_float(self):
        assert format_float(1.23456) == "1.235"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("nan")) == "nan"
        assert format_float("text") == "text"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_series(self):
        text = format_series({"m1": [1, 2], "m2": [3, 4]}, "x", [10, 20])
        assert "m1" in text and "m2" in text and "10" in text

    def test_render_report(self):
        report = render_report([("Section", "body")])
        assert report.startswith("== Section ==")
        assert report.endswith("\n")


class TestRunner:
    def test_mean_or_nan(self):
        assert mean_or_nan([1.0, 3.0]) == 2.0
        assert math.isnan(mean_or_nan([]))
        assert mean_or_nan([1.0, float("inf")]) == 1.0

    def test_runner_rejects_unknown(self, figure1_engine):
        with pytest.raises(ConfigurationError):
            run_method_on_queries("nope", figure1_engine, [["q1", "q2"]], TINY)

    @pytest.mark.parametrize("method", available_methods())
    def test_engine_runs_match_the_index_oracle(self, figure1_engine, figure1_index, method):
        """The runner's engine answers equal search() on a TrussIndex, with
        the config's LCTC parameters and time budget as the defaults."""
        queries = [["q1", "q2", "q3"], ["q3"], ["t", "q1"]]
        run = run_method_on_queries(method, figure1_engine, queries, TINY)
        assert run.method == method
        for query, result in zip(queries, run.results, strict=True):
            expected = search(
                figure1_index,
                query,
                method,
                eta=TINY.lctc_eta,
                gamma=TINY.lctc_gamma,
                time_budget_seconds=TINY.time_budget_seconds,
            )
            assert result.nodes == expected.nodes
            assert result.trussness == expected.trussness
            assert result.query_distance == expected.query_distance

    @pytest.mark.parametrize("method", ["basic", "bulk-delete", "lctc", "truss", "mdc", "qdc"])
    def test_run_method_on_queries(self, figure1_engine, method):
        queries = [["q1", "q2", "q3"], ["q3"]]
        run = run_method_on_queries(method, figure1_engine, queries, TINY, eta=40)
        assert len(run.results) == 2
        assert run.failures == 0
        assert run.mean_nodes >= 3
        row = run.as_row()
        assert row["method"] == method

    def test_failures_recorded_as_none(self, figure1_engine):
        queries = [["q1", "q2", "q3"], ["q1", "does-not-exist"]]
        run = run_method_on_queries("truss", figure1_engine, queries, TINY)
        assert run.failures == 1
        assert run.results[1] is None

    def test_aggregate_percentage_and_density(self, figure1_engine):
        queries = [["q1", "q2", "q3"]]
        reference = run_method_on_queries("truss", figure1_engine, queries, TINY)
        run = run_method_on_queries("basic", figure1_engine, queries, TINY)
        panel = aggregate_percentage_and_density(run, reference)
        assert panel["percentage"] == pytest.approx(100 * 8 / 11)
        assert panel["density"] > 0

    def test_score_against_ground_truth(self, figure1_engine):
        queries = [["q1", "q2", "q3"]]
        truths = [{"q1", "q2", "q3", "v1", "v2", "v3", "v4", "v5"}]
        run = run_method_on_queries("basic", figure1_engine, queries, TINY)
        assert score_against_ground_truth(run, truths) == pytest.approx(1.0)

    def test_method_run_empty(self):
        run = MethodRun(method="x", results=[None])
        assert run.failures == 1
        assert math.isnan(run.mean_nodes)


class TestTables:
    def test_table2_rows(self):
        rows = table2_network_statistics(["facebook-like"])
        assert len(rows) == 1
        row = rows[0]
        assert row["network"] == "facebook-like"
        assert row["paper_counterpart"] == "Facebook"
        assert row["nodes"] > 0 and row["edges"] > 0
        assert row["max_trussness"] >= 4

    def test_table3_rows(self):
        rows = table3_index_statistics(["facebook-like"])
        row = rows[0]
        assert row["index_entries"] > row["graph_entries"]
        assert row["index_time_s"] > 0
        assert 1.0 <= row["index_to_graph_ratio"] <= 3.0


@pytest.mark.slow
class TestFigureDrivers:
    def test_vary_query_size_rows(self):
        rows = vary_query_size("facebook-like", TINY, methods=("lctc",))
        assert rows
        methods = {row["method"] for row in rows}
        assert methods == {"lctc", "truss"}
        for row in rows:
            assert {"time_s", "percentage", "density"} <= set(row)
            assert row["query_size"] in TINY.query_sizes

    def test_vary_inter_distance_rows(self):
        rows = vary_inter_distance("facebook-like", TINY, methods=("lctc",))
        assert rows
        for row in rows:
            assert row["inter_distance"] in TINY.inter_distances

    def test_case_study_rows(self):
        rows = case_study(TINY)
        labels = {row["community"] for row in rows}
        assert labels == {"truss-G0", "lctc"}
        by_label = {row["community"]: row for row in rows}
        assert by_label["lctc"]["nodes"] <= by_label["truss-G0"]["nodes"]
        assert by_label["lctc"]["density"] >= by_label["truss-G0"]["density"]

    def test_ground_truth_quality_rows(self):
        rows = ground_truth_quality(("facebook-like",), TINY, methods=("truss", "lctc"))
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row["f1"] <= 1.0

    def test_approximation_quality_rows(self):
        rows = approximation_quality("facebook-like", TINY, methods=("basic", "lctc"))
        methods = {row["method"] for row in rows}
        assert {"basic", "lctc", "lb-opt", "ub-opt"} <= methods

    def test_vary_trussness_k_rows(self):
        rows = vary_trussness_k("facebook-like", TINY)
        ks = {row["max_k"] for row in rows}
        assert ks == {3, "max"}

    def test_vary_eta_and_gamma_rows(self):
        eta_rows = vary_eta("facebook-like", TINY)
        gamma_rows = vary_gamma("facebook-like", TINY)
        assert {row["eta"] for row in eta_rows} == set(TINY.eta_values)
        assert {row["gamma"] for row in gamma_rows} == set(TINY.gamma_values)
