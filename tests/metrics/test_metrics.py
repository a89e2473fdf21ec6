"""Unit tests for quality, structure and approximation metrics."""

from __future__ import annotations

import pytest

from repro.ctc.basic import BasicCTC
from repro.ctc.result import CommunityResult
from repro.metrics.approximation import (
    approximation_ratio,
    diameter_bounds,
    summarize_diameter_experiment,
)
from repro.metrics.quality import average_f1, f1_score, jaccard_index, precision, recall
from repro.metrics.structure import (
    community_statistics,
    compare_to_reference,
    percentage_retained,
    reduction_ratio,
)
from repro.graph.generators import path_graph
from repro.graph.simple_graph import UndirectedGraph


class TestQualityMetrics:
    def test_perfect_match(self):
        assert precision({1, 2}, {1, 2}) == 1.0
        assert recall({1, 2}, {1, 2}) == 1.0
        assert f1_score({1, 2}, {1, 2}) == 1.0
        assert jaccard_index({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert precision({1}, {2}) == 0.0
        assert recall({1}, {2}) == 0.0
        assert f1_score({1}, {2}) == 0.0
        assert jaccard_index({1}, {2}) == 0.0

    def test_partial_overlap(self):
        found = {1, 2, 3, 4}
        truth = {3, 4, 5, 6, 7, 8}
        assert precision(found, truth) == pytest.approx(0.5)
        assert recall(found, truth) == pytest.approx(2 / 6)
        expected_f1 = 2 * 0.5 * (2 / 6) / (0.5 + 2 / 6)
        assert f1_score(found, truth) == pytest.approx(expected_f1)
        assert jaccard_index(found, truth) == pytest.approx(2 / 8)

    def test_empty_conventions(self):
        assert precision(set(), {1}) == 1.0
        assert recall({1}, set()) == 1.0
        assert jaccard_index(set(), set()) == 1.0
        assert f1_score(set(), set()) == 1.0

    def test_f1_is_symmetric_in_precision_recall_swap(self):
        assert f1_score({1, 2, 3}, {1}) == pytest.approx(f1_score({1}, {1, 2, 3}))

    def test_average_f1(self):
        pairs = [({1, 2}, {1, 2}), ({1}, {2})]
        assert average_f1(pairs) == pytest.approx(0.5)
        assert average_f1([]) == 0.0

    def test_accepts_any_iterable(self):
        assert f1_score([1, 2, 2], (1, 2)) == 1.0


class TestStructureMetrics:
    def test_community_statistics_complete_graph(self, k5):
        stats = community_statistics(k5, query=[0])
        assert stats["nodes"] == 5
        assert stats["edges"] == 10
        assert stats["density"] == pytest.approx(1.0)
        assert stats["diameter"] == 1
        assert stats["trussness"] == 5
        assert stats["query_distance"] == 1

    def test_percentage_retained(self, k5):
        sub = k5.subgraph([0, 1, 2])
        assert percentage_retained(sub, k5) == pytest.approx(60.0)
        assert percentage_retained(sub, UndirectedGraph()) == 100.0

    def test_reduction_ratio(self, k5):
        sub = k5.subgraph([0, 1, 2])
        ratios = reduction_ratio(sub, k5)
        assert ratios["community_nodes"] == 3
        assert ratios["reference_nodes"] == 5
        assert ratios["node_retention"] == pytest.approx(0.6)
        assert ratios["edge_retention"] == pytest.approx(3 / 10)

    def test_compare_to_reference(self, figure1_index, figure1_query):
        from repro.baselines.truss_only import TrussOnly

        basic = BasicCTC(figure1_index).search(figure1_query)
        truss = TrussOnly(figure1_index).search(figure1_query)
        comparison = compare_to_reference(basic, truss)
        assert comparison["percentage"] == pytest.approx(100 * 8 / 11)
        assert comparison["density"] > comparison["reference_density"]
        assert comparison["trussness"] == comparison["reference_trussness"] == 4


class TestApproximationMetrics:
    def test_diameter_bounds_bracket_diameter(self, figure1_index, figure1_query):
        result = BasicCTC(figure1_index).search(figure1_query)
        lower, upper = diameter_bounds(result)
        assert lower == 3
        assert upper == 6
        assert lower <= result.diameter() <= upper

    def test_diameter_bounds_recompute_when_missing(self, k4):
        result = CommunityResult(graph=k4, query=(0,), trussness=4, method="x")
        lower, upper = diameter_bounds(result)
        assert lower == 1
        assert upper == 2

    def test_approximation_ratio(self, figure1_index, figure1_query):
        result = BasicCTC(figure1_index).search(figure1_query)
        assert approximation_ratio(result, 3) == pytest.approx(1.0)
        assert approximation_ratio(result, 0) == 1.0

    def test_summary_rows_contain_all_methods(self, figure1_index, figure1_query):
        basic = BasicCTC(figure1_index).search(figure1_query)
        rows = summarize_diameter_experiment([basic], basic)
        assert set(rows) == {"lb-opt", "ub-opt", "basic"}
        assert rows["lb-opt"]["diameter"] <= rows["basic"]["diameter"]
        assert rows["basic"]["ratio"] <= 2.0

    def test_path_community_ratio_at_most_two(self):
        graph = path_graph(5)
        result = CommunityResult(
            graph=graph, query=(2,), trussness=2, method="x", query_distance=2
        )
        lower, _upper = diameter_bounds(result)
        assert approximation_ratio(result, lower) <= 2.0
