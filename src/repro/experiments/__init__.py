"""Experiment drivers that regenerate every table and figure of the paper."""

from repro.experiments.config import FULL_CONFIG, QUICK_CONFIG, ExperimentConfig
from repro.experiments.figures import (
    approximation_quality,
    case_study,
    ground_truth_quality,
    vary_degree_rank,
    vary_eta,
    vary_gamma,
    vary_inter_distance,
    vary_query_size,
    vary_trussness_k,
)
from repro.experiments.reporting import format_series, format_table, render_report
from repro.experiments.runner import MethodRun, run_method_on_queries
from repro.experiments.tables import (
    render_table2,
    render_table3,
    table2_network_statistics,
    table3_index_statistics,
)

__all__ = [
    "ExperimentConfig",
    "QUICK_CONFIG",
    "FULL_CONFIG",
    "table2_network_statistics",
    "table3_index_statistics",
    "render_table2",
    "render_table3",
    "vary_query_size",
    "vary_degree_rank",
    "vary_inter_distance",
    "case_study",
    "ground_truth_quality",
    "approximation_quality",
    "vary_trussness_k",
    "vary_eta",
    "vary_gamma",
    "MethodRun",
    "run_method_on_queries",
    "format_table",
    "format_series",
    "render_report",
]
