"""Closest Truss Community search: the paper's core contribution."""

from repro.ctc.api import available_methods, build_index, search
from repro.ctc.basic import BasicCTC
from repro.ctc.bulk_delete import BulkDeleteCTC
from repro.ctc.free_rider import (
    free_riders,
    retained_edge_percentage,
    retained_node_percentage,
    suffers_free_rider_effect,
)
from repro.ctc.local import DEFAULT_ETA, DEFAULT_GAMMA, LocalCTC
from repro.ctc.query_distance import QueryDistanceSnapshot, compute_snapshot
from repro.ctc.result import CommunityResult
from repro.ctc.steiner import (
    build_truss_steiner_tree,
    minimum_trussness_of_tree,
    truss_distance_between,
    truss_distance_closure,
)

__all__ = [
    "search",
    "build_index",
    "available_methods",
    "CommunityResult",
    "BasicCTC",
    "BulkDeleteCTC",
    "LocalCTC",
    "DEFAULT_ETA",
    "DEFAULT_GAMMA",
    "QueryDistanceSnapshot",
    "compute_snapshot",
    "build_truss_steiner_tree",
    "minimum_trussness_of_tree",
    "truss_distance_between",
    "truss_distance_closure",
    "retained_node_percentage",
    "retained_edge_percentage",
    "free_riders",
    "suffers_free_rider_effect",
]
