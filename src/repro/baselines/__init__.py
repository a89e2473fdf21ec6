"""Baselines the paper compares against: Truss (G0 only), MDC and QDC."""

from repro.baselines.mdc import MinimumDegreeCommunity
from repro.baselines.triangle_connected import (
    TriangleConnectedCommunity,
    triangle_connected_classes,
)
from repro.baselines.qdc import QueryBiasedDensestCommunity, random_walk_proximity
from repro.baselines.truss_only import TrussOnly

__all__ = [
    "TrussOnly",
    "MinimumDegreeCommunity",
    "TriangleConnectedCommunity",
    "triangle_connected_classes",
    "QueryBiasedDensestCommunity",
    "random_walk_proximity",
]
