"""Discrete-event cluster simulator substrate."""

from .engine import ReplayResult, Simulator, normalize_node_events
from .telemetry import (
    busy_gpus_series,
    node_busy_intervals,
    running_nodes_series,
    utilization_series,
)

__all__ = [
    "ReplayResult",
    "Simulator",
    "busy_gpus_series",
    "node_busy_intervals",
    "normalize_node_events",
    "running_nodes_series",
    "utilization_series",
]
