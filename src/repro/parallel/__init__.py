"""Data-parallel baseline: Horovod-style AllReduce BSP."""

from repro.parallel.allreduce import (
    cross_node_allreduce_bytes,
    measure_ring_allreduce,
    ring_allreduce_time,
    ring_bandwidth,
    simulate_ring_allreduce,
)
from repro.parallel.horovod import HorovodMetrics, feasible_gpus, measure_horovod

__all__ = [
    "HorovodMetrics",
    "cross_node_allreduce_bytes",
    "feasible_gpus",
    "measure_horovod",
    "measure_ring_allreduce",
    "ring_allreduce_time",
    "ring_bandwidth",
    "simulate_ring_allreduce",
]
