"""Horovod-style BSP data parallelism — the paper's baseline.

Each worker is one GPU holding the *whole* model; every iteration all
workers process one minibatch and then allreduce the gradients (BSP).
Two paper-critical behaviours are reproduced:

* **Memory feasibility**: a GPU that cannot hold the full model is
  excluded — on the paper's cluster ResNet-152 does not fit the 6 GB
  RTX 2060s, so "Horovod uses only 12 GPUs" (§8.1) while HetPipe uses
  all 16.
* **Straggler effect**: BSP's iteration time is the *slowest* worker's
  compute plus the allreduce — heterogeneous clusters pay for their
  whimpiest member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.gpu import GPUDevice
from repro.cluster.topology import Cluster
from repro.errors import MemoryCapacityError
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.memory import model_fits_single_gpu
from repro.models.profiler import Profiler
from repro.parallel.allreduce import cross_node_allreduce_bytes, ring_allreduce_time


@dataclass(frozen=True)
class HorovodMetrics:
    """Steady-state behaviour of a Horovod BSP deployment."""

    model_name: str
    num_gpus: int
    excluded_gpus: int
    throughput: float  # images / second
    iteration_time: float
    compute_time: float  # slowest worker
    allreduce_time: float
    cross_node_bytes_per_minibatch: float


def feasible_gpus(
    model: ModelGraph,
    gpus: Sequence[GPUDevice],
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> list[GPUDevice]:
    """GPUs able to hold the whole model (one in-flight minibatch)."""
    return [g for g in gpus if model_fits_single_gpu(model.layers, g.spec, calibration)]


def measure_horovod(
    cluster: Cluster,
    model: ModelGraph,
    calibration: Calibration = DEFAULT_CALIBRATION,
    gpus: Sequence[GPUDevice] | None = None,
    profiler: Profiler | None = None,
) -> HorovodMetrics:
    """Throughput of Horovod BSP over ``gpus`` (default: whole cluster).

    Raises :class:`MemoryCapacityError` when no GPU can hold the model —
    the case DP fundamentally cannot handle and HetPipe exists for.
    """
    candidates = list(gpus) if gpus is not None else list(cluster.gpus)
    usable = feasible_gpus(model, candidates, calibration)
    if not usable:
        raise MemoryCapacityError(
            f"{model.name} does not fit in any single GPU of "
            f"[{''.join(g.code for g in candidates)}]; data parallelism is impossible"
        )
    profiler = profiler or Profiler(calibration)
    compute = max(profiler.serial_minibatch_time(model, g.spec) for g in usable)
    n = len(usable)
    allreduce = ring_allreduce_time(model.param_bytes, usable, calibration) if n > 1 else 0.0
    iteration = compute + allreduce
    multi_node = len({g.node_id for g in usable}) > 1
    return HorovodMetrics(
        model_name=model.name,
        num_gpus=n,
        excluded_gpus=len(candidates) - n,
        throughput=n * model.batch_size / iteration,
        iteration_time=iteration,
        compute_time=compute,
        allreduce_time=allreduce,
        cross_node_bytes_per_minibatch=(
            cross_node_allreduce_bytes(model.param_bytes, n) if multi_node else 0.0
        ),
    )
