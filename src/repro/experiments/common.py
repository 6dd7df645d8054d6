"""Shared experiment plumbing.

Everything the per-figure modules need: the model registry, the seven
Fig-3 virtual-worker mixes, paper-faithful planning defaults (natural
GPU order — the paper's partitioner does not reorder GPUs; our ordering
search is an extension exercised by the ablation bench), and the Nm
selection procedure ("Nm is set such that performance is maximized while
every virtual worker uses the same value", §8.3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Any

from repro.allocation import VirtualWorkerAssignment, allocate
from repro.api.build import build_calibration
from repro.api.registry import MODELS
from repro.api.spec import ClusterSpec, ModelSpec, PipelineSpec, RunSpec
from repro.cluster import Cluster, paper_cluster
from repro.cluster.catalog import DEFAULT_PROFILE
from repro.cluster.gpu import GPUDevice
from repro.errors import PartitionError
from repro.models import ModelGraph
from repro.models.profiler import Profiler
from repro.partition import PartitionPlan, max_feasible_nm, plan_virtual_worker

logger = logging.getLogger(__name__)

#: MLP architecture for the numeric convergence experiments.
EXPERIMENT_MODEL_DIMS = [24, 64, 32, 8]

#: Target "top-1 accuracy" for the synthetic convergence runs — chosen
#: just below the plateau so every configuration can reach it (the paper
#: uses 74% ResNet-152 / 67% VGG-19 on ImageNet).
TARGET_ACCURACY = {"vgg19": 0.65, "resnet152": 0.66}

#: Experiments partition in the paper's natural GPU order.
PAPER_PLANNING = {"search_orderings": False}

#: Highest pipeline depth the experiments sweep (Fig. 3 plots Nm 1..7).
MAX_NM = 7


def build_model(name: str) -> ModelGraph:
    """The named workload, via the API's model registry.

    Unknown names raise :class:`~repro.errors.UnknownNameError` listing
    the registered models (the CLI maps that to exit code 2).
    """
    return MODELS.get(name)()


def fig3_virtual_workers(cluster: Cluster) -> dict[str, list[GPUDevice]]:
    """The seven single-VW GPU mixes of Figure 3, in paper order."""
    gpus = cluster.gpus
    return {
        "VVVV": list(gpus[0:4]),
        "VRGQ": [gpus[0], gpus[4], gpus[8], gpus[12]],
        "RRRR": list(gpus[4:8]),
        "VVQQ": [gpus[0], gpus[1], gpus[12], gpus[13]],
        "GGGG": list(gpus[8:12]),
        "RRGG": [gpus[4], gpus[5], gpus[8], gpus[9]],
        "QQQQ": list(gpus[12:16]),
    }


def plan_assignment(
    model: ModelGraph,
    assignment: VirtualWorkerAssignment,
    nm: int,
    cluster: Cluster,
    calibration: str = "default",
    profiler: Profiler | None = None,
) -> list[PartitionPlan]:
    """Paper-faithful plans (natural order) for every virtual worker."""
    calib = build_calibration(calibration)
    profiler = profiler or Profiler(calib)
    return [
        plan_virtual_worker(
            model, vw, nm, cluster.interconnect, calib, profiler, **PAPER_PLANNING
        )
        for vw in assignment.virtual_workers
    ]


def deployment_spec(
    model_name: str,
    node_codes: str = "VRGQ",
    *,
    profile: str = DEFAULT_PROFILE,
    calibration: str = "default",
    **pipeline: Any,
) -> RunSpec:
    """The scenario-kind spec of one paper deployment.

    ``pipeline`` sets :class:`~repro.api.spec.PipelineSpec` fields; the
    experiments warm up for 4 global waves, and ``nm`` stays 1 until
    :func:`choose_nm` picks it.  The spec's default ``"dp"`` planner is
    the natural-order DP that :func:`plan_assignment` runs.
    """
    pipeline = {"nm": 1, "warmup_waves": 4, **pipeline}
    return RunSpec(
        cluster=ClusterSpec(node_codes=node_codes, profile=profile),
        model=ModelSpec(model_name),
        pipeline=PipelineSpec(**pipeline),
        calibration=calibration,
    )


def with_pipeline(run: RunSpec, **changes: Any) -> RunSpec:
    """``run`` with ``changes`` applied to its pipeline section."""
    return replace(run, pipeline=replace(run.pipeline, **changes))


@dataclass(frozen=True)
class NmChoice:
    """The selected shared pipeline depth and the resulting plans."""

    nm: int
    max_feasible: int
    plans: list[PartitionPlan]


def choose_nm(
    model: ModelGraph,
    assignment: VirtualWorkerAssignment,
    cluster: Cluster,
    run: RunSpec | None = None,
    max_nm: int = MAX_NM,
) -> NmChoice:
    """Pick the shared ``Nm`` "such that performance is maximized" (§8.3).

    ``Nm`` must be identical in every virtual worker, so the cap is the
    minimum ``Maxm`` (§4).  With a deployment spec ``run``, each
    candidate is *measured* with a short end-to-end run of ``run`` at
    that ``Nm`` (pipeline + parameter server, 2 warmup and 4 measured
    waves) — this captures the wave-size/sync-amortization trade-off
    that makes the paper run VGG-19 at ``Nm = 5``.  Without one, a
    pipe-only analytic proxy at the default calibration ranks
    candidates (cheap; used by unit tests).
    """
    # Imported here to avoid a circular import (wsp.measure -> plans).
    from repro.wsp import measure_run

    calibration = "default" if run is None else run.calibration
    calib = build_calibration(calibration)
    profiler = Profiler(calib)
    cap = min(
        max_feasible_nm(
            model, vw, cluster.interconnect, calib, profiler, limit=max_nm,
            **PAPER_PLANNING,
        )
        for vw in assignment.virtual_workers
    )
    if cap < 1:
        raise PartitionError(
            f"{model.name} infeasible for {assignment.describe()} at any Nm"
        )
    best: NmChoice | None = None
    best_rate = -1.0
    for nm in range(1, cap + 1):
        plans = plan_assignment(model, assignment, nm, cluster, calibration, profiler)
        if run is not None:
            probe = with_pipeline(run, nm=nm, warmup_waves=2, measured_waves=4)
            metrics = measure_run(probe, cluster=cluster, model=model, plans=plans)
            rate = metrics.throughput
        else:
            # Saturated rate of the slowest VW: a pipe holding nm
            # minibatches over k stages completes at most nm per full
            # traversal until nm covers the stages, then one per
            # bottleneck period.
            rate = min(
                min(nm / plan.serial_latency, 1.0 / plan.bottleneck_period)
                for plan in plans
            )
        if rate > best_rate:
            best_rate = rate
            best = NmChoice(nm=nm, max_feasible=cap, plans=plans)
    assert best is not None
    logger.debug(
        "choose_nm: %s %s -> Nm=%d (cap %d)",
        model.name, assignment.describe(), best.nm, cap,
    )
    return best


def hetpipe_assignment_for_subset(node_codes: str) -> tuple[Cluster, VirtualWorkerAssignment]:
    """Cluster + ED assignment for a Table-4 GPU subset ("V", "VR", ...).

    A single node yields one virtual worker of its four GPUs (the
    paper's 4[V] single-VW configuration); multiple nodes yield four
    equal virtual workers via ED.
    """
    cluster = paper_cluster(node_codes=node_codes)
    if len(cluster.nodes) == 1:
        assignment = allocate(cluster, "NP")  # one VW = the whole node
    else:
        assignment = allocate(cluster, "ED")
    return cluster, assignment
