"""HetPipe reproduction: pipelined model parallelism + data parallelism
with Wave Synchronous Parallel on (whimpy) heterogeneous GPU clusters.

Reproduces Park et al., USENIX ATC 2020, on a simulated testbed.  The
public API mirrors the system's layers:

>>> from repro import ModelSpec, PipelineSpec, RunSpec, measure_run
>>> run = RunSpec(
...     model=ModelSpec("vgg19"),
...     pipeline=PipelineSpec(nm=4, allocation="ED", placement="local"),
... )
>>> metrics = measure_run(run)  # paper cluster, natural-order DP plans
>>> metrics.throughput > 0
True

See ``examples/`` for runnable walkthroughs and ``repro.experiments``
for the paper's tables and figures.

The package namespace resolves lazily (PEP 562): importing ``repro``
pulls in nothing heavy, so ``repro fuzz`` — whose startup the repo
benchmark measures as ``setup_s`` (``bench/``) — does not pay for NumPy
and the numeric trainers it never touches.  ``from repro import
X`` works exactly as before; the submodule is imported on first access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

#: public name -> submodule that defines it
_EXPORTS = {
    "ClusterSpec": "repro.api",
    "ExperimentSpec": "repro.api",
    "FidelitySpec": "repro.api",
    "ModelSpec": "repro.api",
    "NetworkSpec": "repro.api",
    "PipelineSpec": "repro.api",
    "RunSpec": "repro.api",
    "SweepSpec": "repro.api",
    "NETWORK_MODELS": "repro.api.spec",
    "SpecError": "repro.errors",
    "UnknownNameError": "repro.errors",
    "measure_run": "repro.wsp",
    "VirtualWorkerAssignment": "repro.allocation",
    "allocate": "repro.allocation",
    "Cluster": "repro.cluster",
    "GPUDevice": "repro.cluster",
    "GPUSpec": "repro.cluster",
    "InterconnectSpec": "repro.cluster",
    "Node": "repro.cluster",
    "paper_cluster": "repro.cluster",
    "single_type_cluster": "repro.cluster",
    "ConfigurationError": "repro.errors",
    "ConvergenceError": "repro.errors",
    "MemoryCapacityError": "repro.errors",
    "PartitionError": "repro.errors",
    "ReproError": "repro.errors",
    "SimulationError": "repro.errors",
    "StalenessViolation": "repro.errors",
    "Calibration": "repro.models",
    "DEFAULT_CALIBRATION": "repro.models",
    "ModelGraph": "repro.models",
    "Profiler": "repro.models",
    "build_resnet101": "repro.models",
    "build_resnet152": "repro.models",
    "build_resnet50": "repro.models",
    "build_vgg16": "repro.models",
    "build_vgg19": "repro.models",
    "Fabric": "repro.netsim",
    "FabricSpec": "repro.netsim",
    "HorovodMetrics": "repro.parallel",
    "measure_horovod": "repro.parallel",
    "PartitionPlan": "repro.partition",
    "Stage": "repro.partition",
    "max_feasible_nm": "repro.partition",
    "plan_virtual_worker": "repro.partition",
    "PipelineMetrics": "repro.pipeline",
    "VirtualWorkerPipeline": "repro.pipeline",
    "measure_pipeline": "repro.pipeline",
    "BSPTrainer": "repro.training",
    "BSPTrainingConfig": "repro.training",
    "WSPTrainer": "repro.training",
    "WSPTrainingConfig": "repro.training",
    "HetPipeMetrics": "repro.wsp",
    "HetPipeRuntime": "repro.wsp",
    "admission_limit": "repro.wsp",
    "global_staleness": "repro.wsp",
    "local_staleness": "repro.wsp",
}

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # static analyzers see the eager imports
    from repro.allocation import VirtualWorkerAssignment, allocate
    from repro.api import (
        ClusterSpec,
        ExperimentSpec,
        FidelitySpec,
        ModelSpec,
        NetworkSpec,
        PipelineSpec,
        RunSpec,
        SweepSpec,
    )
    from repro.api.spec import NETWORK_MODELS
    from repro.errors import SpecError, UnknownNameError
    from repro.wsp import measure_run
    from repro.cluster import (
        Cluster,
        GPUDevice,
        GPUSpec,
        InterconnectSpec,
        Node,
        paper_cluster,
        single_type_cluster,
    )
    from repro.errors import (
        ConfigurationError,
        ConvergenceError,
        MemoryCapacityError,
        PartitionError,
        ReproError,
        SimulationError,
        StalenessViolation,
    )
    from repro.models import (
        Calibration,
        DEFAULT_CALIBRATION,
        ModelGraph,
        Profiler,
        build_resnet101,
        build_resnet152,
        build_resnet50,
        build_vgg16,
        build_vgg19,
    )
    from repro.netsim import Fabric, FabricSpec
    from repro.parallel import HorovodMetrics, measure_horovod
    from repro.partition import (
        PartitionPlan,
        Stage,
        max_feasible_nm,
        plan_virtual_worker,
    )
    from repro.pipeline import PipelineMetrics, VirtualWorkerPipeline, measure_pipeline
    from repro.training import (
        BSPTrainer,
        BSPTrainingConfig,
        WSPTrainer,
        WSPTrainingConfig,
    )
    from repro.wsp import (
        HetPipeMetrics,
        HetPipeRuntime,
        admission_limit,
        global_staleness,
        local_staleness,
    )
