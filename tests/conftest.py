"""Shared fixtures.

Heavy objects (models, clusters, profiles, plans) are session-scoped:
they are immutable value objects, so sharing them across tests is safe
and keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.api.spec import ModelSpec, NetworkSpec, PipelineSpec, RunSpec
from repro.cluster import paper_cluster
from repro.models import build_resnet152, build_vgg19
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.models.profiler import Profiler
from repro.partition import plan_virtual_worker
from repro.wsp import HetPipeRuntime, measure_run


@pytest.fixture(scope="session")
def cluster():
    return paper_cluster()

@pytest.fixture(scope="session")
def vgg19():
    return build_vgg19()


@pytest.fixture(scope="session")
def resnet152():
    return build_resnet152()


@pytest.fixture(scope="session")
def profiler():
    return Profiler(DEFAULT_CALIBRATION)


@pytest.fixture(scope="session")
def vvvv_plan(cluster, vgg19, profiler):
    """VGG-19 over the four TITAN Vs at Nm=4 (homogeneous, PCIe only)."""
    return plan_virtual_worker(
        vgg19, cluster.gpus[0:4], 4, cluster.interconnect,
        DEFAULT_CALIBRATION, profiler, search_orderings=False,
    )


@pytest.fixture(scope="session")
def ed_plan(cluster, resnet152, profiler):
    """ResNet-152 over one GPU of each type (heterogeneous, IB links)."""
    vw = [cluster.gpus[0], cluster.gpus[4], cluster.gpus[8], cluster.gpus[12]]
    return plan_virtual_worker(
        resnet152, vw, 4, cluster.interconnect,
        DEFAULT_CALIBRATION, profiler, search_orderings=False,
    )


def _plans_run(model, plans, network: str, pipeline: dict) -> RunSpec:
    """A scenario-kind spec for pre-built ``plans`` of ``model``."""
    pipeline = {"nm": plans[0].nm if plans else 1, **pipeline}
    return RunSpec(
        model=ModelSpec(model.name),
        pipeline=PipelineSpec(**pipeline),
        network=NetworkSpec(network),
    )


@pytest.fixture(scope="session")
def build_runtime(cluster):
    """Factory: ``HetPipeRuntime.from_spec`` on pre-built plans.

    ``build_runtime(model, plans, d=1, network="shared", oracles=...)``:
    keywords other than ``cluster`` (default: the paper cluster),
    ``network`` and ``oracles`` set PipelineSpec fields; ``nm``
    defaults to the plans'.
    """

    def build(model, plans, *, cluster=cluster, network="dedicated", oracles=(), **pipeline):
        return HetPipeRuntime.from_spec(
            _plans_run(model, plans, network, pipeline),
            cluster=cluster, model=model, plans=plans, oracles=oracles,
        )

    return build


@pytest.fixture(scope="session")
def measure_plans(cluster):
    """Factory: ``measure_run`` on pre-built plans, keywords as for
    :func:`build_runtime`."""

    def measure(model, plans, *, cluster=cluster, network="dedicated", **pipeline):
        return measure_run(
            _plans_run(model, plans, network, pipeline),
            cluster=cluster, model=model, plans=plans,
        )

    return measure
