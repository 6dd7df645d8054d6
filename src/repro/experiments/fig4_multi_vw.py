"""Figure 4: multi-virtual-worker throughput under the allocation policies.

Bars: Horovod (AllReduce BSP; only 12 GPUs for ResNet-152), then HetPipe
with NP / ED / ED-local / HD at ``D = 0``.  For each policy ``Nm`` is
chosen to maximize performance subject to the shared-Nm constraint
(§8.3); the chosen value is reported alongside, matching the numbers
printed on the paper's bars.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.api.build import build_calibration
from repro.cluster import paper_cluster
from repro.allocation import allocate
from repro.errors import MemoryCapacityError
from repro.experiments.common import build_model, choose_nm, deployment_spec, with_pipeline
from repro.experiments.report import format_table
from repro.parallel import measure_horovod
from repro.units import mib
from repro.wsp import measure_run

logger = logging.getLogger(__name__)

#: Paper bar values (images/s), read from Figure 4 / cross-checked with
#: Table 4 where exact numbers are given.
PAPER_FIG4 = {
    "vgg19": {"Horovod": 339, "ED-local": 606},
    "resnet152": {"Horovod": 415, "ED-local": 580},
}


@dataclass(frozen=True)
class Fig4Bar:
    label: str
    nm: int | None
    throughput: float
    gpus: int
    cross_node_sync_mib_per_wave: float
    cross_node_pipe_mib_per_minibatch: float


@dataclass(frozen=True)
class Fig4Result:
    model_name: str
    bars: list[Fig4Bar]
    paper: dict[str, int]

    def bar(self, label: str) -> Fig4Bar:
        for bar in self.bars:
            if bar.label == label:
                return bar
        raise KeyError(label)

    def render(self) -> str:
        return format_table(
            ["policy", "Nm", "img/s", "GPUs", "sync x-node MiB/wave", "pipe x-node MiB/mb", "paper"],
            [
                (
                    bar.label,
                    bar.nm if bar.nm is not None else "-",
                    bar.throughput,
                    bar.gpus,
                    bar.cross_node_sync_mib_per_wave,
                    bar.cross_node_pipe_mib_per_minibatch,
                    self.paper.get(bar.label, ""),
                )
                for bar in self.bars
            ],
            title=f"Figure 4 — {self.model_name}: Horovod vs HetPipe policies (D=0)",
        )


def _policy_bar(
    args: tuple[str, str, str, str, int, int],
) -> Fig4Bar:
    """One bar of the figure (the :func:`repro.exec.sweep_map` item).

    ``policy == "horovod"`` measures the AllReduce baseline; anything
    else is a HetPipe (policy, placement) pair.  Module-level and
    argument-pure so bars can run in worker processes.
    """
    model_name, policy, placement, calibration, d, measured_waves = args
    model = build_model(model_name)
    cluster = paper_cluster()
    if policy == "horovod":
        try:
            horovod = measure_horovod(cluster, model, build_calibration(calibration))
            return Fig4Bar(
                label="Horovod",
                nm=None,
                throughput=horovod.throughput,
                gpus=horovod.num_gpus,
                cross_node_sync_mib_per_wave=horovod.cross_node_bytes_per_minibatch / mib(1),
                cross_node_pipe_mib_per_minibatch=0.0,
            )
        except MemoryCapacityError:
            return Fig4Bar("Horovod", None, 0.0, 0, 0.0, 0.0)
    assignment = allocate(cluster, policy)
    run = deployment_spec(
        model_name, calibration=calibration, allocation=policy, placement=placement,
        d=d, measured_waves=measured_waves,
    )
    choice = choose_nm(model, assignment, cluster, run)
    metrics = measure_run(
        with_pipeline(run, nm=choice.nm), cluster=cluster, model=model, plans=choice.plans
    )
    label = f"{policy}-local" if placement == "local" else policy
    return Fig4Bar(
        label=label,
        nm=choice.nm,
        throughput=metrics.throughput,
        gpus=assignment.total_gpus,
        cross_node_sync_mib_per_wave=metrics.sync_cross_node_bytes_per_wave / mib(1),
        cross_node_pipe_mib_per_minibatch=metrics.pipeline_cross_node_bytes_per_minibatch / mib(1),
    )


def run_fig4(
    model_name: str,
    calibration: str = "default",
    d: int = 0,
    measured_waves: int = 8,
    jobs: int | None = 1,
) -> Fig4Result:
    """Measure Horovod plus the four HetPipe policy bars.

    ``jobs`` distributes the bars across worker processes (see
    :mod:`repro.exec`); bar order is fixed either way.
    """
    from repro.exec import sweep_map

    configs = [
        ("horovod", "default"),
        ("NP", "default"),
        ("ED", "default"),
        ("ED", "local"),
        ("HD", "default"),
    ]
    logger.info("fig4: %s over %d policy bars (jobs=%s)", model_name, len(configs), jobs)
    bars = sweep_map(
        _policy_bar,
        [
            (model_name, policy, placement, calibration, d, measured_waves)
            for policy, placement in configs
        ],
        jobs=jobs,
    )
    return Fig4Result(model_name=model_name, bars=bars, paper=PAPER_FIG4[model_name])
