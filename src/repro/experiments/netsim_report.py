"""Network-contention report: per-resource utilization and hot links.

Runs one HetPipe deployment twice — once under the historical dedicated
per-stream links and once on the shared contention-aware fabric — and
reports what the fabric saw: utilization, traffic, queueing delay, and
peak queue depth per shared resource (PCIe lanes, host lanes, PCIe
switches, NICs, IB fabric), plus the top-k congested links.  This is the
``repro netsim`` subcommand's backend and the measurement any future
contention-aware planner would consume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.allocation import allocate
from repro.api.spec import NetworkSpec
from repro.cluster.catalog import DEFAULT_PROFILE, paper_cluster
from repro.experiments.common import build_model, choose_nm, deployment_spec, plan_assignment
from repro.experiments.report import format_table
from repro.netsim.fabric import utilization_report
from repro.wsp import HetPipeRuntime, measure_run
from repro.wsp.measure import measure_runtime


@dataclass(frozen=True)
class NetsimResult:
    """Dedicated-vs-shared comparison plus the fabric's resource table."""

    model_name: str
    node_codes: str
    allocation: str
    nm: int
    d: int
    placement: str
    profile: str
    dedicated_throughput: float
    shared_throughput: float
    queue_delay_total: float
    max_queue_depth: int
    #: (name, kind, utilization, GiB moved, queue delay s, peak depth)
    resources: tuple[tuple[str, str, float, float, float, int], ...]
    top: int
    shards: int = 1
    shard_placement: str = "size_balanced"
    #: queueing attributed to ps.*-tagged flows alone (fabric mode)
    ps_queue_delay_total: float = 0.0
    ps_max_queue_depth: int = 0

    @property
    def slowdown(self) -> float:
        """Dedicated / shared throughput — the modeled contention cost."""
        if self.shared_throughput <= 0:
            return float("inf")
        return self.dedicated_throughput / self.shared_throughput

    def render(self) -> str:
        lines = [
            format_table(
                ["resource", "kind", "util", "GiB", "queue s", "peak q"],
                [
                    (name, kind, f"{util:.3f}", f"{gib:.3f}", f"{delay:.4f}", depth)
                    for name, kind, util, gib, delay, depth in self.resources[: self.top]
                ],
                title=(
                    f"netsim — {self.model_name} on {self.node_codes} "
                    f"({self.allocation}, Nm={self.nm}, D={self.d}, "
                    f"place={self.placement}, "
                    # appended only for sharded-PS runs so default
                    # output stays byte-identical to the unsharded report
                    + (
                        f"shards={self.shards}:{self.shard_placement}, "
                        if self.shards > 1
                        else ""
                    )
                    + f"profile={self.profile}): "
                    f"top {min(self.top, len(self.resources))} congested resources"
                ),
            ),
            "",
            f"dedicated links: {self.dedicated_throughput:8.1f} img/s",
            f"shared fabric:   {self.shared_throughput:8.1f} img/s "
            f"({self.slowdown:.2f}x slowdown from contention)",
            f"total queueing delay {self.queue_delay_total:.3f}s, "
            f"peak queue depth {self.max_queue_depth}",
        ]
        if self.shards > 1:
            lines.append(
                f"ps queueing delay {self.ps_queue_delay_total:.3f}s, "
                f"peak ps queue depth {self.ps_max_queue_depth}"
            )
        return "\n".join(lines)


def run_netsim(
    model_name: str = "vgg19",
    node_codes: str = "VRGQ",
    allocation: str = "ED",
    d: int = 0,
    nm: int | None = None,
    placement: str = "default",
    profile: str = DEFAULT_PROFILE,
    top: int = 8,
    warmup_waves: int = 2,
    measured_waves: int = 4,
    shards: int = 1,
    shard_placement: str = "size_balanced",
) -> NetsimResult:
    """Measure one deployment under both network models.

    ``nm=None`` picks the analytic best shared pipeline depth (§8.3's
    procedure without the slow end-to-end sweep).
    """
    model = build_model(model_name)
    cluster = paper_cluster(node_codes=node_codes, profile=profile)
    assignment = allocate(cluster, allocation)
    if nm is None:
        nm = choose_nm(model, assignment, cluster).nm
    plans = plan_assignment(model, assignment, nm, cluster)
    run = deployment_spec(
        model_name, node_codes, profile=profile, allocation=allocation, nm=nm, d=d,
        placement=placement, shards=shards, shard_placement=shard_placement,
        warmup_waves=warmup_waves, measured_waves=measured_waves,
    )
    dedicated = measure_run(run, cluster=cluster, model=model, plans=plans)
    # The shared run keeps its runtime so the fabric object (and its
    # per-resource counters) stays inspectable after the run.
    runtime = HetPipeRuntime.from_spec(
        replace(run, network=NetworkSpec("shared")),
        cluster=cluster, model=model, plans=plans,
    )
    shared = measure_runtime(runtime, warmup_waves, measured_waves)
    assert runtime.fabric is not None
    runtime.fabric.verify(elapsed=runtime.sim.now)
    rows = utilization_report(runtime.fabric, elapsed=runtime.sim.now)
    rows.sort(key=lambda r: (r[4], r[2]), reverse=True)  # queue delay, then util

    return NetsimResult(
        model_name=model_name,
        node_codes=node_codes,
        allocation=allocation,
        nm=nm,
        d=d,
        placement=placement,
        profile=profile,
        dedicated_throughput=dedicated.throughput,
        shared_throughput=shared.throughput,
        queue_delay_total=shared.net_queue_delay_total,
        max_queue_depth=shared.net_max_queue_depth,
        resources=tuple(rows),
        top=top,
        shards=shards,
        shard_placement=shard_placement,
        ps_queue_delay_total=shared.ps_queue_delay_total,
        ps_max_queue_depth=shared.ps_max_queue_depth,
    )
