"""Steady-state measurement of a full HetPipe run (Fig. 4 / Table 4).

Runs the :class:`~repro.wsp.runtime.HetPipeRuntime` until a warmup
number of waves is globally complete, then measures a window of further
waves: aggregate images/s, average per-wave waiting time, the idle
fraction of waiting, and cross-node traffic split into pipeline
(activations/gradients) and parameter-synchronization bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.wsp.runtime import HetPipeRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.spec import RunSpec
    from repro.cluster.topology import Cluster
    from repro.models.graph import ModelGraph
    from repro.partition.spec import PartitionPlan
    from repro.obs.core import ObsCollector, ObsReport


@dataclass(frozen=True)
class HetPipeMetrics:
    """Measured behaviour of a HetPipe configuration."""

    model_name: str
    num_virtual_workers: int
    nm: int
    d: int
    placement: str
    throughput: float  # images/s, all virtual workers
    per_vw_minibatches: tuple[int, ...]
    avg_wait_per_wave: float
    idle_fraction_of_wait: float
    sync_cross_node_bytes_per_wave: float
    pipeline_cross_node_bytes_per_minibatch: float
    measured_waves: int
    window: float
    network_model: str = "dedicated"
    #: total seconds transfers spent queued behind other transfers over
    #: the whole run (PS streams + stage channels, or the shared fabric)
    net_queue_delay_total: float = 0.0
    net_max_queue_depth: int = 0
    #: PS shard slots per stage and (when shards > 1) the shard
    #: placement policy that placed them
    shards: int = 1
    shard_placement: str = "size_balanced"
    #: queueing of PS traffic alone, with its attribution: "streams"
    #: sums the dedicated per-stream channels, "fabric" re-aggregates
    #: the shared fabric's ps.*-tagged flow waits (historically fabric
    #: runs reported zeros here, indistinguishable from no queueing)
    ps_queue_delay_total: float = 0.0
    ps_max_queue_depth: int = 0
    ps_queue_source: str = "streams"
    #: telemetry summary when the run carried an enabled
    #: :class:`~repro.api.spec.ObservabilitySpec`; None otherwise
    observability: "ObsReport | None" = None


def measure_run(
    run: "RunSpec",
    *,
    cluster: "Cluster | None" = None,
    model: "ModelGraph | None" = None,
    plans: "Sequence[PartitionPlan] | None" = None,
    obs: "ObsCollector | None" = None,
) -> HetPipeMetrics:
    """Measure a HetPipe deployment's steady state: everything from one
    scenario-kind :class:`~repro.api.spec.RunSpec`.

    The runtime comes from :meth:`HetPipeRuntime.from_spec`:
    ``cluster``/``model``/``plans`` may be passed pre-built (the
    experiments plan once and measure several specs); left as ``None``
    they are built from the spec.  The run warms up for
    ``pipeline.warmup_waves`` global waves, then measures
    ``pipeline.measured_waves * fidelity.waves_scale`` more.

    With an enabled ``observability`` section (or an explicit ``obs``
    collector, which takes precedence) the run is instrumented and the
    returned metrics carry an :class:`~repro.obs.core.ObsReport`.
    """
    if obs is None and run.observability is not None:
        from repro.obs.core import ObsCollector

        obs = ObsCollector(run.observability)
    runtime = HetPipeRuntime.from_spec(
        run, cluster=cluster, model=model, plans=plans, obs=obs
    )
    return measure_runtime(
        runtime,
        run.pipeline.warmup_waves,
        run.pipeline.measured_waves * run.fidelity.waves_scale,
    )


def measure_runtime(
    runtime: HetPipeRuntime, warmup_waves: int, measured_waves: int
) -> HetPipeMetrics:
    """Drive a built runtime through warmup + window and read the §8 numbers.

    The core of :func:`measure_run`; call it on a runtime from
    :meth:`HetPipeRuntime.from_spec` to inspect the runtime afterwards.
    """
    model = runtime.model
    plans = runtime.plans
    runtime.start()

    runtime.run_until_global_version(warmup_waves - 1)
    t0 = runtime.sim.now
    done0 = [stats.minibatches_done for stats in runtime.stats]
    wait0 = [stats.waiting_time for stats in runtime.stats]
    idle0 = [stats.idle_in_wait for stats in runtime.stats]
    sync0 = runtime.ps.sync_bytes_cross_node
    pipe0 = sum(p.cross_node_bytes() for p in runtime.pipelines)

    runtime.run_until_global_version(warmup_waves + measured_waves - 1)
    t1 = runtime.sim.now
    window = t1 - t0
    done = [stats.minibatches_done - d0 for stats, d0 in zip(runtime.stats, done0)]
    waits = [stats.waiting_time - w0 for stats, w0 in zip(runtime.stats, wait0)]
    idles = [stats.idle_in_wait - i0 for stats, i0 in zip(runtime.stats, idle0)]
    sync_bytes = runtime.ps.sync_bytes_cross_node - sync0
    pipe_bytes = sum(p.cross_node_bytes() for p in runtime.pipelines) - pipe0

    queue_delay, queue_depth = runtime.network_queue_stats()
    ps_queue_delay, ps_queue_depth = runtime.ps_queue_stats()
    total_minibatches = sum(done)
    total_wait = sum(waits)
    total_idle = sum(idles)
    wave_count = measured_waves * len(plans)

    return HetPipeMetrics(
        model_name=model.name,
        num_virtual_workers=len(plans),
        nm=runtime.nm,
        d=runtime.d,
        placement=runtime.placement_policy,
        throughput=total_minibatches * model.batch_size / window,
        per_vw_minibatches=tuple(done),
        avg_wait_per_wave=total_wait / wave_count if wave_count else 0.0,
        idle_fraction_of_wait=(total_idle / total_wait) if total_wait > 0 else 0.0,
        sync_cross_node_bytes_per_wave=sync_bytes / wave_count if wave_count else 0.0,
        pipeline_cross_node_bytes_per_minibatch=(
            pipe_bytes / total_minibatches if total_minibatches else 0.0
        ),
        measured_waves=measured_waves,
        window=window,
        network_model=runtime.network_model,
        net_queue_delay_total=queue_delay,
        net_max_queue_depth=queue_depth,
        shards=runtime.shards,
        shard_placement=runtime.shard_placement_policy,
        ps_queue_delay_total=ps_queue_delay,
        ps_max_queue_depth=ps_queue_depth,
        ps_queue_source="fabric" if runtime.fabric is not None else "streams",
        observability=runtime.obs.report() if runtime.obs is not None else None,
    )
