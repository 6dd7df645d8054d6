"""Steady-state pipeline measurement.

Runs a :class:`VirtualWorkerPipeline` alone (no parameter server) for a
warmup phase plus a measured window and reports the numbers Figure 3
plots: throughput (images/s) and per-stage GPU utilization, of which the
paper reports the maximum across partitions.  The admission gate is the
variant's (:mod:`repro.pipeline.variants`) over a bounded count, so the
Table-2 GPipe ablation is the same measurement with
``variant="gpipe_flush"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import InterconnectSpec
from repro.errors import SimulationError
from repro.partition.spec import PartitionPlan
from repro.pipeline.tasks import CountingGate
from repro.pipeline.variants import DEFAULT_VARIANT, build_variant_gate, get_variant
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class PipelineMetrics:
    """Steady-state measurements of one virtual worker's pipeline."""

    model_name: str
    nm: int
    batch_size: int
    throughput: float  # images / second
    minibatch_rate: float  # minibatches / second
    utilizations: tuple[float, ...]  # per stage, measured window
    peak_in_flight: tuple[int, ...]
    cross_node_bytes_per_minibatch: float
    serial_latency: float
    measured_minibatches: int
    #: total seconds transfers waited behind earlier ones on the stage
    #: channels, and the deepest any channel's wait queue ever got —
    #: nonzero whenever activation/gradient traffic outpaces a link
    queue_delay_total: float = 0.0
    max_queue_depth: int = 0

    @property
    def max_utilization(self) -> float:
        """The paper's Fig-3 metric: max average GPU util across stages."""
        return max(self.utilizations)


def measure_pipeline(
    plan: PartitionPlan,
    interconnect: InterconnectSpec,
    batch_size: int,
    warmup_minibatches: int | None = None,
    measured_minibatches: int = 60,
    fidelity=None,
    variant: str = DEFAULT_VARIANT,
) -> PipelineMetrics:
    """Measure one virtual worker in isolation.

    ``warmup_minibatches`` defaults to ``4 * Nm + 2 * k`` which is ample
    for the pipe to reach steady state.

    ``variant`` picks the admission rule: the default keeps the
    continuous HetPipe pipeline, ``"gpipe_flush"`` admits wave ``w``
    only after every earlier wave drained (the Table-2 ablation).

    ``fidelity`` is a :class:`repro.api.spec.FidelitySpec` (``None``
    means full fidelity).  Fast-forward coalesces confirmed steady-state
    cycles between the window boundaries (which are always simulated,
    so the busy-time samples taken there are real); results match the
    full run within the 1e-9 semantic-equivalence contract.
    """
    from repro.api.spec import fidelity_mode
    from repro.sim.fastforward import run_pipeline_fast_forward

    fidelity = fidelity_mode(fidelity, "measure_pipeline")
    if warmup_minibatches is None:
        warmup_minibatches = 4 * plan.nm + 2 * plan.k
    total = warmup_minibatches + measured_minibatches

    sim = Simulator()
    gate = build_variant_gate(get_variant(variant), CountingGate(limit=total), plan.nm)
    marks: dict[str, tuple[float, list[float]]] = {}

    def on_done(p: int, now: float) -> None:
        if pipeline.completed == warmup_minibatches:
            marks["start"] = (now, [s.processor.busy_time for s in pipeline.stages])
        elif pipeline.completed == total:
            marks["end"] = (now, [s.processor.busy_time for s in pipeline.stages])

    pipeline = VirtualWorkerPipeline(
        sim, plan, interconnect, name=plan.model_name, gate=gate, on_minibatch_done=on_done
    )
    if hasattr(gate, "attach"):
        gate.attach(pipeline)
    pipeline.start()
    if fidelity == "fast_forward":
        run_pipeline_fast_forward(
            pipeline, total, preserve=(warmup_minibatches, total)
        )
    else:
        sim.run_until_idle()

    if "start" not in marks or "end" not in marks:
        raise SimulationError("pipeline did not complete the measurement window")
    (t0, busy0), (t1, busy1) = marks["start"], marks["end"]
    window = t1 - t0
    if window <= 0:
        raise SimulationError("empty measurement window")

    utilizations = tuple(
        min(1.0, (b1 - b0) / window) for b0, b1 in zip(busy0, busy1)
    )
    queue_delay, queue_depth = pipeline.channel_queue_stats()
    return PipelineMetrics(
        model_name=plan.model_name,
        nm=plan.nm,
        batch_size=batch_size,
        throughput=measured_minibatches * batch_size / window,
        minibatch_rate=measured_minibatches / window,
        utilizations=utilizations,
        peak_in_flight=tuple(pipeline.peak_in_flight()),
        cross_node_bytes_per_minibatch=pipeline.cross_node_bytes() / total,
        serial_latency=plan.serial_latency,
        measured_minibatches=measured_minibatches,
        queue_delay_total=queue_delay,
        max_queue_depth=queue_depth,
    )
