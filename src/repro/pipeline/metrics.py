"""Steady-state pipeline measurement.

Runs a :class:`VirtualWorkerPipeline` alone (no parameter server) for a
warmup phase plus a measured window and reports the numbers Figure 3
plots: throughput (images/s) and per-stage GPU utilization, of which the
paper reports the maximum across partitions.  The admission gate is the
variant's (:mod:`repro.pipeline.variants`) over a bounded count, so the
Table-2 GPipe ablation is the same measurement with
``variant="gpipe_flush"``, and the PipeDream one is
``pipeline=OneFOneBPipeline``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import InterconnectSpec
from repro.errors import SimulationError, SpecError
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
    pipeline: type[VirtualWorkerPipeline] = VirtualWorkerPipeline,
) -> PipelineMetrics:
    """Measure one virtual worker in isolation.

    ``warmup_minibatches`` defaults to ``4 * Nm + 2 * k`` which is ample
    for the pipe to reach steady state.

    ``variant`` picks the admission rule: the default keeps the
    continuous HetPipe pipeline, ``"gpipe_flush"`` admits wave ``w``
    only after every earlier wave drained (the Table-2 ablation).

    ``pipeline`` picks the dispatch policy: the default runs HetPipe's
    FIFO; a bounded subclass such as
    :class:`~repro.pipeline.one_f_one_b.OneFOneBPipeline` is built with
    ``limit=`` the window's total and admits by count alone, so it takes
    only the default variant.

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
    for arg, value in (("warmup_minibatches", warmup_minibatches),
                       ("measured_minibatches", measured_minibatches)):
        if value < 1:
            raise SpecError(f"measure_pipeline: {arg} must be >= 1, got {value}")
    total = warmup_minibatches + measured_minibatches

    sim = Simulator()
    marks: dict[str, tuple[float, list[float]]] = {}

    def on_done(p: int, now: float) -> None:
        if vw.completed == warmup_minibatches:
            marks["start"] = (now, [s.processor.busy_time for s in vw.stages])
        elif vw.completed == total:
            marks["end"] = (now, [s.processor.busy_time for s in vw.stages])

    if pipeline is VirtualWorkerPipeline:
        gate = build_variant_gate(get_variant(variant), CountingGate(limit=total), plan.nm)
        vw = VirtualWorkerPipeline(sim, plan, interconnect, name=plan.model_name, gate=gate)
        if hasattr(gate, "attach"):
            gate.attach(vw)
    elif variant != DEFAULT_VARIANT:
        raise SpecError(
            f"measure_pipeline: variant {variant!r} composes over "
            f"VirtualWorkerPipeline's gate; {pipeline.__name__} admits by count only"
        )
    else:
        vw = pipeline(sim, plan, interconnect, limit=total, name=plan.model_name)
    vw.on_minibatch_done = on_done
    vw.start()
    if fidelity == "fast_forward":
        run_pipeline_fast_forward(vw, total, preserve=(warmup_minibatches, total))
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
    queue_delay, queue_depth = vw.channel_queue_stats()
    return PipelineMetrics(
        model_name=plan.model_name,
        nm=plan.nm,
        batch_size=batch_size,
        throughput=measured_minibatches * batch_size / window,
        minibatch_rate=measured_minibatches / window,
        utilizations=utilizations,
        peak_in_flight=tuple(vw.peak_in_flight()),
        cross_node_bytes_per_minibatch=vw.cross_node_bytes() / total,
        serial_latency=plan.serial_latency,
        measured_minibatches=measured_minibatches,
        queue_delay_total=queue_delay,
        max_queue_depth=queue_depth,
    )
