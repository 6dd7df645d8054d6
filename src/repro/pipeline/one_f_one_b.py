"""PipeDream-style one-forward-one-backward (1F1B) scheduling.

HetPipe schedules each GPU's ready tasks FIFO (§4 condition 3);
PipeDream instead *alternates* forward and backward work in steady
state, which bounds the number of stashed activations per stage without
an explicit admission cap.  The paper cites this scheduler (§2.3, §9:
"PipeDream employs the one-forward-one-backward scheduling algorithm")
— this module implements it as a drop-in scheduling variant so the
ablation bench can compare the two disciplines on identical partitions.

Implementation: instead of submitting tasks to the FIFO processor the
moment they become ready, each stage keeps explicit forward/backward
ready-queues and, whenever its GPU goes idle, dispatches a backward
task if one is ready (draining work out of the pipe first), otherwise a
forward task.  Conditions 1–2 (per-type minibatch order) still hold
because the queues are popped in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.topology import InterconnectSpec
from repro.errors import SimulationError
from repro.netsim.fabric import Fabric, FabricEdge
from repro.partition.spec import PartitionPlan
from repro.pipeline.virtual_worker import build_stage_edge, stage_sites
from repro.sim.engine import Simulator
from repro.sim.resources import Channel, Processor
from repro.sim.trace import Trace


@dataclass
class _Stage1F1B:
    processor: Processor
    to_next: "Channel | FabricEdge | None"
    to_prev: "Channel | FabricEdge | None"
    fwd_queue: list[int] = field(default_factory=list)
    bwd_queue: list[int] = field(default_factory=list)
    next_fwd: int = 1
    next_bwd: int = 1
    dispatching: bool = False


class OneFOneBPipeline:
    """A virtual-worker pipeline under 1F1B dispatch.

    Mirrors :class:`~repro.pipeline.virtual_worker.VirtualWorkerPipeline`
    closely enough for the metrics layer: ``completed``, ``done_times``
    and per-stage processors are exposed.  Admission keeps ``nm``
    minibatches in flight, as HetPipe does, so the comparison isolates
    the *dispatch discipline*.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: PartitionPlan,
        interconnect: InterconnectSpec,
        limit: int,
        name: str = "1f1b",
        trace: Trace | None = None,
        fabric: Fabric | None = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.limit = limit
        self.name = name
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.fabric = fabric
        self.stages: list[_Stage1F1B] = []
        for stage in plan.stages:
            to_next = None
            to_prev = None
            if stage.index < plan.k - 1:
                nxt = plan.stages[stage.index + 1]
                to_next = build_stage_edge(
                    sim, interconnect, fabric, stage.gpu, nxt.gpu, f"{name}.act{stage.index}"
                )
            if stage.index > 0:
                prev = plan.stages[stage.index - 1]
                to_prev = build_stage_edge(
                    sim, interconnect, fabric, stage.gpu, prev.gpu, f"{name}.grad{stage.index}"
                )
            self.stages.append(
                _Stage1F1B(
                    processor=Processor(sim, f"{name}.gpu{stage.index}"),
                    to_next=to_next,
                    to_prev=to_prev,
                )
            )
        # Trace sites, built once.  The stages before the last run
        # separate forward and backward tasks; the last runs fused ones.
        inner, last = plan.k - 1, f"{name}.s{plan.k - 1}"
        self._f_ready = stage_sites(self.trace, "f_ready", name, plan.k)
        self._b_ready = stage_sites(self.trace, "b_ready", name, inner)
        self._f_start = stage_sites(self.trace, "f_start", name, inner)
        self._b_start = stage_sites(self.trace, "b_start", name, inner)
        self._f_done = stage_sites(self.trace, "f_done", name, inner)
        self._fb_start = self.trace.site("fb_start", last, "minibatch")
        # _bwd_done serves every stage, the last one with its fused task
        self._bwd_done_sites = stage_sites(self.trace, "b_done", name, inner) + [
            self.trace.site("fb_done", last, "minibatch")
        ]
        self._done_site = self.trace.site("minibatch_done", name, "minibatch")
        self.next_minibatch = 1
        self.active = 0
        self.completed = 0
        self.done_times: dict[int, float] = {}
        #: fast-forward id translation (public id == raw id + mb_offset);
        #: 0 under full fidelity — see VirtualWorkerPipeline.mb_offset
        self.mb_offset = 0
        #: minibatches coalesced by fast-forward skips (diagnostics)
        self.minibatches_fast_forwarded = 0
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise SimulationError(f"{self.name}: already started")
        self._started = True
        self._admit()

    def _admit(self) -> None:
        while self.active < self.plan.nm and self.next_minibatch + self.mb_offset <= self.limit:
            p = self.next_minibatch
            self.next_minibatch += 1
            self.active += 1
            self._enqueue_fwd(0, p)

    def _enqueue_fwd(self, s: int, p: int) -> None:
        self.stages[s].fwd_queue.append(p)
        self.trace.emit(self.sim.now, self._f_ready[s], p + self.mb_offset)
        self._dispatch(s)

    def _enqueue_bwd(self, s: int, p: int) -> None:
        self.stages[s].bwd_queue.append(p)
        self.trace.emit(self.sim.now, self._b_ready[s], p + self.mb_offset)
        self._dispatch(s)

    def _dispatch(self, s: int) -> None:
        """1F1B: when the GPU frees up, prefer backward work."""
        state = self.stages[s]
        if state.processor.busy or state.dispatching:
            return
        stage = self.plan.stages[s]
        last = s == self.plan.k - 1
        if state.bwd_queue and state.bwd_queue[0] == state.next_bwd:
            p = state.bwd_queue.pop(0)
            state.next_bwd += 1
            state.processor.submit(
                stage.bwd_compute,
                (lambda s=s, p=p: self._bwd_done(s, p)),
                tag=("B", p),
                on_start=(lambda site=self._b_start[s], p=p: self.trace.emit(self.sim.now, site, p + self.mb_offset)),
            )
        elif state.fwd_queue and state.fwd_queue[0] == state.next_fwd:
            p = state.fwd_queue.pop(0)
            state.next_fwd += 1
            if last:
                state.processor.submit(
                    stage.fwd_compute + stage.bwd_compute,
                    (lambda s=s, p=p: self._bwd_done(s, p)),
                    tag=("FB", p),
                    on_start=(lambda p=p: self.trace.emit(self.sim.now, self._fb_start, p + self.mb_offset)),
                )
            else:
                state.processor.submit(
                    stage.fwd_compute,
                    (lambda s=s, p=p: self._fwd_done(s, p)),
                    tag=("F", p),
                    on_start=(lambda site=self._f_start[s], p=p: self.trace.emit(self.sim.now, site, p + self.mb_offset)),
                )

    def _fwd_done(self, s: int, p: int) -> None:
        self.trace.emit(self.sim.now, self._f_done[s], p + self.mb_offset)
        state = self.stages[s]
        nbytes = self.plan.stages[s + 1].activation_in_bytes
        assert state.to_next is not None
        state.to_next.transfer(nbytes, lambda: self._enqueue_fwd(s + 1, p))
        self._dispatch(s)

    def _bwd_done(self, s: int, p: int) -> None:
        self.trace.emit(self.sim.now, self._bwd_done_sites[s], p + self.mb_offset)
        state = self.stages[s]
        if s > 0:
            nbytes = self.plan.stages[s].activation_in_bytes
            assert state.to_prev is not None
            state.to_prev.transfer(nbytes, lambda: self._enqueue_bwd(s - 1, p))
        else:
            pub = p + self.mb_offset
            self.completed += 1
            self.active -= 1
            self.done_times[pub] = self.sim.now
            self.trace.emit(self.sim.now, self._done_site, pub)
            self._admit()
        self._dispatch(s)

    # ------------------------------------------------------------------
    # steady-state fast-forward (see repro.sim.fastforward)
    # ------------------------------------------------------------------

    def ff_counters(self) -> tuple:
        """Cumulative counters whose per-cycle deltas define steady state.

        Watermarks report in public numbering (raw + ``mb_offset``) so
        post-skip boundaries match the detector's rebased history — see
        VirtualWorkerPipeline.ff_counters.
        """
        offset = self.mb_offset
        values = [self.completed, self.next_minibatch + offset]
        for state in self.stages:
            values.append(state.next_fwd + offset)
            values.append(state.next_bwd + offset)
        return tuple(values)

    def ff_levels(self, now: float) -> tuple:
        """Structural state that must repeat exactly across cycles."""
        levels: list = [self.active]
        for state in self.stages:
            levels.append(
                (
                    state.dispatching,
                    tuple(p - state.next_fwd for p in state.fwd_queue),
                    tuple(p - state.next_bwd for p in state.bwd_queue),
                )
            )
        return tuple(levels)

    def ff_advance(self, cycles: int, deltas: tuple, dt: float) -> None:
        """Account ``cycles`` coalesced cycles: completions and the public
        id translation advance; raw scheduling state stays untouched."""
        advanced = cycles * deltas[0]
        self.completed += advanced
        self.mb_offset += advanced
        self.minibatches_fast_forwarded += advanced


def measure_1f1b_pipeline(
    plan: PartitionPlan,
    interconnect: InterconnectSpec,
    batch_size: int,
    warmup_minibatches: int | None = None,
    measured_minibatches: int = 60,
    fidelity=None,
) -> float:
    """Throughput (images/s) of ``plan`` under 1F1B dispatch.

    ``fidelity`` is a :class:`repro.api.spec.FidelitySpec` (``None``
    means full fidelity).  Fast-forward coalesces confirmed steady-state
    cycles (the 1F1B pipeline is deterministic, so long measurement
    windows collapse to warmup + detection + drain); the measured window
    is identical to the full run within the 1e-9 semantic contract
    because coalesced completion times are filled from the confirmed
    cycle.
    """
    from repro.api.spec import fidelity_mode
    from repro.sim.fastforward import run_pipeline_fast_forward

    fidelity = fidelity_mode(fidelity, "measure_1f1b_pipeline")
    if warmup_minibatches is None:
        warmup_minibatches = 4 * plan.nm + 2 * plan.k
    total = warmup_minibatches + measured_minibatches
    sim = Simulator()
    pipeline = OneFOneBPipeline(sim, plan, interconnect, limit=total)
    pipeline.start()
    if fidelity == "fast_forward":
        run_pipeline_fast_forward(pipeline, total)
    else:
        sim.run_until_idle()
    if pipeline.completed != total:
        raise SimulationError(
            f"1F1B pipeline stalled at {pipeline.completed}/{total} minibatches"
        )
    t0 = pipeline.done_times[warmup_minibatches]
    t1 = pipeline.done_times[total]
    return measured_minibatches * batch_size / (t1 - t0)
