"""The virtual-worker pipeline simulator.

One instance drives one virtual worker: ``k`` stage processors (GPUs),
directional channels between adjacent stages, admission of up to ``Nm``
concurrent minibatches, and the §4 scheduling conditions.  It reports
minibatch completions to a listener (the WSP runtime aggregates them
into waves) and exposes the counters the metrics layer and the test
suite read: per-stage busy time, peak in-flight stash, per-minibatch
injection/completion times, and the local-staleness ledger.

Local staleness accounting: when minibatch ``p`` is injected, the number
of already-completed minibatches is recorded.  §4 requires that for
``p > slocal + 1`` the weights reflect at least all updates from
minibatches ``1 .. p - (slocal + 1)``; with admission bounded by ``Nm``
this holds by construction, and the recorded ledger lets tests assert it
rather than trust it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.topology import InterconnectSpec
from repro.errors import SimulationError, StalenessViolation
from repro.netsim.fabric import Endpoint, Fabric, FabricEdge
from repro.partition.spec import PartitionPlan
from repro.pipeline.tasks import AdmissionGate, OpenGate
from repro.sim.engine import Simulator
from repro.sim.resources import Channel, Processor
from repro.sim.trace import Trace, TraceSite


def build_stage_edge(
    sim: Simulator,
    interconnect: InterconnectSpec,
    fabric: Fabric | None,
    src,
    dst,
    name: str,
) -> "Channel | FabricEdge":
    """The link carrying stage-boundary traffic from GPU ``src`` to ``dst``.

    Dedicated mode: a private FIFO :class:`Channel` with the point-to-point
    parameters.  Shared mode: a :class:`FabricEdge` routing every transfer
    over the cluster's shared lanes, switches, and NICs.
    """
    if fabric is not None:
        return fabric.edge(Endpoint.gpu(src), Endpoint.gpu(dst), name)
    bandwidth, latency = interconnect.link_between(src, dst)
    return Channel(sim, bandwidth, latency, name)


def stage_sites(trace: Trace, category: str, name: str, k: int) -> list[TraceSite]:
    """Pipeline ``name``'s ``category`` trace sites of its stages
    ``0 .. k-1`` (actor ``{name}.s{s}``, detail key ``minibatch``)."""
    return [trace.site(category, f"{name}.s{s}", "minibatch") for s in range(k)]


@dataclass
class _StageState:
    """Mutable runtime state of one pipeline stage."""

    processor: Processor
    to_next: "Channel | FabricEdge | None"  # activations forward
    to_prev: "Channel | FabricEdge | None"  # gradients backward
    next_fwd: int = 1  # next minibatch id whose forward may run (cond. 1)
    next_bwd: int = 1  # next minibatch id whose backward may run (cond. 2)
    fwd_ready: set[int] = field(default_factory=set)
    bwd_ready: set[int] = field(default_factory=set)
    in_flight: int = 0  # activations stashed: F submitted, B not finished
    peak_in_flight: int = 0


class VirtualWorkerPipeline:
    """Simulates pipelined model parallelism for one virtual worker."""

    #: per-GPU dispatch order among ready tasks (§4 condition 3).  False
    #: is HetPipe's FIFO: every in-order task is submitted the moment it
    #: arrives.  True is PipeDream's 1F1B: ready tasks are held per stage
    #: and, whenever the GPU idles, the head backward runs before the
    #: head forward (see :class:`~repro.pipeline.one_f_one_b.OneFOneBPipeline`).
    backward_first = False

    def __init__(
        self,
        sim: Simulator,
        plan: PartitionPlan,
        interconnect: InterconnectSpec,
        name: str = "vw0",
        gate: AdmissionGate | None = None,
        on_minibatch_done: Callable[[int, float], None] | None = None,
        on_inject: Callable[[int, float], None] | None = None,
        trace: Trace | None = None,
        slocal: int | None = None,
        jitter: float = 0.0,
        fabric: Fabric | None = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.name = name
        self.fabric = fabric
        self.gate = gate if gate is not None else OpenGate()
        self.gate.subscribe(self._try_inject)
        self.on_minibatch_done = on_minibatch_done
        #: called with (minibatch, now) right after admission — the WSP
        #: runtime forwards this to the staleness oracle, which needs the
        #: gate state *at injection time*, not post-hoc from the trace
        self.on_inject = on_inject
        self.trace = trace if trace is not None else Trace(enabled=False)
        #: local staleness threshold; Nm - 1 unless overridden for tests
        self.slocal = plan.nm - 1 if slocal is None else slocal
        #: multiplicative task-duration noise (real-cluster variance);
        #: deterministic per pipeline name (no stream without jitter)
        self.jitter = jitter
        self._jitter_rng = (
            random.Random(zlib.crc32(name.encode()) & 0x7FFFFFFF) if jitter > 0 else None
        )
        #: fault-injection state: per-stage straggler slowdown factors
        #: (empty = healthy; the no-fault duration path is unchanged)
        self.stage_scale: dict[int, float] = {}

        self.stages: list[_StageState] = []
        for stage in plan.stages:
            to_next = None
            to_prev = None
            if stage.index < plan.k - 1:
                nxt = plan.stages[stage.index + 1]
                to_next = build_stage_edge(
                    sim, interconnect, fabric, stage.gpu, nxt.gpu,
                    f"{name}.act{stage.index}->{stage.index + 1}",
                )
            if stage.index > 0:
                prev = plan.stages[stage.index - 1]
                to_prev = build_stage_edge(
                    sim, interconnect, fabric, stage.gpu, prev.gpu,
                    f"{name}.grad{stage.index}->{stage.index - 1}",
                )
            self.stages.append(
                _StageState(
                    processor=Processor(sim, f"{name}.gpu{stage.index}"),
                    to_next=to_next,
                    to_prev=to_prev,
                )
            )

        # Trace sites, built once.  The stages before the last run
        # separate forward and backward tasks; the last runs fused ones,
        # whose ``fb_*`` sites fill slot ``k - 1`` of the enqueue, start
        # and done lists.  FIFO records admissions and submissions;
        # backward-first records arrivals at a stage's ready set instead.
        trace, inner, last = self.trace, plan.k - 1, f"{name}.s{plan.k - 1}"
        if self.backward_first:
            self._f_ready = stage_sites(trace, "f_ready", name, plan.k)
            self._b_ready = stage_sites(trace, "b_ready", name, inner)
        else:
            self._inject_site = trace.site("inject", name, "minibatch")
            self._f_enqueue = stage_sites(trace, "f_enqueue", name, inner) + [
                trace.site("fb_enqueue", last, "minibatch")
            ]
            self._b_enqueue = stage_sites(trace, "b_enqueue", name, inner)
        self._done_site = trace.site("minibatch_done", name, "minibatch")
        self._f_start = stage_sites(trace, "f_start", name, inner) + [
            trace.site("fb_start", last, "minibatch")
        ]
        self._f_done = stage_sites(trace, "f_done", name, inner)
        self._b_start = stage_sites(trace, "b_start", name, inner)
        self._b_done = stage_sites(trace, "b_done", name, inner) + [
            trace.site("fb_done", last, "minibatch")
        ]
        # Admission / completion bookkeeping (minibatch ids are 1-based).
        self.next_minibatch = 1
        self.active = 0  # admitted but not completed
        self.completed = 0
        self.inject_times: dict[int, float] = {}
        self.done_times: dict[int, float] = {}
        #: completed count observed at each minibatch's injection
        self.staleness_ledger: dict[int, int] = {}
        #: stashed-version ledger (pipeline-variant zoo): the pulled
        #: weight version this worker held at each in-flight minibatch's
        #: injection, keyed by *raw* minibatch id (raw ids stay stable
        #: across fast-forward skips; public ids do not).  The distinct
        #: values are the weight versions a stashing variant must keep
        #: alive; variant gates and the weight-version oracle read it.
        self.version_stamps: dict[int, int] = {}
        #: current pulled weight version (fed by the WSP runtime's pull
        #: path; -1 before the first pull, matching the gate's initial)
        self.weight_version = -1
        #: monotone peak of distinct stamped versions alive at once
        self.versions_peak = 0
        #: fast-forward id translation: a steady-state skip advances the
        #: *public* minibatch numbering (trace records, ledgers, gate and
        #: callback ids) by the coalesced count while in-flight events
        #: keep their raw ids — public id == raw id + mb_offset.  Always
        #: 0 under full fidelity, so the mapping is the identity there.
        self.mb_offset = 0
        #: minibatches coalesced by fast-forward skips (diagnostics)
        self.minibatches_fast_forwarded = 0
        self._running = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin injecting minibatches (call once, before ``sim.run``)."""
        if self._running:
            raise SimulationError(f"{self.name}: already started")
        self._running = True
        self._try_inject()

    def stop(self) -> None:
        """Stop admitting new minibatches; in-flight ones drain."""
        self._running = False

    # ------------------------------------------------------------------
    # fault injection (see repro.faults)
    # ------------------------------------------------------------------

    def set_link_scale(self, scale: float) -> None:
        """Degrade (or restore) this worker's *cross-node* stage links.

        Dedicated-interconnect mode only: fabric-backed edges are scaled
        at the fabric itself, and intra-node links are unaffected by a
        shared-fabric fault."""
        for s, state in enumerate(self.stages):
            if state.to_next is not None and isinstance(state.to_next, Channel):
                if not self.plan.stages[s].gpu.same_node(self.plan.stages[s + 1].gpu):
                    state.to_next.rate_scale = scale
            if state.to_prev is not None and isinstance(state.to_prev, Channel):
                if not self.plan.stages[s].gpu.same_node(self.plan.stages[s - 1].gpu):
                    state.to_prev.rate_scale = scale

    def resume_from(self, base: int) -> None:
        """Elastic-recovery restart point: the pipeline's public minibatch
        numbering continues from ``base`` (the checkpointed progress of
        the worker it replaces), exactly like a fast-forward translation.
        Must be called before :meth:`start`."""
        if self._running:
            raise SimulationError(f"{self.name}: cannot resume a running pipeline")
        self.mb_offset = base
        self.completed = base

    def halt(self) -> None:
        """Permanently abandon this pipeline (its node crashed and a
        replacement is taking over): stop admissions, silence callbacks,
        and halt every stage processor so in-flight work dies."""
        self._running = False
        self.on_minibatch_done = None
        self.on_inject = None
        for state in self.stages:
            state.processor.halt()

    def set_weight_version(self, version: int) -> None:
        """Record the worker's freshly pulled weight version; minibatches
        injected from now on are stamped with it (see ``version_stamps``)."""
        self.weight_version = version

    def versions_alive(self) -> int:
        """Distinct weight versions pinned by in-flight minibatches."""
        return len(set(self.version_stamps.values()))

    def _try_inject(self) -> None:
        if not self._running:
            return
        while self.active < self.plan.nm and self.gate.may_start(
            self.next_minibatch + self.mb_offset
        ):
            self._inject(self.next_minibatch)
            self.next_minibatch += 1

    def _inject(self, p: int) -> None:
        pub = p + self.mb_offset
        # Local staleness check (§4): weights for pub must include updates
        # from minibatches 1 .. pub - (slocal + 1).
        if self.completed < pub - 1 - self.slocal:
            raise StalenessViolation(
                f"{self.name}: minibatch {pub} injected with only "
                f"{self.completed} local updates (slocal={self.slocal})"
            )
        self.active += 1
        self.inject_times[pub] = self.sim.now
        self.staleness_ledger[pub] = self.completed
        self.version_stamps[p] = self.weight_version
        alive = len(set(self.version_stamps.values()))
        if alive > self.versions_peak:
            self.versions_peak = alive
        if not self.backward_first:
            self.trace.emit(self.sim.now, self._inject_site, pub)
        if self.on_inject is not None:
            self.on_inject(pub, self.sim.now)
        self._forward_arrived(0, p)

    # ------------------------------------------------------------------
    # forward path
    # ------------------------------------------------------------------

    def _forward_arrived(self, s: int, p: int) -> None:
        """Input activation of minibatch ``p`` is now on stage ``s``."""
        state = self.stages[s]
        state.fwd_ready.add(p)
        if self.backward_first:
            self.trace.emit(self.sim.now, self._f_ready[s], p + self.mb_offset)
            self._dispatch(s)
            return
        # Condition 1: forwards run in minibatch order on each GPU.
        while state.next_fwd in state.fwd_ready:
            p = state.next_fwd
            state.fwd_ready.remove(p)
            state.next_fwd += 1
            # Trace ids translate raw -> public at *emit* time (a
            # fast-forward skip between enqueue and start advances
            # mb_offset).
            self.trace.emit(self.sim.now, self._f_enqueue[s], p + self.mb_offset)
            self._start_forward(s, p)

    def _dispatch(self, s: int) -> None:
        """Backward-first: if stage ``s``'s GPU is idle, submit its next
        in-order backward when ready, else its next in-order forward."""
        state = self.stages[s]
        if state.processor.busy:
            return
        p = state.next_bwd
        if p in state.bwd_ready:
            state.bwd_ready.remove(p)
            state.next_bwd += 1
            self._start_backward(s, p)
            return
        p = state.next_fwd
        if p in state.fwd_ready:
            state.fwd_ready.remove(p)
            state.next_fwd += 1
            self._start_forward(s, p)

    def _task_time(self, s: int, duration: float) -> float:
        """Effective task duration on stage ``s``: straggler slowdown
        (if any fault is active) composed with the jitter draw."""
        if self.stage_scale:
            duration *= self.stage_scale.get(s, 1.0)
        if self.jitter <= 0:
            return duration
        return duration * (1.0 + self.jitter * self._jitter_rng.uniform(-1.0, 1.0))

    def _start_forward(self, s: int, p: int) -> None:
        state = self.stages[s]
        stage = self.plan.stages[s]
        state.in_flight += 1
        if state.in_flight > state.peak_in_flight:
            state.peak_in_flight = state.in_flight
        if state.to_next is None:
            # Condition 4: last partition runs fwd+bwd as one task.
            duration, done, kind = stage.fwd_compute + stage.bwd_compute, self._backward_done, "FB"
        else:
            duration, done, kind = stage.fwd_compute, self._forward_done, "F"
        state.processor.submit(
            self._task_time(s, duration),
            lambda: done(s, p),
            tag=(kind, p),
            on_start=(lambda site=self._f_start[s], p=p: self.trace.emit(self.sim.now, site, p + self.mb_offset)),
        )

    def _forward_done(self, s: int, p: int) -> None:
        self.trace.emit(self.sim.now, self._f_done[s], p + self.mb_offset)
        state = self.stages[s]
        nbytes = self.plan.stages[s + 1].activation_in_bytes
        assert state.to_next is not None
        state.to_next.transfer(nbytes, lambda: self._forward_arrived(s + 1, p))
        if self.backward_first:
            self._dispatch(s)

    # ------------------------------------------------------------------
    # backward path
    # ------------------------------------------------------------------

    def _gradient_arrived(self, s: int, p: int) -> None:
        state = self.stages[s]
        state.bwd_ready.add(p)
        if self.backward_first:
            self.trace.emit(self.sim.now, self._b_ready[s], p + self.mb_offset)
            self._dispatch(s)
            return
        # Condition 2: backwards run in minibatch order on each GPU.
        while state.next_bwd in state.bwd_ready:
            p = state.next_bwd
            state.bwd_ready.remove(p)
            state.next_bwd += 1
            self.trace.emit(self.sim.now, self._b_enqueue[s], p + self.mb_offset)
            self._start_backward(s, p)

    def _start_backward(self, s: int, p: int) -> None:
        self.stages[s].processor.submit(
            self._task_time(s, self.plan.stages[s].bwd_compute),
            (lambda s=s, p=p: self._backward_done(s, p)),
            tag=("B", p),
            on_start=(lambda site=self._b_start[s], p=p: self.trace.emit(self.sim.now, site, p + self.mb_offset)),
        )

    def _backward_done(self, s: int, p: int) -> None:
        """Backward (the fused task on the last stage) of ``p`` finished
        on stage ``s``: its stash frees and its gradient moves on."""
        self.trace.emit(self.sim.now, self._b_done[s], p + self.mb_offset)
        state = self.stages[s]
        state.in_flight -= 1
        if s > 0:
            nbytes = self.plan.stages[s].activation_in_bytes
            assert state.to_prev is not None
            state.to_prev.transfer(nbytes, lambda: self._gradient_arrived(s - 1, p))
        else:
            self._minibatch_done(p)
        if self.backward_first:
            self._dispatch(s)

    def _minibatch_done(self, p: int) -> None:
        # The last-stage bookkeeping treats the fused FB as both passes;
        # here stage 0's backward completed, so p has fully drained and
        # its local update is applied to w_local (§4).
        pub = p + self.mb_offset
        self.completed += 1
        self.active -= 1
        self.version_stamps.pop(p, None)
        self.done_times[pub] = self.sim.now
        self.trace.emit(self.sim.now, self._done_site, pub)
        if self.on_minibatch_done is not None:
            self.on_minibatch_done(pub, self.sim.now)
        self._try_inject()

    # ------------------------------------------------------------------
    # steady-state fast-forward (see repro.sim.fastforward)
    # ------------------------------------------------------------------

    def ff_counters(self) -> tuple:
        """Cumulative counters whose per-cycle deltas define steady state.

        Watermarks are reported in *public* numbering (raw value +
        ``mb_offset``): a skip leaves the raw scheduling state untouched
        but jumps the offset, and public values are what advance by
        exactly one cycle delta per boundary across a skip — which is
        what lets :meth:`SteadyStateDetector.rebase` keep chained skips
        confirming instantly.
        """
        offset = self.mb_offset
        values = [self.completed, self.next_minibatch + offset]
        for state in self.stages:
            values.append(state.next_fwd + offset)
            values.append(state.next_bwd + offset)
        # Stashed-version ledger state: the pulled version advances by a
        # fixed count per steady-state cycle (one pull per wave) and the
        # distinct-versions peak plateaus (delta 0), so both are valid
        # cycle counters; slot 0 must stay `completed` (the runtime's
        # per-pipeline delta reads depend on it).
        values.append(self.weight_version)
        values.append(self.versions_peak)
        return tuple(values)

    def ff_levels(self, now: float) -> tuple:
        """Structural state that must repeat exactly across cycles."""
        levels: list = [self.active]
        for state in self.stages:
            levels.append(
                (
                    state.in_flight,
                    state.peak_in_flight,
                    tuple(sorted(p - state.next_fwd for p in state.fwd_ready)),
                    tuple(sorted(p - state.next_bwd for p in state.bwd_ready)),
                )
            )
        # Relative shape of the stashed-version ledger: (how far behind
        # the injection head, how far behind the pulled version) per
        # in-flight stamp — absolute ids advance every cycle, offsets
        # must repeat exactly.
        levels.append(
            tuple(
                sorted(
                    (self.next_minibatch - p, self.weight_version - v)
                    for p, v in self.version_stamps.items()
                )
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
        # Ledger counters ride the same deltas (their ff_counters slots
        # sit right after the per-stage watermarks); surviving raw
        # stamps shift by the skipped versions so relative staleness —
        # the part of the ledger that repeats — is preserved.
        versions = cycles * deltas[2 + 2 * len(self.stages)]
        if versions:
            self.weight_version += versions
            for raw in self.version_stamps:
                self.version_stamps[raw] += versions
        self.versions_peak += cycles * deltas[3 + 2 * len(self.stages)]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def utilizations(self, window: float | None = None) -> list[float]:
        """Per-stage GPU utilization over ``window`` (defaults to now)."""
        return [s.processor.utilization(window) for s in self.stages]

    def peak_in_flight(self) -> list[int]:
        return [s.peak_in_flight for s in self.stages]

    def cross_node_bytes(self) -> float:
        """Activation/gradient bytes moved between nodes so far."""
        total = 0.0
        for s, state in enumerate(self.stages):
            if state.to_next is not None:
                a, b = self.plan.stages[s].gpu, self.plan.stages[s + 1].gpu
                if not a.same_node(b):
                    total += state.to_next.bytes_moved
            if state.to_prev is not None:
                a, b = self.plan.stages[s].gpu, self.plan.stages[s - 1].gpu
                if not a.same_node(b):
                    total += state.to_prev.bytes_moved
        return total

    def channel_queue_stats(self) -> tuple[float, int]:
        """``(total queueing delay, peak queue depth)`` over this worker's
        stage-boundary links.  In fabric mode the per-edge view is the
        fabric-wide total (shared resources cannot attribute waits to one
        edge), so the caller should read the fabric directly instead."""
        if self.fabric is not None:
            return self.fabric.queue_stats()
        total = 0.0
        depth = 0
        for state in self.stages:
            for edge in (state.to_next, state.to_prev):
                if edge is not None:
                    total += edge.queue_delay_total
                    depth = max(depth, edge.max_queue_depth)
        return total, depth
