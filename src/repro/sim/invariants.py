"""Runtime invariant oracles for the WSP/pipeline simulator.

The test suite spot-checks the paper's correctness properties on a
handful of hand-written configurations; this module turns those
properties into *always-on oracles* that watch any run live and raise
:class:`~repro.errors.InvariantViolation` the moment an execution
becomes impossible under the paper's rules:

* :class:`StalenessOracle` — §5 admission: no minibatch ever starts
  missing more than the variant's staleness bound (for every zoo entry
  that is HetPipe's ``s_global = (D+1)(s_local+1) + s_local - 1``, read
  from the run's :class:`~repro.pipeline.variants.VariantDef` so a
  future variant with a different contract brings its own bound).
* :class:`WeightVersionOracle` — the variant's weight-version ledger
  contract: the number of distinct weight versions pinned by in-flight
  minibatches never exceeds ``VariantDef.max_weight_versions(Nm)``
  (PipeDream's ``<= Nm`` version distance, 2BW's two-buffer cap, the
  flush variant's frozen-version rule).  A no-op for the default
  variant, whose contract is unchecked.
* :class:`FlushOracle` — wave-flush discipline for ``wave_flush``
  variants: a minibatch of wave ``w`` never injects before every
  earlier wave fully drained.  A no-op for continuous variants.
* :class:`SchedulingOracle` — the §4 scheduling conditions, checked per
  stage from the live trace: forwards in minibatch order (cond. 1),
  backwards in minibatch order (cond. 2), fused forward+backward only on
  the last partition (cond. 4), and dataflow causality (a stage cannot
  run work whose inputs have not arrived).
* :class:`VersionOracle` — parameter-server clocks: each worker's waves
  record strictly in order, and the global version is exactly the
  minimum over workers and never regresses.
* :class:`ConservationOracle` — counts must reconcile: trace-observed
  injections/completions vs. the runtime's stats vs. the pipelines'
  counters vs. the PS push/pull totals.
* :class:`FabricOracle` — shared-network laws when a contention-aware
  :class:`~repro.netsim.fabric.Fabric` is attached: no flow is served
  faster than its dedicated floor (HetPipe §7's latency plus bytes over
  the bottleneck bandwidth), flow conservation (bytes in == bytes out
  per traversed resource), per-resource utilization <= 1, and PS
  traffic totals matching the fabric's PS flow ledger.  A no-op under
  the dedicated network model.
* :class:`OneFOneBOracle` — PipeDream-style dispatch discipline for a
  pipeline under backward-first dispatch
  (:attr:`~repro.pipeline.virtual_worker.VirtualWorkerPipeline.backward_first`,
  e.g. :class:`~repro.pipeline.one_f_one_b.OneFOneBPipeline`): a stage never
  starts a forward while its next in-order backward is ready.

Fault-injected runs swap in the *graceful-degradation* family
(:func:`fault_oracles`): :class:`RecoveryOracle` (every transient fault
recovers in bounded time, no send is left stranded, the checkpoint
ledger keeps pace), :class:`FailoverConservationOracle` (no minibatch
is lost across crash/rejoin or PS failover — every recorded wave is
backed by completed minibatches), and :class:`DegradationOracle`
(makespan degrades no worse than proportionally to the injected
slowdowns, link degradation, downtime, and capacity lost).  The
scheduling/conservation oracles assume a replay-free single topology,
which elastic recovery deliberately breaks, so they stay out of the
fault suite; staleness and version clocks must hold under faults and
stay in.

Quiescence (no deadlock within an event budget) is enforced by the fuzz
runner through ``run_until_global_version``'s budget rather than an
oracle class, since it is a property of the run loop, not of any single
event.

The oracles attach through the runtime's existing plumbing — the
:class:`~repro.sim.trace.Trace` subscriber hook, the pipeline's
``on_inject`` callback, and the parameter server's push observer — so a
checked run executes the exact same event sequence as an unchecked one
(same trace digest, modulo the cost of the checks themselves).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvariantViolation
from repro.pipeline.tasks import wave_of
from repro.sim.fastforward import FastForwardSummary
from repro.sim.trace import TraceRecord
from repro.wsp.staleness import global_staleness, local_staleness, missing_updates

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (wsp -> sim)
    from repro.cluster.topology import InterconnectSpec
    from repro.netsim.fabric import Flow
    from repro.pipeline.virtual_worker import VirtualWorkerPipeline
    from repro.wsp.runtime import HetPipeRuntime


class RuntimeOracle:
    """Base class: a passive observer of one :class:`HetPipeRuntime` run.

    Subclasses override the callbacks they care about and raise
    :class:`InvariantViolation` on the first impossible observation —
    failing fast pins the violation to the exact simulated moment it
    happened, which is what makes fuzz findings debuggable.
    """

    runtime: "HetPipeRuntime | None" = None
    #: record categories :meth:`on_trace` reads; the runtime routes only
    #: these to it (``None``: every category)
    trace_categories: frozenset[str] | None = None

    def bind(self, runtime: "HetPipeRuntime") -> None:
        """Called once by the runtime before the run starts."""
        self.runtime = runtime

    def on_inject(self, vw: int, minibatch: int, pulled_version: int, time: float) -> None:
        """Minibatch admitted into ``vw``'s pipeline."""

    def on_minibatch_done(self, vw: int, minibatch: int, time: float) -> None:
        """Minibatch fully drained from ``vw``'s pipeline."""

    def on_push_recorded(self, vw: int, wave: int, global_version: int) -> None:
        """The PS recorded ``vw``'s push of ``wave``."""

    def on_pull_done(self, vw: int, version: int, time: float) -> None:
        """``vw`` finished pulling global weights at ``version``."""

    def on_trace(self, record: TraceRecord) -> None:
        """Raw trace record (scheduling-level events)."""

    def on_fast_forward(self, summary: FastForwardSummary) -> None:
        """A steady-state skip coalesced ``summary.cycles`` cycles.

        The skipped region is a confirmed repetition of cycles the oracle
        already observed and accepted, so subclasses bulk-advance their
        expectations rather than re-checking what cannot have changed.
        """

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        """End-of-run reconciliation (called by ``check_invariants``)."""


class StalenessOracle(RuntimeOracle):
    """Variant staleness contract: admission never exceeds the bound.

    The bound comes from the run's variant definition (every current
    zoo entry shares HetPipe's §5 ``s_global`` because they all run on
    the WSP pull substrate); a runtime without a variant — e.g. a
    hand-rolled harness predating the zoo — falls back to the §5
    formula directly.
    """

    def __init__(self) -> None:
        self.max_missing = 0
        self.bound: int | None = None
        self.checked = 0

    def bind(self, runtime: "HetPipeRuntime") -> None:
        super().bind(runtime)
        variant_def = getattr(runtime, "variant_def", None)
        if variant_def is not None:
            self.bound = variant_def.staleness_bound(runtime.d, runtime.nm)
        else:
            self.bound = global_staleness(runtime.d, local_staleness(runtime.nm))

    def on_inject(self, vw: int, minibatch: int, pulled_version: int, time: float) -> None:
        assert self.runtime is not None and self.bound is not None
        missing = missing_updates(minibatch, pulled_version, self.runtime.nm)
        self.checked += 1
        self.max_missing = max(self.max_missing, missing)
        if missing > self.bound:
            raise InvariantViolation(
                f"staleness: vw{vw} started minibatch {minibatch} at t={time:.6f} "
                f"with pulled version {pulled_version}, missing {missing} updates "
                f"> s_global={self.bound} (D={self.runtime.d}, Nm={self.runtime.nm})"
            )


class WeightVersionOracle(RuntimeOracle):
    """Variant weight-version ledger contract (see the zoo's defs).

    Each pipeline stamps every in-flight minibatch with the weight
    version it was admitted under; this oracle checks, at every
    admission, that the number of *distinct* stamped versions stays
    within the variant's contract — ``<= Nm`` for PipeDream's version
    distance, ``<= 2`` for 2BW's double buffer and the flush variant's
    frozen wave.  The default variant leaves the ledger unchecked
    (``max_weight_versions`` is None) and this oracle is inert.
    """

    def __init__(self) -> None:
        self.bound: int | None = None
        self.checked = 0

    def bind(self, runtime: "HetPipeRuntime") -> None:
        super().bind(runtime)
        variant_def = getattr(runtime, "variant_def", None)
        self.bound = (
            variant_def.max_weight_versions(runtime.nm)
            if variant_def is not None
            else None
        )

    def on_inject(self, vw: int, minibatch: int, pulled_version: int, time: float) -> None:
        if self.bound is None:
            return
        assert self.runtime is not None
        alive = self.runtime.pipelines[vw].versions_alive()
        self.checked += 1
        if alive > self.bound:
            raise InvariantViolation(
                f"weight versions: vw{vw} admitted minibatch {minibatch} at "
                f"t={time:.6f} with {alive} distinct weight versions alive "
                f"> {self.bound} ({self.runtime.variant} contract, "
                f"Nm={self.runtime.nm})"
            )

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        if self.bound is None:
            return
        for vw, pipeline in enumerate(runtime.pipelines):
            if pipeline.versions_peak > self.bound:
                raise InvariantViolation(
                    f"weight versions: vw{vw} peaked at "
                    f"{pipeline.versions_peak} distinct weight versions "
                    f"> {self.bound} ({runtime.variant} contract)"
                )


class FlushOracle(RuntimeOracle):
    """Wave-flush discipline for ``wave_flush`` variants.

    A minibatch belonging to wave ``w`` may only inject once every
    minibatch of waves ``0..w-1`` has fully drained — the property that
    makes the single-weight-version accounting of the flush variants
    sound.  Inert for continuous variants.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.checked = 0

    def bind(self, runtime: "HetPipeRuntime") -> None:
        super().bind(runtime)
        variant_def = getattr(runtime, "variant_def", None)
        self.enabled = variant_def is not None and variant_def.wave_flush

    def on_inject(self, vw: int, minibatch: int, pulled_version: int, time: float) -> None:
        if not self.enabled:
            return
        assert self.runtime is not None
        nm = self.runtime.nm
        pipeline = self.runtime.pipelines[vw]
        needed = wave_of(minibatch, nm) * nm
        self.checked += 1
        if pipeline.completed < needed:
            raise InvariantViolation(
                f"flush: vw{vw} injected minibatch {minibatch} (wave "
                f"{wave_of(minibatch, nm)}) at t={time:.6f} with only "
                f"{pipeline.completed} minibatches drained (needs {needed})"
            )


class _StageOrder:
    """Per-stage incremental state for the scheduling oracle.

    Completion watermarks are ints, not sets: because each task type
    starts in minibatch order (conditions 1–2, themselves checked here)
    and the FIFO processor completes in start order, done-events are
    monotone per stage — so the oracle's memory stays O(stages) no
    matter how long the run is.
    """

    __slots__ = ("next_fwd", "next_bwd", "fwd_done_max", "bwd_done_max")

    def __init__(self) -> None:
        self.next_fwd = 1
        self.next_bwd = 1
        self.fwd_done_max = 0
        self.bwd_done_max = 0

    def __repr__(self) -> str:  # diagnostics bundles show the watermarks
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"_StageOrder({fields})"


#: The record categories the scheduling oracle inspects (set membership
#: is the per-record fast path — most records are filtered out here).
_SCHED_CATEGORIES = frozenset(
    ("f_start", "b_start", "fb_start", "f_done", "b_done", "fb_done")
)


class SchedulingOracle(RuntimeOracle):
    """§4 scheduling conditions, checked live from the trace stream."""

    trace_categories = _SCHED_CATEGORIES | {"inject"}

    def __init__(self) -> None:
        self._stages: dict[str, _StageOrder] = {}
        self._k: dict[str, int] = {}  # vw actor -> stage count
        self._injected: dict[str, int] = {}  # vw actor -> highest injected id
        #: actor string -> parsed ("vwN", stage) or None; actors repeat
        #: for every task of a run, so parse each exactly once
        self._where: dict[str, tuple[str, int] | None] = {}

    def bind(self, runtime: "HetPipeRuntime") -> None:
        super().bind(runtime)
        for index, plan in enumerate(runtime.plans):
            self._k[f"vw{index}"] = plan.k

    def _split(self, actor: str) -> tuple[str, int] | None:
        """``vw3.s2`` -> ("vw3", 2); None for non-stage actors."""
        vw, dot, stage = actor.partition(".s")
        if not dot or vw not in self._k:
            return None
        return vw, int(stage)

    def _state(self, actor: str) -> _StageOrder:
        state = self._stages.get(actor)
        if state is None:
            state = self._stages[actor] = _StageOrder()
        return state

    def on_trace(self, record: TraceRecord) -> None:
        category = record.category
        if category == "inject":
            prev = self._injected.get(record.actor, 0)
            p = record.detail["minibatch"]
            if p != prev + 1:
                raise InvariantViolation(
                    f"scheduling: {record.actor} injected minibatch {p} after {prev} "
                    f"(admission must be sequential)"
                )
            self._injected[record.actor] = p
            return
        if category not in _SCHED_CATEGORIES:
            return
        actor = record.actor
        where = self._where.get(actor)
        if where is None:
            if actor in self._where:
                return
            where = self._split(actor)
            self._where[actor] = where
            if where is None:
                return
        vw, s = where
        k = self._k[vw]
        last = s == k - 1
        state = self._state(record.actor)
        p = record.detail["minibatch"]

        if category in ("fb_start", "fb_done") and not last:
            raise InvariantViolation(
                f"scheduling: fused {category} on non-last stage {record.actor} (cond. 4)"
            )
        if category in ("f_start", "f_done", "b_start", "b_done") and last and k > 1:
            raise InvariantViolation(
                f"scheduling: unfused {category} on last stage {record.actor} (cond. 4)"
            )

        if category in ("f_start", "fb_start"):
            if p != state.next_fwd:
                raise InvariantViolation(
                    f"scheduling: {record.actor} ran forward of minibatch {p}, "
                    f"expected {state.next_fwd} (cond. 1 order)"
                )
            state.next_fwd += 1
            if s == 0:
                if p > self._injected.get(vw, 0):
                    raise InvariantViolation(
                        f"scheduling: {record.actor} ran forward of minibatch {p} "
                        f"before it was injected"
                    )
            elif p > self._stages.get(f"{vw}.s{s - 1}", _StageOrder()).fwd_done_max:
                raise InvariantViolation(
                    f"scheduling: {record.actor} ran forward of minibatch {p} before "
                    f"stage {s - 1} finished its forward (causality)"
                )
        elif category == "b_start":
            if p != state.next_bwd:
                raise InvariantViolation(
                    f"scheduling: {record.actor} ran backward of minibatch {p}, "
                    f"expected {state.next_bwd} (cond. 2 order)"
                )
            state.next_bwd += 1
            if p > self._stages.get(f"{vw}.s{s + 1}", _StageOrder()).bwd_done_max:
                raise InvariantViolation(
                    f"scheduling: {record.actor} ran backward of minibatch {p} before "
                    f"stage {s + 1} emitted its gradient (causality)"
                )
        elif category == "f_done":
            state.fwd_done_max = max(state.fwd_done_max, p)
        elif category in ("b_done", "fb_done"):
            if category == "fb_done":
                state.fwd_done_max = max(state.fwd_done_max, p)  # fused task contains the forward
            state.bwd_done_max = max(state.bwd_done_max, p)

    def on_fast_forward(self, summary: FastForwardSummary) -> None:
        """Advance every stage's order/causality watermarks by the
        coalesced minibatches — public ids jump across a skip while the
        per-stage discipline inside the skipped cycles is a confirmed
        repeat of what was already checked."""
        for vw_index, advanced in enumerate(summary.minibatches):
            if advanced == 0:
                continue
            vw = f"vw{vw_index}"
            self._injected[vw] = self._injected.get(vw, 0) + advanced
            for s in range(self._k[vw]):
                state = self._state(f"{vw}.s{s}")
                state.next_fwd += advanced
                state.next_bwd += advanced
                state.fwd_done_max += advanced
                state.bwd_done_max += advanced


class VersionOracle(RuntimeOracle):
    """PS clock laws: in-order waves, monotone minimum global version."""

    def __init__(self) -> None:
        self._pushed: list[int] = []
        self._global = -1

    def bind(self, runtime: "HetPipeRuntime") -> None:
        super().bind(runtime)
        self._pushed = [-1] * len(runtime.plans)

    def on_push_recorded(self, vw: int, wave: int, global_version: int) -> None:
        if wave != self._pushed[vw] + 1:
            raise InvariantViolation(
                f"versions: vw{vw} recorded wave {wave} after wave {self._pushed[vw]} "
                f"(waves must record in order)"
            )
        self._pushed[vw] = wave
        expected = min(self._pushed)
        if global_version != expected:
            raise InvariantViolation(
                f"versions: global version {global_version} != min(pushed)={expected} "
                f"(pushed waves {self._pushed})"
            )
        if global_version < self._global:
            raise InvariantViolation(
                f"versions: global version regressed {self._global} -> {global_version}"
            )
        self._global = global_version

    def on_pull_done(self, vw: int, version: int, time: float) -> None:
        if version > self._global:
            raise InvariantViolation(
                f"versions: vw{vw} pulled version {version} beyond global {self._global}"
            )

    def on_fast_forward(self, summary: FastForwardSummary) -> None:
        for vw, waves in enumerate(summary.waves):
            self._pushed[vw] += waves
        self._global += summary.versions
        if self._global != min(self._pushed):
            raise InvariantViolation(
                f"versions: fast-forward left global version {self._global} != "
                f"min(pushed)={min(self._pushed)} (pushed waves {self._pushed})"
            )

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        if runtime.ps.global_version != min(runtime.ps.pushed_wave):
            raise InvariantViolation(
                f"versions: final global version {runtime.ps.global_version} != "
                f"min(pushed_wave)={min(runtime.ps.pushed_wave)}"
            )


class ConservationOracle(RuntimeOracle):
    """Counts reconcile across stats, trace, pipelines, and the PS.

    Completions must arrive in minibatch order (the stage-0 backward
    order guarantees it), so a single expected-next counter per worker
    both detects duplicates/reordering and keeps memory constant.
    """

    def __init__(self) -> None:
        self._injected: list[int] = []
        self._done: list[int] = []

    def bind(self, runtime: "HetPipeRuntime") -> None:
        super().bind(runtime)
        n = len(runtime.plans)
        self._injected = [0] * n
        self._done = [0] * n

    def on_inject(self, vw: int, minibatch: int, pulled_version: int, time: float) -> None:
        self._injected[vw] += 1

    def on_minibatch_done(self, vw: int, minibatch: int, time: float) -> None:
        if minibatch != self._done[vw] + 1:
            raise InvariantViolation(
                f"conservation: vw{vw} completed minibatch {minibatch}, expected "
                f"{self._done[vw] + 1} (duplicate or out-of-order completion)"
            )
        self._done[vw] += 1
        if self._done[vw] > self._injected[vw]:
            raise InvariantViolation(
                f"conservation: vw{vw} completed {self._done[vw]} minibatches "
                f"but only {self._injected[vw]} were injected"
            )

    def on_fast_forward(self, summary: FastForwardSummary) -> None:
        # A skipped cycle injects exactly as many minibatches as it
        # completes (the in-flight level repeating is part of the
        # confirmed signature), so both ledgers advance together.
        for vw, advanced in enumerate(summary.minibatches):
            self._injected[vw] += advanced
            self._done[vw] += advanced

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        for vw, (pipeline, stats) in enumerate(zip(runtime.pipelines, runtime.stats)):
            if stats.minibatches_done != self._done[vw]:
                raise InvariantViolation(
                    f"conservation: vw{vw} stats report {stats.minibatches_done} "
                    f"minibatches but {self._done[vw]} completions were observed"
                )
            if pipeline.completed != self._done[vw]:
                raise InvariantViolation(
                    f"conservation: vw{vw} pipeline counter {pipeline.completed} != "
                    f"observed completions {self._done[vw]}"
                )
            in_flight = self._injected[vw] - self._done[vw]
            if in_flight != pipeline.active or not 0 <= in_flight <= runtime.nm:
                raise InvariantViolation(
                    f"conservation: vw{vw} in-flight {in_flight} inconsistent with "
                    f"pipeline.active={pipeline.active} (Nm={runtime.nm})"
                )
            # A recorded wave c requires minibatches 1..(c+1)*Nm complete.
            recorded = runtime.ps.pushed_wave[vw]
            if recorded >= 0 and self._done[vw] < (recorded + 1) * runtime.nm:
                raise InvariantViolation(
                    f"conservation: vw{vw} recorded wave {recorded} with only "
                    f"{self._done[vw]} minibatches complete (Nm={runtime.nm})"
                )
        if runtime.ps.pushes_completed != sum(s.waves_pushed for s in runtime.stats):
            raise InvariantViolation(
                f"conservation: PS recorded {runtime.ps.pushes_completed} pushes, "
                f"stats report {sum(s.waves_pushed for s in runtime.stats)}"
            )
        if runtime.ps.pulls_completed != sum(s.pulls for s in runtime.stats):
            raise InvariantViolation(
                f"conservation: PS recorded {runtime.ps.pulls_completed} pulls, "
                f"stats report {sum(s.pulls for s in runtime.stats)}"
            )
        for vw, gate in enumerate(runtime.gates):
            if gate.pulled_version > runtime.ps.global_version:
                raise InvariantViolation(
                    f"conservation: vw{vw} gate at version {gate.pulled_version} "
                    f"beyond global {runtime.ps.global_version}"
                )


#: Relative slack of the per-flow floor: a flow may beat its dedicated
#: time by rounding, never by a byte or a latency.
_FLOOR_RTOL = 1e-9


class FabricOracle(RuntimeOracle):
    """Shared-fabric laws: the per-flow floor, flow conservation and
    bounded utilization.

    The floor is HetPipe §7's communication model applied per flow: a
    flow's service time ``done - start`` (its queueing excluded) is at
    least the unloaded time at dedicated rates, the route's latency plus
    ``nbytes`` over the bottleneck of its link classes, each at scale 1.
    The constants come from the cluster's interconnect alone, chosen by
    whether the endpoints share a node, not from the fabric's routing,
    so a routing bug cannot hide from the check.  It holds for every
    variant and every congested fabric the fuzz generator draws, whose
    scales never exceed 1 on a route's bottleneck.

    Delegates the per-resource checks to
    :meth:`~repro.netsim.fabric.Fabric.verify` (bytes charged by flows
    reconcile with every resource's counters; occupancy never exceeds
    wall time) and additionally reconciles the parameter server's byte
    accounting against the fabric's PS-tagged flows — the cross-layer
    check that no PS traffic bypasses the shared network.
    """

    def __init__(self) -> None:
        #: flows held to the dedicated floor (0 under the dedicated model)
        self.flows_checked = 0

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        fabric = runtime.fabric
        if fabric is None:
            return
        self._check_floors(fabric.flows, runtime.cluster.interconnect)
        fabric.verify(elapsed=runtime.sim.now)
        # Cross-layer reconciliations: the flow ledger against byte
        # counters maintained by *other* layers (the PS's traffic
        # accounting and the pipeline edges' adapter counters), so a
        # routing bug that charges the wrong resources — invisible to
        # Fabric.verify's internal ledger — still trips an oracle.
        ps_flow_bytes = sum(
            flow.nbytes for flow in fabric.flows if flow.tag.startswith("ps.")
        )
        accounted = runtime.ps.sync_bytes_total
        if abs(ps_flow_bytes - accounted) > 1e-6 * max(1.0, accounted):
            raise InvariantViolation(
                f"fabric: PS flows moved {ps_flow_bytes:.0f} bytes but the PS "
                f"accounted {accounted:.0f}"
            )
        by_tag: dict[str, float] = {}
        for flow in fabric.flows:
            by_tag[flow.tag] = by_tag.get(flow.tag, 0.0) + flow.nbytes
        for pipeline in runtime.pipelines:
            for state in pipeline.stages:
                for edge in (state.to_next, state.to_prev):
                    if edge is None:
                        continue
                    routed = by_tag.get(edge.name, 0.0)
                    if abs(routed - edge.bytes_moved) > 1e-6 * max(1.0, edge.bytes_moved):
                        raise InvariantViolation(
                            f"fabric: edge {edge.name} accounted "
                            f"{edge.bytes_moved:.0f} bytes but flows tagged with "
                            f"it carried {routed:.0f}"
                        )

    def _check_floors(self, flows: "list[Flow]", ic: "InterconnectSpec") -> None:
        # (seconds per byte, latency) of an intra-node and a cross-node
        # route, shrunk by the slack.  Written as ``start + floor``, the
        # sum rounds like the fabric's own ``start + occupy + latency``,
        # so a correct flow passes exactly at any clock magnitude.
        keep = 1.0 - _FLOOR_RTOL
        local = (keep / ic.pcie_effective, keep * ic.pcie_latency)
        remote = (keep / min(ic.pcie_effective, ic.ib_effective), keep * ic.ib_latency)
        for src, dst, nbytes, start, done, _path, tag, _wait in flows:
            per_byte, latency = local if src.node_id == dst.node_id else remote
            if done < start + nbytes * per_byte + latency:
                floor = (nbytes * per_byte + latency) / keep
                raise InvariantViolation(
                    f"fabric: flow {src}->{dst} ({tag or 'untagged'}) moved "
                    f"{nbytes:.0f} bytes in {done - start:.9g}s, below its "
                    f"dedicated floor {floor:.9g}s"
                )
        self.flows_checked += len(flows)


def default_oracles() -> list[RuntimeOracle]:
    """The standard always-on suite the fuzz harness attaches to a run."""
    return [
        StalenessOracle(),
        WeightVersionOracle(),
        FlushOracle(),
        SchedulingOracle(),
        VersionOracle(),
        ConservationOracle(),
        FabricOracle(),
    ]


# ----------------------------------------------------------------------
# graceful degradation under fault injection (see repro.faults)
# ----------------------------------------------------------------------

#: Multiplicative headroom the degradation bound grants over the ideal
#: composed slowdown — recovery is never perfectly pipelined with
#: useful work (pipeline refill after a rejoin, retry backoff tails).
_DEGRADATION_SLACK = 0.75

#: Seconds of allowed end-to-end slowdown per second of crash/PS fault
#: window: a down node stalls the *global* clock (every worker waits at
#: its staleness bound), and the exponential-backoff retry tail can
#: overshoot the recovery instant by up to the last backoff interval.
_DOWNTIME_FACTOR = 4.0


class RecoveryOracle(RuntimeOracle):
    """Bounded recovery: transient faults heal, nothing stays stranded.

    Reads the :class:`~repro.faults.injector.FaultInjector` attached to
    the runtime (a no-op on fault-free runs): every fired transient
    fault whose recovery time fell inside the run must have recovered,
    no send may still be blocked once every fault window has closed,
    and the parameter-version checkpoint ledger must have kept pace
    with the global clock (elastic recovery resumes from it).
    """

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        injector = runtime.fault_injector
        if injector is None:
            return
        from collections import Counter

        state = injector.state
        now = runtime.sim.now
        fired = Counter(e for e in injector.fired if not e.permanent)
        healed = Counter(injector.recovered)
        for event, count in fired.items():
            if count > healed.get(event, 0) and event.time + event.duration < now:
                raise InvariantViolation(
                    f"recovery: [{event.describe()}] was due to recover at "
                    f"t={event.time + event.duration:.6f} but had not by "
                    f"t={now:.6f}"
                )
        windows_open = (
            state.down_nodes or state.down_ps or state.down_ps_nodes
            or injector.pending()
        )
        if state.sends_blocked > 0 and not windows_open:
            raise InvariantViolation(
                f"recovery: {state.sends_blocked} PS send(s) still blocked "
                f"after every fault window closed"
            )
        if state.sends_blocked < 0:
            raise InvariantViolation(
                "recovery: more blocked sends resolved than were ever blocked"
            )
        version = runtime.ps.global_version
        if version >= 0:
            last = state.checkpoints[-1][0] if state.checkpoints else -1
            if version - last >= 2 * state.checkpoint_every:
                raise InvariantViolation(
                    f"recovery: checkpoint ledger stopped at version {last} "
                    f"while the global clock reached {version} "
                    f"(cadence {state.checkpoint_every})"
                )


class FailoverConservationOracle(RuntimeOracle):
    """No minibatch lost: recorded progress is always backed by work.

    The elastic-recovery contract: whatever crash/failover sequence
    occurred, every wave the PS recorded for a worker is backed by that
    worker's completed minibatches (a replacement pipeline re-earns any
    progress that died with its predecessor, never skips it), and the
    global version is exactly the minimum of the per-worker clocks.
    """

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        injector = runtime.fault_injector
        if injector is None:
            return
        nm = runtime.nm
        for vw, stats in enumerate(runtime.stats):
            recorded = runtime.ps.pushed_wave[vw]
            if recorded >= 0 and stats.minibatches_done < (recorded + 1) * nm:
                raise InvariantViolation(
                    f"failover conservation: vw{vw} recorded wave {recorded} "
                    f"backed by only {stats.minibatches_done} completed "
                    f"minibatches (needs {(recorded + 1) * nm})"
                )
            pipeline = runtime.pipelines[vw]
            if pipeline.completed != stats.minibatches_done:
                raise InvariantViolation(
                    f"failover conservation: vw{vw} pipeline counter "
                    f"{pipeline.completed} != stats {stats.minibatches_done} "
                    f"(lost or double-counted minibatches across failover)"
                )
        if runtime.ps.global_version != min(runtime.ps.pushed_wave):
            raise InvariantViolation(
                f"failover conservation: global version "
                f"{runtime.ps.global_version} != min(pushed_wave)="
                f"{min(runtime.ps.pushed_wave)} after recovery"
            )


class DegradationOracle(RuntimeOracle):
    """Throughput degrades no worse than proportionally to what was lost.

    The makespan under faults must stay within the composed bound of
    the fault-free baseline (the injector's horizon) inflated by: the
    worst straggler factor, the worst link degradation, the capacity
    ratio after permanent losses, a slack factor for imperfectly
    pipelined recovery, a downtime charge per second of crash/PS fault
    window, and one extra horizon when elastic re-partitioning rebuilt
    the deployment (pipeline refill plus re-earned work).
    """

    def verify_final(self, runtime: "HetPipeRuntime") -> None:
        injector = runtime.fault_injector
        if injector is None:
            return
        now = runtime.sim.now
        horizon = injector.horizon
        straggler = 1.0
        link = 1.0
        downtime = 0.0
        for event in injector.fired:
            if event.kind == "straggler":
                straggler = max(straggler, event.factor)
            elif event.kind == "link":
                link = max(link, 1.0 / event.scale)
            elif event.kind in ("crash", "ps"):
                window = horizon if event.permanent else event.duration
                downtime += min(window, max(0.0, now - event.time))
        capacity = 1.0
        if runtime._lost_nodes:
            total = len(runtime.cluster.gpus)
            lost = sum(
                1 for g in runtime.cluster.gpus if g.node_id in runtime._lost_nodes
            )
            if total > lost:
                capacity = total / (total - lost)
        bound = (
            horizon * straggler * link * capacity * (1.0 + _DEGRADATION_SLACK)
            + _DOWNTIME_FACTOR * downtime
            + (horizon if runtime._structural_change else 0.0)
        )
        if now > bound:
            raise InvariantViolation(
                f"degradation: makespan {now:.6f} exceeds the graceful bound "
                f"{bound:.6f} (baseline {horizon:.6f}, straggler x{straggler:.2f}, "
                f"link x{link:.2f}, capacity x{capacity:.2f}, "
                f"downtime {downtime:.6f})"
            )


def fault_oracles() -> list[RuntimeOracle]:
    """The graceful-degradation suite for fault-injected runs.

    Staleness and version clocks must hold *through* recovery; the
    scheduling/conservation oracles assume a single replay-free
    topology and are deliberately absent (elastic recovery re-runs
    minibatches on a rebuilt deployment).
    """
    return [
        StalenessOracle(),
        VersionOracle(),
        RecoveryOracle(),
        FailoverConservationOracle(),
        DegradationOracle(),
    ]


class OneFOneBOracle:
    """1F1B dispatch discipline, reconstructed from a pipeline's trace.

    Subscribes to the trace of one backward-first pipeline (see
    :attr:`~repro.pipeline.virtual_worker.VirtualWorkerPipeline.backward_first`)
    and mirrors its ready sets from ``b_ready`` records.  The invariant: a
    stage must never *start a forward* while its next in-order backward
    is sitting ready (backwards drain first — the property that bounds
    stashed activations), and both task types must start in minibatch
    order.
    """

    #: the record categories :meth:`on_trace` reads (and is routed)
    trace_categories = frozenset(("b_ready", "b_start", "f_start", "fb_start", "fast_forward"))

    def __init__(self, pipeline: "VirtualWorkerPipeline") -> None:
        self.name = pipeline.name
        self.k = pipeline.plan.k
        self._bwd_ready: dict[int, list[int]] = {s: [] for s in range(self.k)}
        self._next_fwd = {s: 1 for s in range(self.k)}
        self._next_bwd = {s: 1 for s in range(self.k)}
        self.forwards_checked = 0
        #: actor string -> stage index (or None); parsed once per actor
        self._stage_cache: dict[str, int | None] = {}
        pipeline.trace.subscribe(self.on_trace, self.trace_categories)

    def _stage_of(self, actor: str) -> int | None:
        stage = self._stage_cache.get(actor)
        if stage is None and actor not in self._stage_cache:
            prefix = f"{self.name}.s"
            stage = int(actor[len(prefix):]) if actor.startswith(prefix) else None
            self._stage_cache[actor] = stage
        return stage

    def on_trace(self, record: TraceRecord) -> None:
        category = record.category
        if category == "fast_forward":
            if record.actor != self.name:
                return
            # A steady-state skip advanced the public numbering; shift
            # every expectation by the coalesced minibatches (pending
            # ready-queue entries are part of the repeating pattern).
            advanced = record.detail["minibatches"]
            for s in range(self.k):
                self._next_fwd[s] += advanced
                self._next_bwd[s] += advanced
                self._bwd_ready[s] = [p + advanced for p in self._bwd_ready[s]]
            return
        if category not in self.trace_categories:
            return
        s = self._stage_of(record.actor)
        if s is None:
            return
        p = record.detail["minibatch"]
        if category == "b_ready":
            self._bwd_ready[s].append(p)
        elif category == "b_start":
            if p != self._next_bwd[s]:
                raise InvariantViolation(
                    f"1f1b: {record.actor} started backward {p}, expected {self._next_bwd[s]}"
                )
            self._next_bwd[s] += 1
            if not self._bwd_ready[s] or self._bwd_ready[s][0] != p:
                raise InvariantViolation(
                    f"1f1b: {record.actor} started backward {p} that was not at the "
                    f"head of its ready queue {self._bwd_ready[s]}"
                )
            self._bwd_ready[s].pop(0)
        elif category in ("f_start", "fb_start"):
            if p != self._next_fwd[s]:
                raise InvariantViolation(
                    f"1f1b: {record.actor} started forward {p}, expected {self._next_fwd[s]}"
                )
            self._next_fwd[s] += 1
            self.forwards_checked += 1
            queue = self._bwd_ready[s]
            if queue and queue[0] == self._next_bwd[s]:
                raise InvariantViolation(
                    f"1f1b: {record.actor} started forward {p} while backward "
                    f"{queue[0]} was ready (backward must be preferred)"
                )
