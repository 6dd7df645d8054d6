"""Arm a compiled fault schedule on a live runtime and drive recovery.

:class:`FaultInjector` owns the fault lifecycle: it schedules each
:class:`~repro.faults.schedule.FaultEvent` as an engine event, applies
the fault against the runtime when it fires (straggler slowdown, node
crash, link degradation, PS process failure), schedules the recovery
for transient faults, and routes permanent failures into the runtime's
elastic-recovery path (PS failover plus re-partitioning).

:class:`FaultState` is the shared visibility surface: the parameter
server's send path consults it to block/retry/redirect traffic, the
push-recording path reports version advances to it for checkpointing,
and the graceful-degradation oracles read its counters at the end of
the run.  A runtime without an injector never touches either class, so
the fault-free path stays bit-identical.
"""

from __future__ import annotations

from repro.api.spec import FaultSpec
from repro.errors import SimulationError
from repro.faults.schedule import FaultEvent
from repro.sim.trace import Trace


class FaultState:
    """What the rest of the system may observe about active faults."""

    def __init__(
        self,
        sim,
        trace: Trace,
        retry_timeout: float,
        max_retries: int,
        checkpoint_every: int,
    ) -> None:
        self.sim = sim
        self.trace = trace
        #: absolute seconds before the first resend of a blocked transfer
        #: (attempt ``i`` waits ``retry_timeout * 2**i``)
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.checkpoint_every = checkpoint_every
        #: nodes whose compute *and* PS processes are down (crash faults)
        self.down_nodes: set[int] = set()
        #: individually-dead sharded PS processes, as (node, slot)
        self.down_ps: set[tuple[int, int]] = set()
        #: nodes whose PS processes are down but whose compute is up
        self.down_ps_nodes: set[int] = set()
        #: PS-endpoint re-homing after a permanent failover
        self.redirect: dict[int, int] = {}
        #: whole-node re-homing (either transfer endpoint) after a
        #: permanent node loss
        self.node_redirect: dict[int, int] = {}
        #: (version, time) parameter checkpoints, one per cadence window;
        #: elastic recovery resumes from the PS's committed clocks, and
        #: the recovery oracle checks this ledger kept pace
        self.checkpoints: list[tuple[int, float]] = []
        self.retries_attempted = 0
        self.sends_resolved = 0
        #: sends currently blocked behind a fault window
        self.sends_blocked = 0

    def blocks_ps(self, node: int, shard: int | None) -> bool:
        """Is the PS endpoint ``(node, shard)`` unable to serve a send?"""
        return (
            node in self.down_nodes
            or node in self.down_ps_nodes
            or (shard is not None and (node, shard) in self.down_ps)
        )

    def retry(self, attempt: int, resend, desc: str) -> None:
        """Back off and retry a blocked send, or give up for good."""
        if attempt >= self.max_retries:
            raise SimulationError(
                f"{desc}: unrecoverable — endpoint still down after "
                f"{self.max_retries} retries"
            )
        if attempt == 0:
            self.sends_blocked += 1
        self.retries_attempted += 1
        delay = self.retry_timeout * (2 ** attempt)
        self.trace.record(self.sim.now, "ps_retry", "faults", target=desc, attempt=attempt)
        self.sim.schedule(delay, resend)

    def send_resolved(self) -> None:
        """A previously-blocked send finally went through."""
        self.sends_blocked -= 1
        self.sends_resolved += 1

    def on_version_advance(self, version: int, now: float) -> None:
        """Checkpoint the parameter version on the configured cadence."""
        last = self.checkpoints[-1][0] if self.checkpoints else -self.checkpoint_every
        if version >= last + self.checkpoint_every:
            self.checkpoints.append((version, now))
            self.trace.record(now, "checkpoint", "faults", version=version)


class FaultInjector:
    """Schedules a compiled fault schedule against one runtime."""

    def __init__(
        self,
        runtime,
        schedule: tuple[FaultEvent, ...],
        spec: FaultSpec,
        horizon: float,
    ) -> None:
        self.runtime = runtime
        self.schedule = schedule
        self.spec = spec
        #: the fault-free baseline makespan the schedule's fractions
        #: were scaled by — the degradation oracle's reference point
        self.horizon = horizon
        self.state = FaultState(
            runtime.sim,
            runtime.trace,
            retry_timeout=spec.retry_timeout * horizon,
            max_retries=spec.max_retries,
            checkpoint_every=spec.checkpoint_every,
        )
        #: events that fired / whose recovery completed, for the oracles
        self.fired: list[FaultEvent] = []
        self.recovered: list[FaultEvent] = []
        #: engine events still owed (scheduled fires plus scheduled
        #: recoveries); nonzero forbids fast-forward skips, which would
        #: shift the armed fault times
        self._pending = 0
        #: currently-active straggler records, as (vw, stage, factor)
        self._stragglers: list[tuple[int, int, float]] = []
        #: currently-active link degradations
        self._link_scales: list[float] = []
        self._armed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Register the schedule on the simulator (call once, pre-run)."""
        if self._armed:
            raise SimulationError("fault schedule already armed")
        self._armed = True
        self.runtime.fault_injector = self
        self.runtime.ps._faults = self.state
        for event in self.schedule:
            self.runtime.sim.schedule_at(event.time, self._fire, event)
            self._pending += 1

    def pending(self) -> bool:
        """Any fault fire or recovery still owed?  (Gates fast-forward.)"""
        return self._pending > 0

    @property
    def structural_change(self) -> bool:
        """Did a permanent failure force elastic re-partitioning?"""
        return self.runtime._structural_change

    # ------------------------------------------------------------------
    # fire / recover
    # ------------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        self._pending -= 1
        self.fired.append(event)
        self.runtime.trace.record(
            self.runtime.sim.now, "fault", "faults",
            kind=event.kind, detail=event.describe(),
        )
        if event.kind == "straggler":
            self._straggler_start(event)
        elif event.kind == "crash":
            self._crash_start(event)
        elif event.kind == "link":
            self._link_start(event)
        else:
            self._ps_start(event)

    def _schedule_recovery(self, event: FaultEvent, recover) -> None:
        self._pending += 1
        self.runtime.sim.schedule(event.duration, recover, event)

    def _recovered(self, event: FaultEvent) -> None:
        self._pending -= 1
        self.recovered.append(event)
        self.runtime.trace.record(
            self.runtime.sim.now, "fault_recovered", "faults",
            kind=event.kind, detail=event.describe(),
        )

    # ------------------------------------------------------------------
    # stragglers
    # ------------------------------------------------------------------

    def _refresh_stragglers(self) -> None:
        """Recompute every pipeline's stage scales from the active set.

        Rebuilt from scratch on each change so composition (overlapping
        stragglers on one stage) and elastic re-partitioning (a stage
        index clamped to a replacement pipeline's shorter plan) stay
        consistent without incremental bookkeeping."""
        for pipeline in self.runtime.pipelines:
            pipeline.stage_scale.clear()
        for vw, stage, factor in self._stragglers:
            pipeline = self.runtime.pipelines[vw]
            s = min(stage, pipeline.plan.k - 1)
            pipeline.stage_scale[s] = pipeline.stage_scale.get(s, 1.0) * factor

    def _straggler_start(self, event: FaultEvent) -> None:
        self._stragglers.append((event.vw, event.stage, event.factor))
        self._refresh_stragglers()
        if not event.permanent:
            self._schedule_recovery(event, self._straggler_end)

    def _straggler_end(self, event: FaultEvent) -> None:
        self._stragglers.remove((event.vw, event.stage, event.factor))
        self._refresh_stragglers()
        self._recovered(event)

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------

    def _crash_start(self, event: FaultEvent) -> None:
        if event.permanent:
            # A node that never rejoins: PS failover + re-partitioning.
            self.state.down_nodes.add(event.node)
            self.runtime.crash_node(event.node)
            self.runtime.handle_node_loss(event.node)
            self.runtime.trace.record(
                self.runtime.sim.now, "repartition", "faults", node=event.node,
            )
            # Replacement pipelines carry the still-active scales.
            self._refresh_stragglers()
            if self._link_scales:
                self.runtime.set_link_scale(min(self._link_scales))
            return
        self.state.down_nodes.add(event.node)
        self.runtime.crash_node(event.node)
        self._schedule_recovery(event, self._crash_end)

    def _crash_end(self, event: FaultEvent) -> None:
        self.state.down_nodes.discard(event.node)
        self.runtime.restore_node(event.node)
        self._recovered(event)

    # ------------------------------------------------------------------
    # link degradation
    # ------------------------------------------------------------------

    def _link_start(self, event: FaultEvent) -> None:
        self._link_scales.append(event.scale)
        self.runtime.set_link_scale(min(self._link_scales))
        if not event.permanent:
            self._schedule_recovery(event, self._link_end)

    def _link_end(self, event: FaultEvent) -> None:
        self._link_scales.remove(event.scale)
        self.runtime.set_link_scale(
            min(self._link_scales) if self._link_scales else 1.0
        )
        self._recovered(event)

    # ------------------------------------------------------------------
    # PS process failure
    # ------------------------------------------------------------------

    def _ps_hosts(self, slot: int) -> set[int]:
        """The nodes currently hosting shard ``slot`` of any stage."""
        hosts: set[int] = set()
        for placement in self.runtime.placements:
            for dests in placement:
                if slot < len(dests):
                    hosts.add(dests[slot][0])
        return hosts

    def _ps_start(self, event: FaultEvent) -> None:
        if event.permanent:
            self._ps_permanent(event)
            return
        if event.slot >= 0:
            for host in self._ps_hosts(event.slot):
                self.state.down_ps.add((host, event.slot))
                self.runtime.ps.fail_process(host, event.slot)
        else:
            self.state.down_ps_nodes.add(event.node)
            self.runtime.ps.fail_node(event.node)
        self._schedule_recovery(event, self._ps_end)

    def _ps_end(self, event: FaultEvent) -> None:
        if event.slot >= 0:
            for host, slot in [p for p in self.state.down_ps if p[1] == event.slot]:
                self.state.down_ps.discard((host, slot))
                self.runtime.ps.restore_process(host, slot)
        else:
            self.state.down_ps_nodes.discard(event.node)
            self.runtime.ps.restore_node(event.node)
        self._recovered(event)

    def _ps_permanent(self, event: FaultEvent) -> None:
        """A PS process that never comes back: re-place its state.

        The dead hosts' PS queues migrate to a survivor and the shard
        placements are rebuilt through the run's placement policy over
        the remaining PS-capable nodes.  Compute on those hosts keeps
        running — only the PS role moves."""
        runtime = self.runtime
        hosts = (
            self._ps_hosts(event.slot) if event.slot >= 0 else {event.node}
        )
        alive = [
            n.node_id for n in runtime.cluster.nodes
            if n.node_id not in hosts
            and n.node_id not in runtime._lost_nodes
            and n.node_id not in self.state.redirect
        ]
        if not alive:
            raise SimulationError(
                "PS failover impossible: no surviving PS-capable node"
            )
        for host in sorted(hosts):
            runtime.ps.migrate_node(host, alive[0])
        runtime.rebuild_placements(alive)
        runtime._structural_change = True
        runtime.trace.record(
            runtime.sim.now, "repartition", "faults",
            ps_hosts=tuple(sorted(hosts)),
        )
