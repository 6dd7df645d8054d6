"""The HetPipe runtime: N virtual workers + WSP parameter server.

Wires each virtual worker's pipeline to the parameter server through a
staleness gate implementing the §5 admission rule, drives wave pushes
and D-gated pulls, and collects the measurements §8 reports: aggregate
throughput, per-worker waiting time for global weights, the fraction of
waiting during which the worker was truly idle (the paper's 18% claim),
and cross-node traffic split into pipeline and synchronization bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, SimulationError
from repro.models.graph import ModelGraph
from repro.netsim.fabric import DEFAULT_FABRIC_SPEC, Fabric, FabricSpec
from repro.partition.spec import PartitionPlan
from repro.pipeline.variants import build_variant_gate, get_variant
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim.engine import Simulator
from repro.sim.fastforward import (
    FastForwardSummary,
    SteadyStateDetector,
    advance_components,
    collect_counters,
    collect_shape,
    pipeline_components,
)
from repro.sim.trace import Trace
from repro.wsp.parameter_server import ParameterServerSim
from repro.wsp.placement import StagePlacement, build_placements
from repro.wsp.staleness import admission_limit, desired_version_after_wave

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle (invariants -> wsp)
    from repro.api.spec import RunSpec
    from repro.sim.invariants import RuntimeOracle


class _WSPGate:
    """Admission gate enforcing the global staleness bound for one VW."""

    def __init__(self, d: int, nm: int) -> None:
        self.d = d
        self.nm = nm
        self.pulled_version = -1
        self._wake: Callable[[], None] | None = None

    def may_start(self, minibatch: int) -> bool:
        return minibatch <= admission_limit(self.pulled_version, self.d, self.nm)

    def subscribe(self, wake: Callable[[], None]) -> None:
        self._wake = wake

    def advance(self, version: int) -> None:
        if version > self.pulled_version:
            self.pulled_version = version
            if self._wake is not None:
                self._wake()


@dataclass
class VirtualWorkerStats:
    """Per-virtual-worker accounting over a run."""

    minibatches_done: int = 0
    waves_pushed: int = 0
    waiting_time: float = 0.0  # push-complete -> pull-complete
    idle_in_wait: float = 0.0  # portion of waiting with all GPUs idle
    pulls: int = 0
    wave_times: list[float] = field(default_factory=list)


class HetPipeRuntime:
    """N virtual workers running WSP data parallelism."""

    def __init__(
        self,
        run: "RunSpec",
        cluster: Cluster,
        model: ModelGraph,
        plans: Sequence[PartitionPlan],
        *,
        trace: Trace | None,
        oracles: "Sequence[RuntimeOracle]",
        fabric_spec: FabricSpec,
        obs,
    ) -> None:
        """Wire the run's workers and PS; call :meth:`from_spec` instead."""
        from repro.api.build import build_calibration

        if not plans:
            raise ConfigurationError("need at least one virtual worker plan")
        nms = {plan.nm for plan in plans}
        if len(nms) > 1:
            raise ConfigurationError(f"Nm must match across virtual workers, got {sorted(nms)}")
        pipe = run.pipeline
        self.cluster = cluster
        self.model = model
        self.plans = list(plans)
        #: pipeline-variant semantics (weight-version policy, extra
        #: admission gates, staleness contract) — see
        #: :mod:`repro.pipeline.variants`.  Resolution raises the typed
        #: UnknownNameError on a name outside the zoo.
        self.variant = pipe.variant
        self.variant_def = get_variant(pipe.variant)
        self.d = pipe.d
        self.nm = self.plans[0].nm
        self.placement_policy = pipe.placement
        self.shards = pipe.shards
        self.shard_placement_policy = pipe.shard_placement
        self.calibration = build_calibration(run.calibration)
        self.push_every_minibatch = pipe.push_every_minibatch
        self.network_model = run.network.model
        self.jitter = pipe.jitter
        #: planner registry name — elastic re-partitioning re-runs it on
        #: the surviving GPUs after a permanent node loss
        self.planner = pipe.planner
        self._fabric_spec = fabric_spec
        #: fault-injection driver (repro.faults.FaultInjector); None on
        #: every fault-free run
        self.fault_injector = None
        self._lost_nodes: set[int] = set()
        #: set once elastic re-partitioning replaced any pipeline; the
        #: pre-fault steady state (and the fast-forward component list)
        #: is gone for good
        self._structural_change = False

        self.sim = Simulator()
        #: optional telemetry collector (:class:`repro.obs.ObsCollector`).
        #: Installed on the simulator *before* any resource exists, so
        #: every processor/channel/link — including the PS's lazily
        #: created per-stream channels and shard apply queues — registers
        #: itself for span reporting and utilization sampling.
        self.obs = obs
        self.sim.obs = obs
        #: shared contention-aware fabric; None under the dedicated model
        self.fabric: Fabric | None = (
            Fabric(self.sim, cluster, fabric_spec) if self.network_model == "shared" else None
        )
        self.trace = trace if trace is not None else Trace(enabled=False)
        if obs is not None:
            # A plain subscriber: trace digests hash before subscribers
            # run, so telemetry can never perturb replay identity.
            self.trace.subscribe(obs.on_trace)
        self.oracles = list(oracles)
        self.ps = ParameterServerSim(
            self.sim, cluster, len(self.plans), self.calibration, fabric=self.fabric,
            shards=self.shards,
        )
        self.placements: list[StagePlacement] = []
        self.rebuild_placements([node.node_id for node in cluster.nodes])

        #: per-VW admission gates: the bare _WSPGate for the default
        #: variant (bit-identical to the pre-zoo tree), or a ComposedGate
        #: AND-ing the variant's extra conditions onto the same WSP base
        self.gates: list = []
        self.pipelines: list[VirtualWorkerPipeline] = []
        self.stats = [VirtualWorkerStats() for _ in self.plans]
        self._busy_count = [0] * len(self.plans)
        self._all_idle_since: list[float | None] = [0.0] * len(self.plans)
        self._wait_started: list[float | None] = [None] * len(self.plans)

        for index, plan in enumerate(self.plans):
            gate = build_variant_gate(self.variant_def, _WSPGate(self.d, self.nm), self.nm)
            pipeline = VirtualWorkerPipeline(
                self.sim,
                plan,
                cluster.interconnect,
                name=f"vw{index}",
                gate=gate,
                on_minibatch_done=(lambda p, t, index=index: self._on_minibatch_done(index, p, t)),
                on_inject=(lambda p, t, index=index: self._on_inject(index, p, t)),
                trace=self.trace,
                jitter=self.jitter,
                fabric=self.fabric,
            )
            for state in pipeline.stages:
                state.processor.on_state_change = (
                    lambda busy, index=index: self._on_processor_state(index, busy)
                )
            if hasattr(gate, "attach"):
                # composed variant gates read live pipeline state (wave
                # completion, version-stash ledger) for their conditions
                gate.attach(pipeline)
            self.gates.append(gate)
            self.pipelines.append(pipeline)

        #: per-VW trace sites of the WSP records (a replacement pipeline
        #: keeps its worker's index, so these never change)
        self._wave_push_sites = [
            self.trace.site("wave_push", f"vw{vw}", "wave") for vw in range(len(self.plans))
        ]
        self._pull_done_sites = [
            self.trace.site("pull_done", f"vw{vw}", "version") for vw in range(len(self.plans))
        ]

        for oracle in self.oracles:
            oracle.bind(self)
        # Dispatch only to oracles that actually override a callback: the
        # trace stream fires tens of thousands of times per run, and a
        # suite of five oracles with one trace consumer must not pay
        # five virtual calls per record.  Trace consumers subscribe to
        # the record categories they declare and see no others.
        if self.oracles:
            from repro.sim.invariants import RuntimeOracle as _Base

            def overriding(name: str) -> list:
                return [
                    oracle
                    for oracle in self.oracles
                    if getattr(type(oracle), name) is not getattr(_Base, name)
                ]

            self._trace_oracles = overriding("on_trace")
            self._push_oracles = overriding("on_push_recorded")
            self._inject_oracles = overriding("on_inject")
            self._done_oracles = overriding("on_minibatch_done")
            self._pull_oracles = overriding("on_pull_done")
            for oracle in self._trace_oracles:
                self.trace.subscribe(oracle.on_trace, oracle.trace_categories)
            if len(self._push_oracles) == 1:
                self.ps.subscribe_push(self._push_oracles[0].on_push_recorded)
            elif self._push_oracles:
                self.ps.subscribe_push(self._notify_push)
        else:
            self._trace_oracles = []
            self._push_oracles = []
            self._inject_oracles = []
            self._done_oracles = []
            self._pull_oracles = []

        #: steady-state fast-forward under the fast_forward fidelity.  It
        #: is armed only for regimes whose cycles can repeat exactly —
        #: task jitter is aperiodic by construction, and the shared
        #: fabric keeps a per-flow ledger that a skip cannot summarize.
        #: Ineligible runs silently execute at full fidelity.
        self._ff: _RuntimeFastForward | None = None
        if (
            run.fidelity.fidelity == "fast_forward"
            and self.jitter == 0.0
            and self.fabric is None
        ):
            self._ff = _RuntimeFastForward(self)

        if obs is not None:
            obs.install_sampler(self.sim)

    @classmethod
    def from_spec(
        cls,
        run: "RunSpec",
        *,
        cluster: Cluster | None = None,
        model: ModelGraph | None = None,
        plans: Sequence[PartitionPlan] | None = None,
        trace: Trace | None = None,
        oracles: "Sequence[RuntimeOracle]" = (),
        fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
        obs=None,
    ) -> "HetPipeRuntime":
        """The one constructor: behavior from a typed RunSpec.

        Every spec-addressable axis — staleness bound, placement, shards,
        push cadence, jitter, calibration, planner, variant, network
        model, fidelity — is read from ``run``'s sections.
        ``cluster``/``model``/``plans`` may be passed pre-built (the fuzz
        runner shares one memoized materialization across a scenario's
        runs; the experiments plan once and measure several specs); left
        as ``None`` they are built from the spec via
        :func:`repro.api.build.build_scenario`.
        """
        from repro.api.build import build_scenario

        if cluster is None or model is None or plans is None:
            scenario = build_scenario(run)
            cluster = scenario.cluster if cluster is None else cluster
            model = scenario.model if model is None else model
            plans = scenario.plans if plans is None else plans
        return cls(
            run, cluster, model, plans,
            trace=trace, oracles=oracles, fabric_spec=fabric_spec, obs=obs,
        )

    # ------------------------------------------------------------------
    # oracle plumbing
    # ------------------------------------------------------------------

    def _notify_push(self, vw: int, wave: int, global_version: int) -> None:
        for oracle in self._push_oracles:
            oracle.on_push_recorded(vw, wave, global_version)

    def _on_inject(self, vw: int, p: int, now: float) -> None:
        if self._inject_oracles:
            pulled = self.gates[vw].pulled_version
            for oracle in self._inject_oracles:
                oracle.on_inject(vw, p, pulled, now)

    def check_invariants(self) -> None:
        """End-of-run reconciliation pass over all attached oracles.

        Raises :class:`~repro.errors.InvariantViolation` on the first
        inconsistency; live violations raise earlier, mid-run.
        """
        for oracle in self.oracles:
            oracle.verify_final(self)

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def _on_processor_state(self, vw: int, busy: bool) -> None:
        now = self.sim.now
        if busy:
            if self._busy_count[vw] == 0:
                self._flush_idle(vw, now)
                self._all_idle_since[vw] = None
            self._busy_count[vw] += 1
        else:
            self._busy_count[vw] -= 1
            if self._busy_count[vw] == 0:
                self._all_idle_since[vw] = now

    def _flush_idle(self, vw: int, now: float) -> None:
        """Credit accumulated all-idle time to the active wait, if any."""
        idle_since = self._all_idle_since[vw]
        wait_start = self._wait_started[vw]
        if idle_since is None or wait_start is None:
            return
        start = max(idle_since, wait_start)
        if now > start:
            self.stats[vw].idle_in_wait += now - start

    def _on_minibatch_done(self, vw: int, p: int, now: float) -> None:
        self.stats[vw].minibatches_done += 1
        for oracle in self._done_oracles:
            oracle.on_minibatch_done(vw, p, now)
        if self.push_every_minibatch:
            self._push_update(vw, p, wave_complete=(p % self.nm == 0))
        elif p % self.nm == 0:
            self._push_update(vw, p, wave_complete=True)

    def _push_update(self, vw: int, p: int, wave_complete: bool) -> None:
        plan = self.plans[vw]
        placement = self.placements[vw]
        sources = [
            (stage.gpu.node_id, placement[stage.index])
            for stage in plan.stages
        ]
        if not wave_complete:
            # ablation mode: per-minibatch push of the same byte volume,
            # without clock advancement
            self.ps.push_bytes_only(vw, sources)
            return
        wave = p // self.nm - 1
        self.trace.emit(self.sim.now, self._wave_push_sites[vw], wave)
        self.ps.push(vw, wave, sources, on_complete=lambda: self._after_push(vw, wave))

    def _after_push(self, vw: int, wave: int) -> None:
        stats = self.stats[vw]
        stats.waves_pushed += 1
        stats.wave_times.append(self.sim.now)
        desired = desired_version_after_wave(wave, self.d)
        self._wait_started[vw] = self.sim.now
        self.ps.when_version(desired, lambda: self._begin_pull(vw), vw=vw)

    def _begin_pull(self, vw: int) -> None:
        plan = self.plans[vw]
        placement = self.placements[vw]
        sources = [
            (stage.gpu.node_id, placement[stage.index])
            for stage in plan.stages
        ]
        self.ps.pull(vw, sources, on_complete=lambda version: self._pull_done(vw, version))

    def _pull_done(self, vw: int, version: int) -> None:
        now = self.sim.now
        wait_start = self._wait_started[vw]
        if wait_start is not None:
            self._flush_idle(vw, now)
            self.stats[vw].waiting_time += now - wait_start
            self._wait_started[vw] = None
        self.stats[vw].pulls += 1
        self.trace.emit(now, self._pull_done_sites[vw], version)
        for oracle in self._pull_oracles:
            oracle.on_pull_done(vw, version, now)
        # Stamp the pipeline's live weight version before waking the
        # gate: minibatches admitted by this advance must record the
        # just-pulled version in the stashed-version ledger.
        self.pipelines[vw].set_weight_version(version)
        self.gates[vw].advance(version)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def start(self) -> None:
        for pipeline in self.pipelines:
            pipeline.start()

    def run_until_global_version(self, target: int, max_events: int = 20_000_000) -> None:
        """Advance the simulation until wave ``target`` is globally done.

        Under the fast_forward fidelity, every global-version advance is
        a cycle boundary: once the steady-state detector confirms a
        repeating cycle, the remaining cycles up to ``target`` are applied
        analytically instead of being simulated (the skip lands exactly
        on the boundary semantics a full run would stop at).
        """
        executed = 0
        ps = self.ps
        step = self.sim.step
        ff = self._ff
        last_version = ps.global_version
        while ps.global_version < target:
            if not step():
                raise SimulationError(
                    f"simulation quiesced at global version {ps.global_version} "
                    f"before reaching {target} (deadlock?)"
                )
            executed += 1
            if executed > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            if ff is not None and ps.global_version > last_version:
                ff.on_boundary(target)
                last_version = ps.global_version

    def ps_queue_stats(self) -> tuple[float, int]:
        """``(total queueing delay, peak queue depth)`` of PS traffic
        alone: the dedicated PS streams, or — in fabric mode — the
        ``ps.*``-tagged flows' waits (see
        :meth:`repro.netsim.fabric.Fabric.tagged_queue_stats`)."""
        return self.ps.queue_stats()

    def network_queue_stats(self) -> tuple[float, int]:
        """``(total queueing delay, peak queue depth)`` across the run's
        network: the shared fabric when one is attached, otherwise the
        dedicated PS streams plus every pipeline's stage channels."""
        if self.fabric is not None:
            return self.fabric.queue_stats()
        total, depth = self.ps.queue_stats()
        for pipeline in self.pipelines:
            t, q = pipeline.channel_queue_stats()
            total += t
            depth = max(depth, q)
        return total, depth

    # ------------------------------------------------------------------
    # fault injection and elastic recovery (see repro.faults)
    # ------------------------------------------------------------------

    def crash_node(self, node: int) -> None:
        """Transient node crash: every stage processor and PS process on
        ``node`` stops serving.  In-flight tasks abort (they re-run in
        full after :meth:`restore_node`) and new PS sends touching the
        node block in the retry path."""
        for vw, plan in enumerate(self.plans):
            pipeline = self.pipelines[vw]
            for s, stage in enumerate(plan.stages):
                if stage.gpu.node_id == node:
                    pipeline.stages[s].processor.fail()
        self.ps.fail_node(node)

    def restore_node(self, node: int) -> None:
        """Rejoin a transiently-crashed node: queued work resumes."""
        self.ps.restore_node(node)
        for vw, plan in enumerate(self.plans):
            pipeline = self.pipelines[vw]
            for s, stage in enumerate(plan.stages):
                if stage.gpu.node_id == node:
                    pipeline.stages[s].processor.restore()

    def set_link_scale(self, scale: float) -> None:
        """Apply a shared-fabric degradation factor (1.0 = healthy) to
        the run's cross-node links: the fabric itself in shared mode, the
        PS streams plus every pipeline's cross-node stage channels in
        dedicated mode."""
        if self.fabric is not None:
            self.fabric.rate_scale = scale
            return
        self.ps.set_link_scale(scale)
        for pipeline in self.pipelines:
            pipeline.set_link_scale(scale)

    def handle_node_loss(self, node: int) -> None:
        """Permanent loss of ``node``: PS-shard failover to a survivor,
        then elastic re-partitioning of every virtual worker that had a
        stage there — re-run the registered planner on the surviving
        GPUs, resume from the parameter server's committed progress, and
        rebuild placements over the surviving nodes."""
        self._lost_nodes.add(node)
        self._structural_change = True
        survivors = [
            n.node_id for n in self.cluster.nodes
            if n.node_id not in self._lost_nodes
        ]
        if not survivors:
            raise SimulationError(f"node {node} lost and no survivors remain")
        self.ps.migrate_node(node, survivors[0])
        # The node is gone for either end of a transfer, not just as a
        # PS host: in-flight pushes whose sources named it re-home too.
        self.ps._faults.node_redirect[node] = survivors[0]
        affected = [
            vw for vw, plan in enumerate(self.plans)
            if any(stage.gpu.node_id == node for stage in plan.stages)
        ]
        if not affected:
            return
        from repro.api.registry import PLANNERS
        from repro.models.profiler import Profiler

        planner = PLANNERS.get(self.planner)
        profiler = Profiler(self.calibration)
        for vw in affected:
            old = self.pipelines[vw]
            old.halt()
            gpus = [
                stage.gpu for stage in self.plans[vw].stages
                if stage.gpu.node_id not in self._lost_nodes
            ]
            if not gpus:
                # The whole worker died with its node: adopt a surviving
                # node's GPUs (oversubscribing them — the replacement
                # shares silicon with that node's own worker, which the
                # degradation oracle's capacity bound accounts for).
                host = survivors[vw % len(survivors)]
                gpus = [g for g in self.cluster.gpus if g.node_id == host]
            new_plan = planner(
                self.model, gpus, self.nm, self.cluster.interconnect,
                self.calibration, profiler,
            )
            # Resume from the PS's committed progress for this worker:
            # waves recorded, in flight, or backlogged all eventually
            # record, so the replacement's first push is exactly the
            # wave the PS expects next.
            base = self.ps.expected_next_wave(vw) * self.nm
            pipeline = VirtualWorkerPipeline(
                self.sim,
                new_plan,
                self.cluster.interconnect,
                name=f"vw{vw}",
                gate=self.gates[vw],
                on_minibatch_done=(lambda p, t, vw=vw: self._on_minibatch_done(vw, p, t)),
                on_inject=(lambda p, t, vw=vw: self._on_inject(vw, p, t)),
                trace=self.trace,
                jitter=self.jitter,
                fabric=self.fabric,
            )
            for state in pipeline.stages:
                state.processor.on_state_change = (
                    lambda busy, vw=vw: self._on_processor_state(vw, busy)
                )
            if hasattr(self.gates[vw], "attach"):
                # re-home the variant gate's pipeline reference; the WSP
                # base keeps its pulled_version across the replacement
                self.gates[vw].attach(pipeline)
            # The replacement starts from the last committed weights.
            pipeline.set_weight_version(self.gates[vw].pulled_version)
            pipeline.resume_from(base)
            self.plans[vw] = new_plan
            self.pipelines[vw] = pipeline
            # Progress beyond the last committed wave was lost with the
            # node; the replacement re-earns it (and re-counts it).
            self.stats[vw].minibatches_done = base
            self._busy_count[vw] = 0
            self._all_idle_since[vw] = self.sim.now
            pipeline.start()
        self.rebuild_placements(survivors)

    def rebuild_placements(self, node_ids: Sequence[int]) -> None:
        """Place the PS shards over ``node_ids`` through the run's
        PLACEMENTS-registry policy (at start-up, and for failover after
        a permanent PS-host loss).  Unsharded runs keep the historical
        policies; with K > 1 shard slots the shard placement policy
        picks the slot hosts instead."""
        effective_policy = (
            self.shard_placement_policy if self.shards > 1 else self.placement_policy
        )
        self.placements = build_placements(
            self.model, self.plans, list(node_ids), effective_policy,
            shards=self.shards, cluster=self.cluster,
            fabric_spec=self._fabric_spec if self.fabric is not None else None,
        )


class _RuntimeFastForward:
    """Steady-state macro-event coalescing for one :class:`HetPipeRuntime`.

    Cycle boundaries are global-version advances: in steady state the
    whole coupled system — every virtual worker's pipeline, the
    parameter-server shards, gates, and the pending event queue — repeats
    a fixed pattern per global wave (or a small super-cycle of waves when
    heterogeneous workers interleave with a longer period).  The per-
    boundary signature covers *all* of that state, so cross-VW
    interactions whose phases do not repeat (e.g., staleness admissions
    that would diverge) simply never confirm a cycle, and the run falls
    back to full simulation with no correctness cliff.

    On a confirmed cycle the skip is one clock translation plus O(state)
    bulk updates: simulator queue times shift by ``N * dt``, cumulative
    counters advance by ``N`` cycle deltas, public minibatch/wave/version
    numberings jump while raw in-flight event ids stay put (the
    pipelines' ``mb_offset`` translation), pending version waits are
    retargeted, live oracles are told via ``on_fast_forward``, and one
    ``fast_forward`` macro record stands in for the coalesced raw trace.
    """

    def __init__(self, runtime: HetPipeRuntime) -> None:
        self.runtime = runtime
        self.detector = SteadyStateDetector()
        self.skips_applied = 0
        #: pipelines and their stage resources, in fixed order; the PS's
        #: lazily-created streams are appended per boundary (a stream
        #: appearing mid-run changes the vector length, which the
        #: detector treats as a mismatch — exactly right)
        self._pipe_comps: list = []
        #: flat counter-vector offset of each pipeline's own counters
        #: (slot 0 there is its completed count)
        self._pipe_offsets: list[int] = []
        flat = 0
        for pipeline in runtime.pipelines:
            self._pipe_offsets.append(flat)
            for comp in pipeline_components(pipeline):
                self._pipe_comps.append(comp)
                flat += len(comp.ff_counters())

    def _components(self) -> list:
        ps = self.runtime.ps
        return [
            *self._pipe_comps,
            *ps._apply.values(),
            *ps._shard_apply.values(),
            *ps._channels.values(),
            ps,
        ]

    def _counters(self, comps: list) -> tuple:
        runtime = self.runtime
        values = list(collect_counters(runtime.sim, comps))
        for gate in runtime.gates:
            values.append(gate.pulled_version)
        for stats in runtime.stats:
            values.append(stats.minibatches_done)
            values.append(stats.waves_pushed)
            values.append(stats.pulls)
            values.append(stats.waiting_time)
            values.append(stats.idle_in_wait)
        return tuple(values)

    def _shape(self, comps: list) -> tuple:
        runtime = self.runtime
        now = runtime.sim.now
        levels, fingerprint = collect_shape(runtime.sim, comps)
        runtime_levels = (
            tuple(runtime._busy_count),
            tuple(-1.0 if t is None else now - t for t in runtime._all_idle_since),
            tuple(-1.0 if t is None else now - t for t in runtime._wait_started),
        )
        return (levels + (runtime_levels,), fingerprint)

    def on_boundary(self, target: int) -> None:
        """A global-version advance just executed; detect and maybe skip."""
        runtime = self.runtime
        # Fault injection: a skip would shift armed fault events (or
        # coalesce a live fault window), so bail while any fault is
        # scheduled or active; a structural change (elastic
        # re-partitioning) stales the component list permanently.
        if runtime._structural_change:
            return
        injector = runtime.fault_injector
        if injector is not None and injector.pending():
            return
        ps = runtime.ps
        comps = self._components()
        cycle = self.detector.observe(
            runtime.sim.now, self._counters(comps), self._shape(comps)
        )
        if cycle is None:
            return
        sizes = [len(comp.ff_counters()) for comp in comps]
        total_comp = sum(sizes)
        num_vw = len(runtime.plans)
        deltas = cycle.deltas
        ps_start = 1 + total_comp - sizes[-1]
        versions_per_cycle = deltas[ps_start + 4 + num_vw]
        if versions_per_cycle <= 0:
            return
        cycles = (target - ps.global_version) // versions_per_cycle
        if cycles <= 0:
            return
        # A push in flight at the boundary has its wave number captured
        # in transfer-completion closures, which a skip cannot retarget
        # (recording it afterwards would regress pushed_wave).  Refuse —
        # the run simply stays at full fidelity for this cycle.
        if any(ps._push_in_flight):
            return
        # Public ids jump by whole waves: each worker's coalesced
        # minibatches must be exactly Nm times its coalesced waves, or
        # the push phase would drift across the skip.
        per_vw_minibatches = tuple(
            deltas[1 + offset] for offset in self._pipe_offsets
        )
        per_vw_waves = tuple(deltas[ps_start + 4 + vw] for vw in range(num_vw))
        if any(
            mb != runtime.nm * waves
            for mb, waves in zip(per_vw_minibatches, per_vw_waves)
        ):
            return

        dt = cycles * cycle.dt
        runtime.sim.fast_forward(dt, events_coalesced=cycles * deltas[0])
        advance_components(comps, sizes, cycles, deltas[1 : 1 + total_comp], dt)
        offset = 1 + total_comp
        for gate in runtime.gates:
            gate.pulled_version += cycles * deltas[offset]
            offset += 1
        for stats in runtime.stats:
            stats.minibatches_done += cycles * deltas[offset]
            stats.waves_pushed += cycles * deltas[offset + 1]
            stats.pulls += cycles * deltas[offset + 2]
            stats.waiting_time += cycles * deltas[offset + 3]
            stats.idle_in_wait += cycles * deltas[offset + 4]
            offset += 5
        runtime._all_idle_since = [
            None if t is None else t + dt for t in runtime._all_idle_since
        ]
        runtime._wait_started = [
            None if t is None else t + dt for t in runtime._wait_started
        ]
        self.skips_applied += 1
        summary = FastForwardSummary(
            time=runtime.sim.now,
            dt=dt,
            cycles=cycles,
            period=cycle.period,
            events_coalesced=cycles * deltas[0],
            minibatches=tuple(cycles * mb for mb in per_vw_minibatches),
            waves=tuple(cycles * waves for waves in per_vw_waves),
            versions=cycles * versions_per_cycle,
        )
        for oracle in runtime.oracles:
            oracle.on_fast_forward(summary)
        runtime.trace.record(
            runtime.sim.now,
            "fast_forward",
            "runtime",
            cycles=cycles,
            period=cycle.period,
            dt=dt,
            minibatches=summary.minibatches,
            waves=summary.waves,
            versions=summary.versions,
            events=summary.events_coalesced,
        )
        self.detector.rebase(dt, tuple(cycles * d for d in deltas))
