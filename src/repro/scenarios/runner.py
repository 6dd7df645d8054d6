"""End-to-end scenario execution with always-on invariant oracles.

:func:`run_scenario` drives one generated scenario through the real
:class:`~repro.wsp.runtime.HetPipeRuntime` with the full oracle suite
attached, then closes with three independent verdicts:

1. **Invariants** — any live oracle violation, deadlock (quiescing short
   of the target version), or event-budget blowout fails the scenario.
2. **Differential bounds** — the measured window is compared against the
   envelopes of :mod:`repro.training.envelopes`: per-worker completions
   must sit inside :func:`~repro.training.envelopes.wsp_completion_bounds`,
   no worker may beat its
   :func:`~repro.training.envelopes.pipeline_rate_bound`, and the window
   cannot exceed the serialized worst case
   (:func:`~repro.training.envelopes.wsp_wave_time_bound`, with PS apply
   contention added and a slack factor for transfer queueing).
3. **1F1B cross-check** — the same partition plan is also run through
   the PipeDream-style :class:`~repro.pipeline.one_f_one_b.OneFOneBPipeline`
   under :class:`~repro.sim.invariants.OneFOneBOracle`, so the variant
   scheduler is fuzzed alongside the paper's FIFO discipline.

Every run is deterministic; :class:`ScenarioResult.digest` hashes the
full trace so replays can be compared bit-for-bit.

Scenarios are described by a typed :class:`~repro.api.spec.RunSpec` —
the only input :func:`run_scenario` takes.  The fuzz driver constructs
one per seed, and every result records the spec's ``spec_hash`` so any
artifact is traceable to, and replayable from, its exact configuration
(``repro run <spec.json>``).
"""

from __future__ import annotations

import hashlib
import logging
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.api.build import Deployment, build_scenario
from repro.api.spec import SPEC_SCHEMA, FidelitySpec, NetworkSpec, PipelineSpec, RunSpec
from repro.errors import InvariantViolation, ReproError, SimulationError, SpecError
from repro.netsim.fabric import DEFAULT_FABRIC_SPEC, FabricSpec
from repro.pipeline.one_f_one_b import OneFOneBPipeline
from repro.scenarios.generator import (
    congested_fabric_spec,
    draw_scenario_spec,
    generate_run_spec,
)
from repro.sim.engine import Simulator
from repro.sim.equivalence import compare_fingerprints, semantic_fingerprint
from repro.sim.fastforward import run_pipeline_fast_forward
from repro.sim.invariants import FabricOracle, OneFOneBOracle, StalenessOracle
from repro.sim.trace import Trace
from repro.training.envelopes import (
    pipeline_rate_bound,
    wsp_completion_bounds,
    wsp_wave_time_bound,
)
from repro.wsp.runtime import HetPipeRuntime

#: Multiplier on the serialized worst-case window bound.  The bound in
#: :func:`wsp_wave_time_bound` ignores cross-worker queueing on shared
#: parameter-server shards beyond the apply processors, so the harness
#: grants this much headroom before calling a run impossibly slow.
WINDOW_SLACK = 3.0

#: Events granted per expected minibatch before a run is declared a
#: storm.  A minibatch costs ~4 events per stage (two task completions,
#: two transfers) plus wave sync; 200 is two orders of magnitude above.
EVENTS_PER_MINIBATCH = 200

#: Ring-buffer capacity for diagnostics capture when the spec carries no
#: observability section of its own.
DEFAULT_DIAGNOSTIC_RING = 256

#: Completed fabric flows kept in a diagnostics snapshot.
_SNAPSHOT_FLOWS = 32

logger = logging.getLogger(__name__)


def _measured_waves(run: RunSpec) -> int:
    """The measured window in global waves: the spec's window stretched
    by ``fidelity.waves_scale`` (the long-horizon knob)."""
    return run.pipeline.measured_waves * run.fidelity.waves_scale


def describe_run(run: RunSpec) -> str:
    """One line naming a scenario run's deployment and knobs."""
    cluster, model, pipe = run.cluster, run.model, run.pipeline
    return (
        f"seed={run.seed} cluster={cluster.node_codes}x{cluster.gpus_per_node} "
        f"alloc={pipe.allocation} layers={len(model.conv_widths)}c+{len(model.fc_dims)}f "
        f"Nm={pipe.nm} D={pipe.d} place={pipe.placement} jitter={pipe.jitter} "
        f"{'push/mb ' if pipe.push_every_minibatch else ''}"
        f"waves={pipe.warmup_waves}+{_measured_waves(run)}"
        # each suffix appears only off its default, so the default
        # dedicated line stays byte-identical to the historical harness
        f"{' net=shared' if run.network.model == 'shared' else ''}"
        f"{f' shards={pipe.shards}:{pipe.shard_placement}' if pipe.shards > 1 else ''}"
        f"{f' variant={pipe.variant}' if pipe.variant != 'vw_hetpipe' else ''}"
        f"{' memcap' if pipe.memory_limited else ''}"
    )


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one fuzzed scenario."""

    #: the exact spec the scenario ran under
    spec: RunSpec
    digest: str
    violations: tuple[str, ...]
    throughput: float  # images/s over the measured window
    window: float  # simulated seconds measured
    events: int
    per_vw_completions: tuple[int, ...]
    #: end-of-run simulated time (time to the target global version)
    makespan: float = 0.0
    #: heap events actually dispatched (main runtime + 1F1B cross-check;
    #: the equivalence twin's events are verification overhead, not the
    #: scenario's cost, and are excluded)
    events_simulated: int = 0
    #: events coalesced analytically by steady-state skips
    events_fast_forwarded: int = 0
    #: whether the full-fidelity twin ran and the semantic fingerprints
    #: were compared (fast_forward runs only)
    equivalence_checked: bool = False
    #: hash of the canonical RunSpec the scenario was constructed from
    #: (every fuzz seed runs through the typed API), so any artifact
    #: carrying this result is traceable to its exact configuration
    spec_hash: str = ""
    #: the spec schema the hash was computed under
    api_schema: str = SPEC_SCHEMA
    #: diagnostics capture (trace ring, oracle state, queue snapshots);
    #: populated only by ``run_scenario(..., capture_diagnostics=True)``
    #: re-runs of failing seeds, and fed into
    #: :func:`repro.obs.bundle.write_bundle`
    diagnostics: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def fidelity(self) -> str:
        """The fidelity the scenario ran under ("full" or "fast_forward")."""
        return self.spec.fidelity.fidelity

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL({len(self.violations)})"
        line = (
            f"[{status:>8}] {describe_run(self.spec)} "
            f"-> {self.throughput:8.1f} img/s, {self.events} events, "
            f"digest {self.digest[:12]}"
        )
        if self.fidelity != "full":
            line += f" ff={self.events_fast_forwarded}"
        if self.spec_hash:
            line += f" spec {self.spec_hash[:12]}"
        return line


def _sync_time_bound(
    built: Deployment, runtime: HetPipeRuntime, vw: int, push_mult: int
) -> float:
    """Serialized per-wave channel time for ``vw``: PS push+pull plus the
    pipeline's own inter-stage activation/gradient transfers.

    ``plan.serial_latency`` (used by :func:`wsp_wave_time_bound`) covers
    compute and *receive* costs, but a wave also occupies the stage
    links; folding those transfers in keeps the window bound a true
    worst case even for communication-dominated scenarios.
    """
    ic = built.cluster.interconnect
    plan = built.plans[vw]
    placement = runtime.placements[vw]
    total = 0.0
    for stage, dests in zip(plan.stages, placement):
        src = stage.gpu.node_id
        for shard_node, nbytes in dests:
            if shard_node == src:
                per_transfer = ic.pcie_latency + nbytes / ic.pcie_effective
            else:
                per_transfer = ic.ib_latency + nbytes / ic.ib_effective
            total += per_transfer * (push_mult + 1)  # pushes + one pull
    for s in range(1, plan.k):
        bandwidth, latency = ic.link_between(plan.stages[s - 1].gpu, plan.stages[s].gpu)
        boundary = latency + plan.stages[s].activation_in_bytes / bandwidth
        total += 2 * boundary * plan.nm  # fwd activation + bwd gradient, per minibatch
    return total


def _apply_time_bound(runtime: HetPipeRuntime, push_mult: int) -> float:
    """Serialized shard-apply cost of one wave from *every* worker.

    Apply processors are shared PS-side, so in the worst case all
    workers' applies queue behind each other.
    """
    rate = runtime.calibration.ps_apply_bandwidth
    total = 0.0
    for placement in runtime.placements:
        for dests in placement:
            for _, nbytes in dests:
                total += push_mult * nbytes / rate
    return total


def _check_bounds(
    built: Deployment,
    run: RunSpec,
    runtime: HetPipeRuntime,
    window: float,
    completions: Sequence[int],
    violations: list[str],
    fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
) -> None:
    pipe = run.pipeline
    measured = _measured_waves(run)
    low, high = wsp_completion_bounds(pipe.nm, pipe.d, measured)
    for vw, (plan, done) in enumerate(zip(built.plans, completions)):
        if not low <= done <= high:
            violations.append(
                f"differential: vw{vw} completed {done} minibatches in a "
                f"{measured}-wave window, outside [{low}, {high}]"
            )
        ceiling = window * pipeline_rate_bound(plan, pipe.jitter) + pipe.nm + 1
        if done > ceiling:
            violations.append(
                f"differential: vw{vw} completed {done} minibatches in "
                f"{window:.6f}s, above the compute ceiling {ceiling:.1f}"
            )
    # pushes per wave: one per minibatch under the per-minibatch ablation
    push_mult = pipe.nm if pipe.push_every_minibatch else 1
    apply_bound = _apply_time_bound(runtime, push_mult)
    syncs = [
        _sync_time_bound(built, runtime, vw, push_mult)
        for vw in range(len(built.plans))
    ]
    if run.network.model == "shared":
        # On the shared fabric, every worker's transfers can serialize
        # behind every other worker's on the same NIC/switch, and the
        # congested topology runs resources at `min_scale` of the
        # dedicated bandwidths — the serialized worst case is the *sum*
        # over workers, rescaled.
        total_sync = sum(syncs) / fabric_spec.min_scale()
        syncs = [total_sync] * len(syncs)
    wave_bound = max(
        wsp_wave_time_bound(plan, sync, pipe.jitter)
        for plan, sync in zip(built.plans, syncs)
    )
    limit = measured * (wave_bound + apply_bound) * WINDOW_SLACK
    if window > limit:
        violations.append(
            f"differential: {measured} waves took {window:.6f}s, "
            f"beyond the serialized worst case {limit:.6f}s (livelock?)"
        )


def _check_1f1b(
    built: Deployment, seed: int, violations: list[str], fidelity: str = "full"
) -> tuple[str, int, int]:
    """Run the 1F1B variant on plan 0 under its dispatch oracle.

    Returns ``(digest, events_simulated, events_fast_forwarded)``.  The
    1F1B pipeline is deterministic (no jitter), so under the
    fast_forward fidelity its steady-state cycles always coalesce.
    """
    plan = built.plans[0]
    limit = 3 * plan.nm + 2 * plan.k
    sim = Simulator()
    # Streaming digest: the oracle subscribes live and the replay hash
    # folds in at emit time, so no record is ever stored.
    trace = Trace(enabled=False, digest=True, schema=1 if fidelity == "full" else 2)
    pipeline = OneFOneBPipeline(
        sim, plan, built.cluster.interconnect, limit=limit,
        name=f"1f1b{seed}", trace=trace,
    )
    oracle = OneFOneBOracle(pipeline)
    budget = EVENTS_PER_MINIBATCH * limit * plan.k
    try:
        pipeline.start()
        if fidelity == "fast_forward":
            run_pipeline_fast_forward(pipeline, limit, max_events=budget)
        else:
            sim.run_until_idle(max_events=budget)
        if pipeline.completed != limit:
            violations.append(
                f"1f1b: pipeline quiesced at {pipeline.completed}/{limit} minibatches"
            )
        if oracle.forwards_checked == 0 and plan.k > 1:
            violations.append("1f1b: oracle observed no forward dispatches")
    except ReproError as exc:
        violations.append(f"1f1b: {exc}")
    return trace.digest(), sim.events_processed, sim.events_fast_forwarded


def _makespan_only(
    built: Deployment,
    run: RunSpec,
    total_waves: int,
    budget: int,
    fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
) -> float:
    """Time for a fault-free twin of ``run`` to reach global version
    ``total_waves - 1`` (no oracles, no trace — just the clock).

    The twin resets ``fidelity`` (and with it ``waves_scale``), so its
    target comes from the main run's window, passed in as
    ``total_waves``, not from the twin's own spec.  It keeps the run's
    own network model: it is the fault-injection baseline, the horizon
    fault fractions scale by and the degradation oracle's yardstick.
    """
    twin = replace(run, fidelity=FidelitySpec(), faults=None)
    runtime = _build_runtime(built, twin, fabric_spec=fabric_spec)
    runtime.start()
    runtime.run_until_global_version(total_waves - 1, max_events=budget)
    return runtime.sim.now


def _build_runtime(built: Deployment, run: RunSpec, **kwargs: Any) -> HetPipeRuntime:
    """The WSP runtime for one run of a scenario (the main run or a twin)
    on the shared built objects; ``kwargs`` go to ``from_spec``."""
    return HetPipeRuntime.from_spec(
        run, cluster=built.cluster, model=built.model, plans=list(built.plans), **kwargs
    )


def _drive_main(
    runtime: HetPipeRuntime, warmup_waves: int, total_waves: int, budget: int
) -> tuple[float, tuple[int, ...], float]:
    """Drive a built runtime through warmup + the measured window.

    Returns ``(window, completions, makespan)``.
    """
    runtime.start()
    runtime.run_until_global_version(warmup_waves - 1, max_events=budget)
    t0 = runtime.sim.now
    done0 = [stats.minibatches_done for stats in runtime.stats]
    runtime.run_until_global_version(total_waves - 1, max_events=budget)
    window = runtime.sim.now - t0
    completions = tuple(
        stats.minibatches_done - before
        for stats, before in zip(runtime.stats, done0)
    )
    return window, completions, runtime.sim.now


def _jsonable(value: Any, depth: int = 0) -> Any:
    """A JSON-safe view of arbitrary oracle/runtime internals.

    Plain containers and scalars pass through (tuple keys stringify);
    anything else degrades to ``repr`` — diagnostics must never raise.
    """
    if depth > 5:
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        out = {}
        for index, (key, val) in enumerate(value.items()):
            if index >= 256:
                out["_truncated"] = f"{len(value) - 256} more entries"
                break
            out[str(key)] = _jsonable(val, depth + 1)
        return out
    if isinstance(value, (list, tuple, set, frozenset, deque)):
        items = list(value)
        out = [_jsonable(v, depth + 1) for v in items[:256]]
        if len(items) > 256:
            out.append(f"... {len(items) - 256} more")
        return out
    return repr(value)


def _oracle_state(oracles) -> dict[str, Any]:
    """Each oracle's internal state (its ``runtime`` back-ref excluded)."""
    state: dict[str, Any] = {}
    for oracle in oracles:
        raw = getattr(oracle, "__dict__", None)
        if raw is None:
            raw = {
                slot: getattr(oracle, slot)
                for slot in getattr(type(oracle), "__slots__", ())
                if hasattr(oracle, slot)
            }
        state[type(oracle).__name__] = {
            key: _jsonable(val) for key, val in raw.items() if key != "runtime"
        }
    return state


def _snapshots(runtime: HetPipeRuntime) -> dict[str, Any]:
    """Engine, PS, pipeline, and fabric queue state at end of run."""
    sim = runtime.sim
    ps = runtime.ps
    ps_delay, ps_depth = ps.queue_stats()
    snap: dict[str, Any] = {
        "sim": {
            "now": sim.now,
            "events_processed": sim.events_processed,
            "events_fast_forwarded": sim.events_fast_forwarded,
            "queue_depth": sim.queue_depth,
        },
        "ps": {
            "global_version": ps.global_version,
            "pushed_wave": list(ps.pushed_wave),
            "pushes_completed": ps.pushes_completed,
            "pulls_completed": ps.pulls_completed,
            "sync_bytes_total": ps.sync_bytes_total,
            "sync_bytes_cross_node": ps.sync_bytes_cross_node,
            "queue_delay_total": ps_delay,
            "max_queue_depth": ps_depth,
        },
        "pipelines": [
            {
                "name": getattr(pipeline, "name", f"vw{index}"),
                "minibatches_done": stats.minibatches_done,
                "waves": len(stats.wave_times),
            }
            for index, (pipeline, stats) in enumerate(
                zip(runtime.pipelines, runtime.stats)
            )
        ],
    }
    fabric = runtime.fabric
    if fabric is not None:
        snap["fabric"] = {
            "queue_delay_total": fabric.queue_delay_total,
            "links": [
                {
                    "name": link.name,
                    "kind": link.kind,
                    "utilization": link.utilization(),
                    "queue_delay_total": link.queue_delay_total,
                    "max_queue_depth": link.max_queue_depth,
                }
                for link in fabric.links()
            ],
            "recent_flows": [
                {
                    "src": repr(flow.src),
                    "dst": repr(flow.dst),
                    "nbytes": flow.nbytes,
                    "start": flow.start,
                    "done": flow.done,
                    "tag": flow.tag,
                    "wait": flow.wait,
                    "path": list(flow.path),
                }
                for flow in fabric.flows[-_SNAPSHOT_FLOWS:]
            ],
        }
    return snap


def run_scenario(run: RunSpec, capture_diagnostics: bool = False) -> ScenarioResult:
    """Execute one scenario-kind ``run`` end to end and return its verdict.

    Every fuzz seed arrives as a :class:`~repro.api.spec.RunSpec`
    (a generated draw lifts into one through
    :meth:`~repro.scenarios.generator.ScenarioSpec.to_run_spec`), and
    every knob is read from it; anything else raises
    :class:`~repro.errors.SpecError`.

    Shared-network scenarios are simulated once.  Contention is checked
    per flow: :class:`~repro.sim.invariants.FabricOracle` holds every
    fabric flow to its dedicated floor (latency plus bytes over the
    bottleneck bandwidth, HetPipe §7), and a fault-free shared run whose
    oracle checked no flow is a violation.  The run's makespan is not
    compared with a dedicated-network run: slower transfers reorder WSP
    admissions and PS applies, and a greedy schedule can finish sooner
    for it (seed 330 does, with no flow served faster than its floor).

    ``run.fidelity.fidelity="full"`` (the default) is the historical
    bit-identical contract: digests hash every raw record under
    ``hetpipe-trace/1``.  ``"fast_forward"`` coalesces confirmed
    steady-state cycles and hashes under the semantic
    ``hetpipe-trace/2`` schema; with ``verify_equivalence`` (the default
    under fast_forward) the full-fidelity twin also runs and any
    deviation of makespan, utilization, counts, or staleness statistics
    beyond 1e-9 relative is reported as an ``equivalence:`` violation.
    """
    if not isinstance(run, RunSpec):
        raise SpecError(
            f"run_scenario takes a repro.api.RunSpec, got "
            f"{type(run).__name__}; lift a ScenarioSpec with "
            f"ScenarioSpec.to_run_spec()"
        )
    fidelity = run.fidelity.fidelity
    verify_equivalence = run.fidelity.verify_equivalence
    if verify_equivalence is None:
        verify_equivalence = fidelity == "fast_forward"
    violations: list[str] = []
    # The spec's oracle suite, via the registry: "default" is the full
    # always-on suite; misses raise UnknownNameError naming what exists.
    from repro.api.registry import ORACLES

    oracles = ORACLES.get(run.oracles)()
    built = build_scenario(run)
    pipe = run.pipeline
    shared = run.network.model == "shared"
    fabric_spec = congested_fabric_spec(run.seed) if shared else DEFAULT_FABRIC_SPEC
    # Storage stays off: the oracles are live subscribers and the digest
    # is folded in record-by-record, so memory no longer grows with the
    # run's makespan (the digest value is identical to the stored-record
    # hash the harness used to compute).
    trace = Trace(enabled=False, digest=True, schema=1 if fidelity == "full" else 2)
    ring: deque | None = None
    if capture_diagnostics:
        # Last-N trace records for the diagnostics bundle.  A plain
        # subscriber: the digest hashes before subscribers run, so
        # capture never perturbs replay identity.
        capacity = (
            run.observability.ring_buffer
            if run.observability is not None
            else DEFAULT_DIAGNOSTIC_RING
        )
        ring = deque(maxlen=capacity)
        trace.subscribe(
            lambda r: ring.append((r.time, r.category, r.actor, dict(r.detail)))
        )
    total_waves = pipe.warmup_waves + _measured_waves(run)
    expected_minibatches = len(built.plans) * (total_waves + pipe.d + 3) * pipe.nm
    budget = EVENTS_PER_MINIBATCH * expected_minibatches * max(
        plan.k for plan in built.plans
    )
    faulted = run.faults is not None
    if faulted:
        # Retries, re-queued work, and re-earned minibatches all cost
        # extra events; recovery must not be mistaken for a storm.
        budget *= 4

    window = 0.0
    completions: tuple[int, ...] = tuple(0 for _ in built.plans)
    throughput = 0.0
    makespan = 0.0
    equivalence_checked = False
    runtime = _build_runtime(
        built, run, trace=trace, oracles=oracles, fabric_spec=fabric_spec
    )
    try:
        if faulted:
            # The fault-free baseline of the *same* run (same network
            # model): the horizon the schedule's time fractions scale
            # by, and the degradation oracle's yardstick.
            from repro.faults import FaultInjector, FaultTargets, compile_schedule

            horizon = _makespan_only(built, run, total_waves, budget, fabric_spec)
            targets = FaultTargets(
                num_virtual_workers=len(built.plans),
                stages_per_worker=tuple(plan.k for plan in built.plans),
                node_ids=tuple(node.node_id for node in built.cluster.nodes),
                shards=pipe.shards,
            )
            schedule = compile_schedule(run.faults, targets, horizon, run.seed)
            if schedule:
                FaultInjector(runtime, schedule, run.faults, horizon).arm()
            # An empty schedule arms nothing: the run (checkpoint
            # cadence included) stays bit-identical to faults-off.
        window, completions, makespan = _drive_main(
            runtime, pipe.warmup_waves, total_waves, budget
        )
        throughput = (
            sum(completions) * built.model.batch_size / window if window > 0 else 0.0
        )
        runtime.check_invariants()
        if not faulted:
            # The differential envelopes assume a fault-free run; under
            # injection the graceful-degradation oracles own the timing
            # verdict instead.
            _check_bounds(built, run, runtime, window, completions, violations, fabric_spec)
            if shared and any(
                isinstance(oracle, FabricOracle) and oracle.flows_checked == 0
                for oracle in oracles
            ):
                violations.append("fabric: oracle checked no flows on a shared run")
        if (
            fidelity == "fast_forward"
            and verify_equivalence
            and not faulted
            and runtime.sim.events_fast_forwarded > 0
        ):
            # The semantic-equivalence oracle: the full-fidelity twin of
            # the same spec must agree on every contract observable.
            # Runs only when the main run actually coalesced something —
            # a run that never skipped (jitter, shared fabric, refused
            # cycles) *is* the full trajectory, and re-simulating it to
            # compare two bit-identical runs proves nothing.
            twin = _build_runtime(
                built, replace(run, fidelity=replace(run.fidelity, fidelity="full")),
                trace=Trace(enabled=False), oracles=[StalenessOracle()],
                fabric_spec=fabric_spec,
            )
            twin_window, _, _ = _drive_main(twin, pipe.warmup_waves, total_waves, budget)
            violations.extend(
                compare_fingerprints(
                    semantic_fingerprint(twin), semantic_fingerprint(runtime)
                )
            )
            scale = max(abs(twin_window), abs(window), 1e-12)
            if abs(twin_window - window) > 1e-9 * scale:
                violations.append(
                    f"equivalence: measured window full={twin_window!r} "
                    f"fast_forward={window!r}"
                )
            equivalence_checked = True
    except (InvariantViolation, SimulationError) as exc:
        violations.append(f"{type(exc).__name__}: {exc}")

    pipe_digest, pipe_events, pipe_ff = _check_1f1b(built, run.seed, violations, fidelity)
    combined = hashlib.sha256(
        (trace.digest() + pipe_digest).encode()
    ).hexdigest()
    main_events = runtime.sim.events_processed
    main_ff = runtime.sim.events_fast_forwarded
    diagnostics: dict | None = None
    if capture_diagnostics and violations:
        logger.info(
            "seed %d: capturing diagnostics for %d violation(s)",
            run.seed, len(violations),
        )
        diagnostics = {
            "spec_hash": run.spec_hash,
            "violations": list(violations),
            "trace_ring": [
                (time, category, actor, _jsonable(detail))
                for time, category, actor, detail in ring
            ],
            "oracle_state": _oracle_state(oracles),
            "snapshots": _snapshots(runtime),
        }
        injector = runtime.fault_injector
        if injector is not None:
            # Nested under snapshots so write_bundle persists it (the
            # bundle format has fixed top-level files).
            state = injector.state
            diagnostics["snapshots"]["faults"] = {
                "horizon": injector.horizon,
                "schedule": [e.describe() for e in injector.schedule],
                "fired": [e.describe() for e in injector.fired],
                "recovered": [e.describe() for e in injector.recovered],
                "retries_attempted": state.retries_attempted,
                "sends_blocked": state.sends_blocked,
                "sends_resolved": state.sends_resolved,
                "checkpoints": list(state.checkpoints),
                "down_nodes": sorted(state.down_nodes),
                "structural_change": runtime._structural_change,
            }
    return ScenarioResult(
        spec=run,
        digest=combined,
        violations=tuple(violations),
        throughput=throughput,
        window=window,
        events=main_events,
        per_vw_completions=completions,
        makespan=makespan,
        events_simulated=main_events + pipe_events,
        events_fast_forwarded=main_ff + pipe_ff,
        equivalence_checked=equivalence_checked,
        spec_hash=run.spec_hash,
        diagnostics=diagnostics,
    )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz batch."""

    results: list[ScenarioResult] = field(default_factory=list)
    #: seed -> diagnostics-bundle directory, for failures re-captured
    #: under ``run_fuzz(..., bundle_dir=...)``
    bundle_paths: dict[int, str] = field(default_factory=dict)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def events_simulated(self) -> int:
        return sum(r.events_simulated for r in self.results)

    @property
    def events_fast_forwarded(self) -> int:
        return sum(r.events_fast_forwarded for r in self.results)

    @property
    def equivalence_checks(self) -> int:
        return sum(1 for r in self.results if r.equivalence_checked)

    @property
    def equivalence_failures(self) -> int:
        return sum(
            1
            for r in self.results
            if any(v.startswith("equivalence:") for v in r.violations)
        )

    def summary(self) -> str:
        lines = [
            f"fuzz: {len(self.results)} scenarios, "
            f"{len(self.failures)} failing, {self.total_violations} violations"
        ]
        if any(r.fidelity != "full" for r in self.results):
            simulated = self.events_simulated
            coalesced = self.events_fast_forwarded
            total = simulated + coalesced
            share = coalesced / total if total else 0.0
            lines.append(
                f"fast-forward: {coalesced} of {total} events coalesced "
                f"({share:.1%}); {self.equivalence_checks} equivalence checks, "
                f"{self.equivalence_failures} failures"
            )
        for result in self.failures:
            lines.append(f"  seed {result.spec.seed}: {describe_run(result.spec)}")
            for violation in result.violations:
                lines.append(f"    - {violation}")
            bundle = self.bundle_paths.get(result.spec.seed)
            if bundle is not None:
                lines.append(f"    bundle: {bundle}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FuzzMode:
    """What one fuzz batch lays over every generated :class:`RunSpec`.

    Built from :func:`run_fuzz`'s keyword arguments and validated once,
    before any seed runs: the network and fidelity sections validate on
    construction, and the pipeline knobs the way
    :class:`~repro.api.spec.PipelineSpec` and the variant zoo do.
    """

    network: NetworkSpec
    fidelity: FidelitySpec
    shards: int = 1
    shard_placement: str = "size_balanced"
    variant: str = "vw_hetpipe"
    faults: bool = False

    def __post_init__(self) -> None:
        from repro.pipeline.variants import get_variant

        PipelineSpec(
            shards=self.shards,
            shard_placement=self.shard_placement,
            variant=self.variant,
        )
        get_variant(self.variant)

    def apply(self, run: RunSpec) -> RunSpec:
        """``run`` under this mode: one ``replace`` per section.

        The fault axis rides on top of the unchanged scenario draw (a
        seed still denotes the same deployment); its schedule comes from
        its own seeded stream, and the graceful-degradation oracle suite
        replaces the fault-free timing envelopes.
        """
        faulted = {}
        if self.faults:
            from repro.faults import draw_fault_spec

            faulted = {"faults": draw_fault_spec(run.seed), "oracles": "faults"}
        return replace(
            run,
            pipeline=replace(
                run.pipeline,
                shards=self.shards,
                shard_placement=self.shard_placement,
                variant=self.variant,
            ),
            network=self.network,
            fidelity=self.fidelity,
            **faulted,
        )


def _fuzz_one(item: tuple[int, FuzzMode]) -> ScenarioResult:
    """Run one seed under a fuzz mode (the :func:`sweep_map` work item).

    The seed's generated :class:`~repro.api.spec.RunSpec`, with the mode
    laid over it, is the exact spec the seed runs under; the result
    carries it, so the parent's diagnostics re-capture (and a bundle's
    ``spec.json``) reproduces the worker's run bit for bit.
    Module-level and argument-pure so worker processes can import it by
    reference; generation failures are reported as findings rather than
    raised — the harness's contract is that *any* seed yields a verdict.
    """
    seed, mode = item
    run = None
    try:
        run = mode.apply(generate_run_spec(seed))
        return run_scenario(run)
    except ReproError as exc:
        if run is None:  # no feasible deployment: report the seed's draw
            run = mode.apply(draw_scenario_spec(seed).to_run_spec())
        return ScenarioResult(
            spec=run,
            digest="",
            violations=(f"generation: {type(exc).__name__}: {exc}",),
            throughput=0.0,
            window=0.0,
            events=0,
            per_vw_completions=(),
        )


def run_fuzz(
    seeds: Iterable[int],
    verbose_log=None,
    network_model: str = "dedicated",
    jobs: int | None = 1,
    fidelity: str = "full",
    verify_equivalence: bool | None = None,
    waves_scale: int = 1,
    shards: int = 1,
    shard_placement: str = "size_balanced",
    bundle_dir: str | None = None,
    faults: bool = False,
    variant: str = "vw_hetpipe",
) -> FuzzReport:
    """Generate and run the scenario for every seed.

    ``verbose_log`` (e.g. ``print``) receives one line per scenario, in
    seed order regardless of ``jobs``.
    ``network_model="shared"`` reruns the same seeded scenarios on the
    contention-aware fabric (with a seed-drawn congested topology) under
    the additional per-flow floor / flow-conservation / utilization
    oracles;
    the scenario draw itself is unaffected, so a seed always denotes the
    same deployment in both modes.
    ``jobs`` fans seeds out across worker processes via
    :func:`repro.exec.sweep_map` (``None`` = one per CPU); every seed is
    an independent deterministic simulation, so the report — digests
    included — is bit-identical to a serial run.
    ``fidelity="fast_forward"`` coalesces steady-state cycles under the
    semantic-equivalence contract; ``verify_equivalence`` (defaulting to
    on under fast_forward) also runs every scenario's full-fidelity twin
    and reports contract deviations as violations.
    ``waves_scale`` multiplies each scenario's measured window — the
    long-horizon workload where coalescing is asymptotically faster.
    Digests at the default scale 1 and fidelity "full" are bit-identical
    to the historical harness.
    ``shards``/``shard_placement`` rerun the same seeded scenarios with
    a K-way sharded PS (the scenario draw itself never shards, so the
    default keeps every digest frozen).
    ``bundle_dir``, when set, re-runs every oracle-violating seed with
    diagnostics capture and writes one bundle directory per failure
    (see :mod:`repro.obs.bundle`); the report's summary references each
    bundle next to its violations.
    ``faults`` draws a seeded fault schedule per scenario (stragglers,
    crash/rejoin, link degradation, PS failures) and swaps the oracle
    suite for the graceful-degradation family; off (the default) keeps
    every digest frozen.
    ``variant`` reruns the same seeded scenarios under a pipeline-variant
    zoo entry (PipeDream / 2BW / GPipe / XPipe semantics and their
    per-variant staleness/ledger oracles); the scenario draw itself
    never varies, so the default keeps every digest frozen.  Unknown
    names raise :class:`~repro.errors.UnknownNameError` listing the zoo.
    Every mode knob is validated before any seed runs: a bad value
    raises one :class:`~repro.errors.SpecError`.
    """
    from repro.exec import sweep_map

    mode = FuzzMode(
        network=NetworkSpec(model=network_model),
        fidelity=FidelitySpec(
            fidelity=fidelity,
            verify_equivalence=verify_equivalence,
            waves_scale=waves_scale,
        ),
        shards=shards,
        shard_placement=shard_placement,
        variant=variant,
        faults=faults,
    )
    seeds = list(seeds)
    logger.info(
        "fuzz: %d seeds, network=%s fidelity=%s shards=%d faults=%s "
        "variant=%s jobs=%s",
        len(seeds), network_model, fidelity, shards, faults, variant, jobs,
    )
    on_result = None
    if verbose_log is not None:
        on_result = lambda index, result: verbose_log(result.describe())  # noqa: E731
    results = sweep_map(
        _fuzz_one, [(seed, mode) for seed in seeds], jobs=jobs, on_result=on_result
    )
    report = FuzzReport(results=results)
    if bundle_dir is not None:
        from repro.obs.bundle import write_bundle

        for result in report.failures:
            if all(v.startswith("generation:") for v in result.violations):
                continue  # no runnable spec to capture or replay
            run = result.spec
            logger.info("seed %d failed; re-running with diagnostics capture", run.seed)
            captured = run_scenario(run, capture_diagnostics=True)
            diagnostics = captured.diagnostics or {
                "violations": list(captured.violations)
            }
            report.bundle_paths[run.seed] = write_bundle(bundle_dir, run, diagnostics)
    return report
