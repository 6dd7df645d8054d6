"""Fault injection & elastic recovery: schedules, oracles, digest identity."""

from dataclasses import replace

import pytest

from repro.api.build import build_scenario
from repro.api.spec import FaultSpec, FidelitySpec, NetworkSpec, RunSpec
from repro.errors import ConfigurationError, SpecError
from repro.faults import (
    FaultInjector,
    FaultTargets,
    compile_schedule,
    draw_fault_spec,
)
from repro.obs.bundle import load_bundle, replay_bundle, write_bundle
from repro.scenarios.generator import generate_run_spec
from repro.scenarios.runner import (
    EVENTS_PER_MINIBATCH,
    FuzzMode,
    _makespan_only,
    run_fuzz,
    run_scenario,
)
from repro.sim.invariants import fault_oracles
from repro.wsp.runtime import HetPipeRuntime

#: seed 0 generates a two-node cluster with three virtual workers —
#: enough topology for crash/failover targets without being slow.
_MULTI_NODE_SEED = 0


def _fuzz_spec(
    seed: int = _MULTI_NODE_SEED, fidelity: str = "full", faults: bool = False
) -> RunSpec:
    """The spec ``run_fuzz`` runs ``seed`` under on the dedicated network."""
    mode = FuzzMode(
        network=NetworkSpec(), fidelity=FidelitySpec(fidelity=fidelity), faults=faults
    )
    return mode.apply(generate_run_spec(seed))


def _base_run(seed: int = _MULTI_NODE_SEED, fidelity: str = "full") -> RunSpec:
    return _fuzz_spec(seed, fidelity)


def _with_faults(run: RunSpec, *events, **knobs) -> RunSpec:
    return replace(
        run,
        faults=FaultSpec(enabled=True, events=tuple(events), **knobs),
        oracles="faults",
    )


def _targets() -> FaultTargets:
    return FaultTargets(
        num_virtual_workers=2,
        stages_per_worker=(3, 2),
        node_ids=(0, 1),
        shards=1,
    )


def _drive_faulted(run: RunSpec):
    """Mirror run_scenario's fault path but keep the runtime/injector
    inspectable (run_scenario only exposes them via diagnostics, and
    only for failing runs)."""
    scenario = build_scenario(run)
    pipe = run.pipeline
    total = pipe.warmup_waves + pipe.measured_waves
    budget = (
        EVENTS_PER_MINIBATCH
        * len(scenario.plans)
        * (total + pipe.d + 3)
        * pipe.nm
        * max(plan.k for plan in scenario.plans)
        * 4
    )
    horizon = _makespan_only(scenario, run, total, budget)
    runtime = HetPipeRuntime.from_spec(
        run,
        cluster=scenario.cluster,
        model=scenario.model,
        plans=list(scenario.plans),
        oracles=fault_oracles(),
    )
    targets = FaultTargets(
        num_virtual_workers=len(scenario.plans),
        stages_per_worker=tuple(plan.k for plan in scenario.plans),
        node_ids=tuple(node.node_id for node in scenario.cluster.nodes),
        shards=run.pipeline.shards,
    )
    schedule = compile_schedule(run.faults, targets, horizon, run.seed)
    injector = FaultInjector(runtime, schedule, run.faults, horizon)
    injector.arm()
    runtime.start()
    runtime.run_until_global_version(total - 1, max_events=budget)
    runtime.check_invariants()
    return runtime, injector


class TestFaultSpec:
    def test_disabled_section_normalizes_away(self):
        bare = _base_run()
        with_off = replace(bare, faults=FaultSpec(enabled=False))
        assert with_off.faults is None
        assert with_off.spec_hash == bare.spec_hash
        assert "faults" not in with_off.to_dict()

    def test_enabled_section_round_trips_and_changes_hash(self):
        bare = _base_run()
        faulted = _with_faults(bare, ("crash", 0.3, 0, 0.1))
        assert faulted.spec_hash != bare.spec_hash
        again = RunSpec.from_json(faulted.to_json())
        assert again == faulted
        assert again.spec_hash == faulted.spec_hash

    def test_malformed_events_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec(enabled=True, events=(("meteor", 0.1),))
        with pytest.raises(SpecError):
            FaultSpec(enabled=True, events=(("crash", 0.1, 0),))  # arity
        with pytest.raises(SpecError):
            FaultSpec(enabled=True, events=(("link", -0.1, 0.5, 0.1),))


class TestSchedule:
    def test_draw_is_deterministic_and_never_empty(self):
        for seed in range(20):
            spec = draw_fault_spec(seed)
            assert spec == draw_fault_spec(seed)
            assert (
                spec.stragglers + spec.crashes + spec.link_faults + spec.ps_faults
                > 0
            )

    def test_drawn_schedules_are_transient_only(self):
        for seed in range(20):
            schedule = compile_schedule(
                draw_fault_spec(seed), _targets(), horizon=1.0, seed=seed
            )
            assert schedule
            assert all(not event.permanent for event in schedule)
            assert [e.time for e in schedule] == sorted(e.time for e in schedule)

    def test_compile_is_pure(self):
        spec = draw_fault_spec(7)
        assert compile_schedule(spec, _targets(), 2.5, 7) == compile_schedule(
            spec, _targets(), 2.5, 7
        )

    def test_explicit_event_target_validation(self):
        spec = FaultSpec(enabled=True, events=(("straggler", 0.1, 9, 0, 2.0, 0.1),))
        with pytest.raises(ConfigurationError):
            compile_schedule(spec, _targets(), 1.0, 0)
        spec = FaultSpec(enabled=True, events=(("crash", 0.1, 7, 0.1),))
        with pytest.raises(ConfigurationError):
            compile_schedule(spec, _targets(), 1.0, 0)
        spec = FaultSpec(enabled=True, events=(("ps", 0.1, 3, 0.1),))
        with pytest.raises(ConfigurationError):
            compile_schedule(
                spec, replace(_targets(), shards=2), 1.0, 0
            )

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_schedule(FaultSpec(enabled=True), _targets(), 0.0, 0)


class TestDigestIdentity:
    """Arming faults must not perturb what it doesn't touch."""

    def test_empty_schedule_is_digest_identical_to_faults_off(self):
        for seed in (_MULTI_NODE_SEED, 2):
            bare = _base_run(seed)
            empty = replace(bare, faults=FaultSpec(enabled=True), oracles="faults")
            a, b = run_scenario(bare), run_scenario(empty)
            assert a.digest == b.digest
            assert a.makespan == b.makespan
            assert not a.violations and not b.violations

    def test_fault_scheduled_after_makespan_is_a_noop(self):
        # The events sit beyond the run's end so they never fire; the
        # armed run differs only in bookkeeping (checkpoint cadence
        # records), never in behavior.
        bare = _base_run()
        late = _with_faults(
            bare,
            ("straggler", 5.0, 0, 0, 2.0, 0.1),
            ("crash", 6.0, 0, 0.1),
        )
        a, b = run_scenario(bare), run_scenario(late)
        assert a.makespan == b.makespan
        assert a.throughput == b.throughput
        assert a.per_vw_completions == b.per_vw_completions
        assert not b.violations


class TestRecovery:
    def test_transient_faults_recover_with_zero_violations(self):
        report = run_fuzz(range(0, 12), faults=True)
        assert report.total_violations == 0
        assert len(report.results) == 12

    def test_shared_network_faulted_fuzz_is_clean(self):
        report = run_fuzz(range(0, 8), network_model="shared", faults=True)
        assert report.total_violations == 0

    def test_faulted_runs_are_slower_than_fault_free(self):
        bare = _base_run()
        slow = _with_faults(bare, ("straggler", 0.1, 0, 0, 4.0, 0.5))
        assert run_scenario(slow).makespan > run_scenario(bare).makespan

    def test_permanent_crash_of_shard_hosting_node_fails_over(self):
        bare = _base_run()
        # The node hosting every (unsharded) parameter shard of vw0's
        # first stage; crashing it permanently must move the PS role
        # and re-partition the affected pipelines.
        scenario = build_scenario(bare)
        probe = HetPipeRuntime.from_spec(
            bare,
            cluster=scenario.cluster,
            model=scenario.model,
            plans=list(scenario.plans),
        )
        victim = probe.placements[0][0][0][0]
        runtime, injector = _drive_faulted(
            _with_faults(bare, ("crash", 0.3, victim, 0.0))
        )
        assert injector.structural_change
        assert victim in runtime._lost_nodes
        # Failover: no placement may still point at the dead node.
        for placement in runtime.placements:
            for dests in placement:
                for node, _ in dests:
                    assert node != victim
        # Conservation across the repartition: every pipeline's ledger
        # agrees with the runtime's, and the global clock is the min.
        for pipeline, stats in zip(runtime.pipelines, runtime.stats):
            assert pipeline.completed == stats.minibatches_done
        assert runtime.ps.global_version == min(runtime.ps.pushed_wave)
        # Checkpoints kept pace through the failover.
        assert injector.state.checkpoints

    def test_permanent_ps_failure_moves_only_the_ps_role(self):
        bare = _base_run()
        runtime, injector = _drive_faulted(
            _with_faults(bare, ("ps", 0.3, 0, 0.0))
        )
        assert injector.structural_change
        # Compute survives — no node was lost, only its PS role moved.
        assert not runtime._lost_nodes
        for placement in runtime.placements:
            for dests in placement:
                for node, _ in dests:
                    assert node != 0


class TestFastForward:
    def test_fast_forward_bails_over_fault_windows(self):
        """Coalescing around (never across) fault windows is exact: the
        fast-forward run must land on the full-fidelity makespan."""
        for seed in (_MULTI_NODE_SEED, 5):
            full = run_scenario(_fuzz_spec(seed, "full", faults=True))
            ff = run_scenario(_fuzz_spec(seed, "fast_forward", faults=True))
            assert not full.violations and not ff.violations
            assert ff.makespan == full.makespan

    def test_fast_forward_still_coalesces_outside_windows(self):
        ff = run_scenario(_fuzz_spec(5, "fast_forward", faults=True))
        assert ff.events_fast_forwarded > 0


class TestUnrecoverable:
    def _poisoned_run(self) -> RunSpec:
        # A PS outage that outlasts the whole retry budget: node 0's PS
        # process stays down ~50 horizons while the budget covers ~4.
        return _with_faults(
            _base_run(),
            ("ps", 0.2, 0, 50.0),
            max_retries=3,
            retry_timeout=0.001,
        )

    def test_unrecoverable_outage_is_a_finding_not_a_hang(self):
        result = run_scenario(self._poisoned_run())
        assert any("unrecoverable" in v for v in result.violations)

    def test_unrecoverable_failure_produces_replayable_bundle(self, tmp_path):
        run = self._poisoned_run()
        first = run_scenario(run)
        captured = run_scenario(run, capture_diagnostics=True)
        assert captured.diagnostics is not None
        faults = captured.diagnostics["snapshots"]["faults"]
        assert faults["schedule"] and faults["fired"]
        assert faults["sends_blocked"] > 0
        path = write_bundle(str(tmp_path), run, captured.diagnostics)
        bundle = load_bundle(path)
        assert bundle.run == run
        # The fault capture survives the round trip through the bundle.
        assert bundle.snapshots["faults"]["fired"]
        replayed = replay_bundle(path)
        assert replayed.violations == first.violations
        assert replayed.digest == first.digest
