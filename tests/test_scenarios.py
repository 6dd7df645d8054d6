"""Scenario fuzzing harness: determinism, replay digests, verdicts."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.scenarios import (
    FuzzReport,
    ScenarioSpec,
    build_fuzz_model,
    generate_scenario,
    materialize,
    run_fuzz,
    run_scenario,
)


class TestModelBuilder:
    def test_builds_valid_chain(self):
        model = build_fuzz_model("m", 8, 16, (16, 32), (64,))
        assert len(model) >= 4  # convs + pool + fcs + logits
        assert model.param_bytes > 0
        assert model.layers[-1].name == "logits"

    def test_batch_scales_activations(self):
        small = build_fuzz_model("m", 8, 16, (16, 32), (64,))
        big = build_fuzz_model("m", 16, 16, (16, 32), (64,))
        assert big.input_bytes == 2 * small.input_bytes
        assert big.param_bytes == small.param_bytes


class TestGeneratorDeterminism:
    def test_same_seed_same_spec(self):
        assert generate_scenario(11).spec == generate_scenario(11).spec

    def test_different_seeds_differ(self):
        specs = {generate_scenario(seed).spec for seed in range(12)}
        assert len(specs) > 1

    def test_spec_materializes_consistently(self):
        spec = generate_scenario(3).spec
        a, b = materialize(spec), materialize(spec)
        assert a.cluster.codes() == b.cluster.codes()
        assert [p.bottleneck_period for p in a.plans] == [p.bottleneck_period for p in b.plans]

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_scenarios_are_feasible(self, seed):
        scenario = generate_scenario(seed)
        assert scenario.plans  # planning succeeded
        assert all(plan.nm == scenario.spec.nm for plan in scenario.plans)

    def test_infeasible_spec_raises_partition_error(self):
        spec = generate_scenario(0).spec
        huge = dataclasses.replace(
            spec, conv_widths=(4096,) * 12, batch_size=512, image_size=64, nm=4
        )
        with pytest.raises(PartitionError):
            materialize(huge)

    def test_local_placement_spec_validates(self):
        # find a generated local-placement scenario and rebuild it
        for seed in range(60):
            scenario = generate_scenario(seed)
            if scenario.spec.placement == "local":
                materialize(scenario.spec)  # must not raise
                return
        pytest.skip("no local-placement scenario in the first 60 seeds")


class TestRunScenario:
    def test_replay_is_bit_identical(self):
        run = generate_scenario(5).spec.to_run_spec()
        first, second = run_scenario(run), run_scenario(run)
        assert first.digest == second.digest
        assert first.per_vw_completions == second.per_vw_completions
        assert first.window == second.window

    def test_clean_seed_has_no_violations(self):
        result = run_scenario(generate_scenario(1).spec.to_run_spec())
        assert result.ok, result.violations
        assert result.throughput > 0
        assert sum(result.per_vw_completions) > 0

    def test_jittered_seed_still_deterministic(self):
        # find a jittered scenario; jitter noise is seeded per pipeline
        for seed in range(40):
            spec = generate_scenario(seed).spec
            if spec.jitter > 0:
                run = spec.to_run_spec()
                assert run_scenario(run).digest == run_scenario(run).digest
                return
        pytest.fail("no jittered scenario in the first 40 seeds")

    def test_describe_mentions_seed_and_digest(self):
        result = run_scenario(generate_scenario(2).spec.to_run_spec())
        assert f"seed={result.spec.seed}" in result.describe()
        assert result.digest[:12] in result.describe()


class TestSharedNetworkScenarios:
    def test_shared_run_is_clean_and_records_makespans(self):
        spec = dataclasses.replace(generate_scenario(1).spec, network_model="shared")
        result = run_scenario(spec.to_run_spec())
        assert result.ok, result.violations
        assert result.makespan >= result.dedicated_makespan > 0
        assert "net=shared" in result.spec.describe()

    def test_shared_mode_does_not_perturb_the_scenario_draw(self):
        dedicated = generate_scenario(4).spec
        assert dedicated.network_model == "dedicated"
        assert "net=" not in dedicated.describe()

    def test_shared_replay_is_bit_identical(self):
        spec = dataclasses.replace(generate_scenario(6).spec, network_model="shared")
        run = spec.to_run_spec()
        assert run_scenario(run).digest == run_scenario(run).digest

    def test_shared_batch_smoke(self):
        report = run_fuzz(range(5), network_model="shared")
        assert report.failures == []
        assert all(r.makespan >= r.dedicated_makespan for r in report.results)


class TestFuzzBatch:
    def test_smoke_batch_is_clean(self):
        report = run_fuzz(range(25))
        assert len(report.results) == 25
        assert report.failures == []
        assert report.total_violations == 0
        assert "25 scenarios" in report.summary()

    def test_verbose_log_receives_one_line_per_seed(self):
        lines = []
        run_fuzz(range(3), verbose_log=lines.append)
        assert len(lines) == 3

    def test_generation_failure_becomes_finding(self, monkeypatch):
        import repro.scenarios.runner as runner_mod

        def boom(seed):
            raise ConfigurationError("synthetic generation failure")

        monkeypatch.setattr(runner_mod, "generate_scenario", boom)
        report = run_fuzz(range(2))
        assert len(report.failures) == 2
        assert all("generation" in r.violations[0] for r in report.results)

    def test_failing_summary_lists_violations(self):
        bad = run_scenario(generate_scenario(0).spec.to_run_spec())
        forged = dataclasses.replace(bad, violations=("differential: forged",))
        report = FuzzReport(results=[forged])
        assert "1 failing" in report.summary()
        assert "forged" in report.summary()


class TestDifferentialBounds:
    """The theory envelopes must reject an impossibly fast measurement."""

    def test_completion_ceiling_catches_superluminal_pipe(self):
        from repro.scenarios.runner import _check_bounds
        from repro.wsp.runtime import HetPipeRuntime
        from repro.sim.trace import Trace

        scenario = generate_scenario(4)
        spec = scenario.spec
        runtime = HetPipeRuntime(
            scenario.cluster, scenario.model, list(scenario.plans),
            d=spec.d, placement=spec.placement, trace=Trace(enabled=False),
        )
        violations = []
        impossible = tuple(10_000 for _ in scenario.plans)
        _check_bounds(scenario, runtime, 1e-9, impossible, violations)
        assert violations, "an impossibly fast window must be flagged"

    def test_window_bound_catches_livelock(self):
        from repro.scenarios.runner import _check_bounds
        from repro.training.theory import wsp_completion_bounds
        from repro.wsp.runtime import HetPipeRuntime
        from repro.sim.trace import Trace

        scenario = generate_scenario(4)
        spec = scenario.spec
        runtime = HetPipeRuntime(
            scenario.cluster, scenario.model, list(scenario.plans),
            d=spec.d, placement=spec.placement, trace=Trace(enabled=False),
        )
        violations = []
        low, _ = wsp_completion_bounds(spec.nm, spec.d, spec.measured_waves)
        plausible = tuple(max(low, 1) for _ in scenario.plans)
        _check_bounds(scenario, runtime, 1e9, plausible, violations)
        assert any("livelock" in v for v in violations)


class TestRunnerTraceMemory:
    """The fuzz runner must stream oracles/digests, never store records."""

    def test_run_scenario_keeps_trace_storage_off(self, monkeypatch):
        import repro.scenarios.runner as runner_module
        from repro.sim.trace import Trace

        created = []

        class RecordingTrace(Trace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(runner_module, "Trace", RecordingTrace)
        scenario = generate_scenario(0)
        result = run_scenario(scenario.spec.to_run_spec())
        assert result.ok
        assert created, "runner built no traces?"
        for trace in created:
            assert trace.enabled is False, "storage must stay off (memory)"
            assert trace._hasher is not None, "digest must stream instead"
            assert len(trace) == 0


class TestOneFOneBGolden:
    """Golden pin of the 1F1B cross-check's half of the fuzz digest:
    (digest, events simulated, events fast-forwarded) per seed and
    fidelity.  Any change to the 1F1B dispatch order, its trace
    records or its fast-forward skips moves one of these."""

    @pytest.mark.parametrize(
        ("seed", "fidelity", "expected"),
        [
            (0, "full", ("b7c3b3723ffe550d608c5afbdedbb5f68bcb8708e955de13a6c9a903b23f2536", 65, 0)),
            (1, "full", ("c1fb6c037306ccd66b004fe32b812ef9555d4a6d95a311eaa735dfa5285ee2ca", 81, 0)),
            (0, "fast_forward", ("2285de489eecaad8d78782a6a46bb91ac4bfc0c9d06e546bddfe49b78cce2a34", 30, 35)),
            (1, "fast_forward", ("0d71de984c6fcae69d9d6aba0b1ad6b155b3241078369fae04c4ab2fe85b3bac", 36, 45)),
        ],
    )
    def test_check_1f1b_digest_is_pinned(self, seed, fidelity, expected):
        from repro.scenarios.runner import _check_1f1b

        violations = []
        assert _check_1f1b(generate_scenario(seed), violations, fidelity) == expected
        assert violations == []
