"""Scenario fuzzing harness: determinism, replay digests, verdicts."""

import dataclasses

import pytest

from repro.api.build import build_scenario
from repro.api.spec import NetworkSpec
from repro.errors import ConfigurationError, PartitionError, SpecError
from repro.netsim.fabric import Fabric
from repro.scenarios import (
    FuzzReport,
    build_fuzz_model,
    describe_run,
    generate_run_spec,
    generate_scenario,
    materialize,
    run_fuzz,
    run_scenario,
)
from repro.sim.invariants import FabricOracle


def _shared(seed: int):
    run = generate_run_spec(seed)
    return dataclasses.replace(run, network=NetworkSpec(model="shared"))


@pytest.fixture
def fabric_checks(monkeypatch):
    """``(oracle, fabric)`` of every FabricOracle verdict that passed on
    a shared run."""
    seen = []
    verify = FabricOracle.verify_final

    def recording(oracle, runtime):
        verify(oracle, runtime)
        if runtime.fabric is not None:
            seen.append((oracle, runtime.fabric))

    monkeypatch.setattr(FabricOracle, "verify_final", recording)
    return seen


def _dedicated_floor(ic, flow) -> float:
    """``flow``'s unloaded time at dedicated rates, from interconnect ``ic``."""
    if flow.src.node_id == flow.dst.node_id:
        return ic.pcie_latency + flow.nbytes / ic.pcie_effective
    return ic.ib_latency + flow.nbytes / min(ic.pcie_effective, ic.ib_effective)


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
    def test_shared_run_is_clean_and_records_makespans(self, fabric_checks):
        result = run_scenario(_shared(1))
        assert result.ok, result.violations
        assert result.makespan > 0
        [(oracle, fabric)] = fabric_checks
        assert oracle.flows_checked == len(fabric.flows) > 0
        assert "net=shared" in describe_run(result.spec)

    def test_seed_330_shared_run_beats_dedicated_with_no_fast_flow(self, fabric_checks):
        """A scheduling anomaly (Graham 1969), not a fabric bug: seed 330
        draws no jitter, no flow of its shared run is served faster than
        its dedicated floor, and yet the run ends before the same spec on
        the dedicated network.  Slower transfers reorder WSP admissions
        and PS applies, and the new order finishes sooner."""
        shared_run = _shared(330)
        assert shared_run.pipeline.jitter == 0.0
        shared = run_scenario(shared_run)
        dedicated = run_scenario(
            dataclasses.replace(shared_run, network=NetworkSpec(model="dedicated"))
        )
        assert shared.ok and dedicated.ok, (shared.violations, dedicated.violations)
        assert shared.makespan < dedicated.makespan
        [(oracle, fabric)] = fabric_checks
        ic = fabric.cluster.interconnect
        assert oracle.flows_checked == len(fabric.flows) > 0
        for flow in fabric.flows:
            assert flow.done - flow.start >= _dedicated_floor(ic, flow) * (1 - 1e-9)

    def test_a_shared_run_that_checked_no_flow_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(FabricOracle, "_check_floors", lambda self, flows, ic: None)
        result = run_scenario(_shared(1))
        assert result.violations == ("fabric: oracle checked no flows on a shared run",)

    def test_shared_mode_does_not_perturb_the_scenario_draw(self):
        dedicated = generate_run_spec(4)
        assert dedicated.network.model == "dedicated"
        assert "net=" not in describe_run(dedicated)
        assert _shared(4).pipeline == dedicated.pipeline

    def test_shared_replay_is_bit_identical(self):
        run = _shared(6)
        assert run_scenario(run).digest == run_scenario(run).digest

    def test_shared_batch_smoke(self, fabric_checks):
        report = run_fuzz(range(5), network_model="shared")
        assert report.failures == []
        assert len(fabric_checks) == 5
        assert all(
            oracle.flows_checked == len(fabric.flows) > 0
            for oracle, fabric in fabric_checks
        )


def _fastest_hop(monkeypatch):
    """A route whose bottleneck is its fastest hop."""
    route_entry = Fabric._route_entry

    def mutant(fabric, src, dst):
        path, latency, names, _ = route_entry(fabric, src, dst)
        return path, latency, names, max(link.bandwidth for link in path)

    monkeypatch.setattr(Fabric, "_route_entry", mutant)


def _no_latency(monkeypatch):
    """A flow that skips its route's latency."""
    route_entry = Fabric._route_entry

    def mutant(fabric, src, dst):
        path, _, names, bottleneck = route_entry(fabric, src, dst)
        return path, 0.0, names, bottleneck

    monkeypatch.setattr(Fabric, "_route_entry", mutant)


def _dropped_byte(monkeypatch):
    """A hop that serves one byte fewer than the flow carries, while
    the flow record and every link's byte counter keep all of them."""
    reserve = Fabric._reserve

    def mutant(fabric, route, src, dst, nbytes, *args, **kwargs):
        served = max(nbytes - 1.0, 0.0)
        done = reserve(fabric, route, src, dst, served, *args, **kwargs)
        if route is not None:
            fabric.flows[-1] = fabric.flows[-1]._replace(nbytes=nbytes)
            for link in route[0]:
                link.bytes_moved += nbytes - served
        return done

    monkeypatch.setattr(Fabric, "_reserve", mutant)


class TestFabricFloorCatchesMutants:
    """Each deliberate fabric bug is caught by the per-flow floor within
    25 ``--network shared`` seeds."""

    @pytest.mark.parametrize("mutate", [_fastest_hop, _no_latency, _dropped_byte])
    def test_mutant_is_caught_within_25_seeds(self, monkeypatch, mutate):
        mutate(monkeypatch)
        for seed in range(25):
            violations = run_scenario(_shared(seed)).violations
            if any("below its dedicated floor" in v for v in violations):
                return
        pytest.fail(f"{mutate.__name__} survived 25 shared seeds")


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

        monkeypatch.setattr(runner_mod, "generate_run_spec", boom)
        report = run_fuzz(range(2), network_model="shared")
        assert len(report.failures) == 2
        assert all("generation" in r.violations[0] for r in report.results)
        # the finding names the seed's draw under the batch's mode
        assert [r.spec.seed for r in report.results] == [0, 1]
        assert all(r.spec.network.model == "shared" for r in report.results)
        assert "seed 1: seed=1 cluster=" in report.summary()

    @pytest.mark.parametrize(
        "options",
        [
            {"waves_scale": 0},
            {"shards": 0},
            {"network_model": "infiniband"},
            {"shard_placement": "nope"},
            {"fidelity": "approximate"},
        ],
    )
    def test_bad_mode_is_one_spec_error_before_any_seed(self, options, monkeypatch):
        import repro.scenarios.runner as runner_mod

        def unreachable(seed):
            raise AssertionError("a seed ran under an invalid mode")

        monkeypatch.setattr(runner_mod, "generate_run_spec", unreachable)
        with pytest.raises(SpecError):
            run_fuzz(range(3), **options)

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

        run = generate_run_spec(4)
        built = build_scenario(run)
        runtime = HetPipeRuntime.from_spec(
            run, cluster=built.cluster, model=built.model, plans=list(built.plans),
            trace=Trace(enabled=False),
        )
        violations = []
        impossible = tuple(10_000 for _ in built.plans)
        _check_bounds(built, run, runtime, 1e-9, impossible, violations)
        assert violations, "an impossibly fast window must be flagged"

    def test_window_bound_catches_livelock(self):
        from repro.scenarios.runner import _check_bounds
        from repro.training.envelopes import wsp_completion_bounds
        from repro.wsp.runtime import HetPipeRuntime
        from repro.sim.trace import Trace

        run = generate_run_spec(4)
        built = build_scenario(run)
        pipe = run.pipeline
        runtime = HetPipeRuntime.from_spec(
            run, cluster=built.cluster, model=built.model, plans=list(built.plans),
            trace=Trace(enabled=False),
        )
        violations = []
        low, _ = wsp_completion_bounds(pipe.nm, pipe.d, pipe.measured_waves)
        plausible = tuple(max(low, 1) for _ in built.plans)
        _check_bounds(built, run, runtime, 1e9, plausible, violations)
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
        assert _check_1f1b(generate_scenario(seed), seed, violations, fidelity) == expected
        assert violations == []


class TestFuzzModeGolden:
    """Golden pin of a ten-seed ``run_fuzz`` batch in each fuzz mode:
    sha256 over the verbose per-scenario lines plus the summary.  Each
    mode lays its knobs over the same seeded scenarios, so any drift in
    how a mode reaches the runner (network, fidelity, window scale,
    shards, variant, fault schedule) moves one of these.  The shared
    faulted mode at ``waves_scale=4`` guards the horizon twin's target
    version, which must come from the main run's scaled window."""

    @pytest.mark.parametrize(
        ("options", "expected"),
        [
            ({}, "ad0c49b2c1824190ac69290cab5868244bebda9be0eac658abfd3f9776a4c2c4"),
            ({"network_model": "shared"}, "e17182709dea6039bd82bc89f35225d917cf5e53eaa40297b2c412e82aff7fbb"),
            ({"faults": True}, "e93cf8f2f9a408519572b2e47174a9d749bda3c537785dacfe89d115f15af866"),
            (
                {"network_model": "shared", "faults": True},
                "47c73c7d2c09cfe7165a91f7cdd4780c7ba18b82843620ec43c63a0dde2341b2",
            ),
            (
                {"network_model": "shared", "faults": True, "waves_scale": 4},
                "46aba6e1806ada206b4fd8d56995026a8f0a944de855cddd7e0d02d22814292a",
            ),
            (
                {"fidelity": "fast_forward", "waves_scale": 4},
                "eb1a82fd40970fd57831a17e37e7827ccb4ac0356d1f54ffa6b586b21c8ce71e",
            ),
            (
                {"network_model": "shared", "shards": 4, "shard_placement": "contention_aware"},
                "a0c974015058a3031b79862918d2433d853c0447c1ad0743c638a02753a8eecf",
            ),
            ({"variant": "pipedream_2bw"}, "44e539886cea12726bebf781fb48f52a1433ee9abe0d950db0525dfa7149c033"),
        ],
    )
    def test_fuzz_output_is_pinned(self, options, expected):
        import hashlib

        lines: list[str] = []
        report = run_fuzz(range(10), verbose_log=lines.append, **options)
        lines.append(report.summary())
        assert not report.failures
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected
