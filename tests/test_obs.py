"""The unified telemetry layer (`repro.obs`): spec knobs, digest safety,
Chrome-trace timelines, fast-forward macro-spans, and diagnostics bundles.

The load-bearing contract here is *non-perturbation*: observability off
(the default) must leave spec hashes, trace digests, and every measured
number byte-identical to the historical code path, and observability on
must change telemetry only — never the simulated trajectory.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.api.registry import ORACLES
from repro.api.spec import (
    ClusterSpec,
    FidelitySpec,
    ModelSpec,
    ObservabilitySpec,
    PipelineSpec,
    NetworkSpec,
    RunSpec,
)
from repro.cli import main
from repro.errors import InvariantViolation, ReproError, SpecError
from repro.obs import (
    BUNDLE_SCHEMA,
    ObsCollector,
    chrome_trace,
    load_bundle,
    replay_bundle,
    trace_run,
    validate_chrome_trace,
    write_bundle,
)
from repro.scenarios import generate_scenario, run_fuzz, run_scenario
from repro.sim.invariants import RuntimeOracle
from repro.sim.trace import Trace
from repro.wsp.measure import measure_run
from repro.wsp.runtime import HetPipeRuntime

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DEMO_SPEC = os.path.join(REPO_ROOT, "examples", "specs", "trace_demo.json")


def small_run_spec(**observability) -> RunSpec:
    return RunSpec(
        kind="scenario",
        seed=7,
        cluster=ClusterSpec(node_codes="VR", gpus_per_node=2),
        model=ModelSpec(
            name="obs-test", batch_size=8, image_size=16,
            conv_widths=(8, 8, 16, 16), fc_dims=(32,),
        ),
        pipeline=PipelineSpec(nm=2, d=1, allocation="ED", warmup_waves=2, measured_waves=4),
        observability=ObservabilitySpec(**observability) if observability else None,
    )


class AlwaysFailOracle(RuntimeOracle):
    """Test-only oracle: trips verify_final unconditionally."""

    def __init__(self) -> None:
        self.bound_runs = 0

    def bind(self, runtime) -> None:
        super().bind(runtime)
        self.bound_runs += 1

    def verify_final(self, runtime) -> None:
        raise InvariantViolation("forced: test oracle always fails")


def forced_failure_suite() -> str:
    """Register (once) and return the name of the always-failing suite."""
    if "always_fail_test" not in ORACLES:
        ORACLES.register("always_fail_test", lambda: [AlwaysFailOracle()])
    return "always_fail_test"


class TestObservabilitySpec:
    def test_disabled_section_normalizes_away(self):
        bare = small_run_spec()
        disabled = replace(bare, observability=ObservabilitySpec(enabled=False))
        assert disabled.observability is None
        assert disabled.spec_hash == bare.spec_hash
        assert disabled.to_json() == bare.to_json()
        assert "observability" not in bare.to_dict()

    def test_enabled_section_round_trips(self):
        run = small_run_spec(enabled=True, sample_every=0.5, ring_buffer=32)
        assert run.spec_hash != small_run_spec().spec_hash
        rebuilt = RunSpec.from_json(run.to_json())
        assert rebuilt == run
        assert rebuilt.observability == ObservabilitySpec(
            enabled=True, sample_every=0.5, ring_buffer=32
        )

    def test_validation(self):
        with pytest.raises(SpecError):
            ObservabilitySpec(enabled="yes")
        with pytest.raises(SpecError):
            ObservabilitySpec(enabled=True, sample_every=-1.0)
        with pytest.raises(SpecError):
            ObservabilitySpec(enabled=True, ring_buffer=0)


class TestDigestSafety:
    def test_instrumented_runtime_keeps_the_digest(self):
        run = small_run_spec()
        digests = []
        for obs in (None, ObsCollector(ObservabilitySpec(enabled=True, sample_every=0.01))):
            trace = Trace(enabled=False, digest=True)
            runtime = HetPipeRuntime.from_spec(run, trace=trace, obs=obs)
            runtime.start()
            runtime.run_until_global_version(
                run.pipeline.warmup_waves + run.pipeline.measured_waves - 1
            )
            digests.append((trace.digest(), runtime.sim.now))
        assert digests[0] == digests[1]

    def test_measure_run_metrics_unchanged_by_telemetry(self):
        plain = measure_run(small_run_spec())
        observed = measure_run(small_run_spec(enabled=True, sample_every=0.01))
        assert observed.observability is not None
        assert plain.observability is None
        assert replace(observed, observability=None) == plain

    def test_capture_diagnostics_keeps_scenario_digest(self):
        run = generate_scenario(0).spec.to_run_spec()
        assert run_scenario(run).digest == run_scenario(
            run, capture_diagnostics=True
        ).digest


class TestTimeline:
    def test_chrome_trace_structure_and_coverage(self):
        run = replace(
            small_run_spec(enabled=True, sample_every=0.01),
            network=NetworkSpec(model="shared"),
            pipeline=replace(small_run_spec().pipeline, shards=2),
        )
        payload = trace_run(run)
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["schema"] == "hetpipe-timeline/1"
        tracks = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        vws = {t.split(".")[0] for t in tracks if t.startswith("vw")}
        assert len(vws) == 2  # every ED virtual worker of the VR pair has a track
        assert any(t.startswith("ps.apply.") for t in tracks)  # PS shards
        assert any(t.split(".")[0] in ("pcie", "host", "nic", "ib") for t in tracks)
        assert any(ev["ph"] == "i" for ev in payload["traceEvents"])  # annotations
        assert any(ev["ph"] == "C" for ev in payload["traceEvents"])  # samples
        span_args = [
            ev["args"] for ev in payload["traceEvents"]
            if ev["ph"] == "X" and "minibatch" in ev.get("args", {})
        ]
        assert span_args  # stage spans carry minibatch ids

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": {}}) != []
        errors = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "", "ts": -1, "dur": "x"}]}
        )
        assert len(errors) >= 2

    def test_trace_cli_on_checked_in_example(self, tmp_path, capsys):
        out = str(tmp_path / "run.trace.json")
        assert main(["trace", TRACE_DEMO_SPEC, "--out", out]) == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        payload = json.load(open(out))
        assert validate_chrome_trace(payload) == []
        tracks = {
            ev["args"]["name"]
            for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert {t.split(".")[0] for t in tracks if t.startswith("vw")} == {
            "vw0", "vw1", "vw2"
        }
        assert any(t.startswith("ps.apply.") for t in tracks)
        assert any(t.split(".")[0] in ("pcie", "host", "nic", "ib") for t in tracks)

    def test_trace_cli_rejects_non_scenario_specs(self, tmp_path, capsys):
        grid = os.path.join(REPO_ROOT, "examples", "specs", "planner_grid.json")
        assert main(["trace", grid, "--out", str(tmp_path / "x.json")]) == 2
        assert "scenario" in capsys.readouterr().err


class TestFastForwardMacroSpans:
    def test_coalesced_cycles_become_macro_spans(self):
        # Seed 4 draws zero jitter, so its steady state actually skips.
        spec = generate_scenario(4).spec
        run = replace(
            spec.to_run_spec(),
            fidelity=FidelitySpec(fidelity="fast_forward", verify_equivalence=False),
            observability=ObservabilitySpec(enabled=True),
        )
        collector = ObsCollector(run.observability)
        measure_run(run, obs=collector)
        macro = [s for s in collector.spans if s.name.startswith("fast_forward x")]
        assert macro and collector.counters["fast_forward"] == len(macro)
        for span in macro:
            assert span.end - span.start == pytest.approx(span.args["dt"])
        payload = chrome_trace(collector)
        assert validate_chrome_trace(payload) == []
        assert any(
            ev["ph"] == "X" and ev["name"].startswith("fast_forward x")
            for ev in payload["traceEvents"]
        )


class TestDiagnosticsBundle:
    def _failing_result(self):
        run = replace(small_run_spec(), oracles=forced_failure_suite())
        result = run_scenario(run, capture_diagnostics=True)
        return run, result

    def test_forced_violation_captures_diagnostics(self):
        _, result = self._failing_result()
        assert any("forced:" in v for v in result.violations)
        diag = result.diagnostics
        assert diag is not None
        assert diag["violations"] == list(result.violations)
        assert diag["trace_ring"]  # the ring saw the run's tail
        assert "AlwaysFailOracle" in diag["oracle_state"]
        assert diag["snapshots"]["sim"]["events_processed"] > 0

    def test_bundle_round_trips_and_replays(self, tmp_path):
        run, result = self._failing_result()
        path = write_bundle(str(tmp_path), run, result.diagnostics)
        for name in (
            "spec.json", "bundle.json", "trace_ring.json",
            "oracle_state.json", "snapshots.json", "README.txt",
        ):
            assert os.path.exists(os.path.join(path, name))
        manifest = json.load(open(os.path.join(path, "bundle.json")))
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["spec_hash"] == run.spec_hash
        assert "repro.cli run" in manifest["replay"]
        bundle = load_bundle(path)
        assert bundle.run == run
        assert bundle.violations == result.violations
        replayed = replay_bundle(bundle)
        assert replayed.violations == result.violations
        assert replayed.digest == result.digest

    def test_load_rejects_non_bundles(self, tmp_path):
        with pytest.raises(ReproError):
            load_bundle(str(tmp_path))

    def test_run_fuzz_writes_bundles_for_failures(self, tmp_path, monkeypatch):
        import repro.scenarios.runner as runner

        suite = forced_failure_suite()
        original = runner.generate_run_spec

        def forced(seed):
            return replace(original(seed), oracles=suite)

        monkeypatch.setattr(runner, "generate_run_spec", forced)
        report = run_fuzz([0], jobs=1, bundle_dir=str(tmp_path))
        assert report.failures
        path = report.bundle_paths[0]
        assert os.path.isdir(path)
        assert "bundle:" in report.summary()
        assert load_bundle(path).violations


class TestObsReport:
    def test_report_counts_and_resource_coverage(self):
        metrics = measure_run(small_run_spec(enabled=True, sample_every=0.01))
        report = metrics.observability
        assert report.spans > 0
        assert report.annotations > 0
        assert report.samples > 0
        # Some minibatches are still in flight when measurement stops.
        assert report.counters["inject"] >= report.counters["minibatch_done"] > 0
        assert any(name.startswith("ps.") for name in report.utilization)
        assert any(name.endswith(".gpu0") for name in report.utilization)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in report.utilization.values())


class TestSamplerQueueDepth:
    """The ``<name>.queue`` gauge counts only transfers not yet started,
    even though started ones stay in a link's pending starts until its
    next transfer prunes them."""

    def test_link_whose_last_flow_has_started(self):
        from repro.cluster.catalog import paper_cluster
        from repro.netsim import Fabric
        from repro.sim.engine import Simulator
        from repro.sim.resources import Channel

        sim = Simulator()
        obs = ObsCollector(ObservabilitySpec(enabled=True))
        sim.obs = obs
        fabric = Fabric(sim, paper_cluster("VR", gpus_per_node=2))
        nic = fabric.nic[0]
        channel = Channel(sim, nic.bandwidth, name="chan")  # same schedule
        for _ in range(3):
            fabric.transfer_gpus(0, 2, 1e6)
            channel.transfer(1e6)
        obs.sample(sim)
        assert obs.series["nic.n0.queue"][-1] == (0.0, 2.0)
        assert obs.series["chan.queue"][-1] == (0.0, 2.0)
        # sample between the last flow's start and its end
        last_start = fabric.flows[-1].start
        sim.schedule_at(last_start + 0.5 * (nic.free_at - last_start), lambda: obs.sample(sim))
        sim.run()
        assert len(nic._pending_starts) == 2  # started, not yet pruned
        assert obs.series["nic.n0.queue"][-1][1] == 0.0
        assert obs.series["chan.queue"][-1][1] == 0.0
        assert nic.queue_depth == channel.queue_depth == 0
