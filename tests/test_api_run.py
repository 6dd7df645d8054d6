"""Spec-driven execution: registries, builds, run/sweep, CLI.

Covers the API redesign's behavioral contracts:

* registry misses raise :class:`UnknownNameError` naming what exists,
  and the CLI maps that (and :class:`SpecError`) to exit code 2;
* one memoized build path: the fuzz generator and a ``RunSpec`` share
  the same built objects, keyed on exactly what planning reads;
* a fuzz scenario run from its generated ``RunSpec`` is byte-identical —
  digest included — to the same spec read back from JSON;
* removed call forms (``ScenarioSpec`` into ``run_scenario``, bare
  fidelity strings) raise a typed :class:`SpecError` naming the
  replacement;
* ``run_sweep`` returns in-order, ``--jobs``-independent results with
  stable per-point ``spec_hash`` values.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api.build import (
    Deployment,
    build_calibration,
    build_cluster,
    build_model,
    build_plans,
    build_scenario,
)
from repro.api.registry import (
    CALIBRATIONS,
    CLUSTERS,
    EXPERIMENTS,
    MODELS,
    ORACLES,
    PLANNERS,
    PROFILES,
    Registry,
)
from repro.api.run import run, run_sweep
from repro.api.spec import (
    ClusterSpec,
    ExperimentSpec,
    FaultSpec,
    FidelitySpec,
    ModelSpec,
    NetworkSpec,
    PipelineSpec,
    RunSpec,
    SweepAxis,
    SweepSpec,
)
from repro.cli import main
from repro.errors import SpecError, UnknownNameError


def small_scenario_spec(planner: str = "dp", nm: int = 1) -> RunSpec:
    return RunSpec(
        kind="scenario",
        seed=7,
        cluster=ClusterSpec(node_codes="VR", gpus_per_node=2),
        model=ModelSpec(
            name="api-test", batch_size=8, image_size=16,
            conv_widths=(8, 8, 16, 16), fc_dims=(32,),
        ),
        pipeline=PipelineSpec(
            nm=nm, d=1, allocation="ED", warmup_waves=2, measured_waves=4,
            planner=planner,
        ),
    )


class TestRegistry:
    def test_miss_lists_available_names(self):
        registry = Registry("widget")
        registry.register("a", 1)
        registry.register("b", 2)
        with pytest.raises(UnknownNameError) as excinfo:
            registry.get("c")
        message = str(excinfo.value)
        assert "widget" in message and "'c'" in message
        assert "a, b" in message
        assert excinfo.value.available == ["a", "b"]

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(ValueError):
            registry.register("a", 2)

    def test_builtin_registries_are_populated(self):
        assert {"vgg19", "resnet152"} <= set(MODELS.names())
        assert "paper" in CLUSTERS
        assert "default" in CALIBRATIONS
        assert {"grpc_tf112", "nccl_modern"} <= set(PROFILES.names())
        assert {"default", "staleness", "none"} <= set(ORACLES.names())
        assert {"dp", "dp_ordered", "bnb"} <= set(PLANNERS.names())
        assert {"fig3", "fig4", "table4"} <= set(EXPERIMENTS.names())

    def test_unknown_model_error_from_legacy_build_model(self):
        from repro.experiments.common import build_model as legacy_build

        with pytest.raises(UnknownNameError, match="vgg19"):
            legacy_build("alexnet")


class TestBuild:
    def test_build_cluster_resolves_profile(self):
        cluster = build_cluster(ClusterSpec(node_codes="VR", profile="nccl_modern"))
        assert len(cluster.nodes) == 2
        assert cluster.interconnect is PROFILES.get("nccl_modern")

    def test_build_cluster_unknown_profile(self):
        with pytest.raises(UnknownNameError, match="grpc_tf112"):
            build_cluster(ClusterSpec(profile="smoke-signals"))

    def test_build_model_catalog_and_synthetic(self):
        assert build_model(ModelSpec(name="vgg19")).name == "vgg19"
        synth = build_model(
            ModelSpec(name="s", batch_size=4, image_size=16,
                      conv_widths=(8,), fc_dims=())
        )
        assert synth.batch_size == 4

    def test_build_calibration_unknown(self):
        with pytest.raises(UnknownNameError, match="default"):
            build_calibration("measured_on_mars")

    def test_build_scenario_is_memoized_per_spec(self):
        spec = small_scenario_spec(planner="bnb")
        first, second = build_scenario(spec), build_scenario(spec)
        # the built deployment itself is shared: no spec view is re-attached
        assert first is second
        assert isinstance(first, Deployment)
        assert first == (first.cluster, first.model, first.plans)

    def test_planners_agree_on_bottleneck(self):
        """bnb is the DP's cross-check: same bottleneck period."""
        dp = build_scenario(small_scenario_spec(planner="dp", nm=2))
        bnb = build_scenario(small_scenario_spec(planner="bnb", nm=2))
        for a, b in zip(dp.plans, bnb.plans):
            assert a.bottleneck_period == pytest.approx(b.bottleneck_period)

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_generator_and_spec_builds_share_objects(self, seed):
        from repro.scenarios.generator import generate_run_spec, generate_scenario

        scenario = generate_scenario(seed)
        rebuilt = build_scenario(generate_run_spec(seed))
        assert rebuilt.cluster is scenario.cluster
        assert rebuilt.model is scenario.model
        assert rebuilt.plans is scenario.plans

    @pytest.mark.parametrize(
        "change, shared",
        [
            pytest.param(dict(pipeline=dict(d=3)), True, id="d"),
            pytest.param(dict(pipeline=dict(jitter=0.1)), True, id="jitter"),
            pytest.param(
                dict(pipeline=dict(push_every_minibatch=True)), True, id="push-cadence"
            ),
            pytest.param(
                dict(pipeline=dict(warmup_waves=3, measured_waves=16)), True,
                id="windows",
            ),
            pytest.param(dict(network=NetworkSpec(model="shared")), True, id="network"),
            pytest.param(
                dict(pipeline=dict(shards=2, shard_placement="locality_aware")), True,
                id="shards",
            ),
            pytest.param(
                dict(fidelity=FidelitySpec(fidelity="fast_forward", waves_scale=4)),
                True, id="fidelity",
            ),
            pytest.param(dict(oracles="staleness"), True, id="oracles"),
            pytest.param(
                dict(faults=FaultSpec(enabled=True, stragglers=1), oracles="faults"),
                True, id="faults",
            ),
            pytest.param(dict(seed=99), True, id="seed"),
            pytest.param(
                dict(pipeline=dict(variant="gpipe_flush")), True,
                id="variant-unlimited",
            ),
            pytest.param(dict(pipeline=dict(nm=2)), False, id="nm"),
            pytest.param(dict(pipeline=dict(allocation="NP")), False, id="allocation"),
            pytest.param(dict(pipeline=dict(planner="bnb")), False, id="planner"),
            pytest.param(dict(pipeline=dict(placement="local")), False, id="placement"),
            pytest.param(
                dict(pipeline=dict(memory_limited=True)), False, id="memory-limited"
            ),
            pytest.param(
                dict(pipeline=dict(memory_limited=True, variant="xpipe")), False,
                id="memory-limited-variant",
            ),
        ],
    )
    def test_build_plans_keys_on_planning_inputs(self, change, shared):
        """Fields planning never reads share one cache entry; each
        planning input misses."""
        base = small_scenario_spec()
        change = dict(change)
        pipeline = change.pop("pipeline", {})
        varied = replace(base, pipeline=replace(base.pipeline, **pipeline), **change)
        build_plans.cache_clear()
        built = build_scenario(base)
        rebuilt = build_scenario(varied)
        info = build_plans.cache_info()
        if shared:
            assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
            assert rebuilt.plans is built.plans
        else:
            assert (info.hits, info.misses, info.currsize) == (0, 2, 2)

    def test_waves_scale_stretches_the_measured_window(self):
        """``fidelity.waves_scale`` multiplies the measured window: the
        run's line names the scaled window and the runner measures it."""
        from repro.scenarios.runner import describe_run, run_scenario

        spec = small_scenario_spec()
        scaled = replace(spec, fidelity=FidelitySpec(waves_scale=4))
        warmup, measured = spec.pipeline.warmup_waves, spec.pipeline.measured_waves
        assert f"waves={warmup}+{measured * 4} " in describe_run(scaled) + " "
        assert f"waves={warmup}+{measured} " in describe_run(spec) + " "
        base, long = run_scenario(spec), run_scenario(scaled)
        assert base.ok and long.ok
        assert long.spec is scaled
        assert long.window > 3 * base.window
        assert sum(long.per_vw_completions) > 3 * sum(base.per_vw_completions)

    def test_experiment_spec_cannot_build_a_scenario(self):
        exp = RunSpec(kind="experiment", experiment=ExperimentSpec(name="fig3"))
        with pytest.raises(SpecError, match="scenario"):
            build_scenario(exp)


class TestRunScenario:
    def test_run_spec_and_legacy_paths_are_byte_identical(self):
        """The generator's lifted spec and the same spec read back from
        JSON (the ``repro run`` route) run byte-identically."""
        from repro.scenarios.generator import generate_scenario
        from repro.scenarios.runner import run_scenario

        sspec = generate_scenario(11).spec
        legacy = run_scenario(sspec.to_run_spec())
        spec_built = run_scenario(RunSpec.from_json(sspec.to_run_spec().to_json()))
        assert legacy.digest == spec_built.digest
        assert legacy.per_vw_completions == spec_built.per_vw_completions
        assert legacy.window == spec_built.window
        assert spec_built.spec_hash == sspec.to_run_spec().spec_hash
        assert legacy.spec_hash == spec_built.spec_hash

    def test_scenario_result_records_spec_provenance(self):
        from repro.api.spec import SPEC_SCHEMA

        result = run(small_scenario_spec())
        assert result.ok
        assert result.spec_hash == small_scenario_spec().spec_hash
        assert result.api_schema == SPEC_SCHEMA
        assert result.spec_hash[:12] in result.describe()

    def test_fidelity_comes_from_the_spec_section(self):
        from repro.scenarios.runner import run_scenario

        spec = replace(
            small_scenario_spec(), fidelity=FidelitySpec(fidelity="fast_forward")
        )
        assert run_scenario(spec).fidelity == "fast_forward"

    def test_run_rejects_grid_specs(self):
        grid = replace(
            small_scenario_spec(),
            sweep=SweepSpec(axes=(SweepAxis(path="pipeline.nm", values=(1,)),)),
        )
        with pytest.raises(SpecError, match="sweep"):
            run(grid)

    def test_oracles_field_resolves_through_the_registry(self):
        from repro.scenarios.runner import run_scenario

        default = run(small_scenario_spec())
        bare = run_scenario(replace(small_scenario_spec(), oracles="none"))
        # same deterministic simulation either way, digest included —
        # the suite only watches
        assert bare.digest == default.digest
        with pytest.raises(UnknownNameError, match="oracle suite"):
            run_scenario(replace(small_scenario_spec(), oracles="bogus"))

    def test_fidelity_spec_knobs_unsupported_by_measure_are_rejected(self, cluster):
        from repro.models import build_vgg19
        from repro.partition import plan_virtual_worker
        from repro.pipeline import measure_pipeline

        plan = plan_virtual_worker(
            build_vgg19(), cluster.gpus[0:4], 1, cluster.interconnect,
            search_orderings=False,
        )
        with pytest.raises(SpecError, match="waves_scale"):
            measure_pipeline(
                plan, cluster.interconnect, 32,
                fidelity=FidelitySpec(fidelity="fast_forward", waves_scale=4),
            )

    def test_general_build_cache_ignores_non_planning_fields(self):
        spec = small_scenario_spec(planner="bnb")
        varied = replace(
            spec, seed=99, fidelity=FidelitySpec(fidelity="fast_forward"),
            oracles="staleness",
            pipeline=replace(
                spec.pipeline, d=3, measured_waves=16, jitter=0.1,
                push_every_minibatch=True,
            ),
        )
        assert build_scenario(spec) is build_scenario(varied)

    def test_unknown_experiment_model(self):
        spec = RunSpec(
            kind="experiment",
            experiment=ExperimentSpec(name="fig3", model="alexnet"),
        )
        with pytest.raises(UnknownNameError, match="model"):
            run(spec)


class TestRemovedForms:
    """Call forms the API no longer takes fail with typed errors that
    name their replacement, never with an ``AttributeError``."""

    @pytest.mark.parametrize("legacy", ["scenario_spec", "dict"])
    def test_run_scenario_takes_only_a_run_spec(self, legacy):
        from repro.scenarios.generator import generate_scenario
        from repro.scenarios.runner import run_scenario

        spec = generate_scenario(0).spec
        value = spec if legacy == "scenario_spec" else {"kind": "scenario"}
        with pytest.raises(SpecError, match=r"ScenarioSpec\.to_run_spec\(\)"):
            run_scenario(value)
        with pytest.raises(TypeError):
            run_scenario(spec.to_run_spec(), fidelity="fast_forward")

    def test_from_spec_arms_fast_forward_by_the_eligibility_rule(self):
        """Fast-forward arms under fidelity fast_forward with zero jitter
        on the dedicated network — and only there."""
        from repro.wsp.runtime import HetPipeRuntime

        spec = small_scenario_spec()
        scenario = build_scenario(spec)
        ff = FidelitySpec(fidelity="fast_forward")

        def armed(run: RunSpec) -> bool:
            runtime = HetPipeRuntime.from_spec(
                run,
                cluster=scenario.cluster,
                model=scenario.model,
                plans=list(scenario.plans),
            )
            return runtime._ff is not None

        assert armed(replace(spec, fidelity=ff))
        assert not armed(spec)
        assert not armed(
            replace(spec, fidelity=ff, pipeline=replace(spec.pipeline, jitter=0.1))
        )
        assert not armed(replace(spec, fidelity=ff, network=NetworkSpec(model="shared")))

    def test_runtime_init_takes_no_spec_knob(self):
        """Every behavior knob reaches the runtime through its RunSpec:
        the constructor takes none of the sections' fields."""
        import inspect
        from dataclasses import fields

        from repro.wsp.runtime import HetPipeRuntime

        knobs = {
            f.name for section in (PipelineSpec, FidelitySpec) for f in fields(section)
        } | {"calibration", "network_model", "fidelity"}
        params = set(inspect.signature(HetPipeRuntime.__init__).parameters)
        assert not params & knobs

    @pytest.mark.parametrize(
        "pipeline",
        [
            pytest.param("VirtualWorkerPipeline", id="measure_pipeline"),
            pytest.param("OneFOneBPipeline", id="OneFOneBPipeline"),
        ],
    )
    def test_measure_surfaces_reject_string_fidelity(self, pipeline, cluster):
        import repro.pipeline
        from repro.models import build_vgg19
        from repro.partition import plan_virtual_worker

        plan = plan_virtual_worker(
            build_vgg19(), cluster.gpus[0:4], 2, cluster.interconnect,
            search_orderings=False,
        )
        with pytest.raises(SpecError, match="measure_pipeline.*FidelitySpec"):
            repro.pipeline.measure_pipeline(
                plan, cluster.interconnect, 32, measured_minibatches=40,
                fidelity="fast_forward", pipeline=getattr(repro.pipeline, pipeline),
            )

    def test_default_fidelity_is_full(self, cluster):
        from repro.models import build_vgg19
        from repro.partition import plan_virtual_worker
        from repro.pipeline import measure_pipeline

        plan = plan_virtual_worker(
            build_vgg19(), cluster.gpus[0:4], 1, cluster.interconnect,
            search_orderings=False,
        )
        assert measure_pipeline(
            plan, cluster.interconnect, 32, measured_minibatches=20
        ) == measure_pipeline(
            plan, cluster.interconnect, 32, measured_minibatches=20,
            fidelity=FidelitySpec(),
        )


class TestMeasureRun:
    def test_prebuilt_deployment_matches_spec_built(self):
        from repro.wsp import measure_run

        spec = small_scenario_spec(nm=2)
        scenario = build_scenario(spec)
        prebuilt = measure_run(
            spec, cluster=scenario.cluster, model=scenario.model, plans=scenario.plans
        )
        assert prebuilt == measure_run(spec)


class TestSweep:
    def grid(self) -> RunSpec:
        return replace(
            small_scenario_spec(),
            sweep=SweepSpec(
                axes=(
                    SweepAxis(path="pipeline.planner", values=("dp", "bnb")),
                    SweepAxis(path="pipeline.nm", values=(1, 2)),
                )
            ),
        )

    def test_in_order_results_with_stable_spec_hashes(self):
        from repro.api.spec import expand_sweep

        grid = self.grid()
        serial = run_sweep(grid, jobs=1)
        parallel = run_sweep(grid, jobs=2)
        assert serial == parallel  # in-order merge, bit-identical
        assert [p.index for p in serial.points] == [0, 1, 2, 3]
        expected = [point.spec_hash for point in expand_sweep(grid)]
        assert [p.spec_hash for p in serial.points] == expected
        assert all(p.ok for p in serial.points)
        assert serial.grid_hash == grid.spec_hash

    def test_infeasible_point_fails_alone_without_aborting_the_grid(self):
        """PartitionError on one point is a normal planner-search
        outcome: it fails that point, the rest still report."""
        grid = RunSpec(
            kind="scenario",
            cluster=ClusterSpec(node_codes="G", gpus_per_node=2),
            model=ModelSpec(name="vgg19"),
            pipeline=PipelineSpec(nm=1, allocation="NP", measured_waves=4),
            sweep=SweepSpec(axes=(SweepAxis(path="pipeline.nm", values=(1, 8)),)),
        )
        result = run_sweep(grid, jobs=1)
        assert result.points[0].ok
        assert not result.points[1].ok
        assert "PartitionError" in result.points[1].violations[0]
        assert result.points[1].spec_hash  # provenance survives the failure

    def test_named_synthetic_model_keeps_its_declared_name(self):
        """A dp-planner synthetic spec with a non-generator name must
        not borrow the generator's 'fuzz<seed>' model identity."""
        scenario = build_scenario(small_scenario_spec(planner="dp"))
        assert scenario.model.name == "api-test"

    def test_on_result_streams_in_order(self):
        seen: list[int] = []
        run_sweep(self.grid(), jobs=2, on_result=lambda p: seen.append(p.index))
        assert seen == [0, 1, 2, 3]

    def test_sweep_requires_a_grid(self):
        with pytest.raises(SpecError, match="no sweep section"):
            run_sweep(small_scenario_spec())

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"store": "results-dir"}, "ResultStore"),
            ({"resume": True}, "--resume needs --store DIR"),
        ],
    )
    def test_bad_store_arguments_fail_before_any_point_runs(self, kwargs, fragment):
        seen: list = []
        with pytest.raises(SpecError, match=fragment):
            run_sweep(self.grid(), on_result=seen.append, **kwargs)
        assert seen == []


class TestCli:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_scenario_spec_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(small_scenario_spec().to_json())
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "spec" in out

    def test_sweep_cli_runs_the_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(self_grid().to_json())
        assert main(["sweep", str(path), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 points, 0 failing" in out
        assert out.count("spec=") == 4

    def test_unknown_model_exits_two_with_names(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"kind": "experiment", "experiment": {"name": "fig3", "model": "alexnet"}},
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'alexnet'" in err and "vgg19" in err

    def test_unknown_experiment_exits_two(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"kind": "experiment", "experiment": {"name": "fig99"}},
        )
        assert main(["run", path]) == 2
        assert "available" in capsys.readouterr().err

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "scenario", "bogus": True})
        assert main(["run", path]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_boolean_for_an_int_exits_two(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"kind": "scenario", "model": {"name": "vgg19"}, "pipeline": {"nm": True}},
        )
        assert main(["run", path]) == 2
        assert "pipeline.nm must be an int >= 1 or null, got True" in capsys.readouterr().err

    def test_int_too_large_for_a_float_exits_two(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {"kind": "scenario", "model": {"name": "vgg19"}, "pipeline": {"nm": 1},
             "observability": {"sample_every": 10**400}},
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "observability.sample_every must be a number a float can hold" in err

    def test_float_literal_past_the_float_range_exits_two(self, tmp_path, capsys):
        # json reads 1e400 as inf, which canonical JSON could not carry
        path = tmp_path / "spec.json"
        path.write_text(
            '{"kind": "scenario", "model": {"name": "vgg19"}, "pipeline": {"nm": 1},'
            ' "observability": {"enabled": true, "sample_every": 1e400}}'
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "observability.sample_every must be a finite number >= 0, got inf" in err

    def test_int_literal_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"kind": "scenario", "model": {"name": "vgg19"}, "pipeline": {"nm": 1},'
            ' "observability": {"sample_every": 1' + "0" * 5000 + "}}"
        )
        assert main(["run", str(path)]) == 2
        assert "spec is not valid JSON" in capsys.readouterr().err

    def test_sweep_resume_without_store_exits_two(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(self_grid().to_json())
        assert main(["sweep", str(path), "--resume"]) == 2
        captured = capsys.readouterr()
        assert "--resume needs --store DIR (nowhere to resume from)" in captured.err
        assert "spec=" not in captured.out  # no point ran

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_run_rejects_grid_specs_with_exit_two(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(self_grid().to_json())
        assert main(["run", path.as_posix()]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_configuration_errors_also_exit_two(self, tmp_path, capsys):
        """Spec-reachable ConfigurationErrors honor the no-traceback
        contract, not just SpecError/UnknownNameError."""
        path = self.write(
            tmp_path,
            {"kind": "scenario", "cluster": {"node_codes": "ZZ"},
             "model": {"name": "vgg19"}, "pipeline": {"nm": 1}},
        )
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "unknown GPU code" in err

    def test_sweep_cli_prints_failing_point_violations(self, tmp_path, capsys, monkeypatch):
        from repro.api.run import SweepPointResult, SweepResult

        failing = SweepPointResult(
            index=1, spec_hash="f" * 64, label="pipeline.nm=2", kind="scenario",
            ok=False, summary="0.0 img/s", violations=("staleness: impossible",),
        )
        fake = SweepResult(grid_hash="a" * 64, points=(failing,))
        monkeypatch.setattr("repro.api.run.run_sweep", lambda *a, **k: fake)
        path = tmp_path / "grid.json"
        path.write_text(self_grid().to_json())
        assert main(["sweep", str(path), "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "point 1: staleness: impossible" in out
        assert "FAIL(1)" in out  # --quiet still identifies the failing point

    def test_checked_in_specs_parse(self):
        import glob

        paths = sorted(glob.glob("examples/specs/*.json"))
        assert len(paths) >= 5
        for path in paths:
            with open(path) as fh:
                RunSpec.from_json(fh.read())


def self_grid() -> RunSpec:
    return replace(
        small_scenario_spec(),
        sweep=SweepSpec(
            axes=(
                SweepAxis(path="pipeline.planner", values=("dp", "bnb")),
                SweepAxis(path="pipeline.nm", values=(1, 2)),
            )
        ),
    )
