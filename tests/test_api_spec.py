"""RunSpec schema properties: round-trip, hash stability, validation.

Hypothesis drives the round-trip suite: any spec the dataclasses accept
must survive ``from_json(to_json(s)) == s``, its ``spec_hash`` must be
invariant under JSON key reordering and formatting, and malformed specs
must be rejected with :class:`~repro.errors.SpecError` messages that
name the offending path.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import (
    ALLOCATION_POLICIES,
    FIDELITIES,
    NETWORK_MODELS,
    PLACEMENT_POLICIES,
    SHARD_PLACEMENT_POLICIES,
    SPEC_SCHEMA,
    ClusterSpec,
    ExperimentSpec,
    FaultSpec,
    FidelitySpec,
    ModelSpec,
    NetworkSpec,
    ObservabilitySpec,
    PipelineSpec,
    RunSpec,
    SweepAxis,
    SweepSpec,
    axis_assignments,
    expand_sweep,
)
from repro.errors import SpecError

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

clusters = st.builds(
    ClusterSpec,
    node_codes=st.text(alphabet="VRGQ", min_size=1, max_size=4),
    gpus_per_node=st.integers(min_value=1, max_value=4),
    profile=st.sampled_from(["grpc_tf112", "nccl_modern"]),
)

synthetic_models = st.builds(
    ModelSpec,
    name=st.sampled_from(["fuzz0", "synth", "m-1"]),
    batch_size=st.integers(min_value=1, max_value=64),
    image_size=st.sampled_from([16, 24, 32]),
    conv_widths=st.lists(
        st.integers(min_value=1, max_value=96), min_size=1, max_size=8
    ).map(tuple),
    fc_dims=st.lists(
        st.integers(min_value=1, max_value=256), max_size=3
    ).map(tuple),
)

catalog_models = st.builds(ModelSpec, name=st.sampled_from(["vgg19", "resnet152"]))

pipelines = st.builds(
    PipelineSpec,
    nm=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=0, max_value=8),
    allocation=st.sampled_from(ALLOCATION_POLICIES),
    placement=st.sampled_from(PLACEMENT_POLICIES),
    shards=st.integers(min_value=1, max_value=4),
    shard_placement=st.sampled_from(SHARD_PLACEMENT_POLICIES),
    planner=st.sampled_from(["dp", "dp_ordered", "bnb"]),
    push_every_minibatch=st.booleans(),
    jitter=st.sampled_from([0.0, 0.05, 0.1, 0.2]),
    warmup_waves=st.integers(min_value=1, max_value=4),
    measured_waves=st.integers(min_value=1, max_value=16),
)

networks = st.builds(NetworkSpec, model=st.sampled_from(NETWORK_MODELS))

fidelities = st.builds(
    FidelitySpec,
    fidelity=st.sampled_from(FIDELITIES),
    verify_equivalence=st.sampled_from([None, True, False]),
    waves_scale=st.integers(min_value=1, max_value=16),
)

observabilities = st.builds(
    ObservabilitySpec,
    enabled=st.just(True),
    sample_every=st.sampled_from([0, 0.0, 0.5, 2]),
    ring_buffer=st.integers(min_value=1, max_value=512),
)

fault_specs = st.builds(
    FaultSpec,
    enabled=st.just(True),
    stragglers=st.integers(min_value=0, max_value=3),
    crashes=st.integers(min_value=0, max_value=2),
    link_faults=st.integers(min_value=0, max_value=2),
    ps_faults=st.integers(min_value=0, max_value=2),
    straggler_factor=st.sampled_from([1, 1.5, 2.0, 4]),
    link_scale_floor=st.sampled_from([0.1, 0.25, 1]),
    retry_timeout=st.sampled_from([0.01, 0.02, 1]),
    max_retries=st.integers(min_value=1, max_value=12),
    checkpoint_every=st.integers(min_value=1, max_value=4),
)

scenario_specs = st.builds(
    RunSpec,
    kind=st.just("scenario"),
    seed=st.integers(min_value=0, max_value=10_000),
    cluster=clusters,
    model=st.one_of(synthetic_models, catalog_models),
    pipeline=pipelines,
    network=networks,
    fidelity=fidelities,
    calibration=st.sampled_from(["default", "activation_recompute"]),
    observability=st.none() | observabilities,
    faults=st.none() | fault_specs,
)

experiment_specs = st.builds(
    RunSpec,
    kind=st.just("experiment"),
    experiment=st.builds(
        ExperimentSpec,
        name=st.sampled_from(["fig3", "fig4", "table4", "sync"]),
        model=st.sampled_from(["vgg19", "resnet152"]),
    ),
)

run_specs = st.one_of(scenario_specs, experiment_specs)


#: Every int or number field, by its path in the spec JSON.
NUMERIC_PATHS = (
    "seed",
    "cluster.gpus_per_node",
    "model.batch_size",
    "model.image_size",
    "pipeline.nm",
    "pipeline.d",
    "pipeline.shards",
    "pipeline.jitter",
    "pipeline.warmup_waves",
    "pipeline.measured_waves",
    "fidelity.waves_scale",
    "observability.sample_every",
    "observability.ring_buffer",
    "faults.stragglers",
    "faults.crashes",
    "faults.link_faults",
    "faults.ps_faults",
    "faults.straggler_factor",
    "faults.link_scale_floor",
    "faults.retry_timeout",
    "faults.max_retries",
    "faults.checkpoint_every",
)

#: JSON values that compare equal across types (True == 1 == 1.0,
#: 0.0 == -0.0), though each serializes differently.
LOOKALIKES = (True, False, 0, 1, 2, 0.0, -0.0, 1.0, 2.0)

MINIMAL_SCENARIO = {"kind": "scenario", "model": {"name": "vgg19"}, "pipeline": {"nm": 1}}


def _with_field(data: dict, path: str, value) -> dict:
    """A copy of spec dict ``data`` with ``path`` set to ``value``.

    The section that holds ``path`` is made live first — the faults and
    observability sections enabled, the model given synthetic knobs — so
    the field's own rule is what checks ``value``.
    """
    data = json.loads(json.dumps(data))
    *section, leaf = path.split(".")
    target = data
    if section:
        target = data.setdefault(section[0], {})
        if section[0] in ("faults", "observability"):
            target["enabled"] = True
        if section[0] == "model" and not target.get("conv_widths"):
            target.update(batch_size=8, image_size=16, conv_widths=[8])
    target[leaf] = value
    return data


def _reorder(value):
    """Recursively reverse dict key order (JSON object key shuffling)."""
    if isinstance(value, dict):
        return {k: _reorder(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder(v) for v in value]
    return value


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(spec=run_specs)
    def test_json_round_trip_is_identity(self, spec):
        assert RunSpec.from_json(spec.to_json()) == spec
        assert RunSpec.from_json(spec.to_json(indent=None)) == spec

    @settings(max_examples=200, deadline=None)
    @given(spec=run_specs)
    def test_spec_hash_invariant_under_key_reordering(self, spec):
        shuffled = json.dumps(_reorder(json.loads(spec.to_json())))
        assert RunSpec.from_json(shuffled) == spec
        assert RunSpec.from_json(shuffled).spec_hash == spec.spec_hash

    @settings(max_examples=100, deadline=None)
    @given(spec=run_specs)
    def test_to_dict_carries_the_schema_tag(self, spec):
        assert spec.to_dict()["schema"] == SPEC_SCHEMA

    @settings(max_examples=300, deadline=None)
    @given(
        spec=scenario_specs,
        path=st.sampled_from(NUMERIC_PATHS),
        first=st.sampled_from(LOOKALIKES),
        second=st.sampled_from(LOOKALIKES),
    )
    def test_specs_that_compare_equal_hash_equal(self, spec, path, first, second):
        """Set one int or number field to two lookalike values: if both
        specs build and compare equal, their hashes are equal, and a
        bool never builds."""
        built = []
        for value in (first, second):
            try:
                built.append(RunSpec.from_dict(_with_field(spec.to_dict(), path, value)))
            except SpecError as exc:
                assert path in str(exc)
                built.append(None)
        if built[0] is not None and built[0] == built[1]:
            assert built[0].spec_hash == built[1].spec_hash
        for value, result in zip((first, second), built):
            assert not (isinstance(value, bool) and result is not None)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="fault event entries and sweep axis values are stored as "
        "given, so 0 and 0.0 compare equal but serialize apart",
    )
    def test_free_form_numbers_hash_equal_when_equal(self):
        def spec(number):
            return RunSpec(
                kind="scenario",
                model=ModelSpec(name="vgg19"),
                pipeline=PipelineSpec(nm=1),
                faults=FaultSpec(enabled=True, events=(("crash", 0.3, 1, number),)),
                sweep=SweepSpec(
                    axes=(SweepAxis(path="pipeline.jitter", values=(number, 0.1)),)
                ),
            )

        assert spec(0) == spec(0.0)
        assert spec(0).spec_hash == spec(0.0).spec_hash

    @settings(max_examples=100, deadline=None)
    @given(first=run_specs, second=run_specs)
    def test_hash_equality_tracks_spec_equality(self, first, second):
        if first == second:
            assert first.spec_hash == second.spec_hash
        else:
            assert first.spec_hash != second.spec_hash

    def test_generated_draw_lifts_exactly(self):
        """Every drawn knob survives the RunSpec lift, and the lifted
        spec round-trips through canonical JSON."""
        from dataclasses import astuple

        from repro.scenarios.generator import generate_scenario

        for seed in range(5):
            sspec = generate_scenario(seed).spec
            run = sspec.to_run_spec()
            cluster, model, pipe = run.cluster, run.model, run.pipeline
            assert (
                run.seed, cluster.node_codes, cluster.gpus_per_node,
                pipe.allocation, model.batch_size, model.image_size,
                model.conv_widths, model.fc_dims, pipe.nm, pipe.d,
                pipe.placement, pipe.jitter, pipe.push_every_minibatch,
                pipe.warmup_waves, pipe.measured_waves,
            ) == astuple(sspec)
            assert RunSpec.from_json(run.to_json()) == run


class TestValidation:
    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"kind": "warmup"}, "kind"),
            ({"kind": "scenario"}, "model section"),
            ({"kind": "experiment"}, "experiment section"),
            ({"kind": "scenario", "model": {"name": ""}}, "model.name"),
            (
                {"kind": "scenario", "model": {"name": "m", "batch_size": 4}},
                "synthetic",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 0}},
                "pipeline.nm",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 1, "allocation": "RR"}},
                "pipeline.allocation",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 1}, "network": {"model": "token-ring"}},
                "network.model",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 1}, "fidelity": {"fidelity": "approximate"}},
                "fidelity.fidelity",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 1, "shards": 0}},
                "pipeline.shards",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 1, "shards": True}},
                "pipeline.shards",
            ),
            (
                {"kind": "scenario", "model": {"name": "vgg19"},
                 "pipeline": {"nm": 1, "shards": 2, "shard_placement": "random"}},
                "pipeline.shard_placement",
            ),
            ({"kind": "scenario", "model": {"name": "m"}, "bogus": 1}, "bogus"),
            (
                {"kind": "scenario", "model": {"name": "vgg19", "oops": True},
                 "pipeline": {"nm": 1}},
                "oops",
            ),
            ({"schema": "hetpipe-spec/99", "kind": "experiment"}, "schema"),
            ([1, 2], "object"),
            *[
                (_with_field(MINIMAL_SCENARIO, path, flag), path)
                for path in NUMERIC_PATHS
                for flag in (True, False)
            ],
            (
                _with_field(MINIMAL_SCENARIO, "model.conv_widths", [8, True]),
                "model.conv_widths",
            ),
            (
                _with_field(MINIMAL_SCENARIO, "model.fc_dims", [False]),
                "model.fc_dims",
            ),
            (
                _with_field(MINIMAL_SCENARIO, "pipeline.push_every_minibatch", 1),
                "pipeline.push_every_minibatch",
            ),
            # ints too large for a float pass the bound test, then must
            # not overflow when stored
            *[
                (_with_field(MINIMAL_SCENARIO, path, 10**400), path)
                for path in (
                    "observability.sample_every",
                    "faults.straggler_factor",
                    "faults.retry_timeout",
                )
            ],
            # inf passes a lower bound, but canonical JSON cannot carry it
            *[
                (_with_field(MINIMAL_SCENARIO, path, math.inf), f"{path} must be")
                for path in (
                    "observability.sample_every",
                    "faults.straggler_factor",
                    "faults.retry_timeout",
                )
            ],
            (
                _with_field(
                    MINIMAL_SCENARIO, "faults.events", [["link", 0.1, math.inf, 0.2]]
                ),
                "faults.events[0] entries after the kind must be finite numbers",
            ),
        ],
    )
    def test_malformed_specs_are_rejected_with_the_path(self, data, fragment):
        with pytest.raises(SpecError) as excinfo:
            RunSpec.from_dict(data)
        assert fragment in str(excinfo.value)

    def test_cluster_preset_sugar_resolves_through_the_registry(self):
        from repro.api.registry import CLUSTERS
        from repro.errors import UnknownNameError

        spec = RunSpec.from_dict(
            {"kind": "scenario", "cluster": "paper_vr",
             "model": {"name": "vgg19"}, "pipeline": {"nm": 1}}
        )
        assert spec.cluster == CLUSTERS.get("paper_vr")
        # the canonical form carries the resolved fields, not the name
        assert spec.to_dict()["cluster"]["node_codes"] == "VR"
        with pytest.raises(UnknownNameError, match="paper"):
            RunSpec.from_dict(
                {"kind": "scenario", "cluster": "atlantis",
                 "model": {"name": "vgg19"}, "pipeline": {"nm": 1}}
            )

    def test_not_json_at_all(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            RunSpec.from_json("{nope")

    def test_scenario_without_concrete_nm_rejected(self):
        with pytest.raises(SpecError, match="pipeline.nm"):
            RunSpec(kind="scenario", model=ModelSpec(name="vgg19"))

    def test_experiment_cannot_be_a_scenario(self):
        with pytest.raises(SpecError, match="experiment section"):
            RunSpec(
                kind="scenario",
                model=ModelSpec(name="vgg19"),
                pipeline=PipelineSpec(nm=1),
                experiment=ExperimentSpec(name="fig3"),
            )


class TestSweepExpansion:
    def grid(self) -> RunSpec:
        return RunSpec(
            kind="scenario",
            model=ModelSpec(name="vgg19"),
            pipeline=PipelineSpec(nm=1),
            sweep=SweepSpec(
                axes=(
                    SweepAxis(path="pipeline.planner", values=("dp", "bnb")),
                    SweepAxis(path="pipeline.nm", values=(1, 2, 3)),
                )
            ),
        )

    def test_cartesian_order_later_axes_fastest(self):
        points = expand_sweep(self.grid())
        assert [(p.pipeline.planner, p.pipeline.nm) for p in points] == [
            ("dp", 1), ("dp", 2), ("dp", 3),
            ("bnb", 1), ("bnb", 2), ("bnb", 3),
        ]
        assert all(p.sweep is None for p in points)
        assert len({p.spec_hash for p in points}) == len(points)

    def test_axis_assignments_label(self):
        grid = self.grid()
        points = expand_sweep(grid)
        assert axis_assignments(grid, points[0]) == "pipeline.planner=dp pipeline.nm=1"

    def test_top_level_axis(self):
        grid = RunSpec(
            kind="scenario",
            model=ModelSpec(name="vgg19"),
            pipeline=PipelineSpec(nm=1),
            sweep=SweepSpec(axes=(SweepAxis(path="seed", values=(0, 1, 2)),)),
        )
        assert [p.seed for p in expand_sweep(grid)] == [0, 1, 2]

    def test_no_sweep_expands_to_itself(self):
        spec = RunSpec(
            kind="scenario", model=ModelSpec(name="vgg19"), pipeline=PipelineSpec(nm=1)
        )
        assert expand_sweep(spec) == [spec]

    @pytest.mark.parametrize("path", ["model", "network", "cluster", "fidelity"])
    def test_section_axis_paths_rejected(self, path):
        """A raw-JSON section value would bypass the section dataclass's
        validation; axes must address leaves."""
        grid = RunSpec(
            kind="scenario",
            model=ModelSpec(name="vgg19"),
            pipeline=PipelineSpec(nm=1),
            sweep=SweepSpec(axes=(SweepAxis(path=path, values=({"model": "x"},)),)),
        )
        with pytest.raises(SpecError, match="whole section"):
            expand_sweep(grid)

    @pytest.mark.parametrize(
        "path", ["pipeline.bogus", "nope.nm", "sweep", "a.b.c", "pipeline.nm.x"]
    )
    def test_bad_axis_paths_rejected(self, path):
        grid = self.grid()
        bad = RunSpec(
            kind="scenario",
            model=ModelSpec(name="vgg19"),
            pipeline=PipelineSpec(nm=1),
            sweep=SweepSpec(axes=(SweepAxis(path=path, values=(1,)),)),
        )
        with pytest.raises(SpecError):
            expand_sweep(bad)

    def test_duplicate_axis_paths_rejected(self):
        with pytest.raises(SpecError, match="unique"):
            SweepSpec(
                axes=(
                    SweepAxis(path="pipeline.nm", values=(1,)),
                    SweepAxis(path="pipeline.nm", values=(2,)),
                )
            )

    def test_grid_may_leave_nm_for_an_axis_to_fill(self):
        """A scenario grid with pipeline.nm null expands once an axis
        supplies the value (regression: the base used to be re-validated
        with sweep cleared before any axis applied)."""
        grid = RunSpec.from_dict(
            {
                "kind": "scenario",
                "model": {"name": "vgg19"},
                "pipeline": {"nm": None},
                "sweep": {"axes": [{"path": "pipeline.nm", "values": [1, 2]}]},
            }
        )
        points = expand_sweep(grid)
        assert [p.pipeline.nm for p in points] == [1, 2]
        assert all(p.sweep is None for p in points)

    def test_grid_without_an_nm_axis_still_requires_nm(self):
        grid = RunSpec.from_dict(
            {
                "kind": "scenario",
                "model": {"name": "vgg19"},
                "pipeline": {"nm": None},
                "sweep": {"axes": [{"path": "pipeline.d", "values": [0, 1]}]},
            }
        )
        with pytest.raises(SpecError, match="pipeline.nm"):
            expand_sweep(grid)

    def test_swept_point_is_revalidated(self):
        grid = RunSpec(
            kind="scenario",
            model=ModelSpec(name="vgg19"),
            pipeline=PipelineSpec(nm=1),
            sweep=SweepSpec(axes=(SweepAxis(path="pipeline.d", values=(-1,)),)),
        )
        with pytest.raises(SpecError, match="pipeline.d"):
            expand_sweep(grid)


#: ``spec_hash`` of every checked-in RunSpec file (``seed_pools.json``
#: under ``bench/specs`` is the benchmark's seed list, not a spec).  The
#: hash keys the result store and ``repro sweep --resume``, so a change
#: to the spec layer must leave every one of them unchanged.
CHECKED_IN_SPEC_HASHES = {
    "examples/specs/faults_demo.json": "9b74979767dfd5efd6b7d8f78164483585c453bffa053641b62abd03983750cf",
    "examples/specs/fig3_vgg19.json": "ddf6d8125794eca7c01ca96ee53f5fcdb61579374d720b585e6d829f41ec1987",
    "examples/specs/fig4_vgg19.json": "4bf68aa54182e8cf8536791c83e6b3626578377b1971fe9ee25fdf289439bfe0",
    "examples/specs/planner_grid.json": "d4cd8987dbb1f7003aa7fc5b4f019d628e3bfb726f3ec72c8dfe99491ac07381",
    "examples/specs/ps_shard_grid.json": "62a177ca426ddaf24100278d79e03130cb77f3101563aedd2e46d280ecad9e02",
    "examples/specs/resume_grid.json": "1ea61a989093de35efb00d018862103b8086c40d61e119898b5cf479b0d3a5a7",
    "examples/specs/scenario_seed0.json": "00e318a938cebda598e04df5d710b1ab7cae7693e717c53172eae03faa554201",
    "examples/specs/table4_vgg19.json": "c02d3e0d47a03f664dd99eafbc9c1f296081f0534b4c93a4a674b59c589e969d",
    "examples/specs/trace_demo.json": "b6115cda6b6dd514857fa11c4e5292470383bf85756ec1e91587f7b93b299566",
    "examples/specs/variant_zoo_grid.json": "6cc96e225f5fafd177729c9865a3d3e081256d9da94969e2b26489bdecde90fb",
    "bench/specs/cluster64.json": "07dcb1720089b3d513e97942bba6336e3ad553aa38e58378c75d84ec7d3ac642",
    "bench/specs/fig3_vgg19.json": "ddf6d8125794eca7c01ca96ee53f5fcdb61579374d720b585e6d829f41ec1987",
    "bench/specs/fig4_vgg19.json": "4bf68aa54182e8cf8536791c83e6b3626578377b1971fe9ee25fdf289439bfe0",
    "bench/specs/sweep_grid.json": "cfd4dc02343d081a8fa6a736ee84f057c89c5c46e60c9f2bccb4f2e2839e2cfb",
    "bench/specs/sweep_grid_quick.json": "7cdf0b79f2f1977f71c64d4e4a804e145890a0290360153ee881e3316c9e904d",
    "bench/specs/table4_vgg19.json": "c02d3e0d47a03f664dd99eafbc9c1f296081f0534b4c93a4a674b59c589e969d",
}

#: (point count, sha256 of the space-joined point hashes) of every
#: checked-in grid: each expanded point is its own store key.
CHECKED_IN_GRID_POINTS = {
    "examples/specs/planner_grid.json": (6, "97680117bc15cd22c8c87c8c9cc250b6a4588a99d5a3fecc3677664754e53244"),
    "examples/specs/ps_shard_grid.json": (9, "a50d38be5be999d00c8f7ed06ed89fc25fef7f9a92752d15b08c6bb052637b1c"),
    "examples/specs/resume_grid.json": (8, "534a1918ea3bf1f36ebf8a9a906e5d45fe045a74b0313eb1e5bb4424a0b9434e"),
    "examples/specs/variant_zoo_grid.json": (20, "e7c4f1823958dae4abab63225e94a1654f0e0fe914eafae173fb766732d15bfe"),
    "bench/specs/sweep_grid.json": (60, "2c3a99b65bc8225ee7ea2675efb8e89ffcfcf135868fc7ab496658a619b5db80"),
    "bench/specs/sweep_grid_quick.json": (20, "a6bdf0f23fe09b718f367888a2e48d99d197aff0ecd6e7f2c55460af3966b855"),
}


class TestCheckedInSpecs:
    ROOT = Path(__file__).resolve().parents[1]

    def _load(self, rel: str) -> RunSpec:
        return RunSpec.from_json((self.ROOT / rel).read_text())

    def test_every_checked_in_spec_is_pinned(self):
        found = {
            str(path.relative_to(self.ROOT))
            for folder in ("examples/specs", "bench/specs")
            for path in (self.ROOT / folder).glob("*.json")
            if path.name != "seed_pools.json"
        }
        assert found == set(CHECKED_IN_SPEC_HASHES)

    @pytest.mark.parametrize("rel, expected", sorted(CHECKED_IN_SPEC_HASHES.items()))
    def test_spec_hash_is_pinned(self, rel, expected):
        assert self._load(rel).spec_hash == expected

    @pytest.mark.parametrize("rel, expected", sorted(CHECKED_IN_GRID_POINTS.items()))
    def test_grid_point_hashes_are_pinned(self, rel, expected):
        points = expand_sweep(self._load(rel))
        joined = " ".join(point.spec_hash for point in points)
        assert (len(points), hashlib.sha256(joined.encode()).hexdigest()) == expected
