"""RunSpec schema properties: round-trip, hash stability, validation.

Hypothesis drives the round-trip suite: any spec the dataclasses accept
must survive ``from_json(to_json(s)) == s``, its ``spec_hash`` must be
invariant under JSON key reordering and formatting, and malformed specs
must be rejected with :class:`~repro.errors.SpecError` messages that
name the offending path.
"""

from __future__ import annotations

import json

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
    FidelitySpec,
    ModelSpec,
    NetworkSpec,
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
