"""Pipeline-variant zoo: registry, gates, oracles, specs, CLI, stores.

The property suite (``test_variant_properties``) covers the memory
contracts; this file covers the wiring — the ``VARIANTS`` registry and
its actionable misses, the composed admission gates, the per-variant
staleness/ledger oracles, spec round-trips, memory-limited planning
rejections, default-variant byte-identity, and the ``--variant`` /
``store ls --where`` CLI surfaces.
"""

import json

import pytest

from repro.api.build import build_scenario
from repro.api.registry import VARIANTS
from repro.api.spec import RunSpec
from repro.cli import main
from repro.errors import SpecError, UnknownNameError
from repro.pipeline.variants import (
    DEFAULT_VARIANT,
    VARIANT_DEFS,
    ComposedGate,
    VariantDef,
    VersionWindowGate,
    WaveFlushGate,
    build_variant_gate,
    get_variant,
    variant_names,
)
from repro.scenarios import run_fuzz
from repro.scenarios.generator import generate_scenario


ZOO = ("vw_hetpipe", "gpipe_flush", "pipedream", "pipedream_2bw", "xpipe")


class TestRegistry:
    def test_all_variants_registered(self):
        assert VARIANTS.names() == sorted(ZOO)

    def test_entries_resolve_to_defs(self):
        for name in ZOO:
            assert VARIANTS.get(name)() is VARIANT_DEFS[name]

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownNameError) as err:
            get_variant("gpipe")
        message = str(err.value)
        assert "gpipe" in message
        for name in ZOO:
            assert name in message

    def test_default_variant_is_hetpipe(self):
        assert DEFAULT_VARIANT == "vw_hetpipe"
        assert variant_names() == sorted(ZOO)

    def test_weight_policies(self):
        assert VARIANT_DEFS["vw_hetpipe"].weight_policy == "stash_per_minibatch"
        assert VARIANT_DEFS["pipedream"].weight_policy == "stash_per_minibatch"
        assert VARIANT_DEFS["pipedream_2bw"].weight_policy == "double_buffer"
        assert VARIANT_DEFS["gpipe_flush"].weight_policy == "single"
        assert VARIANT_DEFS["xpipe"].weight_policy == "predicted"

    def test_version_contracts(self):
        nm = 6
        assert VARIANT_DEFS["vw_hetpipe"].max_weight_versions(nm) is None
        assert VARIANT_DEFS["pipedream"].max_weight_versions(nm) == nm
        assert VARIANT_DEFS["xpipe"].max_weight_versions(nm) == nm
        assert VARIANT_DEFS["pipedream_2bw"].max_weight_versions(nm) == 2
        assert VARIANT_DEFS["gpipe_flush"].max_weight_versions(nm) == 2

    def test_staleness_bound_matches_wsp_arithmetic(self):
        from repro.wsp.staleness import global_staleness, local_staleness

        for name in ZOO:
            assert VARIANT_DEFS[name].staleness_bound(2, 4) == global_staleness(
                2, local_staleness(4)
            )


class _FakePipeline:
    def __init__(self, completed=0, stamps=None, version=0):
        self.completed = completed
        self.version_stamps = dict(stamps or {})
        self.weight_version = version


class TestGates:
    def test_default_variant_gate_is_base_untouched(self):
        base = object()
        assert build_variant_gate(VARIANT_DEFS["vw_hetpipe"], base, 4) is base
        assert build_variant_gate(VARIANT_DEFS["pipedream"], base, 4) is base
        assert build_variant_gate(VARIANT_DEFS["xpipe"], base, 4) is base

    def test_wave_flush_blocks_next_wave(self):
        gate = WaveFlushGate(nm=4)
        gate.attach(_FakePipeline(completed=3))
        assert gate.may_start(4)       # wave 0
        assert not gate.may_start(5)   # wave 1 needs 4 completions
        gate.attach(_FakePipeline(completed=4))
        assert gate.may_start(5)

    def test_version_window_counts_would_be_stamp(self):
        gate = VersionWindowGate(max_versions=2)
        gate.attach(_FakePipeline(stamps={1: 0, 2: 1}, version=2))
        assert not gate.may_start(3)   # {0, 1} alive + would-be 2 = 3
        gate.attach(_FakePipeline(stamps={2: 1}, version=2))
        assert gate.may_start(3)       # {1} alive + would-be 2 = 2

    def test_composed_gate_ands_conditions_and_forwards_version(self):
        class Base:
            pulled_version = 3

            def may_start(self, minibatch):
                return minibatch <= 2

            def subscribe(self, wake):
                self.wake = wake

            def advance(self, version):
                self.pulled_version = version

        base = Base()
        flush = WaveFlushGate(nm=1)
        flush.attach(_FakePipeline(completed=0))
        gate = ComposedGate(base, [flush])
        assert gate.may_start(1)       # both open
        assert not gate.may_start(2)   # flush blocks wave 1
        assert not gate.may_start(3)   # base blocks
        assert gate.pulled_version == 3
        gate.advance(7)
        assert gate.pulled_version == 7
        gate.pulled_version = 9        # fast-forward writes through
        assert base.pulled_version == 9


def _fuzz(seeds, **kwargs):
    return run_fuzz(range(seeds), **kwargs)


class TestVariantFuzz:
    @pytest.mark.parametrize("variant", ZOO)
    def test_small_batch_clean(self, variant):
        report = _fuzz(4, variant=variant)
        assert report.total_violations == 0
        assert not report.failures

    def test_default_variant_digests_unchanged(self):
        default = [r.digest for r in _fuzz(4).results]
        explicit = [r.digest for r in _fuzz(4, variant="vw_hetpipe").results]
        assert default == explicit

    def test_variant_changes_digests_when_gates_bind(self):
        # gpipe_flush reorders admissions on any scenario with nm > 1,
        # so at least one of the seeds must diverge from the default.
        default = [r.digest for r in _fuzz(6).results]
        flushed = [r.digest for r in _fuzz(6, variant="gpipe_flush").results]
        assert default != flushed

    def test_wave_flush_on_shared_fabric_skips_contention_twin(self):
        # Seed 59 regression: the wave-flush gate admits on completion
        # timing, so the shared run and a dedicated-network run execute
        # different admission schedules, and the shared one finishes
        # (fractionally) faster.  That is the scheduling anomaly seed
        # 330 pins for the default variant (test_scenarios.py): no
        # whole-run makespan law holds, so contention is checked per
        # flow and the run must come out clean.
        report = run_fuzz(
            range(59, 60), variant="gpipe_flush", network_model="shared"
        )
        assert report.total_violations == 0

    def test_fast_forward_with_variant_verifies_equivalence(self):
        report = _fuzz(
            4, fidelity="fast_forward", verify_equivalence=True,
            variant="pipedream_2bw",
        )
        assert report.total_violations == 0

    def test_unknown_variant_fails_fast(self):
        with pytest.raises(UnknownNameError):
            _fuzz(2, variant="dreampipe")


class TestSpecs:
    def _scenario_run(self, **pipeline_overrides):
        run = generate_scenario(0).spec.to_run_spec()
        if pipeline_overrides:
            from dataclasses import replace

            run = replace(run, pipeline=replace(run.pipeline, **pipeline_overrides))
        return run

    def test_round_trip_preserves_variant_fields(self):
        run = self._scenario_run(variant="pipedream_2bw", memory_limited=True)
        again = RunSpec.from_json(run.to_json())
        assert again.pipeline.variant == "pipedream_2bw"
        assert again.pipeline.memory_limited is True
        assert again.spec_hash == run.spec_hash

    def test_defaults_omittable(self):
        run = self._scenario_run()
        payload = json.loads(run.to_json())
        del payload["pipeline"]["variant"]
        del payload["pipeline"]["memory_limited"]
        again = RunSpec.from_json(json.dumps(payload))
        assert again.pipeline.variant == "vw_hetpipe"
        assert again.pipeline.memory_limited is False

    def test_invalid_variant_field_rejected(self):
        with pytest.raises(SpecError):
            self._scenario_run(variant="")
        with pytest.raises(SpecError):
            self._scenario_run(memory_limited="yes")

    def test_variant_without_memory_limit_shares_default_plans(self):
        # Planning is variant-independent unless memory_limited: the
        # build canonicalizes the cache key, so both specs share the
        # very same plan objects (and therefore identical partitions).
        default = build_scenario(self._scenario_run())
        varied = build_scenario(self._scenario_run(variant="xpipe"))
        assert varied.plans is default.plans

    def test_describe_tags_non_default_variant(self):
        from repro.scenarios import describe_run

        run = self._scenario_run()
        assert "variant=" not in describe_run(run)
        tagged = self._scenario_run(variant="pipedream", memory_limited=True)
        assert "variant=pipedream" in describe_run(tagged)
        assert "memcap" in describe_run(tagged)


def _load_zoo_grid_point(variant):
    with open("examples/specs/variant_zoo_grid.json") as fh:
        payload = json.load(fh)
    del payload["sweep"]
    payload["pipeline"]["variant"] = variant
    return RunSpec.from_json(json.dumps(payload))


class TestMemoryLimitedPlanning:
    def test_infeasible_stash_point_raises_actionable_spec_error(self):
        with pytest.raises(SpecError) as err:
            build_scenario(_load_zoo_grid_point("vw_hetpipe"))
        message = str(err.value)
        assert "memory_limited" in message
        assert "stash_per_minibatch" in message
        assert "pipedream_2bw" in message  # names a way out

    def test_lighter_policies_stay_feasible(self):
        for variant in ("gpipe_flush", "pipedream_2bw", "xpipe"):
            built = build_scenario(_load_zoo_grid_point(variant))
            assert built.plans

    def test_unlimited_keeps_historical_accounting(self):
        # memory_limited=False plans with the historical stash accounting
        # regardless of variant: the point stays infeasible, but as the
        # plain PartitionError (no memory_limited advice), and a lighter
        # variant does NOT unlock it — planning ignores the variant's
        # policy unless memory_limited opts in.
        from dataclasses import replace

        from repro.errors import PartitionError

        for variant in ("vw_hetpipe", "pipedream_2bw"):
            run = _load_zoo_grid_point(variant)
            run = replace(run, pipeline=replace(run.pipeline, memory_limited=False))
            with pytest.raises(PartitionError) as err:
                build_scenario(run)
            assert "memory_limited" not in str(err.value)


class TestCLI:
    def test_unknown_variant_exits_2(self, capsys):
        code = main(["fuzz", "--seeds", "2", "--variant", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown pipeline variant" in err
        assert "pipedream_2bw" in err

    def test_variant_flag_runs_clean(self, capsys):
        code = main(["fuzz", "--seeds", "2", "--variant", "xpipe"])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_store_ls_where_filters_by_spec_field(self, tmp_path, capsys):
        from repro.api.run import run_sweep
        from repro.api.spec import RunSpec as RS
        from repro.store import ResultStore

        with open("examples/specs/variant_zoo_grid.json") as fh:
            payload = json.load(fh)
        payload["sweep"]["axes"] = [
            {"path": "pipeline.variant", "values": ["pipedream_2bw", "xpipe"]}
        ]
        spec = RS.from_json(json.dumps(payload))
        store = ResultStore(str(tmp_path / "store"))
        run_sweep(spec, store=store)
        capsys.readouterr()

        code = main(
            ["store", "ls", str(tmp_path / "store"),
             "--where", "pipeline.variant=xpipe"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "store: 1 entry" in out

        code = main(
            ["store", "ls", str(tmp_path / "store"),
             "--where", "pipeline.variant=xpipe",
             "--where", "pipeline.shards=9"]
        )
        assert code == 0
        assert "store: 0 entries" in capsys.readouterr().out

    def test_store_ls_where_malformed_exits_2(self, tmp_path, capsys):
        (tmp_path / "store").mkdir()
        code = main(["store", "ls", str(tmp_path / "store"), "--where", "oops"])
        assert code == 2
        assert "FIELD=VALUE" in capsys.readouterr().err
