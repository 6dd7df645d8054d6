"""HetPipe runtime integration: D gating, placement traffic, accounting."""

import pytest

from repro.api.spec import PipelineSpec
from repro.errors import ConfigurationError, SpecError
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.partition import plan_virtual_worker


@pytest.fixture(scope="module")
def ed_plans(cluster, resnet152, profiler):
    plans = []
    for slot in range(4):
        vw = [node.gpus[slot] for node in cluster.nodes]
        plans.append(
            plan_virtual_worker(
                resnet152, vw, 2, cluster.interconnect,
                DEFAULT_CALIBRATION, profiler, search_orderings=False,
            )
        )
    return plans


@pytest.fixture(scope="module")
def np_plans(cluster, vgg19, profiler):
    """NP: one VW per node — heterogeneous speeds, stragglers."""
    return [
        plan_virtual_worker(
            vgg19, node.gpus, 2, cluster.interconnect,
            DEFAULT_CALIBRATION, profiler, search_orderings=False,
        )
        for node in cluster.nodes
    ]


@pytest.fixture(scope="module")
def np_res_plans(cluster, resnet152, profiler):
    """NP over ResNet-152: small params -> sync is cheap, so the speed
    difference between VVVV and QQQQ/GGGG pipes dominates and D-gating
    effects are clearly visible."""
    return [
        plan_virtual_worker(
            resnet152, node.gpus, 2, cluster.interconnect,
            DEFAULT_CALIBRATION, profiler, search_orderings=False,
        )
        for node in cluster.nodes
    ]


class TestRuntimeBasics:
    def test_runs_to_global_version(self, build_runtime, resnet152, ed_plans):
        runtime = build_runtime(resnet152, ed_plans, placement="local")
        runtime.start()
        runtime.run_until_global_version(2)
        assert runtime.ps.global_version >= 2
        # every VW pushed at least 3 waves of Nm=2 minibatches
        assert all(s.minibatches_done >= 6 for s in runtime.stats)

    def test_requires_matching_nm(self, build_runtime, cluster, resnet152, ed_plans, profiler):
        odd = plan_virtual_worker(
            resnet152, [n.gpus[0] for n in cluster.nodes], 3,
            cluster.interconnect, DEFAULT_CALIBRATION, profiler, search_orderings=False,
        )
        with pytest.raises(ConfigurationError):
            build_runtime(resnet152, [odd, *ed_plans[1:]])

    def test_requires_plans(self, build_runtime, resnet152):
        with pytest.raises(ConfigurationError):
            build_runtime(resnet152, [])


class TestDGating:
    def test_d0_keeps_clock_distance_at_most_one(self, build_runtime, vgg19, np_plans):
        """D=0 is BSP-like: no VW can finish wave c+1 before everyone
        finished wave c, so pushed-wave spread stays <= 1."""
        runtime = build_runtime(vgg19, np_plans)
        runtime.start()
        max_spread = 0

        original = runtime.ps._push_recorded

        def spy(vw, wave, cb):
            nonlocal max_spread
            original(vw, wave, cb)
            waves = runtime.ps.pushed_wave
            max_spread = max(max_spread, max(waves) - max(min(waves), -1))

        runtime.ps._push_recorded = spy
        runtime.run_until_global_version(3)
        assert max_spread <= 1 + 1  # one wave in flight plus the push just recorded

    def test_larger_d_lets_fast_vws_run_ahead(self, build_runtime, resnet152, np_res_plans):
        spreads = {}
        for d in (0, 4):
            runtime = build_runtime(resnet152, np_res_plans, d=d)
            runtime.start()
            runtime.run_until_global_version(4)
            spreads[d] = max(runtime.ps.pushed_wave) - runtime.ps.global_version
        assert spreads[4] > spreads[0]
        assert spreads[4] <= 4 + 1

    def test_larger_d_reduces_waiting(self, measure_plans, resnet152, np_res_plans):
        waits = {}
        for d in (0, 4):
            metrics = measure_plans(resnet152, np_res_plans, d=d, measured_waves=4)
            waits[d] = metrics.avg_wait_per_wave
        assert waits[4] < waits[0]

    def test_straggler_np_gains_throughput_with_d(self, measure_plans, resnet152, np_res_plans):
        """With heterogeneous VWs, bounded staleness absorbs stragglers
        between syncs — throughput rises substantially with D (the §8.4
        'larger D has a greater effect for NP' observation)."""
        t0 = measure_plans(resnet152, np_res_plans, d=0, measured_waves=4).throughput
        t4 = measure_plans(resnet152, np_res_plans, d=4, measured_waves=4).throughput
        assert t4 > t0 * 1.2


class TestPlacementTraffic:
    def test_local_placement_zero_cross_node_sync(self, measure_plans, resnet152, ed_plans):
        """§8.3: local placement incurs 'no actual network traffic
        across the nodes for parameter synchronization'."""
        metrics = measure_plans(resnet152, ed_plans, placement="local", measured_waves=4)
        assert metrics.sync_cross_node_bytes_per_wave == 0.0

    def test_default_placement_pays_cross_node_sync(self, measure_plans, resnet152, ed_plans):
        metrics = measure_plans(resnet152, ed_plans, measured_waves=4)
        # push+pull of (H-1)/H of the parameters per wave
        expected = 2 * resnet152.param_bytes * 3 / 4
        assert metrics.sync_cross_node_bytes_per_wave == pytest.approx(expected, rel=0.05)

    def test_local_faster_than_default_for_big_params(
        self, measure_plans, cluster, vgg19, profiler
    ):
        plans = []
        for slot in range(4):
            vw = [node.gpus[slot] for node in cluster.nodes]
            plans.append(
                plan_virtual_worker(
                    vgg19, vw, 2, cluster.interconnect,
                    DEFAULT_CALIBRATION, profiler, search_orderings=False,
                )
            )
        local = measure_plans(vgg19, plans, placement="local", measured_waves=4)
        default = measure_plans(vgg19, plans, placement="default", measured_waves=4)
        assert local.throughput > default.throughput


class TestShardedPS:
    def test_shard_bytes_account_for_all_sync_traffic(
        self, build_runtime, resnet152, ed_plans
    ):
        """Every synchronized byte is attributed to exactly one shard
        slot: the per-slot ledgers must sum to the PS total exactly."""
        runtime = build_runtime(
            resnet152, ed_plans, shards=4, shard_placement="size_balanced"
        )
        runtime.start()
        runtime.run_until_global_version(3)
        assert len(runtime.ps.shard_bytes) == 4
        assert all(nbytes > 0 for nbytes in runtime.ps.shard_bytes)
        assert sum(runtime.ps.shard_bytes) == pytest.approx(
            runtime.ps.sync_bytes_total, rel=1e-12
        )

    def test_locality_aware_sharding_zero_cross_node_under_ed(
        self, measure_plans, resnet152, ed_plans
    ):
        """Locality-aware shards sit on the stage's own node under ED,
        so like 'local' placement the sync traffic never crosses nodes."""
        metrics = measure_plans(
            resnet152, ed_plans, shards=4, shard_placement="locality_aware",
            measured_waves=4,
        )
        assert metrics.sync_cross_node_bytes_per_wave == 0.0
        assert metrics.shards == 4
        assert metrics.shard_placement == "locality_aware"

    def test_invalid_shards_rejected(self):
        """The spec rejects a bad shard count before any runtime exists."""
        for shards in (0, True):
            with pytest.raises(SpecError, match="pipeline.shards must be an int >= 1"):
                PipelineSpec(nm=2, shards=shards)


class TestWaveAggregation:
    def test_per_minibatch_push_moves_more_bytes(self, measure_plans, resnet152, ed_plans):
        wave = measure_plans(resnet152, ed_plans, measured_waves=3)
        per_mb = measure_plans(
            resnet152, ed_plans, measured_waves=3, push_every_minibatch=True
        )
        assert per_mb.sync_cross_node_bytes_per_wave > wave.sync_cross_node_bytes_per_wave * 1.4

    def test_wave_aggregation_not_slower(self, measure_plans, resnet152, ed_plans):
        wave = measure_plans(resnet152, ed_plans, measured_waves=3)
        per_mb = measure_plans(
            resnet152, ed_plans, measured_waves=3, push_every_minibatch=True
        )
        assert wave.throughput >= per_mb.throughput * 0.98


class TestMetricsShape:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("arg", ["warmup_waves", "measured_waves"])
    def test_empty_window_is_a_spec_error(self, arg, value):
        """An empty measurement window is a spec error, raised before any
        runtime is built."""
        with pytest.raises(SpecError, match=f"pipeline.{arg} must be an int >= 1, got {value}"):
            PipelineSpec(nm=2, **{arg: value})

    def test_total_concurrent_minibatches(self, measure_plans, resnet152, ed_plans):
        metrics = measure_plans(resnet152, ed_plans, placement="local", measured_waves=3)
        assert (metrics.nm, metrics.num_virtual_workers) == (2, 4)

    def test_idle_fraction_bounded(self, measure_plans, resnet152, ed_plans):
        metrics = measure_plans(resnet152, ed_plans, placement="local", measured_waves=3)
        assert 0.0 <= metrics.idle_fraction_of_wait <= 1.0

    def test_per_vw_minibatches_positive(self, measure_plans, resnet152, ed_plans):
        metrics = measure_plans(resnet152, ed_plans, placement="local", measured_waves=3)
        assert all(done > 0 for done in metrics.per_vw_minibatches)
