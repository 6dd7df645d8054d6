"""Partitioner: DP optimality (vs branch-and-bound), memory feasibility,
ordering search, plan validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import GPU_BY_CODE, paper_cluster
from repro.cluster.gpu import GPUDevice
from repro.errors import ConfigurationError, PartitionError
from repro.models import build_vgg19
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.layers import LayerSpec
from repro.models.memory import gpu_usable_bytes, in_flight_at_stage, stage_memory_bytes
from repro.partition import (
    candidate_orderings,
    max_feasible_nm,
    plan_virtual_worker,
    solve_bnb,
    solve_boundaries,
)
from repro.partition.dp_solver import StageEvaluator
from repro.partition.spec import PartitionPlan, Stage
from repro.pipeline.variants.defs import WEIGHT_POLICIES


def _chain_model(flops, params=None, name="chain"):
    """A synthetic chain with given per-unit forward GFLOPs."""
    params = params or [1e6] * len(flops)
    layers = tuple(
        LayerSpec(
            name=f"l{i}",
            kind="conv",
            flops_fwd=f * 1e9,
            flops_bwd=2 * f * 1e9,
            param_bytes=p,
            output_bytes=1e6,
            stash_bytes=2e6,
        )
        for i, (f, p) in enumerate(zip(flops, params))
    )
    return ModelGraph(name=name, batch_size=32, input_bytes=1e6, layers=layers)


@pytest.fixture(scope="module")
def four_v(cluster):
    return cluster.gpus[0:4]


@pytest.fixture(scope="module")
def vrgq(cluster):
    return [cluster.gpus[0], cluster.gpus[4], cluster.gpus[8], cluster.gpus[12]]


class TestDPOptimality:
    def test_dp_matches_bnb_on_vgg(self, vgg19, cluster, four_v):
        evaluator = StageEvaluator(vgg19, four_v, 2, cluster.interconnect)
        dp_bounds = solve_boundaries(evaluator)
        bnb_bounds, bnb_best = solve_bnb(evaluator)
        assert dp_bounds is not None and bnb_bounds is not None
        dp_max = max(
            evaluator.evaluate(dp_bounds[s], dp_bounds[s + 1], s).period for s in range(4)
        )
        assert dp_max == pytest.approx(bnb_best)

    def test_dp_matches_bnb_heterogeneous(self, resnet152, cluster, vrgq):
        evaluator = StageEvaluator(resnet152, vrgq, 3, cluster.interconnect)
        dp_bounds = solve_boundaries(evaluator)
        bnb_bounds, bnb_best = solve_bnb(evaluator)
        dp_max = max(
            evaluator.evaluate(dp_bounds[s], dp_bounds[s + 1], s).period for s in range(4)
        )
        assert dp_max == pytest.approx(bnb_best)

    @settings(max_examples=30, deadline=None)
    @given(
        flops=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=4, max_size=14),
        nm=st.integers(min_value=1, max_value=4),
    )
    def test_property_dp_equals_bnb_on_random_chains(self, flops, nm):
        model = _chain_model(flops)
        cluster = paper_cluster()
        gpus = [cluster.gpus[0], cluster.gpus[4], cluster.gpus[8], cluster.gpus[12]]
        evaluator = StageEvaluator(model, gpus, nm, cluster.interconnect)
        dp_bounds = solve_boundaries(evaluator)
        bnb_bounds, bnb_best = solve_bnb(evaluator)
        assert (dp_bounds is None) == (bnb_bounds is None)
        if dp_bounds is not None:
            dp_max = max(
                evaluator.evaluate(dp_bounds[s], dp_bounds[s + 1], s).period
                for s in range(4)
            )
            assert dp_max == pytest.approx(bnb_best)

    def test_too_few_layers_infeasible(self, cluster, four_v):
        model = _chain_model([1.0, 2.0])  # 2 layers, 4 GPUs
        evaluator = StageEvaluator(model, four_v, 1, cluster.interconnect)
        assert solve_boundaries(evaluator) is None
        assert solve_bnb(evaluator)[0] is None


def _reference_dp(evaluator):
    """The DP over (max period, total period) tuples, scoring every
    candidate stage with the public ``StageEvaluator.evaluate``."""
    k, length = evaluator.k, evaluator.num_layers
    if length < k:
        return None
    inf = float("inf")
    dp = [[(inf, inf)] * (length + 1) for _ in range(k)]
    choice = [[-1] * (length + 1) for _ in range(k)]
    for j in range(1, length - k + 2):
        ev = evaluator.evaluate(0, j, 0)
        if ev.feasible:
            dp[0][j] = (ev.period, ev.period)
            choice[0][j] = 0
    for s in range(1, k):
        for j in range(s + 1, length - (k - 1 - s) + 1):
            for i in range(s, j):
                prev = dp[s - 1][i]
                if prev[0] == inf:
                    continue
                ev = evaluator.evaluate(i, j, s)
                if not ev.feasible:
                    continue
                cand = (max(prev[0], ev.period), prev[1] + ev.period)
                if cand < dp[s][j]:
                    dp[s][j] = cand
                    choice[s][j] = i
    if dp[k - 1][length][0] == inf:
        return None
    boundaries = [length]
    for s in range(k - 1, -1, -1):
        boundaries.append(choice[s][boundaries[-1]])
    return boundaries[::-1]


_byte_counts = st.floats(min_value=0.0, max_value=2e9, allow_nan=False)
_RECOMPUTE = DEFAULT_CALIBRATION.with_overrides(activation_recompute=True)


@st.composite
def _random_chains(draw):
    """Chains whose random byte counts make memory feasibility bite."""
    size = draw(st.integers(min_value=1, max_value=12))
    layers = tuple(
        LayerSpec(
            name=f"l{i}",
            kind=draw(st.sampled_from(["conv", "fc", "pool"])),
            flops_fwd=draw(st.floats(min_value=0.0, max_value=5e10)),
            flops_bwd=draw(st.floats(min_value=0.0, max_value=1e11)),
            param_bytes=draw(_byte_counts),
            output_bytes=draw(st.floats(min_value=0.0, max_value=5e8)),
            stash_bytes=draw(_byte_counts),
            workspace_bytes=draw(_byte_counts),
        )
        for i in range(size)
    )
    return ModelGraph(name="random", batch_size=32, input_bytes=1e6, layers=layers)


class TestTableDrivenDP:
    """The table-driven DP against a reference scored by ``evaluate``,
    and every table entry against the memory and link models, compared
    bit for bit (``==``, never ``approx``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        model=_random_chains(),
        order=st.permutations(range(16)),
        k=st.integers(min_value=1, max_value=6),
        nm=st.integers(min_value=1, max_value=8),
        weight_policy=st.sampled_from(WEIGHT_POLICIES),
        calibration=st.sampled_from([DEFAULT_CALIBRATION, _RECOMPUTE]),
    )
    def test_property_dp_equals_reference_exactly(
        self, model, order, k, nm, weight_policy, calibration
    ):
        cluster = paper_cluster()
        gpus = [cluster.gpus[i] for i in order[:k]]
        evaluator = StageEvaluator(
            model, gpus, nm, cluster.interconnect, calibration,
            weight_policy=weight_policy,
        )
        assert solve_boundaries(evaluator) == _reference_dp(evaluator)

        for s, gpu in enumerate(gpus):
            in_flight = in_flight_at_stage(nm, s)
            usable = gpu_usable_bytes(gpu.spec, calibration)
            fwd_prefix = evaluator._profiles[s].fwd_prefix
            bwd_prefix = evaluator._profiles[s].bwd_prefix
            for stop in range(1, len(model) + 1):
                for start in range(stop):
                    ev = evaluator.evaluate(start, stop, s)
                    memory = stage_memory_bytes(
                        model.layers[start:stop], in_flight, calibration, weight_policy
                    )
                    fwd_comm = bwd_comm = 0.0
                    if s > 0:
                        fwd_comm = cluster.interconnect.transfer_time(
                            model.boundary_bytes(start - 1), gpus[s - 1], gpu
                        )
                    if s < k - 1:
                        bwd_comm = cluster.interconnect.transfer_time(
                            model.boundary_bytes(stop - 1), gpus[s + 1], gpu
                        )
                    # the expression solve_boundaries reads from the tables
                    period = (
                        fwd_prefix[stop] - fwd_prefix[start]
                        + (bwd_prefix[stop] - bwd_prefix[start])
                        + evaluator._fwd_comm[s][start]
                        + evaluator._bwd_comm[s][stop]
                    )
                    assert evaluator._memory[s][stop][start] == memory
                    assert ev.memory_bytes == memory
                    assert ev.feasible == (memory <= usable)
                    assert (ev.fwd_comm_in, ev.bwd_comm_in) == (fwd_comm, bwd_comm)
                    assert ev.period == period

    @pytest.mark.parametrize("model_name", ["vgg19", "resnet152"])
    @pytest.mark.parametrize("weight_policy", WEIGHT_POLICIES)
    def test_paper_models_match_reference(self, request, model_name, weight_policy, cluster):
        model = request.getfixturevalue(model_name)
        gpus = [cluster.gpus[i] for i in (12, 1, 8, 5, 0, 13)]
        for nm in (1, 4, 8):
            evaluator = StageEvaluator(
                model, gpus, nm, cluster.interconnect, weight_policy=weight_policy
            )
            assert solve_boundaries(evaluator) == _reference_dp(evaluator)


class TestPlanner:
    def test_plan_tiles_all_layers(self, vvvv_plan, vgg19):
        assert vvvv_plan.num_layers == len(vgg19)
        assert vvvv_plan.stages[0].start == 0
        assert vvvv_plan.stages[-1].stop == len(vgg19)

    def test_plan_respects_memory(self, vvvv_plan):
        from repro.models.memory import gpu_usable_bytes

        for stage in vvvv_plan.stages:
            assert stage.memory_bytes <= gpu_usable_bytes(stage.gpu.spec)

    def test_balanced_homogeneous_periods(self, vvvv_plan):
        periods = [s.period for s in vvvv_plan.stages]
        assert max(periods) < 2.2 * min(periods)

    def test_heterogeneous_fast_gpu_gets_more_work(self, ed_plan):
        """The V stage should carry more compute than the Q stage."""
        by_code = {s.gpu.code: s for s in ed_plan.stages}
        v_time = by_code["V"].fwd_compute + by_code["V"].bwd_compute
        q_time = by_code["Q"].fwd_compute + by_code["Q"].bwd_compute
        v_rate = by_code["V"].gpu.spec.effective_flops
        q_rate = by_code["Q"].gpu.spec.effective_flops
        # compute *time* is balanced, so work follows rate
        assert v_time * v_rate > q_time * q_rate

    def test_empty_vw_rejected(self, vgg19, cluster):
        with pytest.raises(PartitionError):
            plan_virtual_worker(vgg19, [], 1, cluster.interconnect)

    def test_infeasible_raises(self, cluster):
        # a model whose single unit cannot fit any GPU
        huge = LayerSpec("huge", "conv", 1e9, 2e9, 1e12, 1e6, 1e6)
        tiny = LayerSpec("tiny", "conv", 1e9, 2e9, 1e3, 1e6, 1e6)
        model = ModelGraph(name="huge", batch_size=32, input_bytes=1e6, layers=(huge, tiny))
        with pytest.raises(PartitionError):
            plan_virtual_worker(model, cluster.gpus[0:2], 1, cluster.interconnect)

    def test_nm1_equals_naive_model_parallelism(self, cluster, vgg19, profiler):
        plan = plan_virtual_worker(
            vgg19, cluster.gpus[0:4], 1, cluster.interconnect,
            DEFAULT_CALIBRATION, profiler, search_orderings=False,
        )
        assert plan.nm == 1
        assert plan.serial_latency >= plan.bottleneck_period

    def test_search_orderings_never_worse(self, resnet152, cluster, vrgq, profiler):
        natural = plan_virtual_worker(
            resnet152, vrgq, 4, cluster.interconnect,
            DEFAULT_CALIBRATION, profiler, search_orderings=False,
        )
        searched = plan_virtual_worker(
            resnet152, vrgq, 4, cluster.interconnect,
            DEFAULT_CALIBRATION, profiler, search_orderings=True,
        )
        assert searched.bottleneck_period <= natural.bottleneck_period + 1e-12

    def test_max_feasible_nm_positive_for_paper_configs(self, vgg19, cluster, four_v):
        assert max_feasible_nm(vgg19, four_v, cluster.interconnect) >= 2

    def test_max_feasible_nm_zero_when_infeasible(self, cluster):
        huge = LayerSpec("huge", "conv", 1e9, 2e9, 1e12, 1e6, 1e6)
        tiny = LayerSpec("tiny", "conv", 1e9, 2e9, 1e3, 1e6, 1e6)
        model = ModelGraph(name="huge", batch_size=32, input_bytes=1e6, layers=(huge, tiny))
        assert max_feasible_nm(model, cluster.gpus[0:2], cluster.interconnect) == 0

    def test_deterministic(self, resnet152, cluster, vrgq, profiler):
        a = plan_virtual_worker(resnet152, vrgq, 3, cluster.interconnect, DEFAULT_CALIBRATION, profiler)
        b = plan_virtual_worker(resnet152, vrgq, 3, cluster.interconnect, DEFAULT_CALIBRATION, profiler)
        assert [(s.start, s.stop, s.gpu.gpu_id) for s in a.stages] == [
            (s.start, s.stop, s.gpu.gpu_id) for s in b.stages
        ]


class TestOrderings:
    def test_homogeneous_yields_one(self, cluster):
        orderings = list(candidate_orderings(cluster.gpus[0:4]))
        assert len(orderings) == 1

    def test_vvqq_yields_six(self, cluster):
        gpus = [cluster.gpus[0], cluster.gpus[1], cluster.gpus[12], cluster.gpus[13]]
        assert len(list(candidate_orderings(gpus))) == 6

    def test_fully_heterogeneous_yields_factorial(self, cluster, vrgq):
        assert len(list(candidate_orderings(vrgq))) == 24

    def test_max_orderings_cap(self, cluster, vrgq):
        assert len(list(candidate_orderings(vrgq, max_orderings=5))) == 5


class TestPlanValidation:
    def test_stage_gap_rejected(self, vvvv_plan):
        stages = list(vvvv_plan.stages)
        bad = Stage(
            index=1, start=stages[1].start + 1, stop=stages[1].stop,
            gpu=stages[1].gpu, fwd_compute=1, bwd_compute=1,
            fwd_comm_in=0, bwd_comm_in=0, memory_bytes=1, in_flight=1,
            param_bytes=1, activation_in_bytes=1,
        )
        with pytest.raises(ConfigurationError):
            PartitionPlan(model_name="x", nm=1, stages=(stages[0], bad, *stages[2:]))

    def test_empty_stage_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            Stage(
                index=0, start=3, stop=3, gpu=cluster.gpus[0],
                fwd_compute=1, bwd_compute=1, fwd_comm_in=0, bwd_comm_in=0,
                memory_bytes=1, in_flight=1, param_bytes=1, activation_in_bytes=1,
            )

    def test_bad_nm_rejected(self, vvvv_plan):
        with pytest.raises(ConfigurationError):
            PartitionPlan(model_name="x", nm=0, stages=vvvv_plan.stages)

    def test_describe_mentions_stages(self, vvvv_plan):
        text = vvvv_plan.describe()
        assert "stage0" in text and "Nm=4" in text

    def test_plan_param_bytes_total(self, vvvv_plan, vgg19):
        assert sum(s.param_bytes for s in vvvv_plan.stages) == pytest.approx(
            vgg19.param_bytes
        )
