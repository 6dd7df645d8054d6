"""Plan-cache correctness: memoized boundaries == fresh DP/BnB solves."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import paper_cluster
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.layers import LayerSpec
from repro.partition import (
    clear_plan_cache,
    plan_cache_stats,
    plan_virtual_worker,
    solve_bnb,
)
from repro.partition import dp_solver
from repro.partition.dp_solver import StageEvaluator, solve_boundaries
from repro.scenarios import generate_scenario


def _chain_model(flops, name="chain"):
    layers = tuple(
        LayerSpec(
            name=f"l{i}",
            kind="conv",
            flops_fwd=f * 1e9,
            flops_bwd=2 * f * 1e9,
            param_bytes=1e6,
            output_bytes=1e6,
            stash_bytes=2e6,
        )
        for i, f in enumerate(flops)
    )
    return ModelGraph(name=name, batch_size=32, input_bytes=1e6, layers=layers)


@given(
    flops=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=4, max_size=12),
    nm=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_cached_plan_identical_to_fresh_dp_and_bnb(flops, nm):
    """A warm-cache plan equals a cold solve, which equals BnB's optimum."""
    cluster = paper_cluster()
    model = _chain_model(flops)
    gpus = cluster.gpus[0:4]

    clear_plan_cache()
    cold = plan_virtual_worker(
        model, gpus, nm, cluster.interconnect, search_orderings=False
    )
    hits0, misses0, _ = plan_cache_stats()
    warm = plan_virtual_worker(
        model, gpus, nm, cluster.interconnect, search_orderings=False
    )
    hits1, misses1, _ = plan_cache_stats()
    assert (hits1, misses1) == (hits0 + 1, misses0), "second solve must hit"
    assert warm == cold

    # Fresh DP (no cache layer at all) and the independent BnB optimizer
    # agree with the cached result.
    evaluator = StageEvaluator(model, gpus, nm, cluster.interconnect, DEFAULT_CALIBRATION)
    boundaries = solve_boundaries(evaluator)
    assert boundaries is not None
    assert [s.start for s in cold.stages] + [cold.stages[-1].stop] == boundaries
    bnb_boundaries, bnb_best = solve_bnb(evaluator)
    assert bnb_boundaries is not None
    # DP and BnB accumulate stage periods in different orders, so agree
    # only to rounding (same tolerance the partitioner suite uses).
    assert cold.bottleneck_period == pytest.approx(bnb_best)


def test_cache_distinguishes_nm():
    """Plans at different depths must not alias in the cache."""
    cluster = paper_cluster()
    model = _chain_model([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    gpus = cluster.gpus[0:4]
    clear_plan_cache()
    plan1 = plan_virtual_worker(model, gpus, 1, cluster.interconnect, search_orderings=False)
    plan4 = plan_virtual_worker(model, gpus, 4, cluster.interconnect, search_orderings=False)
    assert plan1.nm == 1 and plan4.nm == 4
    assert plan1.stages[0].in_flight != plan4.stages[0].in_flight


def test_equal_ed_workers_share_boundaries_but_keep_their_gpus():
    """ED hands every worker the same GPU mix: one solve, N plans, each
    plan still carrying its own devices."""
    scenario = generate_scenario(1)
    plans = scenario.plans
    if len(plans) < 2:
        return  # the drawn scenario has a single worker; nothing to share
    for plan in plans[1:]:
        if [s.gpu.spec.code for s in plan.stages] == [
            s.gpu.spec.code for s in plans[0].stages
        ]:
            assert [(s.start, s.stop) for s in plan.stages] == [
                (s.start, s.stop) for s in plans[0].stages
            ]
    gpu_ids = [tuple(s.gpu.gpu_id for s in plan.stages) for plan in plans]
    assert len(set(gpu_ids)) == len(gpu_ids), "plans must keep distinct devices"


def test_solves_after_clear_match_cached_plans(vgg19, resnet152):
    """clear_plan_cache drops the boundaries and the solver's per-model
    tables; planning from cold then reproduces the warm plans exactly."""
    cluster = paper_cluster()
    gpus = [cluster.gpus[i] for i in (0, 5, 10, 15)]
    cases = [(model, nm) for model in (vgg19, resnet152) for nm in (1, 3)]

    def plan_all():
        return [
            plan_virtual_worker(model, gpus, nm, cluster.interconnect)
            for model, nm in cases
        ]

    clear_plan_cache()
    cold = plan_all()
    warm = plan_all()
    hits, misses, _ = plan_cache_stats()
    assert hits == misses > 0, "the warm pass must hit every solve the cold pass made"
    assert warm == cold

    clear_plan_cache()
    assert plan_cache_stats() == (0, 0, 0)
    assert not dp_solver._table_cache
    assert plan_all() == cold


def test_stage_table_cache_is_bounded():
    """A fresh model per scenario (as fuzz builds them) must not grow
    the per-model table cache past its bound."""
    cluster = paper_cluster()
    gpus = cluster.gpus[0:2]
    clear_plan_cache()
    for n in range(dp_solver._TABLE_CACHE_MAX * 3):
        model = _chain_model([1.0 + n, 2.0, 3.0, 4.0])
        evaluator = StageEvaluator(model, gpus, 2, cluster.interconnect)
        assert solve_boundaries(evaluator) is not None
        assert len(dp_solver._table_cache) <= dp_solver._TABLE_CACHE_MAX
        assert dp_solver._table_cache[id(model)].model is model
    assert len(dp_solver._table_cache) == dp_solver._TABLE_CACHE_MAX


def test_stage_tables_never_served_for_another_model():
    """The table cache is keyed on id(model); an entry under a model's
    id that belongs to another model (a reused id) must be rebuilt."""
    cluster = paper_cluster()
    gpus = cluster.gpus[0:2]
    big = _chain_model([1.0, 2.0, 3.0, 4.0, 5.0], name="big")
    small = _chain_model([1.0, 2.0, 3.0], name="small")
    clear_plan_cache()
    StageEvaluator(big, gpus, 2, cluster.interconnect)
    dp_solver._table_cache[id(small)] = dp_solver._table_cache.pop(id(big))
    planted = solve_boundaries(StageEvaluator(small, gpus, 2, cluster.interconnect))
    assert dp_solver._table_cache[id(small)].model is small
    clear_plan_cache()
    assert planted == solve_boundaries(StageEvaluator(small, gpus, 2, cluster.interconnect))
