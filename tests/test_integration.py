"""End-to-end scenarios a downstream user would run.

Each test tells one complete story through the public API, the way the
examples do — cluster in, measured numbers out — and asserts the
paper's qualitative claims hold on arbitrary (non-paper) configurations
too.
"""

import pytest

from repro import (
    ClusterSpec,
    MemoryCapacityError,
    ModelSpec,
    PipelineSpec,
    RunSpec,
    allocate,
    build_resnet50,
    build_resnet152,
    build_vgg19,
    max_feasible_nm,
    measure_horovod,
    measure_pipeline,
    measure_run,
    paper_cluster,
    plan_virtual_worker,
    single_type_cluster,
)


class TestQuickstartStory:
    """The README quickstart, as a test."""

    def test_full_flow(self):
        cluster = paper_cluster()
        model = build_vgg19()
        assignment = allocate(cluster, "ED")
        plans = [
            plan_virtual_worker(
                model, vw, 3, cluster.interconnect, search_orderings=False
            )
            for vw in assignment.virtual_workers
        ]
        run = RunSpec(
            model=ModelSpec("vgg19"),
            pipeline=PipelineSpec(nm=3, placement="local", measured_waves=3),
        )
        metrics = measure_run(run, cluster=cluster, model=model, plans=plans)
        horovod = measure_horovod(cluster, model)
        assert metrics.throughput > 0
        assert horovod.throughput > 0


class TestWhimpyEnablementStory:
    """The paper's core promise: GPUs that cannot train a model alone
    can train it together."""

    def test_resnet_on_pure_whimpy_cluster(self):
        """Four RTX 2060s: individually too small for ResNet-152, but a
        4-GPU virtual worker trains it."""
        cluster = single_type_cluster("G")
        model = build_resnet152()
        with pytest.raises(MemoryCapacityError):
            measure_horovod(cluster, model)
        plan = plan_virtual_worker(
            model, cluster.gpus, 2, cluster.interconnect, search_orderings=False
        )
        metrics = measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=12)
        assert metrics.throughput > 0

    def test_pipeline_competitive_even_for_small_models(self):
        """ResNet-50 fits every GPU, so DP is possible — yet a saturated
        4-stage pipeline over the same node is competitive because the
        achieved allreduce bandwidth (fitted to the paper's own Horovod
        rows) makes gradient exchange expensive.  This is exactly the
        regime HetPipe exploits."""
        cluster = paper_cluster("V")
        model = build_resnet50()
        horovod = measure_horovod(cluster, model)
        plan = plan_virtual_worker(
            model, cluster.gpus, 4, cluster.interconnect, search_orderings=False
        )
        pipeline = measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=20)
        assert pipeline.throughput > 0.8 * horovod.throughput


class TestScalingStory:
    def test_two_node_cluster_hetpipe(self):
        cluster = paper_cluster("VQ")
        model = build_resnet152()
        assignment = allocate(cluster, "ED")
        assert assignment.codes() == ["VQ"] * 4
        nm = min(
            max_feasible_nm(model, vw, cluster.interconnect, search_orderings=False)
            for vw in assignment.virtual_workers
        )
        assert nm >= 1
        plans = [
            plan_virtual_worker(model, vw, nm, cluster.interconnect, search_orderings=False)
            for vw in assignment.virtual_workers
        ]
        run = RunSpec(
            cluster=ClusterSpec("VQ"),
            model=ModelSpec("resnet152"),
            pipeline=PipelineSpec(nm=nm, d=1, placement="local", measured_waves=3),
        )
        metrics = measure_run(run, cluster=cluster, model=model, plans=plans)
        assert metrics.throughput > 0

    def test_eight_gpu_virtual_worker(self):
        """k is not hard-wired to 4: one virtual worker over 8 GPUs."""
        cluster = paper_cluster("VQ")
        model = build_vgg19()
        plan = plan_virtual_worker(
            model, cluster.gpus, 2, cluster.interconnect, search_orderings=False
        )
        assert plan.k == 8
        metrics = measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=12)
        assert metrics.throughput > 0


class TestConvergenceStory:
    def test_wsp_and_bsp_reach_similar_accuracy(self):
        """Same model, same data: WSP's staleness must not break
        learning relative to BSP (§6's point, empirically)."""
        from repro.training import (
            BSPTrainer,
            BSPTrainingConfig,
            WSPTrainer,
            WSPTrainingConfig,
        )
        from repro.training.nn import make_classification

        dataset = make_classification(samples=4000)
        dims = [dataset.feature_dim, 32, dataset.num_classes]
        wsp = WSPTrainer(
            WSPTrainingConfig(
                num_virtual_workers=4, nm=4, d=1, lr=0.02,
                minibatch_interval=(1.0,) * 4, seed=3,
            ),
            dataset, dims,
        )
        bsp = BSPTrainer(
            BSPTrainingConfig(num_workers=16, iteration_time=1.0, lr=0.02, seed=3),
            dataset, dims,
        )
        wsp_curve = wsp.train(max_minibatches=4000, eval_every=2000)
        bsp_curve = bsp.train(max_minibatches=4000, eval_every=2000)
        assert abs(wsp_curve[-1][2] - bsp_curve[-1][2]) < 0.08
