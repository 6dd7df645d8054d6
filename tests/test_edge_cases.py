"""Edge cases and failure injection across the stack."""

import pytest

from repro import (
    build_resnet50,
    build_vgg19,
    paper_cluster,
    plan_virtual_worker,
)
from repro.errors import SimulationError
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.pipeline import measure_pipeline
from repro.pipeline.tasks import CountingGate
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim import Simulator


class TestSingleStagePipeline:
    """k=1: a virtual worker of one GPU degenerates to plain training."""

    @pytest.fixture(scope="class")
    def plan(self):
        cluster = paper_cluster()
        model = build_resnet50()
        return plan_virtual_worker(
            model, cluster.gpus[4:5], 2, cluster.interconnect, search_orderings=False
        )

    def test_plan_shape(self, plan):
        assert plan.k == 1
        assert plan.stages[0].fwd_comm_in == 0.0
        assert plan.stages[0].bwd_comm_in == 0.0

    def test_pipeline_runs(self, plan):
        cluster = paper_cluster()
        metrics = measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=10)
        assert metrics.throughput > 0
        assert metrics.cross_node_bytes_per_minibatch == 0.0

    def test_throughput_matches_serial_rate(self, plan):
        """One fused stage: rate = 1 / (fwd + bwd), regardless of Nm."""
        cluster = paper_cluster()
        metrics = measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=10)
        expected = 1.0 / (plan.stages[0].fwd_compute + plan.stages[0].bwd_compute)
        assert metrics.minibatch_rate == pytest.approx(expected, rel=0.05)


class TestTwoStagePipeline:
    def test_two_gpu_virtual_worker(self):
        cluster = paper_cluster()
        model = build_vgg19()
        plan = plan_virtual_worker(
            model, [cluster.gpus[0], cluster.gpus[4]], 2, cluster.interconnect,
            search_orderings=False,
        )
        assert plan.k == 2
        metrics = measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=10)
        assert metrics.throughput > 0


class TestDeadlockDetection:
    def test_runtime_detects_quiesce(self, build_runtime):
        """A runtime whose pipelines never start must report a deadlock
        instead of spinning."""
        cluster = paper_cluster()
        model = build_vgg19()
        plans = [
            plan_virtual_worker(
                model, [node.gpus[slot] for node in cluster.nodes], 2,
                cluster.interconnect, search_orderings=False,
            )
            for slot in range(2)
        ]
        runtime = build_runtime(model, plans)
        # never call runtime.start()
        with pytest.raises(SimulationError, match="deadlock|quiesced"):
            runtime.run_until_global_version(0)


class TestGateExhaustion:
    def test_pipeline_idles_when_gate_closes(self):
        cluster = paper_cluster()
        model = build_vgg19()
        plan = plan_virtual_worker(
            model, cluster.gpus[0:4], 3, cluster.interconnect, search_orderings=False
        )
        sim = Simulator()
        pipeline = VirtualWorkerPipeline(
            sim, plan, cluster.interconnect, gate=CountingGate(limit=5)
        )
        pipeline.start()
        sim.run_until_idle()
        assert pipeline.completed == 5
        assert pipeline.active == 0


class TestBatchScaling:
    def test_throughput_in_images_grows_with_batch(self):
        """Bigger minibatches amortize per-kernel overhead: images/s at
        batch 64 must exceed images/s at batch 16 on the same pipe."""
        cluster = paper_cluster()
        rates = {}
        for batch in (16, 64):
            model = build_vgg19(batch_size=batch)
            plan = plan_virtual_worker(
                model, cluster.gpus[0:4], 2, cluster.interconnect, search_orderings=False
            )
            rates[batch] = measure_pipeline(
                plan, cluster.interconnect, batch, measured_minibatches=10
            ).throughput
        assert rates[64] > rates[16]

    def test_memory_forces_smaller_nm_at_big_batch(self):
        from repro.partition import max_feasible_nm

        cluster = paper_cluster()
        small = build_vgg19(batch_size=16)
        big = build_vgg19(batch_size=128)
        nm_small = max_feasible_nm(small, cluster.gpus[0:4], cluster.interconnect, search_orderings=False)
        nm_big = max_feasible_nm(big, cluster.gpus[0:4], cluster.interconnect, search_orderings=False)
        assert nm_big < nm_small


class TestCalibrationSensitivity:
    def test_slower_interconnect_lowers_throughput_of_fixed_plan(self):
        """With the *same* partition, slower links cannot help.  (The
        planner itself adapts cut points to the fabric, so re-planning
        per fabric can legitimately invert measured throughput.)"""
        from repro.cluster import InterconnectSpec

        model = build_vgg19()
        fast_cluster = paper_cluster(interconnect=InterconnectSpec(ib_scale=0.5))
        vw = [fast_cluster.gpus[0], fast_cluster.gpus[4], fast_cluster.gpus[8], fast_cluster.gpus[12]]
        plan = plan_virtual_worker(
            model, vw, 2, fast_cluster.interconnect, search_orderings=False
        )
        fast = measure_pipeline(plan, fast_cluster.interconnect, 32, measured_minibatches=10).throughput
        slow_ic = InterconnectSpec(ib_scale=0.05)
        slow = measure_pipeline(plan, slow_ic, 32, measured_minibatches=10).throughput
        assert slow < fast

    def test_memory_knob_changes_feasibility(self):
        from repro.models.memory import model_fits_single_gpu
        from repro.cluster import QUADRO_P4000
        from repro.models import build_resnet152

        model = build_resnet152()
        tight = DEFAULT_CALIBRATION.with_overrides(activation_stash_factor=1.5)
        assert model_fits_single_gpu(model.layers, QUADRO_P4000, DEFAULT_CALIBRATION)
        assert not model_fits_single_gpu(model.layers, QUADRO_P4000, tight)
