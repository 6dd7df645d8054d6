"""Extensions beyond the paper's core: 1F1B dispatch and activation
recomputation."""

import pytest

from repro.cluster import paper_cluster
from repro.errors import SimulationError
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.partition import max_feasible_nm, plan_virtual_worker
from repro.pipeline import OneFOneBPipeline, measure_pipeline
from repro.pipeline.tasks import CountingGate
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim import Simulator


class TestOneFOneB:
    def test_completes_all_minibatches(self, vvvv_plan, cluster):
        sim = Simulator()
        pipeline = OneFOneBPipeline(sim, vvvv_plan, cluster.interconnect, limit=20)
        pipeline.start()
        sim.run_until_idle()
        assert pipeline.completed == 20
        assert sorted(pipeline.done_times) == list(range(1, 21))

    def test_completions_in_order(self, vvvv_plan, cluster):
        sim = Simulator()
        pipeline = OneFOneBPipeline(sim, vvvv_plan, cluster.interconnect, limit=15)
        pipeline.start()
        sim.run_until_idle()
        times = [pipeline.done_times[p] for p in range(1, 16)]
        assert times == sorted(times)

    def test_double_start_rejected(self, vvvv_plan, cluster):
        sim = Simulator()
        pipeline = OneFOneBPipeline(sim, vvvv_plan, cluster.interconnect, limit=5)
        pipeline.start()
        with pytest.raises(SimulationError):
            pipeline.start()

    @pytest.mark.parametrize(
        ("nm", "expected"), [(2, [2, 2, 2, 1]), (4, [4, 4, 4, 1]), (6, [6, 6, 4, 1])]
    )
    def test_backward_first_bounds_stashed_activations(
        self, nm, expected, vgg19, cluster, profiler
    ):
        """1F1B drains a ready backward before the next forward, so no
        stage stashes more activations than under FIFO dispatch — and
        at Nm=6 the third stage stashes strictly fewer."""
        plan = plan_virtual_worker(
            vgg19, cluster.gpus[0:4], nm, cluster.interconnect,
            DEFAULT_CALIBRATION, profiler, search_orderings=False,
        )
        peaks = []
        for pipeline in (
            OneFOneBPipeline(Simulator(), plan, cluster.interconnect, limit=40),
            VirtualWorkerPipeline(Simulator(), plan, cluster.interconnect, gate=CountingGate(40)),
        ):
            pipeline.start()
            pipeline.sim.run_until_idle()
            assert pipeline.completed == 40
            peaks.append(pipeline.peak_in_flight())
        one_f, fifo = peaks
        assert one_f == expected
        assert all(a <= b for a, b in zip(one_f, fifo))

    def test_throughput_close_to_fifo_on_balanced_plan(self, vvvv_plan, cluster):
        """On a balanced homogeneous partition, 1F1B and FIFO dispatch
        should deliver comparable steady-state throughput (PipeDream's
        gain is memory discipline, not raw rate)."""
        fifo = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=30
        ).throughput
        one_f = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=30,
            pipeline=OneFOneBPipeline,
        ).throughput
        assert one_f == pytest.approx(fifo, rel=0.15)

    def test_heterogeneous_plan(self, ed_plan, cluster):
        rate = measure_pipeline(
            ed_plan, cluster.interconnect, 32, measured_minibatches=20,
            pipeline=OneFOneBPipeline,
        ).throughput
        assert rate > 0


class TestActivationRecompute:
    def test_recompute_raises_maxm(self, resnet152, cluster):
        vw = cluster.gpus[8:12]  # the 6-GB G node — memory-starved
        base = max_feasible_nm(
            resnet152, vw, cluster.interconnect, DEFAULT_CALIBRATION,
            search_orderings=False,
        )
        recompute = max_feasible_nm(
            resnet152, vw, cluster.interconnect,
            DEFAULT_CALIBRATION.with_overrides(activation_recompute=True),
            search_orderings=False,
        )
        assert recompute > base

    def test_recompute_slows_backward(self, resnet152, cluster):
        from repro.models.profiler import Profiler

        base = Profiler(DEFAULT_CALIBRATION)
        recompute = Profiler(DEFAULT_CALIBRATION.with_overrides(activation_recompute=True))
        spec = cluster.gpus[0].spec
        t_base = base.serial_minibatch_time(resnet152, spec)
        t_recompute = recompute.serial_minibatch_time(resnet152, spec)
        # backward re-runs forward: total grows by roughly the fwd share
        assert t_recompute > 1.2 * t_base

    def test_recompute_shrinks_stage_memory(self, resnet152):
        from repro.models.memory import stage_memory_bytes

        layers = resnet152.layers[:10]
        base = stage_memory_bytes(layers, 4, DEFAULT_CALIBRATION)
        small = stage_memory_bytes(
            layers, 4, DEFAULT_CALIBRATION.with_overrides(activation_recompute=True)
        )
        assert small < base
