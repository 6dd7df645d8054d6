"""Pipeline engine: §4 scheduling conditions, staleness ledger, metrics."""

import pytest

from repro.errors import SpecError, StalenessViolation
from repro.models.memory import in_flight_at_stage
from repro.pipeline import OneFOneBPipeline, measure_pipeline, wave_minibatches, wave_of
from repro.pipeline.tasks import CountingGate, OpenGate
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim import Simulator, Trace


def run_pipeline(plan, interconnect, total=30, jitter=0.0):
    """Run ``total`` minibatches through a fresh pipeline; return (pipeline, trace)."""
    sim = Simulator()
    trace = Trace()
    pipeline = VirtualWorkerPipeline(
        sim, plan, interconnect, gate=CountingGate(limit=total), trace=trace, jitter=jitter,
    )
    pipeline.start()
    sim.run_until_idle()
    assert pipeline.completed == total
    return pipeline, trace


class TestWaveArithmetic:
    def test_wave_of(self):
        assert [wave_of(p, 4) for p in (1, 4, 5, 8, 9)] == [0, 0, 1, 1, 2]

    def test_wave_minibatches(self):
        assert list(wave_minibatches(0, 4)) == [1, 2, 3, 4]
        assert list(wave_minibatches(2, 3)) == [7, 8, 9]

    def test_roundtrip(self):
        for nm in (1, 3, 5):
            for wave in range(4):
                for p in wave_minibatches(wave, nm):
                    assert wave_of(p, nm) == wave


class TestSchedulingConditions:
    def test_forwards_in_minibatch_order_per_stage(self, vvvv_plan, cluster):
        _, trace = run_pipeline(vvvv_plan, cluster.interconnect)
        for s in range(vvvv_plan.k - 1):
            done = [r.detail["minibatch"] for r in trace.filter("f_done", f"vw0.s{s}")]
            assert done == sorted(done)

    def test_backwards_in_minibatch_order_per_stage(self, vvvv_plan, cluster):
        _, trace = run_pipeline(vvvv_plan, cluster.interconnect)
        for s in range(vvvv_plan.k - 1):
            done = [r.detail["minibatch"] for r in trace.filter("b_done", f"vw0.s{s}")]
            assert done == sorted(done)

    def test_last_stage_runs_fused_tasks(self, vvvv_plan, cluster):
        _, trace = run_pipeline(vvvv_plan, cluster.interconnect)
        last = vvvv_plan.k - 1
        assert len(trace.filter("fb_done", f"vw0.s{last}")) == 30
        assert not trace.filter("f_done", f"vw0.s{last}")

    def test_completions_in_order(self, vvvv_plan, cluster):
        _, trace = run_pipeline(vvvv_plan, cluster.interconnect)
        done = [r.detail["minibatch"] for r in trace.filter("minibatch_done")]
        assert done == list(range(1, 31))

    def test_admission_bounded_by_nm(self, vvvv_plan, cluster):
        pipeline, trace = run_pipeline(vvvv_plan, cluster.interconnect)
        # reconstruct active counts from the trace
        active = 0
        peak = 0
        events = sorted(
            [(r.time, 1) for r in trace.filter("inject")]
            + [(r.time, -1) for r in trace.filter("minibatch_done")]
        )
        for _, delta in events:
            active += delta
            peak = max(peak, active)
        assert peak <= vvvv_plan.nm

    def test_fifo_on_shared_stage_processor(self, vvvv_plan, cluster):
        """Condition 3: tasks on a GPU execute in readiness order —
        the processor never runs two tasks at once (busy time equals
        the sum of task durations within the run)."""
        pipeline, _ = run_pipeline(vvvv_plan, cluster.interconnect)
        for s, state in enumerate(pipeline.stages):
            stage = vvvv_plan.stages[s]
            if s == vvvv_plan.k - 1:
                expected = 30 * (stage.fwd_compute + stage.bwd_compute)
            else:
                expected = 30 * (stage.fwd_compute + stage.bwd_compute)
            assert state.processor.busy_time == pytest.approx(expected)


class TestStaleness:
    def test_ledger_respects_local_staleness(self, vvvv_plan, cluster):
        pipeline, _ = run_pipeline(vvvv_plan, cluster.interconnect)
        slocal = vvvv_plan.nm - 1
        for p, seen_updates in pipeline.staleness_ledger.items():
            assert seen_updates >= p - 1 - slocal

    def test_injection_raises_on_violation(self, vvvv_plan, cluster):
        sim = Simulator()
        pipeline = VirtualWorkerPipeline(
            sim, vvvv_plan, cluster.interconnect, gate=OpenGate(), slocal=0
        )
        # slocal=0 but Nm=4 admissions -> violation on the second inject
        with pytest.raises(StalenessViolation):
            pipeline.start()


class TestMemoryBehaviour:
    def test_peak_in_flight_never_exceeds_nm(self, vvvv_plan, cluster):
        """Hard bound: admission caps concurrent minibatches at Nm, so
        no stage can ever hold more than Nm in flight.  (The planner's
        per-stage model `in_flight_at_stage` is a steady-state
        approximation and is separately sanity-checked below.)"""
        pipeline, _ = run_pipeline(vvvv_plan, cluster.interconnect)
        for peak in pipeline.peak_in_flight():
            assert peak <= vvvv_plan.nm

    def test_analytic_in_flight_model_is_monotone(self, vvvv_plan):
        bounds = [in_flight_at_stage(vvvv_plan.nm, s) for s in range(vvvv_plan.k)]
        assert bounds[0] == vvvv_plan.nm
        assert bounds == sorted(bounds, reverse=True)

    def test_first_stage_reaches_full_depth(self, vvvv_plan, cluster):
        pipeline, _ = run_pipeline(vvvv_plan, cluster.interconnect)
        assert pipeline.peak_in_flight()[0] == vvvv_plan.nm


class TestMetrics:
    @pytest.mark.parametrize("pipeline", [VirtualWorkerPipeline, OneFOneBPipeline])
    @pytest.mark.parametrize("arg", ["warmup_minibatches", "measured_minibatches"])
    def test_empty_window_is_a_spec_error(self, vvvv_plan, cluster, pipeline, arg):
        with pytest.raises(SpecError, match=f"{arg} must be >= 1"):
            measure_pipeline(vvvv_plan, cluster.interconnect, 32, pipeline=pipeline, **{arg: 0})

    def test_variant_needs_the_gated_pipeline(self, vvvv_plan, cluster):
        with pytest.raises(SpecError, match="gpipe_flush"):
            measure_pipeline(
                vvvv_plan, cluster.interconnect, 32, variant="gpipe_flush",
                pipeline=OneFOneBPipeline,
            )

    def test_throughput_positive_and_bounded(self, vvvv_plan, cluster, vgg19):
        metrics = measure_pipeline(vvvv_plan, cluster.interconnect, 32, measured_minibatches=20)
        assert metrics.throughput > 0
        # cannot beat the compute-only bottleneck (comm overlaps compute,
        # so the full `period` including comm is not a valid bound)
        # (5% tolerance: the finite measurement window is delimited by
        # completion events, so it can slightly undercount service time)
        compute_bottleneck = max(s.fwd_compute + s.bwd_compute for s in vvvv_plan.stages)
        assert metrics.minibatch_rate <= 1.0 / compute_bottleneck * 1.05

    def test_deeper_pipeline_is_faster(self, cluster, vgg19, profiler):
        from repro.models.calibration import DEFAULT_CALIBRATION
        from repro.partition import plan_virtual_worker

        rates = []
        for nm in (1, 2, 4):
            plan = plan_virtual_worker(
                vgg19, cluster.gpus[0:4], nm, cluster.interconnect,
                DEFAULT_CALIBRATION, profiler, search_orderings=False,
            )
            rates.append(
                measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=20).throughput
            )
        assert rates[0] < rates[1] < rates[2]

    def test_utilization_rises_with_nm(self, cluster, vgg19, profiler):
        from repro.models.calibration import DEFAULT_CALIBRATION
        from repro.partition import plan_virtual_worker

        utils = []
        for nm in (1, 4):
            plan = plan_virtual_worker(
                vgg19, cluster.gpus[0:4], nm, cluster.interconnect,
                DEFAULT_CALIBRATION, profiler, search_orderings=False,
            )
            utils.append(
                measure_pipeline(plan, cluster.interconnect, 32, measured_minibatches=20).max_utilization
            )
        assert utils[1] > utils[0]
        assert utils[1] <= 1.0

    def test_homogeneous_vw_has_no_cross_node_traffic(self, vvvv_plan, cluster):
        metrics = measure_pipeline(vvvv_plan, cluster.interconnect, 32, measured_minibatches=10)
        assert metrics.cross_node_bytes_per_minibatch == 0.0

    def test_heterogeneous_vw_has_cross_node_traffic(self, ed_plan, cluster):
        metrics = measure_pipeline(ed_plan, cluster.interconnect, 32, measured_minibatches=10)
        assert metrics.cross_node_bytes_per_minibatch > 0.0

    def test_jitter_keeps_pipeline_correct(self, vvvv_plan, cluster):
        pipeline, trace = run_pipeline(vvvv_plan, cluster.interconnect, total=20, jitter=0.1)
        done = [r.detail["minibatch"] for r in trace.filter("minibatch_done")]
        assert done == list(range(1, 21))


class TestLifecycle:
    def test_double_start_rejected(self, vvvv_plan, cluster):
        from repro.errors import SimulationError

        sim = Simulator()
        pipeline = VirtualWorkerPipeline(sim, vvvv_plan, cluster.interconnect, gate=CountingGate(limit=1))
        pipeline.start()
        with pytest.raises(SimulationError):
            pipeline.start()

    def test_stop_drains_in_flight(self, vvvv_plan, cluster):
        sim = Simulator()
        pipeline = VirtualWorkerPipeline(sim, vvvv_plan, cluster.interconnect, gate=CountingGate(limit=100))
        pipeline.start()
        sim.run(max_events=50)
        pipeline.stop()
        sim.run_until_idle()
        assert pipeline.completed == pipeline.next_minibatch - 1 - pipeline.active
        assert pipeline.active == 0
