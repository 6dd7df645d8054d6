"""Runtime invariant oracles: clean runs, seeded mutations, error paths."""

import pytest

from repro.api.spec import ModelSpec, PipelineSpec, RunSpec
from repro.cluster.catalog import paper_cluster
from repro.errors import InvariantViolation, SimulationError
from repro.models.calibration import DEFAULT_CALIBRATION
from repro.partition import plan_virtual_worker
from repro.scenarios import build_fuzz_model
from repro.sim.invariants import (
    ConservationOracle,
    OneFOneBOracle,
    SchedulingOracle,
    StalenessOracle,
    VersionOracle,
    default_oracles,
)
from repro.sim.trace import Trace, TraceRecord
from repro.wsp.runtime import HetPipeRuntime, _WSPGate
from repro.wsp.staleness import admission_limit


@pytest.fixture(scope="module")
def small_model():
    return build_fuzz_model("tiny", 8, 16, (16, 16, 32, 32), (64,))


@pytest.fixture(scope="module")
def vq_cluster():
    """Two heterogeneous nodes (fast V, slow Q), two GPUs each."""
    return paper_cluster(node_codes="VQ", gpus_per_node=2)


@pytest.fixture(scope="module")
def np_plans(vq_cluster, small_model):
    return [
        plan_virtual_worker(
            small_model, node.gpus, 2, vq_cluster.interconnect,
            DEFAULT_CALIBRATION, search_orderings=False,
        )
        for node in vq_cluster.nodes
    ]


def make_runtime(cluster, model, plans, *, oracles=None, **pipeline):
    run = RunSpec(
        model=ModelSpec(model.name), pipeline=PipelineSpec(nm=plans[0].nm, **pipeline)
    )
    return HetPipeRuntime.from_spec(
        run, cluster=cluster, model=model, plans=plans,
        trace=Trace(enabled=True),
        oracles=default_oracles() if oracles is None else oracles,
    )


class TestCleanRunsPassOracles:
    def test_all_oracles_silent_on_correct_run(self, vq_cluster, small_model, np_plans):
        runtime = make_runtime(vq_cluster, small_model, np_plans, d=1)
        runtime.start()
        runtime.run_until_global_version(3)
        runtime.check_invariants()

    def test_staleness_oracle_actually_checked_injections(self, vq_cluster, small_model, np_plans):
        oracles = default_oracles()
        runtime = make_runtime(vq_cluster, small_model, np_plans, d=1, oracles=oracles)
        runtime.start()
        runtime.run_until_global_version(3)
        staleness = next(o for o in oracles if isinstance(o, StalenessOracle))
        assert staleness.checked >= sum(s.minibatches_done for s in runtime.stats)
        assert 0 <= staleness.max_missing <= staleness.bound

    def test_oracles_do_not_perturb_execution(self, vq_cluster, small_model, np_plans):
        """A checked run and an unchecked run produce the same trace."""
        digests = []
        for oracles in ([], default_oracles()):
            runtime = make_runtime(
                vq_cluster, small_model, np_plans, d=1, oracles=oracles
            )
            runtime.start()
            runtime.run_until_global_version(3)
            digests.append(runtime.trace.digest())
        assert digests[0] == digests[1]

    def test_jittered_run_passes(self, vq_cluster, small_model, np_plans):
        runtime = make_runtime(vq_cluster, small_model, np_plans, d=2, jitter=0.2)
        runtime.start()
        runtime.run_until_global_version(3)
        runtime.check_invariants()


class TestMutationsAreCaught:
    """Deliberately broken mechanisms must trip the oracles — this is
    the fuzz harness's own test: an oracle that cannot catch a planted
    bug would give 'zero violations' no evidentiary weight."""

    def test_broken_admission_limit_trips_staleness_oracle(
        self, vq_cluster, small_model, np_plans
    ):
        runtime = make_runtime(vq_cluster, small_model, np_plans, d=0)
        gate = runtime.gates[0]  # the fast (V) worker races ahead
        gate.may_start = lambda p: p <= admission_limit(
            gate.pulled_version + 2, gate.d, gate.nm
        )
        runtime.start()
        with pytest.raises(InvariantViolation, match="staleness"):
            runtime.run_until_global_version(4)

    def test_fully_open_gate_trips_staleness_oracle(
        self, vq_cluster, small_model, np_plans
    ):
        runtime = make_runtime(vq_cluster, small_model, np_plans, d=0)
        runtime.gates[0].may_start = lambda p: True
        runtime.start()
        with pytest.raises(InvariantViolation, match="staleness"):
            runtime.run_until_global_version(4)

    def test_tampered_completion_counter_fails_conservation(
        self, vq_cluster, small_model, np_plans
    ):
        runtime = make_runtime(vq_cluster, small_model, np_plans, d=0)
        runtime.start()
        runtime.run_until_global_version(2)
        runtime.stats[0].minibatches_done += 1
        with pytest.raises(InvariantViolation, match="conservation"):
            runtime.check_invariants()


class TestSchedulingOracleUnit:
    """Synthetic trace streams against the §4 conditions."""

    def attach(self, runtime):
        oracle = SchedulingOracle()
        oracle.bind(runtime)
        return oracle

    def feed(self, oracle, category, actor, p):
        oracle.on_trace(TraceRecord(0.0, category, actor, {"minibatch": p}))

    def test_out_of_order_forward_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.attach(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        self.feed(oracle, "inject", "vw0", 1)
        self.feed(oracle, "inject", "vw0", 2)
        self.feed(oracle, "f_start", "vw0.s0", 1)
        with pytest.raises(InvariantViolation, match="cond. 1"):
            self.feed(oracle, "f_start", "vw0.s0", 3)

    def test_forward_before_injection_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.attach(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="before it was injected"):
            self.feed(oracle, "f_start", "vw0.s0", 1)

    def test_forward_skipping_previous_stage_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.attach(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        self.feed(oracle, "inject", "vw0", 1)
        self.feed(oracle, "f_start", "vw0.s0", 1)
        with pytest.raises(InvariantViolation, match="causality"):
            self.feed(oracle, "fb_start", "vw0.s1", 1)  # s0 never finished

    def test_backward_without_gradient_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.attach(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="causality"):
            self.feed(oracle, "b_start", "vw0.s0", 1)

    def test_fused_task_on_non_last_stage_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.attach(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="cond. 4"):
            self.feed(oracle, "fb_start", "vw0.s0", 1)

    def test_unfused_forward_on_last_stage_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.attach(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="cond. 4"):
            self.feed(oracle, "f_start", "vw0.s1", 1)


class TestVersionOracleUnit:
    def bound(self, runtime):
        oracle = VersionOracle()
        oracle.bind(runtime)
        return oracle

    def test_wave_skip_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.bound(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="in order"):
            oracle.on_push_recorded(0, 1, -1)

    def test_wrong_global_minimum_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.bound(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        # vw0 pushes wave 0, but vw1 has pushed nothing: global must stay -1
        with pytest.raises(InvariantViolation, match="min"):
            oracle.on_push_recorded(0, 0, 0)

    def test_correct_sequence_accepted(self, vq_cluster, small_model, np_plans):
        oracle = self.bound(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        oracle.on_push_recorded(0, 0, -1)
        oracle.on_push_recorded(1, 0, 0)
        oracle.on_push_recorded(1, 1, 0)
        oracle.on_push_recorded(0, 1, 1)

    def test_pull_beyond_global_rejected(self, vq_cluster, small_model, np_plans):
        oracle = self.bound(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="beyond global"):
            oracle.on_pull_done(0, 3, 1.0)


class TestConservationOracleUnit:
    def test_duplicate_completion_rejected(self, vq_cluster, small_model, np_plans):
        oracle = ConservationOracle()
        oracle.bind(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        oracle.on_inject(0, 1, -1, 0.0)
        oracle.on_minibatch_done(0, 1, 1.0)
        with pytest.raises(InvariantViolation, match="duplicate or out-of-order"):
            oracle.on_minibatch_done(0, 1, 2.0)

    def test_completion_without_injection_rejected(self, vq_cluster, small_model, np_plans):
        oracle = ConservationOracle()
        oracle.bind(make_runtime(vq_cluster, small_model, np_plans, oracles=[]))
        with pytest.raises(InvariantViolation, match="injected"):
            oracle.on_minibatch_done(0, 1, 1.0)


class TestOneFOneBOracle:
    def test_clean_1f1b_run_passes(self, vq_cluster, small_model, np_plans):
        from repro.pipeline.one_f_one_b import OneFOneBPipeline
        from repro.sim.engine import Simulator

        sim = Simulator()
        pipeline = OneFOneBPipeline(
            sim, np_plans[0], vq_cluster.interconnect, limit=12, trace=Trace()
        )
        oracle = OneFOneBOracle(pipeline)
        pipeline.start()
        sim.run_until_idle()
        assert pipeline.completed == 12
        # one checked forward dispatch per minibatch per stage
        assert oracle.forwards_checked == 12 * np_plans[0].k

    def test_forward_while_backward_ready_rejected(self, vq_cluster, small_model, np_plans):
        from repro.pipeline.one_f_one_b import OneFOneBPipeline
        from repro.sim.engine import Simulator

        sim = Simulator()
        trace = Trace()
        pipeline = OneFOneBPipeline(
            sim, np_plans[0], vq_cluster.interconnect, limit=4, trace=trace
        )
        OneFOneBOracle(pipeline)
        # forge a schedule that dispatches a forward over a ready backward
        trace.record(0.0, "f_ready", f"{pipeline.name}.s0", minibatch=1)
        trace.record(0.0, "f_start", f"{pipeline.name}.s0", minibatch=1)
        trace.record(0.1, "b_ready", f"{pipeline.name}.s0", minibatch=1)
        trace.record(0.1, "f_ready", f"{pipeline.name}.s0", minibatch=2)
        with pytest.raises(InvariantViolation, match="backward must be preferred"):
            trace.record(0.2, "f_start", f"{pipeline.name}.s0", minibatch=2)


class TestWSPGateWakeOnAdvance:
    def test_advance_raises_version_and_wakes(self):
        gate = _WSPGate(d=1, nm=2)
        woken = []
        gate.subscribe(lambda: woken.append(gate.pulled_version))
        gate.advance(0)
        assert gate.pulled_version == 0 and woken == [0]

    def test_stale_or_equal_advance_is_ignored(self):
        gate = _WSPGate(d=1, nm=2)
        woken = []
        gate.subscribe(lambda: woken.append(True))
        gate.advance(2)
        gate.advance(1)  # stale
        gate.advance(2)  # duplicate
        assert gate.pulled_version == 2 and len(woken) == 1

    def test_advance_without_subscriber_is_safe(self):
        gate = _WSPGate(d=0, nm=1)
        gate.advance(0)
        assert gate.pulled_version == 0

    def test_admission_window_opens_with_version(self):
        gate = _WSPGate(d=0, nm=2)
        limit_before = max(p for p in range(1, 50) if gate.may_start(p))
        gate.advance(0)
        limit_after = max(p for p in range(1, 50) if gate.may_start(p))
        assert limit_after == limit_before + 2  # exactly one more wave


class TestRunLoopErrorPaths:
    def test_deadlock_detected_when_never_started(self, vq_cluster, small_model, np_plans):
        runtime = make_runtime(vq_cluster, small_model, np_plans)
        with pytest.raises(SimulationError, match="deadlock"):
            runtime.run_until_global_version(0)

    def test_deadlock_reports_reached_version(self, vq_cluster, small_model, np_plans):
        runtime = make_runtime(vq_cluster, small_model, np_plans)
        runtime.start()
        for pipeline in runtime.pipelines:
            pipeline.stop()  # drain, then starve
        with pytest.raises(SimulationError, match="global version"):
            runtime.run_until_global_version(10_000)

    def test_event_budget_exceeded_raises(self, vq_cluster, small_model, np_plans):
        runtime = make_runtime(vq_cluster, small_model, np_plans)
        runtime.start()
        with pytest.raises(SimulationError, match="exceeded"):
            runtime.run_until_global_version(10_000, max_events=50)
