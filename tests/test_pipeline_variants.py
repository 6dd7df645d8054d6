"""GPipe-style flush variant (§2.3 comparison)."""

from repro.pipeline import measure_pipeline
from repro.pipeline.tasks import CountingGate
from repro.pipeline.variants import build_variant_gate, get_variant


class _Completed:
    """The pipeline surface a wave-flush condition reads."""

    def __init__(self, completed: int = 0) -> None:
        self.completed = completed


def flush_gate(nm: int, limit: int, completed: _Completed):
    """The gate ``measure_pipeline(variant="gpipe_flush")`` builds."""
    gate = build_variant_gate(get_variant("gpipe_flush"), CountingGate(limit=limit), nm)
    gate.attach(completed)
    return gate


class TestFlushGate:
    def test_wave_zero_admitted_immediately(self):
        gate = flush_gate(4, 100, _Completed())
        assert all(gate.may_start(p) for p in (1, 2, 3, 4))

    def test_wave_one_blocked_until_flush(self):
        pipeline = _Completed()
        gate = flush_gate(4, 100, pipeline)
        assert not gate.may_start(5)
        pipeline.completed = 4
        assert gate.may_start(5)

    def test_limit_respected(self):
        gate = flush_gate(2, 2, _Completed(completed=2))
        assert gate.may_start(2)
        assert not gate.may_start(3)


class TestFlushPenalty:
    def test_flush_is_slower_than_continuous(self, vvvv_plan, cluster):
        """The §2.3 claim: GPipe's per-wave flush leaves bubbles that
        HetPipe's continuous pipeline fills."""
        continuous = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=24
        ).throughput
        flush = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=24,
            variant="gpipe_flush",
        ).throughput
        assert flush < continuous

    def test_flush_penalty_meaningful(self, vvvv_plan, cluster):
        continuous = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=24
        ).throughput
        flush = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=24,
            variant="gpipe_flush",
        ).throughput
        assert flush < 0.95 * continuous

    def test_flush_still_beats_naive_mp(self, vvvv_plan, cluster):
        """Even with flushes, intra-wave pipelining beats Nm=1 serial
        execution (GPipe is still useful — just worse than HetPipe)."""
        flush = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=24,
            variant="gpipe_flush",
        ).throughput
        naive_rate = 32 / vvvv_plan.serial_latency
        assert flush > naive_rate
