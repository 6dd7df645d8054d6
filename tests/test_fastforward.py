"""Steady-state fast-forward: detection, skipping, and the trace schema.

The cycle detector must find true periods (including super-cycles),
refuse near-periodic streams, and never fire across structural changes;
the drivers must leave every observable of a coalesced run within the
1e-9 semantic contract of the full run (the deep cross-checks live in
test_equivalence.py — here the units are exercised directly).
"""

import math

import pytest

from repro.api.spec import FidelitySpec
from repro.errors import SimulationError
from repro.pipeline.metrics import measure_pipeline
from repro.pipeline.one_f_one_b import OneFOneBPipeline
from repro.pipeline.tasks import CountingGate
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim.engine import Simulator
from repro.sim.fastforward import (
    SteadyStateDetector,
    queue_fingerprint,
    run_pipeline_fast_forward,
)
from repro.sim.trace import SEMANTIC_CATEGORIES, Trace


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-12)


# ----------------------------------------------------------------------
# detector
# ----------------------------------------------------------------------


class TestSteadyStateDetector:
    def _feed(self, detector, boundaries):
        """Feed (now, counters, shape) rows; return first detection."""
        for now, counters, shape in boundaries:
            cycle = detector.observe(now, counters, shape)
            if cycle is not None:
                return cycle
        return None

    def test_detects_period_one(self):
        detector = SteadyStateDetector()
        shape = ((), ())
        rows = [(float(i), (10 * i, 2.5 * i), shape) for i in range(5)]
        cycle = self._feed(detector, rows)
        assert cycle is not None
        assert cycle.period == 1
        assert cycle.dt == 1.0
        assert cycle.deltas == (10, 2.5)

    def test_detects_period_two_super_cycle(self):
        detector = SteadyStateDetector()
        shape = ((), ())
        rows = []
        now, count = 0.0, 0
        for i in range(12):
            now += 1.0 if i % 2 == 0 else 3.0  # alternating boundary dts
            count += 5 if i % 2 == 0 else 7
            rows.append((now, (count,), shape))
        cycle = self._feed(detector, rows)
        assert cycle is not None
        assert cycle.period == 2
        assert cycle.dt == 4.0
        assert cycle.deltas == (12,)
        assert cycle.boundary_dts in ((1.0, 3.0), (3.0, 1.0))

    def test_refuses_near_periodic_deltas(self):
        """Jitter-scale drift (1e-3 relative) must never confirm."""
        detector = SteadyStateDetector()
        shape = ((), ())
        now = 0.0
        for i in range(50):
            now += 1.0 + i * 1e-3  # drifts: no lag <= max_period repeats
            assert detector.observe(now, (i,), shape) is None

    def test_tolerates_float_rounding_noise(self):
        """Accumulated-ulp differences (~1e-15 relative) must confirm."""
        detector = SteadyStateDetector()
        shape = ((), ())
        now = 0.0
        detected = False
        for i in range(6):
            now += 1.0 + (1e-15 if i % 2 else 0.0)
            if detector.observe(now, (i,), shape) is not None:
                detected = True
        assert detected

    def test_refuses_shape_changes(self):
        detector = SteadyStateDetector()
        for i in range(10):
            shape = ((i % 3,), ())  # structural state never repeats at lag 1..4 consistently
            cycle = detector.observe(float(i), (i,), shape)
            if cycle is not None:
                assert cycle.period == 3  # the only true period present
                return
        pytest.fail("period-3 shape cycle never detected")

    def test_refuses_counter_vector_length_changes(self):
        detector = SteadyStateDetector()
        shape = ((), ())
        assert detector.observe(0.0, (0, 0), shape) is None
        assert detector.observe(1.0, (1, 1), shape) is None
        # a new component appeared (e.g. a lazily-created PS stream)
        assert detector.observe(2.0, (2, 2, 0), shape) is None
        assert detector.observe(3.0, (3, 3, 1), shape) is None

    def test_rebase_keeps_matching_after_a_skip(self):
        detector = SteadyStateDetector()
        shape = ((), ())
        cycle = self._feed(
            detector, [(float(i), (10 * i,), shape) for i in range(3)]
        )
        assert cycle is not None
        # apply a 5-cycle skip, then the very next real boundary matches
        detector.rebase(5.0, (50,))
        again = detector.observe(8.0, (80,), shape)
        assert again is not None and again.deltas == (10,)

    def test_confirm_below_two_is_rejected(self):
        with pytest.raises(SimulationError):
            SteadyStateDetector(confirm=1)


# ----------------------------------------------------------------------
# engine clock translation
# ----------------------------------------------------------------------


class TestSimulatorFastForward:
    def test_shifts_clock_and_pending_events(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.fast_forward(10.0, events_coalesced=7)
        assert sim.now == 10.0
        assert sim.events_fast_forwarded == 7
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 12.0

    def test_preserves_same_timestamp_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.fast_forward(3.0)
        sim.run()
        assert order == [1, 2]

    def test_rejects_bad_shifts(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.fast_forward(-1.0)
        with pytest.raises(SimulationError):
            sim.fast_forward(math.inf)

    def test_queue_fingerprint_is_relative_and_site_stable(self):
        def cb():
            pass

        a, b = Simulator(), Simulator()
        a.schedule(1.0, cb)
        b.schedule(4.0, cb)
        b.fast_forward(0.0)
        # translate a's start: fingerprints must agree after aligning now
        a.now, b.now = 0.0, 3.0
        assert queue_fingerprint(a) == queue_fingerprint(b)


# ----------------------------------------------------------------------
# trace digest schema
# ----------------------------------------------------------------------


class TestTraceSchema2:
    def test_schema_must_be_known(self):
        with pytest.raises(ValueError):
            Trace(schema=3)

    def test_v2_digest_differs_from_v1_for_same_stream(self):
        v1, v2 = Trace(enabled=False, digest=True), Trace(enabled=False, digest=True, schema=2)
        for trace in (v1, v2):
            trace.record(0.5, "inject", "vw0", minibatch=1)
        assert v1.digest() != v2.digest()

    def test_v2_hashes_only_semantic_categories(self):
        a = Trace(enabled=False, digest=True, schema=2)
        b = Trace(enabled=False, digest=True, schema=2)
        a.record(0.1, "inject", "vw0", minibatch=1)
        b.record(0.1, "inject", "vw0", minibatch=1)
        b.record(0.2, "f_start", "vw0.s0", minibatch=1)  # raw record: unhashed
        assert a.digest() == b.digest()
        b2 = Trace(enabled=False, digest=True, schema=2)
        b2.record(0.1, "inject", "vw0", minibatch=1)
        b2.record(0.3, "fast_forward", "vw0", cycles=4, minibatches=4)
        assert b2.digest() != a.digest(), "macro summaries must be hashed"
        assert "fast_forward" in SEMANTIC_CATEGORIES

    def test_v2_streaming_matches_stored_recompute(self):
        streaming = Trace(enabled=False, digest=True, schema=2)
        stored = Trace(enabled=True, schema=2)
        for trace in (streaming, stored):
            trace.record(0.1, "inject", "vw0", minibatch=1)
            trace.record(0.2, "f_start", "vw0.s0", minibatch=1)
            trace.record(0.3, "minibatch_done", "vw0", minibatch=1)
        assert streaming.digest() == stored.digest()

    def test_distinct_actor_sites_stream_the_stored_digest(self):
        streaming = Trace(enabled=False, digest=True)
        stored = Trace(enabled=True)
        for trace in (streaming, stored):
            sites = [trace.site("f_start", f"vw{i}.s0", "minibatch") for i in range(64)]
            for i, site in enumerate(sites):
                trace.emit(float(i), site, i)
        assert len(stored) == 64
        assert streaming.digest() == stored.digest()


# ----------------------------------------------------------------------
# standalone pipeline drivers
# ----------------------------------------------------------------------


class TestPipelineFastForward:
    def _run_pair(self, plan, cluster, total):
        full_sim = Simulator()
        full = VirtualWorkerPipeline(
            full_sim, plan, cluster.interconnect, gate=CountingGate(limit=total)
        )
        full.start()
        full_sim.run_until_idle()

        ff_sim = Simulator()
        ff = VirtualWorkerPipeline(
            ff_sim, plan, cluster.interconnect, gate=CountingGate(limit=total)
        )
        ff.start()
        skipped = run_pipeline_fast_forward(ff, total)
        return full_sim, full, ff_sim, ff, skipped

    def test_coalesced_run_matches_full_within_contract(self, cluster, vvvv_plan):
        total = 200
        full_sim, full, ff_sim, ff, skipped = self._run_pair(vvvv_plan, cluster, total)
        assert skipped > 0 and ff_sim.events_fast_forwarded > 0
        assert ff_sim.events_processed < full_sim.events_processed
        assert ff.completed == full.completed == total
        assert _rel_close(full_sim.now, ff_sim.now)
        for a, b in zip(full.stages, ff.stages):
            assert _rel_close(a.processor.busy_time, b.processor.busy_time)
            assert a.processor.jobs_completed == b.processor.jobs_completed
            assert a.peak_in_flight == b.peak_in_flight

    def test_done_times_stay_contiguous_and_monotone(self, cluster, vvvv_plan):
        total = 120
        _, full, _, ff, _ = self._run_pair(vvvv_plan, cluster, total)
        assert sorted(ff.done_times) == list(range(1, total + 1))
        times = [ff.done_times[p] for p in range(1, total + 1)]
        assert times == sorted(times)
        for p in range(1, total + 1):
            assert _rel_close(full.done_times[p], ff.done_times[p])

    def test_jittered_pipeline_refuses_to_skip(self, cluster, vvvv_plan):
        sim = Simulator()
        pipeline = VirtualWorkerPipeline(
            sim, vvvv_plan, cluster.interconnect,
            gate=CountingGate(limit=60), jitter=0.1,
        )
        pipeline.start()
        skipped = run_pipeline_fast_forward(pipeline, 60)
        assert skipped == 0 and sim.events_fast_forwarded == 0
        assert pipeline.completed == 60

    def test_measure_pipeline_fidelities_agree(self, cluster, vvvv_plan):
        full = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32, measured_minibatches=200
        )
        ff = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32,
            measured_minibatches=200, fidelity=FidelitySpec(fidelity="fast_forward"),
        )
        assert _rel_close(full.throughput, ff.throughput)
        for a, b in zip(full.utilizations, ff.utilizations):
            assert _rel_close(a, b)
        assert full.peak_in_flight == ff.peak_in_flight
        assert _rel_close(
            full.cross_node_bytes_per_minibatch, ff.cross_node_bytes_per_minibatch
        )

    def test_measure_1f1b_fidelities_agree(self, cluster, ed_plan):
        full = measure_pipeline(
            ed_plan, cluster.interconnect, 32, measured_minibatches=150,
            pipeline=OneFOneBPipeline,
        )
        ff = measure_pipeline(
            ed_plan, cluster.interconnect, 32, measured_minibatches=150,
            fidelity=FidelitySpec(fidelity="fast_forward"), pipeline=OneFOneBPipeline,
        )
        assert _rel_close(full.throughput, ff.throughput)
        for a, b in zip(full.utilizations, ff.utilizations):
            assert _rel_close(a, b)
        assert full.peak_in_flight == ff.peak_in_flight

    def test_1f1b_oracle_survives_a_skip(self, cluster, vvvv_plan):
        from repro.sim.invariants import OneFOneBOracle

        total = 150
        sim = Simulator()
        trace = Trace(enabled=False, digest=True, schema=2)
        pipeline = OneFOneBPipeline(
            sim, vvvv_plan, cluster.interconnect, limit=total, trace=trace
        )
        oracle = OneFOneBOracle(pipeline)
        pipeline.start()
        skipped = run_pipeline_fast_forward(pipeline, total)
        assert skipped > 0
        assert pipeline.completed == total
        assert oracle.forwards_checked > 0

    def test_chained_skips_keep_event_accounting_positive(self, cluster, vvvv_plan):
        """Regression: preserved boundaries force several chained skips;
        rebased history must stay consistent (virtual event count in
        slot 0), never confirming a spurious cycle with negative event
        deltas."""
        total = 200
        full_sim = Simulator()
        full = OneFOneBPipeline(full_sim, vvvv_plan, cluster.interconnect, limit=total)
        full.start()
        full_sim.run_until_idle()

        sim = Simulator()
        pipeline = OneFOneBPipeline(sim, vvvv_plan, cluster.interconnect, limit=total)
        pipeline.start()
        run_pipeline_fast_forward(pipeline, total, preserve=(50, 100, 150))
        assert sim.events_fast_forwarded > 0
        assert pipeline.completed == total
        assert sim.events_processed + sim.events_fast_forwarded == full_sim.events_processed
        assert _rel_close(full_sim.now, sim.now)

    def test_preserved_boundaries_fire_callbacks(self, cluster, vvvv_plan):
        # measure_pipeline samples busy time in its completion callback;
        # the preserved completion indices must execute as real events.
        metrics = measure_pipeline(
            vvvv_plan, cluster.interconnect, 32,
            measured_minibatches=400, fidelity=FidelitySpec(fidelity="fast_forward"),
        )
        assert metrics.measured_minibatches == 400
        assert 0.0 < metrics.max_utilization <= 1.0


class TestKnownLongHorizonFaults:
    """Reproducers of the fast-forward faults that show from
    ``--waves-scale 2`` on.  Strict xfails: a fix turns them red until
    the marker is removed, so each fix lands with its reproducer."""

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="coalesced run reports staleness.max_missing 8 where the full run has 5",
    )
    def test_seed_128_is_equivalent_at_waves_scale_2(self):
        from repro.scenarios.runner import run_fuzz

        report = run_fuzz([128], fidelity="fast_forward", waves_scale=2)
        assert [f.violations for f in report.failures] == []

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="coalesced run quiesces at global version 10 before reaching 11",
    )
    def test_seed_330_reaches_its_target_at_waves_scale_2(self):
        from repro.scenarios.runner import run_fuzz

        report = run_fuzz([330], fidelity="fast_forward", waves_scale=2)
        assert [f.violations for f in report.failures] == []

    # With faults on, fast-forward fails even at waves_scale 1: the
    # checkpoint ledger stops advancing while the global clock runs on.
    # The same seeds pass at full fidelity and on the shared network,
    # where fast-forward is not armed.
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="checkpoint ledger stops at version 4 while the global clock reaches 8",
    )
    def test_seed_73_keeps_its_checkpoint_cadence_under_faults(self):
        from repro.scenarios.runner import run_fuzz

        report = run_fuzz([73], fidelity="fast_forward", faults=True)
        assert [f.violations for f in report.failures] == []

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="checkpoint ledger stops at version 2 while the global clock reaches 7",
    )
    def test_seed_165_keeps_its_checkpoint_cadence_under_faults(self):
        from repro.scenarios.runner import run_fuzz

        report = run_fuzz([165], fidelity="fast_forward", faults=True)
        assert [f.violations for f in report.failures] == []
