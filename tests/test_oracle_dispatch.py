"""Oracle dispatch plumbing: fast-forward notification and filtered fan-out.

Two contracts of :class:`~repro.wsp.runtime.HetPipeRuntime`:

* ``on_fast_forward`` is dispatched to **every** attached oracle —
  unfiltered, exactly once per coalesced skip — regardless of which
  other callbacks the oracle overrides;
* the per-callback filtered dispatch (built from which methods a
  subclass actually overrides) never skips an overriding oracle and
  never includes a non-overriding one;
* a trace oracle is routed only its declared ``trace_categories``, and
  a record of any other category leaves its state unchanged — so the
  routing can never silently drop a check.
"""

from __future__ import annotations

from dataclasses import replace

from repro.pipeline.one_f_one_b import OneFOneBPipeline
from repro.api.spec import FidelitySpec
from repro.scenarios import generate_scenario
from repro.scenarios.runner import _oracle_state
from repro.sim.engine import Simulator
from repro.sim.invariants import (
    OneFOneBOracle,
    RuntimeOracle,
    SchedulingOracle,
    default_oracles,
)
from repro.sim.trace import Trace, TraceRecord
from repro.wsp.runtime import HetPipeRuntime

from test_obs import small_run_spec


class FastForwardSpy(RuntimeOracle):
    """Overrides only on_fast_forward."""

    def __init__(self) -> None:
        self.summaries = []

    def on_fast_forward(self, summary) -> None:
        self.summaries.append(summary)


class BusyFastForwardSpy(RuntimeOracle):
    """Overrides on_fast_forward *and* high-traffic callbacks, so it sits
    in the filtered trace/inject lists too — the unfiltered fast-forward
    fan-out must treat both spy shapes identically."""

    def __init__(self) -> None:
        self.summaries = []
        self.trace_ff_records = 0

    def on_fast_forward(self, summary) -> None:
        self.summaries.append(summary)

    def on_trace(self, record) -> None:
        if record.category == "fast_forward" and record.actor == "runtime":
            self.trace_ff_records += 1

    def on_inject(self, vw, minibatch, pulled_version, time) -> None:
        pass


class SpyAll(RuntimeOracle):
    """Counts every filtered callback."""

    def __init__(self) -> None:
        self.counts = {
            "trace": 0, "inject": 0, "done": 0, "push": 0, "pull": 0,
        }

    def on_trace(self, record) -> None:
        self.counts["trace"] += 1

    def on_inject(self, vw, minibatch, pulled_version, time) -> None:
        self.counts["inject"] += 1

    def on_minibatch_done(self, vw, minibatch, time) -> None:
        self.counts["done"] += 1

    def on_push_recorded(self, vw, wave, global_version) -> None:
        self.counts["push"] += 1

    def on_pull_done(self, vw, version, time) -> None:
        self.counts["pull"] += 1


class OnlyPull(RuntimeOracle):
    def __init__(self) -> None:
        self.pulls = 0

    def on_pull_done(self, vw, version, time) -> None:
        self.pulls += 1


class Inert(RuntimeOracle):
    """Overrides nothing — must appear in no filtered list."""


def _drive(runtime: HetPipeRuntime, spec) -> None:
    runtime.start()
    runtime.run_until_global_version(spec.warmup_waves + spec.measured_waves - 1)


class TestFastForwardDispatch:
    def test_every_oracle_notified_once_per_coalesced_skip(self):
        # Seed 4 draws zero jitter, so its steady state actually skips.
        scenario = generate_scenario(4)
        run = replace(
            scenario.spec.to_run_spec(),
            fidelity=FidelitySpec(fidelity="fast_forward", verify_equivalence=False),
        )
        spies = [FastForwardSpy(), BusyFastForwardSpy(), FastForwardSpy()]
        oracles = default_oracles() + spies
        runtime = HetPipeRuntime.from_spec(run, oracles=oracles)
        _drive(runtime, scenario.spec)
        assert runtime.sim.events_fast_forwarded > 0
        skips = spies[1].trace_ff_records
        assert skips > 0
        for spy in spies:
            assert len(spy.summaries) == skips
            for summary in spy.summaries:
                assert summary.cycles >= 1
        # All spies saw the same summaries, in the same order.
        assert spies[0].summaries == spies[1].summaries == spies[2].summaries

    def test_full_fidelity_never_notifies(self):
        scenario = generate_scenario(4)
        run = scenario.spec.to_run_spec()
        spy = FastForwardSpy()
        runtime = HetPipeRuntime.from_spec(run, oracles=[spy])
        _drive(runtime, scenario.spec)
        assert runtime.sim.events_fast_forwarded == 0
        assert spy.summaries == []


class TestFilteredDispatch:
    def _runtime(self, oracles):
        run = small_run_spec()
        runtime = HetPipeRuntime.from_spec(run, oracles=oracles)
        return run, runtime

    def test_lists_contain_exactly_the_overriding_oracles(self):
        spy, only_pull, inert = SpyAll(), OnlyPull(), Inert()
        _, runtime = self._runtime([spy, only_pull, inert])
        assert runtime._trace_oracles == [spy]
        assert runtime._inject_oracles == [spy]
        assert runtime._done_oracles == [spy]
        assert runtime._push_oracles == [spy]
        assert runtime._pull_oracles == [spy, only_pull]

    def test_every_overriding_callback_fires(self):
        spy, only_pull = SpyAll(), OnlyPull()
        run, runtime = self._runtime([spy, only_pull, Inert()])
        _drive(runtime, run.pipeline)
        assert all(count > 0 for count in spy.counts.values()), spy.counts
        assert only_pull.pulls == spy.counts["pull"]

    def test_single_trace_consumer_fast_path_still_fires(self):
        # One trace consumer takes the direct-subscribe path (no fan-out
        # trampoline); it must receive the stream all the same.
        spy = SpyAll()
        run, runtime = self._runtime([spy, Inert()])
        assert runtime._trace_oracles == [spy]
        _drive(runtime, run.pipeline)
        assert spy.counts["trace"] > 0

    def test_multi_consumer_trace_fanout_matches_record_count(self):
        a, b = SpyAll(), SpyAll()
        run, runtime = self._runtime([a, b])
        _drive(runtime, run.pipeline)
        assert a.counts == b.counts
        assert a.counts["trace"] > 0

    def test_default_suite_registers_its_own_overrides(self):
        from repro.sim.invariants import (
            ConservationOracle,
            SchedulingOracle,
            StalenessOracle,
            VersionOracle,
        )

        _, runtime = self._runtime(default_oracles())
        assert [type(o) for o in runtime._trace_oracles] == [SchedulingOracle]
        assert [type(o) for o in runtime._push_oracles] == [VersionOracle]
        assert StalenessOracle in {type(o) for o in runtime._inject_oracles}
        assert ConservationOracle in {type(o) for o in runtime._done_oracles}


#: Records only the fault injector writes (rare; no fault-free run
#: below emits them).
FAULT_CATEGORIES = {"fault", "fault_recovered", "repartition", "ps_retry", "checkpoint"}


def _foreign_records(categories, actors):
    """One record per (category, actor), with every detail key an
    oracle reads, so a misrouted record would reach real checks."""
    detail = {"minibatch": 1, "minibatches": 1, "wave": 0, "version": 0}
    return [
        TraceRecord(0.0, category, actor, dict(detail))
        for category in sorted(categories)
        for actor in actors
    ]


class TestCategoryRouting:
    """Narrowing an oracle's route must never drop one of its checks."""

    def _runtime_run(self):
        run = small_run_spec()
        trace = Trace()
        oracle = SchedulingOracle()
        runtime = HetPipeRuntime.from_spec(run, trace=trace, oracles=[oracle])
        _drive(runtime, run.pipeline)
        return runtime, trace, oracle

    def _1f1b_run(self, runtime):
        trace = Trace()
        pipeline = OneFOneBPipeline(
            Simulator(), runtime.plans[0], runtime.cluster.interconnect,
            limit=6, trace=trace,
        )
        oracle = OneFOneBOracle(pipeline)
        pipeline.start()
        pipeline.sim.run_until_idle()
        assert oracle.forwards_checked > 0
        return pipeline, trace, oracle

    def test_oracles_ignore_every_category_outside_their_route(self):
        runtime, trace, scheduling = self._runtime_run()
        pipeline, trace_1f1b, one_f_one_b = self._1f1b_run(runtime)
        universe = (
            trace.categories() | trace_1f1b.categories() | FAULT_CATEGORIES
            | {"fast_forward"}
        )
        cases = (
            (scheduling, ["vw0", "vw0.s0", "vw0.s1", "vw1.s0", "runtime", "faults"]),
            (one_f_one_b, [pipeline.name, f"{pipeline.name}.s0", f"{pipeline.name}.s1"]),
        )
        for oracle, actors in cases:
            declared = oracle.trace_categories
            assert declared and declared <= universe
            before = _oracle_state([oracle])
            for record in _foreign_records(universe - declared, actors):
                oracle.on_trace(record)
            assert _oracle_state([oracle]) == before, type(oracle).__name__
