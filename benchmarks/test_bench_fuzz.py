"""Fuzz harness throughput: scenarios checked per second, oracle overhead.

Two numbers matter for the harness's viability as an always-on CI gate:
how fast a seed batch runs (it must stay in smoke-test territory) and
what the invariant oracles cost on top of an unchecked run.
"""

from conftest import run_once

from repro.experiments.report import format_table
from repro.scenarios import describe_run, generate_scenario, run_fuzz
from repro.sim.invariants import default_oracles
from repro.sim.trace import Trace
from repro.wsp.runtime import HetPipeRuntime

FUZZ_SEEDS = 25


def test_bench_fuzz_batch(benchmark, show):
    report = run_once(benchmark, lambda: run_fuzz(range(FUZZ_SEEDS)))
    rows = [
        (
            result.spec.seed,
            describe_run(result.spec).split(" ", 1)[1],
            f"{result.throughput:.0f}",
            result.events,
            "ok" if result.ok else "FAIL",
        )
        for result in report.results[:10]
    ]
    show(
        format_table(
            ["seed", "scenario", "img/s", "events", "verdict"],
            rows,
            title=f"fuzz — first 10 of {FUZZ_SEEDS} seeded scenarios (all oracle-checked)",
        )
    )
    assert len(report.results) == FUZZ_SEEDS
    assert report.total_violations == 0


def test_bench_oracle_overhead(benchmark, show):
    """One mid-size scenario with and without the oracle suite attached."""
    scenario = generate_scenario(3)
    spec = scenario.spec.to_run_spec()

    def run(oracles):
        runtime = HetPipeRuntime.from_spec(
            spec,
            cluster=scenario.cluster,
            model=scenario.model,
            plans=list(scenario.plans),
            trace=Trace(enabled=True),
            oracles=oracles,
        )
        runtime.start()
        pipe = spec.pipeline
        runtime.run_until_global_version(pipe.warmup_waves + pipe.measured_waves - 1)
        return runtime.sim.events_processed

    events_plain = run([])
    events_checked = run_once(benchmark, lambda: run(default_oracles()))
    show(
        format_table(
            ["mode", "events"],
            [("unchecked", events_plain), ("oracle-checked", events_checked)],
            title=f"oracle overhead — {describe_run(spec)}",
        )
    )
    # The oracles observe; they must not change the event sequence.
    assert events_checked == events_plain
