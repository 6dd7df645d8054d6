"""``repro bench``: the tracked performance baseline.

Times the layers whose speed the project actually depends on — fuzz
throughput (scenarios/sec, serial and parallel), the discrete-event
engine's micro-ops, streaming trace emission, partition planning with a
cold vs warm plan cache, and the figure experiments — and writes the
results to ``BENCH_sweep.json``.  The committed copy of that file is the
perf trajectory: ``repro bench --check BENCH_sweep.json`` exits non-zero
when fuzz throughput regresses more than ``--tolerance`` (default 30%)
against it, which CI runs on every push.

Wall-clock numbers are machine-dependent; the baseline is refreshed by
re-running ``repro bench --out BENCH_sweep.json`` on the reference
machine whenever the hardware or the expected performance changes.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Callable

#: Bump when the JSON layout changes.  /2 adds per-mode fuzz event
#: counts (events_simulated / events_fast_forwarded), the
#: ``fuzz_fast_forward`` metric, and the long-horizon full-vs-coalesced
#: pair demonstrating the asymptotic event-count reduction.  /3 adds
#: provenance: the top-level ``spec_schema`` (the RunSpec schema every
#: fuzz scenario is constructed under) and a ``spec_hash`` per fuzz
#: metric — the sha256 over the batch's per-seed RunSpec hashes, so a
#: perf artifact is traceable to the exact configurations it timed.
#: /4 adds the ``fuzz_faults`` metric: fuzz throughput with a seeded
#: fault schedule per scenario under the graceful-degradation oracles
#: (the fault-injection tax is part of the tracked trajectory).
#: /5 adds the ``fuzz_variant`` metric: fuzz throughput under a
#: non-default pipeline variant (pipedream_2bw — the double-buffer
#: ledger plus the WeightVersionOracle and version-window gate are the
#: variant zoo's per-scenario tax).
SCHEMA = "hetpipe-bench/5"

#: Default benchmark sizes: full mode tracks the acceptance workload
#: (100 seeds); quick mode stays in CI-smoke territory.
FULL_SEEDS = 100
QUICK_SEEDS = 25
ENGINE_EVENTS = 200_000
TRACE_RECORDS = 200_000

#: Long-horizon workload: deterministic (jitter-free) seeds — the
#: regime the fast-forward core targets, and the only one its 1e-9
#: semantic contract permits coalescing — with the measured window
#: scaled up so steady-state cycles dominate.
LONG_HORIZON_SCALE = 16
LONG_HORIZON_SEEDS = 10


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def bench_engine(events: int = ENGINE_EVENTS) -> dict[str, float]:
    """Schedule/execute throughput of the bare event loop."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def spin() -> None:
        remaining = events

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run_until_idle(max_events=events + 1)

    seconds, _ = _timed(spin)
    return {
        "events": float(events),
        "seconds": seconds,
        "events_per_sec": events / seconds if seconds > 0 else 0.0,
    }


def bench_trace(records: int = TRACE_RECORDS) -> dict[str, float]:
    """Streaming-digest emit throughput (storage off, hash on), through
    a prebuilt site as the pipelines emit."""
    from repro.sim.trace import Trace

    trace = Trace(enabled=False, digest=True)
    site = trace.site("f_start", "vw0.s1", "minibatch")

    def spin() -> None:
        emit = trace.emit
        for i in range(records):
            emit(float(i), site, i)
        trace.digest()

    seconds, _ = _timed(spin)
    return {
        "records": float(records),
        "seconds": seconds,
        "records_per_sec": records / seconds if seconds > 0 else 0.0,
    }


def bench_plan_cache() -> dict[str, float]:
    """Partition planning with a cold vs warm boundaries cache."""
    from repro.cluster.catalog import paper_cluster
    from repro.models import build_vgg19
    from repro.partition import clear_plan_cache, plan_virtual_worker

    cluster = paper_cluster()
    model = build_vgg19()
    gpus = cluster.gpus[0:4]

    def solve_all() -> None:
        for nm in range(1, 6):
            plan_virtual_worker(
                model, gpus, nm, cluster.interconnect, search_orderings=False
            )

    clear_plan_cache()
    cold_seconds, _ = _timed(solve_all)
    warm_seconds, _ = _timed(solve_all)
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
    }


def _clear_scenario_caches() -> None:
    """Reset the memoized scenario build *and* the partition planner's
    boundaries cache so every fuzz measurement starts cold — otherwise
    whichever fidelity runs second would be timed against a warm
    cache."""
    from repro.api.build import build_plans
    from repro.partition import clear_plan_cache

    build_plans.cache_clear()
    clear_plan_cache()


def _batch_spec_hash(report) -> str:
    """One provenance hash for a fuzz batch: sha256 over the per-seed
    RunSpec hashes, in seed order.  Stable across hosts and ``--jobs``
    counts; changes exactly when any scenario's configuration does."""
    import hashlib

    return hashlib.sha256(
        "".join(result.spec_hash for result in report.results).encode()
    ).hexdigest()


def bench_fuzz(
    seeds: int, jobs: int | None = None, fidelity: str = "full",
    faults: bool = False, variant: str = "vw_hetpipe",
) -> dict[str, Any]:
    """Fuzz throughput over ``seeds`` scenarios (the headline metric).

    ``fidelity="fast_forward"`` measures the coalescing engine itself:
    equivalence twins stay off (they are a correctness gate, not part of
    a scenario's cost — ``repro fuzz --fidelity fast_forward`` runs them).
    ``faults`` measures the fault-injection mode: every scenario also
    pays for its fault-free horizon twin, the armed schedule, and the
    recovery machinery.  ``variant`` re-runs the same seeded scenarios
    under a pipeline-variant entry (composed admission gates, the
    weight-version ledger, and the per-variant oracles).
    """
    from repro.scenarios import run_fuzz

    _clear_scenario_caches()
    seconds, report = _timed(
        lambda: run_fuzz(
            range(seeds), jobs=jobs or 1, fidelity=fidelity,
            verify_equivalence=False if fidelity == "fast_forward" else None,
            faults=faults, variant=variant,
        )
    )
    return {
        "seeds": float(seeds),
        "jobs": float(jobs or 1),
        "seconds": seconds,
        "scenarios_per_sec": seeds / seconds if seconds > 0 else 0.0,
        "violations": float(report.total_violations),
        "events_simulated": float(report.events_simulated),
        "events_fast_forwarded": float(report.events_fast_forwarded),
        "spec_hash": _batch_spec_hash(report),
    }


def _long_horizon_seeds(count: int) -> list[int]:
    """The first ``count`` seeds whose scenarios draw zero task jitter."""
    from repro.scenarios.generator import generate_scenario

    picked: list[int] = []
    seed = 0
    while len(picked) < count:
        if generate_scenario(seed).spec.jitter == 0.0:
            picked.append(seed)
        seed += 1
    return picked


def bench_fuzz_long_horizon(
    quick: bool, scale: int = LONG_HORIZON_SCALE, count: int = LONG_HORIZON_SEEDS
) -> dict[str, Any]:
    """Full vs fast-forward on the long-horizon deterministic workload.

    This is where macro-event coalescing is asymptotically faster: the
    full run costs O(minibatches) while the coalesced run costs
    O(warmup + drain + detected cycles), so the gap widens with the
    ``scale`` factor.  Reported alongside the event counts so the
    reduction itself — not just wall clock — is tracked.
    """
    from repro.scenarios import run_fuzz

    if quick:
        scale, count = max(2, scale // 4), max(3, count // 2)
    seeds = _long_horizon_seeds(count)
    _clear_scenario_caches()
    full_seconds, full = _timed(
        lambda: run_fuzz(seeds, jobs=1, waves_scale=scale)
    )
    _clear_scenario_caches()
    ff_seconds, ff = _timed(
        lambda: run_fuzz(
            seeds, jobs=1, fidelity="fast_forward",
            verify_equivalence=False, waves_scale=scale,
        )
    )
    return {
        "seeds": float(len(seeds)),
        "waves_scale": float(scale),
        "full_seconds": full_seconds,
        "full_scenarios_per_sec": len(seeds) / full_seconds if full_seconds > 0 else 0.0,
        "full_events_simulated": float(full.events_simulated),
        "fast_forward_seconds": ff_seconds,
        "fast_forward_scenarios_per_sec": (
            len(seeds) / ff_seconds if ff_seconds > 0 else 0.0
        ),
        "fast_forward_events_simulated": float(ff.events_simulated),
        "fast_forward_events_coalesced": float(ff.events_fast_forwarded),
        "speedup": full_seconds / ff_seconds if ff_seconds > 0 else 0.0,
        "violations": float(full.total_violations + ff.total_violations),
        "spec_hash": _batch_spec_hash(full),
    }


def bench_experiments(quick: bool, jobs: int | None = None) -> dict[str, float]:
    """End-to-end figure regeneration times (vgg19; the slowest model
    set is the benchmark suite's job, not the trajectory's)."""
    from repro.experiments import run_fig3, run_fig4, run_table4

    out: dict[str, float] = {}
    out["fig3_vgg19_seconds"], _ = _timed(lambda: run_fig3("vgg19", jobs=jobs))
    if not quick:
        out["fig4_vgg19_seconds"], _ = _timed(lambda: run_fig4("vgg19", jobs=jobs))
        out["table4_vgg19_seconds"], _ = _timed(lambda: run_table4("vgg19", jobs=jobs))
    return out


def run_bench(
    quick: bool = False,
    seeds: int | None = None,
    jobs: int | None = None,
    skip_experiments: bool = False,
) -> dict[str, Any]:
    """Run the whole suite and return the ``BENCH_sweep.json`` payload."""
    import os

    seeds = seeds if seeds is not None else (QUICK_SEEDS if quick else FULL_SEEDS)
    engine_events = ENGINE_EVENTS // 4 if quick else ENGINE_EVENTS
    trace_records = TRACE_RECORDS // 4 if quick else TRACE_RECORDS

    metrics: dict[str, Any] = {}
    metrics["engine"] = bench_engine(engine_events)
    metrics["trace"] = bench_trace(trace_records)
    metrics["plan_cache"] = bench_plan_cache()
    metrics["fuzz"] = bench_fuzz(seeds, jobs=1)
    metrics["fuzz_fast_forward"] = bench_fuzz(seeds, jobs=1, fidelity="fast_forward")
    metrics["fuzz_faults"] = bench_fuzz(seeds, jobs=1, faults=True)
    metrics["fuzz_variant"] = bench_fuzz(seeds, jobs=1, variant="pipedream_2bw")
    metrics["fuzz_long_horizon"] = bench_fuzz_long_horizon(quick)
    parallel_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if parallel_jobs > 1:
        metrics["fuzz_parallel"] = bench_fuzz(seeds, jobs=parallel_jobs)
    if not skip_experiments:
        metrics["experiments"] = bench_experiments(quick, jobs=jobs)

    from repro.api.spec import SPEC_SCHEMA

    return {
        "schema": SCHEMA,
        "spec_schema": SPEC_SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": float(os.cpu_count() or 1),
        "metrics": metrics,
    }


def render(payload: dict[str, Any]) -> str:
    """Human-readable summary of a bench payload."""
    m = payload["metrics"]
    lines = [
        f"bench ({'quick' if payload['quick'] else 'full'}) — python "
        f"{payload['python']}, {int(payload['cpu_count'])} cpu(s)",
        f"  engine      : {m['engine']['events_per_sec']:>12,.0f} events/s",
        f"  trace       : {m['trace']['records_per_sec']:>12,.0f} records/s (streaming digest)",
        f"  plan cache  : {m['plan_cache']['speedup']:>12.1f} x warm vs cold",
        f"  fuzz        : {m['fuzz']['scenarios_per_sec']:>12.1f} scenarios/s "
        f"({int(m['fuzz']['seeds'])} seeds, serial)",
    ]
    ff = m.get("fuzz_fast_forward")
    if ff:
        base = m["fuzz"]["scenarios_per_sec"]
        speedup = ff["scenarios_per_sec"] / base if base > 0 else 0.0
        total = ff["events_simulated"] + ff["events_fast_forwarded"]
        share = ff["events_fast_forwarded"] / total if total else 0.0
        lines.append(
            f"  fuzz ff     : {ff['scenarios_per_sec']:>12.1f} scenarios/s "
            f"({speedup:.2f}x full; {share:.0%} of events coalesced)"
        )
    faulted = m.get("fuzz_faults")
    if faulted:
        base = m["fuzz"]["scenarios_per_sec"]
        ratio = faulted["scenarios_per_sec"] / base if base > 0 else 0.0
        lines.append(
            f"  fuzz faults : {faulted['scenarios_per_sec']:>12.1f} scenarios/s "
            f"({ratio:.2f}x fault-free; {int(faulted['violations'])} violations)"
        )
    varianted = m.get("fuzz_variant")
    if varianted:
        base = m["fuzz"]["scenarios_per_sec"]
        ratio = varianted["scenarios_per_sec"] / base if base > 0 else 0.0
        lines.append(
            f"  fuzz variant: {varianted['scenarios_per_sec']:>12.1f} scenarios/s "
            f"(pipedream_2bw; {ratio:.2f}x default variant)"
        )
    lh = m.get("fuzz_long_horizon")
    if lh:
        lines.append(
            f"  fuzz long   : {lh['fast_forward_scenarios_per_sec']:>12.1f} scenarios/s "
            f"fast-forward vs {lh['full_scenarios_per_sec']:.1f} full "
            f"({lh['speedup']:.2f}x at waves x{int(lh['waves_scale'])}, "
            f"{int(lh['fast_forward_events_coalesced'])} of "
            f"{int(lh['full_events_simulated'])} events coalesced)"
        )
    if "fuzz_parallel" in m:
        lines.append(
            f"  fuzz --jobs : {m['fuzz_parallel']['scenarios_per_sec']:>12.1f} scenarios/s "
            f"(jobs={int(m['fuzz_parallel']['jobs'])})"
        )
    for key, value in m.get("experiments", {}).items():
        lines.append(f"  {key:<12}: {value:>12.3f} s")
    return "\n".join(lines)


def check_against(
    payload: dict[str, Any], baseline_path: str, tolerance: float = 0.30
) -> tuple[bool, str]:
    """Compare fuzz throughput against a committed baseline.

    Two comparisons, and the check passes if **either** is within
    ``tolerance`` of the baseline:

    * **raw** scenarios/sec — exact on the machine the baseline was
      recorded on;
    * **machine-normalized** scenarios/sec, dividing by the engine
      micro-benchmark's events/sec — the committed baseline comes from
      one machine while CI runs on another, and the bare event loop is
      a clean proxy for single-core speed, so the ratio transfers.

    A genuine fuzz-path regression (engine unchanged) fails both; a
    slower/faster host changes both numerator and denominator of the
    normalized rate and still passes.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        return False, f"baseline {baseline_path} has schema {baseline.get('schema')!r}, expected {SCHEMA!r}"
    base_rate = baseline["metrics"]["fuzz"]["scenarios_per_sec"]
    rate = payload["metrics"]["fuzz"]["scenarios_per_sec"]
    floor = base_rate * (1.0 - tolerance)
    raw_ok = rate >= floor
    message = (
        f"fuzz throughput {rate:.1f} scenarios/s vs baseline {base_rate:.1f} "
        f"(floor at -{tolerance:.0%}: {floor:.1f})"
    )
    # Event-count deltas ride along (informational): wall clock varies
    # with the host, but simulated/coalesced event counts are exact, so
    # they attribute a throughput change to event-count changes vs
    # per-event cost changes.  Counts are normalized per scenario — the
    # quick and full workloads run different seed batches.
    for metric, simulated_key, coalesced_key in (
        ("fuzz", "events_simulated", "events_fast_forwarded"),
        ("fuzz_fast_forward", "events_simulated", "events_fast_forwarded"),
        ("fuzz_faults", "events_simulated", "events_fast_forwarded"),
        ("fuzz_variant", "events_simulated", "events_fast_forwarded"),
        ("fuzz_long_horizon", "fast_forward_events_simulated", "fast_forward_events_coalesced"),
    ):
        base_metric = baseline["metrics"].get(metric, {})
        cur_metric = payload["metrics"].get(metric, {})
        base_events = base_metric.get(simulated_key)
        cur_events = cur_metric.get(simulated_key)
        base_seeds = base_metric.get("seeds", 0.0)
        cur_seeds = cur_metric.get("seeds", 0.0)
        if base_events and cur_events and base_seeds and cur_seeds:
            base_per = base_events / base_seeds
            cur_per = cur_events / cur_seeds
            message += (
                f"; {metric} {cur_per:.0f} events/scenario vs {base_per:.0f} "
                f"({(cur_per - base_per) / base_per:+.1%}, "
                f"{cur_metric.get(coalesced_key, 0.0) / cur_seeds:.0f}/scenario coalesced)"
            )
    base_engine = baseline["metrics"].get("engine", {}).get("events_per_sec", 0.0)
    engine = payload["metrics"].get("engine", {}).get("events_per_sec", 0.0)
    if base_engine > 0 and engine > 0:
        normalized = rate / engine
        base_normalized = base_rate / base_engine
        normalized_ok = normalized >= base_normalized * (1.0 - tolerance)
        message += (
            f"; engine-normalized {normalized * 1e3:.3f} vs baseline "
            f"{base_normalized * 1e3:.3f} scenarios/kEvent "
            f"({'ok' if normalized_ok else 'regressed'})"
        )
        return raw_ok or normalized_ok, message
    return raw_ok, message


def write_payload(payload: dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_history(payload: dict[str, Any], store_dir: str) -> str:
    """Append one bench run to a result store as history.

    Unlike sweep points (keyed by ``spec_hash``, dedup-by-content is the
    point), bench runs are keyed by the sha256 of their own canonical
    payload: every run with distinct timings accumulates as a distinct
    record — the machine's perf history, listable with
    ``repro store ls`` — while byte-identical reruns dedupe naturally.
    Returns the one-line confirmation for the CLI.
    """
    import hashlib

    from repro.api.spec import canonical_dumps
    from repro.store import ResultStore

    key = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
    rate = (
        payload.get("metrics", {}).get("fuzz", {}).get("scenarios_per_sec", 0.0)
    )
    summary = f"{payload.get('schema', '?')} fuzz {rate:.1f} scen/s"
    ResultStore(store_dir).put(
        key, "bench", {"summary": summary, "bench": payload}, tool="repro bench"
    )
    return f"store: recorded bench run {key[:12]} -> {store_dir}"


#: Schema tag for the structured cProfile payload.
PROFILE_SCHEMA = "hetpipe-profile/1"

#: Entries kept in the structured profile (by cumulative time).
PROFILE_TOP = 50


def profile_path_for(out: str) -> str:
    """Where ``--profile`` writes: next to ``--out`` (or the cwd)."""
    import os

    directory = os.path.dirname(out) if out else ""
    return os.path.join(directory, "BENCH_profile.json") if directory else "BENCH_profile.json"


def profile_payload(profiler) -> dict[str, Any]:
    """Structured, diffable view of a cProfile run.

    Entries are the top-:data:`PROFILE_TOP` functions by cumulative
    time, each carrying the ``pstats`` counters (primitive/total calls,
    self and cumulative seconds) keyed by ``file:line(function)`` — the
    stable identity profiles can be compared across PRs by.
    """
    import pstats

    stats = pstats.Stats(profiler)
    entries = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        entries.append(
            {
                "function": f"{filename}:{line}({name})",
                "primitive_calls": cc,
                "total_calls": nc,
                "self_seconds": tt,
                "cumulative_seconds": ct,
            }
        )
    entries.sort(key=lambda e: (-e["cumulative_seconds"], e["function"]))
    return {
        "schema": PROFILE_SCHEMA,
        "total_calls": stats.total_calls,
        "total_seconds": stats.total_tt,
        "entries": entries[:PROFILE_TOP],
    }


def main_bench(args) -> int:
    """Entry point for the ``repro bench`` subcommand."""
    run = lambda: run_bench(  # noqa: E731
        quick=args.quick,
        seeds=args.seeds,
        jobs=args.jobs,
        skip_experiments=args.no_experiments,
    )
    if getattr(args, "profile", False):
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        payload = profiler.runcall(run)
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(25)
        print(stream.getvalue())
        path = profile_path_for(args.out)
        with open(path, "w") as fh:
            json.dump(profile_payload(profiler), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({PROFILE_SCHEMA}, top-{PROFILE_TOP} cumulative)")
    else:
        payload = run()
    print(render(payload))
    if args.out:
        write_payload(payload, args.out)
        print(f"wrote {args.out}")
    if getattr(args, "store", None):
        print(record_history(payload, args.store))
    if args.check:
        ok, message = check_against(payload, args.check, args.tolerance)
        print(("OK: " if ok else "REGRESSION: ") + message, file=sys.stderr if not ok else sys.stdout)
        return 0 if ok else 1
    return 0
