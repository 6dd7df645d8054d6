"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds N]
                         [--trace [0|1]] [--quick]
    python3 bench/run.py --tree PATH [--pairs N] [--workload NAME]

Every repeat runs in a fresh process (``bench/child.py``), one at a
time, until ``--seconds`` have passed and at least three repeats ran.
The run checks every output, prints each metric with its unit, median,
quartiles and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones, from
traced repeats interleaved with untraced ones.  Without ``--workload``
every workload runs in turn.  ``--tree`` runs interleaved A/B pairs of
one repeat each against the ``src/`` of a second source tree.  The exit
code is non-zero when any check fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 15
#: Fewest repeats of a run (untraced; traced runs take pairs of one
#: untraced and one traced repeat, at least two pairs).
MIN_REPEATS, MIN_TRACED_PAIRS = 3, 2
#: Most repeats of one run: the fuzz chunks the expectations cover.
MAX_CHUNKS = 12
CHILD_TIMEOUT_S = 150
#: ``phase.coverage`` must stay within this band on every workload.
COVERAGE_BAND = (0.95, 1.05)
WORK_DIR = os.path.join(ROOT, ".bench")

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
#: Layers whose self-time share is reported (sim.equivalence only runs
#: in the untimed verification pass, so no traced repeat reaches it).
SELF_LAYERS = tuple(m for m in tracing.MODULES if m != "sim.equivalence") + ("other",)
PHASE_METRICS = (
    "generate", "build", "plan", "main_run", "twin_contention", "twin_horizon",
    "check_1f1b", "fault_setup",
)
COUNTS = (
    "events_main", "events_twin", "events_1f1b", "events_coalesced", "trace_emits",
    "oracle_calls", "fabric_transfers", "ps_pushes", "ps_pulls", "plan_solves",
    "plan_cache_hits", "plan_cache_misses", "store_puts", "store_fetches",
)


class Failure(Exception):
    """A child process that did not produce a result."""


class Checks:
    """Checked outputs of one run: attempted, failed and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)

    def absorb(self, repeat: dict) -> None:
        self.attempted += repeat["checked"]
        self.problems += repeat["problems"]

    @property
    def failed(self) -> int:
        return len(self.problems)


def load_expected() -> dict:
    with open(os.path.join(BENCH, "expected.json")) as fh:
        return json.load(fh)


def run_child(src: str, workload: str, seed: int, mode: str = "plain", quick: bool = False,
              chunk: int = 0, timeout: float = CHILD_TIMEOUT_S):
    """Run one ``child.py`` process and return its parsed JSON line."""
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    command = [
        sys.executable, os.path.join(BENCH, "child.py"), "--src", src,
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--tmp", tmp,
        "--chunk", str(chunk),
    ]
    if quick:
        command.append("--quick")
    env = dict(os.environ, TMPDIR=tmp, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"{workload}: {mode} process exceeded {timeout:g}s") from None
    if proc.returncode != 0:
        raise Failure(f"{workload}: child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def check_outputs(workload: str, seed: int, quick: bool, repeats: list[dict],
                  chunks: list[int], checks: Checks) -> None:
    """Compare outputs with the committed expectations and across repeats
    of the same inputs, which ran in different processes."""
    expected = load_expected()["quick" if quick else "full"][workload]
    first: dict[int, dict] = {}
    for chunk, repeat in zip(chunks, repeats):
        checks.absorb(repeat)
        output = repeat["outputs"]
        if chunk in first:
            checks.check(
                output == first[chunk],
                f"{workload}: two repeats of the same inputs (chunk {chunk}) gave different outputs",
            )
        else:
            first[chunk] = output
    if workload in workloads.FUZZ:
        if seed == 0:
            for chunk, output in first.items():
                if chunk < len(expected["chunks"]):
                    checks.check(
                        output["digest"] == expected["chunks"][chunk],
                        f"{workload}: chunk {chunk} digest {output['digest'][:12]} != "
                        f"expected {expected['chunks'][chunk][:12]}",
                    )
        return
    output = first[0]
    if workload == "sweep_grid":
        checks.check(
            output["rejected"] == expected["rejected"],
            f"sweep_grid: rejected points {output['rejected']} != expected {expected['rejected']}",
        )
    if seed != 0:
        return
    if workload == "figures":
        checks.check(
            abs(output["paper_err_pct"] - expected["paper_err_pct"]) <= 1e-9,
            f"figures: paper error {output['paper_err_pct']!r} != {expected['paper_err_pct']!r}",
        )
        for name, digest in expected["renders"].items():
            checks.check(output["renders"].get(name) == digest, f"figures: {name} render changed")
    elif workload == "cluster64":
        checks.check(output["digest"] == expected["digest"], "cluster64: digest changed")
    elif workload == "sweep_grid":
        checks.check(
            len(output["points"]) == len(expected["points"]), "sweep_grid: point count changed"
        )
        for index, (point, want) in enumerate(zip(output["points"], expected["points"])):
            checks.check(point == want, f"sweep_grid: point {index} is {point}, expected {want}")


def verify_long_horizon(src: str, seed: int, quick: bool, digest: str, checks: Checks) -> None:
    """The untimed pass over chunk 0 with the equivalence twin on: no
    equivalence failures, and the same digest as the timed chunk 0 (the
    twin never feeds the main run's trace)."""
    repeat = run_child(src, "long_horizon_ff", seed, "verify", quick)
    checks.absorb(repeat)
    checks.check(
        repeat["outputs"]["digest"] == digest,
        "long_horizon_ff: the verification pass changed chunk 0's digest",
    )
    info = repeat["info"]
    checks.check(
        info["equivalence_failures"] == 0,
        f"long_horizon_ff: {info['equivalence_failures']} equivalence failures "
        f"in {info['equivalence_checks']} checks",
    )


def run_workload(src: str, workload: str, seed: int, seconds: float, quick: bool,
                 traced: bool) -> dict:
    """Repeats of one workload until ``seconds`` pass; returns the run record.

    An untraced run of a fuzz workload gives chunk 0 to its first two
    repeats, so their digests must agree, and the next chunk to each
    later one.  Traced runs repeat chunk 0, so every count is exact per
    seed.
    """
    chunked = workload in workloads.FUZZ and not (quick or traced)
    checks = Checks()
    repeats, traces, chunks = [], [], []
    fewest = MIN_TRACED_PAIRS if traced else MIN_REPEATS
    deadline = time.perf_counter() + seconds
    while True:
        chunk = max(len(repeats) - 1, 0) if chunked else 0
        repeats.append(run_child(src, workload, seed, "plain", quick, chunk))
        chunks.append(chunk)
        if traced:
            traces.append(run_child(src, workload, seed, "trace", quick, chunk))
            chunks.append(chunk)
        if quick or (
            len(repeats) >= fewest
            and (time.perf_counter() >= deadline or chunk + 1 == MAX_CHUNKS)
        ):
            break
    check_outputs(workload, seed, quick, _interleave(repeats, traces), chunks, checks)
    if workload == "long_horizon_ff" and not traced:
        verify_long_horizon(src, seed, quick, repeats[0]["outputs"]["digest"], checks)
    record = {
        "workload": workload, "seed": seed, "quick": quick, "chunks": chunks,
        "repeats": repeats, "info": info_metrics(repeats),
    }
    if traced:
        record["metrics"] = layer_metrics(repeats, traces, checks)
        record["traces"] = traces[:1]
        for trace in traces[1:]:
            trace.pop("trace", None)
    else:
        record["metrics"] = end_to_end_metrics(repeats)
    record.update(attempted=checks.attempted, failed=checks.failed, problems=checks.problems)
    return record


def _interleave(repeats: list[dict], traces: list[dict]) -> list[dict]:
    if not traces:
        return repeats
    return [r for pair in zip(repeats, traces) for r in pair]


def end_to_end_metrics(repeats: list[dict]) -> dict:
    values = {
        "setup_s": [r["setup_ref_s"] for r in repeats],
        "cpu_s": [r["cpu_ref_s"] for r in repeats],
        "peak_rss_mb": [r["rss_mb"] for r in repeats],
    }
    return {name: {**stats.summarize(v), "unit": END_TO_END[name]} for name, v in values.items()}


def info_metrics(repeats: list[dict]) -> dict:
    """Numbers reported for information only (not part of the contract)."""
    info = {
        name: stats.summarize([r[key] for r in repeats])
        for name, key in (
            ("raw_cpu_s", "cpu_s"), ("raw_setup_s", "setup_s"),
            ("wall_s", "wall_s"), ("slowdown", "slowdown"),
        )
    }
    item_ms = sorted(ms / r["slowdown"] for r in repeats for ms in r.get("item_ms", ()))
    if item_ms:
        info["scenario_ms"] = {"p50": stats.summarize(item_ms)["median"], "n": len(item_ms)}
        # The highest percentile with at least ten samples beyond it.
        for percent in (99, 95, 90):
            if len(item_ms) * (100 - percent) >= 1000:
                info["scenario_ms"][f"p{percent}"] = item_ms[len(item_ms) * percent // 100]
                break
    if "resume_ms_per_point" in repeats[0]["info"]:
        info["resume_ms_per_point"] = stats.summarize(
            [r["info"]["resume_ms_per_point"] for r in repeats]
        )
    for key in ("img_per_s", "makespan_s"):
        if key in repeats[0]["info"]:
            info["model." + key] = repeats[0]["info"][key]
    if "paper_err_pct" in repeats[0]["outputs"]:
        info["paper_err_pct"] = repeats[0]["outputs"]["paper_err_pct"]
    return info


def layer_metrics(plain: list[dict], traced: list[dict], checks: Checks) -> dict:
    """Per-layer metrics of a traced run, summarized over traced repeats.

    Unit costs divide the untraced median CPU time by the traced counts,
    which are the same in every traced repeat of the same inputs.
    """
    counts = traced[0]["trace"]["counts"]
    for repeat in traced[1:]:
        checks.check(
            repeat["trace"]["counts"] == counts,
            "traced repeats of the same inputs counted different events or calls",
        )
    plain_cpu = stats.summarize([r["cpu_ref_s"] for r in plain])["median"]
    # Traced repeats take no reference slices, so the overhead compares
    # raw CPU time of repeats that ran side by side.
    plain_raw_cpu = stats.summarize([r["cpu_s"] for r in plain])["median"]
    per_repeat = [layer_values(r["trace"], r["cpu_s"] / plain_raw_cpu, plain_cpu) for r in traced]
    metrics = {
        name: {**stats.summarize([values[name][0] for values in per_repeat]), "unit": unit}
        for name, (_, unit) in per_repeat[0].items()
    }
    coverage = metrics["phase.coverage"]["median"]
    low, high = COVERAGE_BAND
    checks.check(low <= coverage <= high, f"phase.coverage {coverage:.3f} is outside [{low}, {high}]")
    return metrics


def layer_values(trace: dict, overhead: float, plain_cpu: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced repeat, with its unit."""
    scenario_s = trace["scenario_s"]
    values = {
        f"phase.{phase}_pct": (100 * trace["phase_s"][phase] / scenario_s, "%")
        for phase in PHASE_METRICS
    }
    values["phase.other_pct"] = (100 * (scenario_s - trace["covered_s"]) / scenario_s, "%")
    values["phase.coverage"] = (trace["covered_s"] / scenario_s, "ratio")
    for layer in SELF_LAYERS:
        values[f"self.{layer}_pct"] = (100 * trace["self_s"][layer] / trace["profiled_s"], "%")
    for name, key in (
        ("store.put_pct", "store_put_s"),
        ("store.fetch_pct", "store_fetch_s"),
        ("exec.parent_wait_pct", "exec_parent_wait_s"),
    ):
        values[name] = (100 * trace[key] / trace["wall_s"], "%")
    counts = trace["counts"]
    for name in COUNTS:
        values[f"count.{name}"] = (counts[name], "count")
    simulated = counts["events_main"] + counts["events_1f1b"]
    lookups = counts["plan_cache_hits"] + counts["plan_cache_misses"]
    values["ratio.ff_coalesced"] = (
        _ratio(counts["events_coalesced"], counts["events_coalesced"] + simulated), "ratio"
    )
    values["ratio.plan_cache_hit"] = (_ratio(counts["plan_cache_hits"], lookups), "ratio")
    values["ratio.twin_events"] = (_ratio(counts["events_twin"], counts["events_main"]), "ratio")
    events = simulated + counts["events_twin"]
    values["engine.cpu_us_per_event"] = (1e6 * plain_cpu / events, "us")
    trace_share = trace["self_s"]["sim.trace"] / trace["profiled_s"]
    values["trace.ns_per_emit"] = (1e9 * plain_cpu * trace_share / counts["trace_emits"], "ns")
    values["trace.overhead"] = (overhead, "ratio")
    return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def write_record(record: dict, traced: bool) -> str:
    results = os.path.join(WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}{'-quick' if record['quick'] else ''}"
    path = os.path.join(results, name + ("-trace" if traced else "") + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, {len(record['repeats'])} repeats)")
    for name, m in record["metrics"].items():
        print(
            f"  {name:<30} {m['unit']:<6} median {m['median']:<12.6g} "
            f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} n {m['n']}"
        )
    for name, value in record["info"].items():
        print(f"  info {name}: {json.dumps(value, sort_keys=True)}")
    print(f"  checks: {record['attempted']} attempted, {record['failed']} failed")
    for problem in record["problems"][:20]:
        print(f"    - {problem}")


def result_line(records: list[dict]) -> str:
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for name, m in record["metrics"].items():
            metrics[prefix + name] = {"value": m["median"], "unit": m["unit"]}
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    })


def ab_compare(this_src: str, other_src: str, workload: str, pairs: int, quick: bool) -> int:
    """Interleaved A/B pairs of one repeat each; prints the claim rule."""
    sides = {"this": this_src, "other": other_src}
    runs: dict[str, list[dict]] = {"this": [], "other": []}
    wins = {"this": 0, "other": 0}
    print(f"A/B {workload}: this={this_src} other={other_src}, {pairs} pairs")
    for i in range(pairs):
        order = ("this", "other") if i % 2 == 0 else ("other", "this")
        pair = {}
        for side in order:
            pair[side] = run_child(sides[side], workload, 0, "plain", quick)
            runs[side].append(pair[side])
        a, b = pair["this"]["cpu_ref_s"], pair["other"]["cpu_ref_s"]
        if a != b:
            wins["this" if a < b else "other"] += 1
        same = pair["this"]["outputs"] == pair["other"]["outputs"]
        print(
            f"  pair {i:>2} ({order[0]} first): this {a:.4f}s other {b:.4f}s "
            f"-> {'this' if a < b else 'other'}{'' if same else '  OUTPUTS DIFFER'}"
        )
    cpu = {side: [r["cpu_ref_s"] for r in runs[side]] for side in runs}
    for side in ("this", "other"):
        s = stats.summarize(cpu[side])
        print(f"  {side:<5} cpu_s median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']}")
    delta = stats.summarize(cpu["this"])["median"] / stats.summarize(cpu["other"])["median"] - 1
    print(f"  this vs other: {delta:+.1%} cpu_s; wins this {wins['this']}, other {wins['other']}")
    print(f"  claim 'this is faster' holds: {stats.claim_holds(cpu['this'], cpu['other'], wins['this'], pairs)}")
    print(f"  claim 'other is faster' holds: {stats.claim_holds(cpu['other'], cpu['this'], wins['other'], pairs)}")
    return 0


def write_expected(src: str) -> int:
    """Rescan the seed pools and record seed 0's outputs as
    ``bench/expected.json``.

    For a deliberate output change only, such as a declared digest bump:
    the run's checks compare against what this writes.
    """
    pools = run_child(src, "long_horizon_ff", 0, "pools", timeout=3600)
    with open(workloads.POOL_PATH, "w") as fh:
        json.dump(pools, fh)
        fh.write("\n")
    for name, pool in pools.items():
        print(f"{name} pool: {len(pool['seeds'])} seeds, excluded {pool['excluded']}", flush=True)
    expected: dict = {"full": {}, "quick": {}}
    for quick, key in ((False, "full"), (True, "quick")):
        for workload in workloads.WORKLOADS:
            fuzz = workload in workloads.FUZZ
            outputs = []
            for chunk in range(MAX_CHUNKS if fuzz and not quick else 1):
                repeat = run_child(src, workload, 0, "plain", quick, chunk)
                if repeat["problems"]:
                    raise Failure(f"{workload}: {repeat['problems'][0]}")
                outputs.append(repeat["outputs"])
            expected[key][workload] = (
                {"chunks": [output["digest"] for output in outputs]} if fuzz else outputs[0]
            )
            print(f"{key} {workload}: recorded", flush=True)
    with open(os.path.join(BENCH, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="small inputs, one repeat each")
    parser.add_argument("--tree", default=None, help="A/B against this source tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record seed 0's outputs as bench/expected.json (deliberate output changes only)",
    )
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"bench: no repro package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.write_expected:
            return write_expected(src)
        if args.tree is not None:
            other = os.path.join(os.path.abspath(args.tree), "src")
            if not os.path.isfile(os.path.join(other, "repro", "__init__.py")):
                parser.error(f"--tree {args.tree} has no src/repro package")
            return ab_compare(src, other, args.workload or "fuzz_default", args.pairs, args.quick)
        records = []
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            record = run_workload(src, workload, args.seed, args.seconds, args.quick, bool(args.trace))
            print_record(record)
            print(f"  wrote {write_record(record, bool(args.trace))}")
            records.append(record)
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(result_line(records))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
