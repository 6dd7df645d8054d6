"""Command-line interface: ``hetpipe <experiment> [--model ...]``.

Each subcommand regenerates one paper table/figure on the simulated
testbed and prints it side by side with the paper's numbers.  The
``fuzz`` subcommand instead drives the scenario fuzzing harness: seeded
random configurations through the full runtime under invariant oracles
(see :mod:`repro.scenarios`), optionally on the contention-aware shared
network (``--network shared``).  ``netsim`` reports per-resource network
utilization and the top congested links of one deployment under the
shared fabric (see :mod:`repro.netsim`).

``run`` and ``sweep`` are the declarative entries (see
:mod:`repro.api`): ``repro run spec.json`` executes one typed
:class:`~repro.api.spec.RunSpec` — a figure regeneration or a single
oracle-checked scenario — and ``repro sweep grid.json`` expands a
spec's sweep section into its cartesian grid and runs every point,
tagged with its ``spec_hash``.  Checked-in spec files live under
``examples/specs/``.

Multi-scenario commands accept ``--jobs N`` and fan their independent
work items across worker processes through :mod:`repro.exec`; output is
bit-identical to a serial run.  Experiment modules import lazily, per
subcommand: ``repro fuzz`` startup is measured by the repo benchmark
(``setup_s`` in ``bench/``), so it must not pay for NumPy and the
numeric trainers it never uses.

Exit codes are uniform: 0 success, 1 findings (fuzz violations, failing
sweep points), 2 bad configuration — malformed specs
(:class:`~repro.errors.SpecError`), unknown registry names
(:class:`~repro.errors.UnknownNameError`, which lists what exists) and
unwritable output paths (:class:`OSError`) print one actionable line to
stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.spec import (
    ALLOCATION_POLICIES,
    FIDELITIES,
    NETWORK_MODELS,
    SHARD_PLACEMENT_POLICIES,
)
from repro.cluster.catalog import DEFAULT_PROFILE, INTERCONNECT_PROFILES


def _positive_int(value: str) -> int:
    """argparse type: an int >= 1 (a zero-seed fuzz gate passes vacuously)."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    """argparse type: a float > 0 (watchdog timeouts)."""
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _add_model_arg(parser: argparse.ArgumentParser, default: str = "vgg19") -> None:
    parser.add_argument(
        "--model", choices=["vgg19", "resnet152"], default=default,
        help="workload to measure",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser, default: int | None = 1) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=default, metavar="N",
        help="worker processes for the sweep (default: %(default)s; "
        "results are bit-identical to --jobs 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetpipe",
        description="HetPipe (ATC'20) reproduction: regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default="warning",
        help="stdlib logging threshold for the repro.* loggers "
        "(default: warning, which keeps historical output unchanged)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig3", help="single-VW throughput/utilization vs Nm")
    _add_model_arg(p)
    _add_jobs_arg(p)
    p = sub.add_parser("fig4", help="multi-VW throughput per allocation policy")
    _add_model_arg(p)
    _add_jobs_arg(p)
    p = sub.add_parser("table4", help="throughput while adding whimpy GPUs")
    _add_model_arg(p)
    _add_jobs_arg(p)
    p = sub.add_parser("fig5", help="ResNet-152 convergence (12 vs 16 GPUs)")
    p.add_argument("--curves", action="store_true", help="print ASCII accuracy curves")
    p = sub.add_parser("fig6", help="VGG-19 convergence vs D")
    p.add_argument("--curves", action="store_true", help="print ASCII accuracy curves")
    p = sub.add_parser("sync", help="§8.4 waiting/idle time vs D")
    _add_model_arg(p)
    p = sub.add_parser("ablations", help="design-choice ablations")
    _add_model_arg(p, default="resnet152")
    p = sub.add_parser(
        "fuzz", help="seeded scenario fuzzing under runtime invariant oracles"
    )
    p.add_argument(
        "--seeds", type=_positive_int, default=25, metavar="N",
        help="number of consecutive seeds to run (default: 25)",
    )
    p.add_argument(
        "--base-seed", type=int, default=0, metavar="S",
        help="first seed of the batch (default: 0)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print one line per scenario, not just the summary",
    )
    p.add_argument(
        "--network", choices=NETWORK_MODELS, default="dedicated",
        help="network model: historical private links, or the shared "
        "contention-aware fabric with its extra oracles (default: dedicated)",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes (default: one per CPU; per-seed digests "
        "are bit-identical to --jobs 1)",
    )
    p.add_argument(
        "--fidelity", choices=FIDELITIES, default="full",
        help="full: bit-identical replay digests (hetpipe-trace/1); "
        "fast_forward: coalesce confirmed steady-state cycles under the "
        "semantic-equivalence contract (hetpipe-trace/2 digests; every "
        "scenario that coalesced also runs its full-fidelity twin and "
        "any contract deviation is a violation) (default: full)",
    )
    p.add_argument(
        "--no-verify-equivalence", dest="verify_equivalence",
        action="store_false", default=None,
        help="under --fidelity fast_forward, skip the full-fidelity twin "
        "runs (pure speed; the contract is then only spot-checked by CI)",
    )
    p.add_argument(
        "--waves-scale", type=_positive_int, default=1, metavar="K",
        help="multiply every scenario's measured window by K (long-"
        "horizon fuzzing; K>1 changes digests at either fidelity) "
        "(default: 1)",
    )
    p.add_argument(
        "--shards", type=_positive_int, default=1, metavar="K",
        help="PS shard slots per stage (K>1 reruns the same seeded "
        "scenarios with a K-way sharded PS and changes digests; the "
        "default 1 keeps them frozen)",
    )
    p.add_argument(
        "--shard-placement",
        choices=SHARD_PLACEMENT_POLICIES,
        default="size_balanced",
        help="shard placement policy used when --shards > 1 "
        "(default: size_balanced)",
    )
    p.add_argument(
        "--variant", default="vw_hetpipe", metavar="NAME",
        help="pipeline variant to re-run the seeded scenarios under "
        "(resolved through the VARIANTS registry: vw_hetpipe, "
        "gpipe_flush, pipedream, pipedream_2bw, xpipe; unknown names "
        "exit 2 listing what exists; the default vw_hetpipe keeps the "
        "frozen digests)",
    )
    p.add_argument(
        "--faults", action="store_true",
        help="draw a seeded fault schedule per scenario (stragglers, "
        "crash/rejoin, link degradation, PS failures) and check the "
        "graceful-degradation oracles instead of the fault-free timing "
        "envelopes; the scenario draw is unchanged, but digests differ "
        "from the frozen fault-free corpus",
    )
    p.add_argument(
        "--bundle-dir", default=None, metavar="DIR",
        help="on any oracle violation, re-run the failing seed with "
        "diagnostics capture and write one reproducible bundle directory "
        "per failure under DIR (spec.json + trace ring + oracle state + "
        "queue snapshots; replay with `repro run <bundle>/spec.json`)",
    )
    p = sub.add_parser(
        "netsim",
        help="per-resource network utilization and top congested links "
        "under the shared contention-aware fabric",
    )
    _add_model_arg(p)
    p.add_argument(
        "--nodes", default="VRGQ", metavar="CODES",
        help="node GPU codes, one letter per node (default: VRGQ)",
    )
    p.add_argument(
        "--alloc", choices=ALLOCATION_POLICIES, default="ED",
        help="virtual-worker allocation policy (default: ED)",
    )
    p.add_argument("--d", type=int, default=0, help="global staleness bound D")
    p.add_argument(
        "--nm", type=_positive_int, default=None,
        help="pipeline depth Nm (default: analytic best)",
    )
    p.add_argument(
        "--placement", default="default", metavar="POLICY",
        help="parameter placement policy (resolved through the "
        "PLACEMENTS registry: default, local; unknown names exit 2 "
        "listing what exists)",
    )
    p.add_argument(
        "--shards", type=_positive_int, default=1, metavar="K",
        help="PS shard slots per stage (default: 1, unsharded)",
    )
    p.add_argument(
        "--shard-placement",
        choices=SHARD_PLACEMENT_POLICIES,
        default="size_balanced",
        help="shard placement policy used when --shards > 1 "
        "(default: size_balanced)",
    )
    p.add_argument(
        "--profile", choices=sorted(INTERCONNECT_PROFILES), default=DEFAULT_PROFILE,
        help="link calibration profile (default: %(default)s)",
    )
    p.add_argument(
        "--top", type=_positive_int, default=8,
        help="how many congested resources to list (default: 8)",
    )
    p = sub.add_parser(
        "run",
        help="execute one declarative RunSpec JSON file (see examples/specs/)",
    )
    p.add_argument("spec", metavar="SPEC.json", help="path to a RunSpec file")
    p.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for experiment-kind specs (a scenario "
        "spec is one deterministic simulation and always runs serially)",
    )
    p = sub.add_parser(
        "trace",
        help="run one RunSpec instrumented and export a Chrome-trace/"
        "Perfetto timeline JSON (one track per GPU/processor/channel/"
        "fabric resource; open at ui.perfetto.dev)",
    )
    p.add_argument("spec", metavar="SPEC.json", help="path to a scenario RunSpec file")
    p.add_argument(
        "--out", default="run.trace.json", metavar="PATH",
        help="timeline output path (default: %(default)s)",
    )
    p = sub.add_parser(
        "sweep",
        help="expand a RunSpec's sweep grid and run every point "
        "(in-order results, per-point spec_hash)",
    )
    p.add_argument("spec", metavar="GRID.json", help="path to a RunSpec file with a sweep section")
    p.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the grid (default: 1; results are "
        "bit-identical to --jobs 1)",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-point progress lines (summary only)",
    )
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="commit every completed point to a crash-safe result store "
        "the moment it finishes (a SIGKILL mid-grid loses at most the "
        "in-flight points)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip points whose verified entry already exists in --store "
        "(corrupted entries are quarantined and recomputed); merged "
        "output is bit-identical to an uninterrupted run",
    )
    p.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECS",
        help="per-point wall-clock watchdog: a point that hangs past "
        "SECS is killed and retried in isolation; one that never "
        "finishes exits 2 naming its index (finished points are already "
        "safe in --store)",
    )
    p = sub.add_parser(
        "store",
        help="inspect and maintain a result store directory "
        "(see `repro sweep --store`)",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser(
        "ls", help="list the store's entries (key, kind, summary)"
    )
    p.add_argument("dir", metavar="DIR", help="store directory")
    p.add_argument(
        "--where", action="append", default=None, metavar="FIELD=VALUE",
        help="only list entries whose record spec matches, e.g. "
        "--where pipeline.variant=pipedream (dotted path into the "
        "entry's spec dict; repeatable — clauses AND together; values "
        "compare as strings, so booleans are true/false and numbers "
        "their literal form)",
    )
    p = store_sub.add_parser(
        "verify",
        help="check every entry against its embedded checksum; exits 1 "
        "listing the defects if any entry is corrupt (read-only: "
        "nothing is quarantined)",
    )
    p.add_argument("dir", metavar="DIR", help="store directory")
    p = store_sub.add_parser(
        "gc",
        help="drop leftover temp files, purge quarantined entries, and "
        "prune manifest rows whose object is gone",
    )
    p.add_argument("dir", metavar="DIR", help="store directory")
    p = store_sub.add_parser(
        "quarantine",
        help="move one entry out of the store by key (it will be "
        "recomputed by the next resumed sweep)",
    )
    p.add_argument("dir", metavar="DIR", help="store directory")
    p.add_argument("key", metavar="KEY", help="entry key (a spec_hash)")
    p = sub.add_parser("all", help="run every experiment (slow)")
    _add_jobs_arg(p)
    return parser


def _parse_where(raw: str) -> tuple[list[str], str]:
    """Split one ``--where dotted.field=value`` clause; malformed exits 2."""
    from repro.errors import SpecError

    field, sep, value = raw.partition("=")
    if not sep or not field:
        raise SpecError(
            f"--where wants FIELD=VALUE (a dotted path into the record's "
            f"spec, e.g. pipeline.variant=pipedream), got {raw!r}"
        )
    return field.split("."), value


def _entry_matches(store, key: str, clauses) -> bool:
    """True when the verified record's spec satisfies every clause.

    The walk is forgiving — a record without a spec, or a path that
    dead-ends, simply doesn't match (filters narrow; they never error on
    heterogeneous stores).  Values compare as strings so booleans and
    numbers filter by their JSON literal form.
    """
    record = store.load(key)
    if record is None or record.spec is None:
        return False
    for path, expected in clauses:
        node = record.spec
        for part in path:
            if not isinstance(node, dict) or part not in node:
                return False
            node = node[part]
        actual = "true" if node is True else "false" if node is False else str(node)
        if actual != expected:
            return False
    return True


def _dispatch_store(args) -> int:
    """``repro store {ls,verify,gc,quarantine}``: store maintenance.

    ``verify`` follows the findings convention (exit 1 listing the
    defects, nothing modified); ``quarantine`` of a missing key is a
    configuration error (exit 2 upstream).
    """
    import os

    from repro.errors import ConfigurationError
    from repro.store import ResultStore

    if not os.path.isdir(args.dir):
        raise ConfigurationError(
            f"{args.dir!r} is not a directory; pass the --store DIR a "
            f"sweep wrote (it contains objects/ and manifest.json)"
        )
    store = ResultStore(args.dir)
    if args.store_command == "ls":
        entries = store.entries()
        if getattr(args, "where", None):
            clauses = [_parse_where(raw) for raw in args.where]
            entries = [
                entry for entry in entries
                if _entry_matches(store, entry["key"], clauses)
            ]
        for entry in entries:
            summary = entry.get("summary") or ""
            print(f"{entry['key'][:12]}  {entry.get('kind', '?'):>10}  {summary}")
        print(f"store: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'} in {args.dir}")
        return 0
    if args.store_command == "verify":
        defects = store.verify()
        for key, detail in defects:
            print(f"CORRUPT {key[:12]}: {detail}")
        print(
            f"store: {len(store)} entr{'y' if len(store) == 1 else 'ies'} "
            f"checked, {len(defects)} corrupt"
        )
        return 1 if defects else 0
    if args.store_command == "gc":
        counts = store.gc()
        print(
            f"store: dropped {counts['tmp']} temp file(s), purged "
            f"{counts['quarantined']} quarantined entr"
            f"{'y' if counts['quarantined'] == 1 else 'ies'}, pruned "
            f"{counts['manifest']} stale manifest row(s)"
        )
        return 0
    assert args.store_command == "quarantine"
    moved = store.quarantine(args.key)
    if moved is None:
        raise ConfigurationError(
            f"no entry {args.key!r} in {args.dir}; `repro store ls` lists "
            f"the keys that exist"
        )
    print(f"quarantined {args.key[:12]} -> {moved}")
    return 0


def _load_spec(path: str):
    """Parse a RunSpec file; misses and malformations exit 2 upstream."""
    from repro.api.spec import RunSpec
    from repro.errors import SpecError

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from None
    return RunSpec.from_json(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    import logging

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    from repro.errors import (
        ConfigurationError,
        ItemTimeoutError,
        PartitionError,
        StoreCorruptionError,
    )

    try:
        return _dispatch(args)
    except (
        ConfigurationError,
        PartitionError,
        StoreCorruptionError,
        ItemTimeoutError,
        OSError,
    ) as exc:
        # Typed configuration errors — malformed specs (SpecError),
        # unknown registry names (UnknownNameError, which lists the
        # available entries), inconsistent clusters, infeasible
        # deployments, corrupted store entries (StoreCorruptionError
        # names the file), hung sweep items (ItemTimeoutError names the
        # point) — and unwritable output paths (OSError names the path):
        # one actionable line, exit code 2 — never a raw traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    # Experiment modules import only when their registry entry is called,
    # and every other import happens inside its branch: `repro fuzz` must
    # start without touching NumPy or the experiment harnesses (its
    # startup is the benchmark's setup_s, see bench/README.md).
    from repro.api.registry import EXPERIMENTS

    if args.command in EXPERIMENTS:
        result = EXPERIMENTS.get(args.command)(
            getattr(args, "model", None), getattr(args, "jobs", None)
        )
        print(result.render())
        if getattr(args, "curves", False):  # fig5/fig6 only
            from repro.experiments.report import ascii_curve

            for label, run in result.runs.items():
                print(ascii_curve([(t, a) for t, _, a in run.curve], label=label))
    elif args.command == "fuzz":
        from repro.scenarios import run_fuzz

        report = run_fuzz(
            range(args.base_seed, args.base_seed + args.seeds),
            verbose_log=print if args.verbose else None,
            network_model=args.network,
            jobs=args.jobs,
            fidelity=args.fidelity,
            verify_equivalence=args.verify_equivalence,
            waves_scale=args.waves_scale,
            shards=args.shards,
            shard_placement=args.shard_placement,
            bundle_dir=args.bundle_dir,
            faults=args.faults,
            variant=args.variant,
        )
        print(report.summary())
        return 1 if report.failures else 0
    elif args.command == "netsim":
        from repro.experiments.netsim_report import run_netsim

        print(
            run_netsim(
                model_name=args.model,
                node_codes=args.nodes,
                allocation=args.alloc,
                d=args.d,
                nm=args.nm,
                placement=args.placement,
                shards=args.shards,
                shard_placement=args.shard_placement,
                profile=args.profile,
                top=args.top,
            ).render()
        )
    elif args.command == "run":
        from repro.api.run import run

        spec = _load_spec(args.spec)
        result = run(spec, jobs=args.jobs)
        if spec.kind == "experiment":
            print(result.render())
            return 0
        print(result.describe())
        if result.violations:
            for violation in result.violations:
                print(f"  - {violation}")
            return 1
        return 0
    elif args.command == "trace":
        import json

        from repro.errors import SpecError
        from repro.obs.timeline import trace_run

        spec = _load_spec(args.spec)
        if spec.kind != "scenario" or spec.sweep is not None:
            raise SpecError(
                "`repro trace` instruments a single scenario run; "
                f"got kind={spec.kind!r}"
                + (" with a sweep section (use `repro sweep`)" if spec.sweep else "")
            )
        # Open --out first: an unwritable path fails before the run.
        with open(args.out, "w") as fh:
            payload = trace_run(spec)
            json.dump(payload, fh)
            fh.write("\n")
        meta = payload["otherData"]
        print(
            f"trace: {len(payload['traceEvents'])} events "
            f"({meta['spans']} spans, {meta['annotations']} annotations, "
            f"{meta['samples']} samples) -> {args.out}"
        )
        print("open in chrome://tracing or https://ui.perfetto.dev")
    elif args.command == "sweep":
        from repro.api.run import run_sweep

        spec = _load_spec(args.spec)
        store = None
        if args.store is not None:
            from repro.store import ResultStore

            store = ResultStore(args.store)
        on_result = None if args.quiet else (lambda point: print(point.describe()))
        result = run_sweep(
            spec,
            jobs=args.jobs,
            on_result=on_result,
            store=store,
            resume=args.resume,
            timeout=args.timeout,
        )
        print(result.summary_line())
        if args.quiet:  # the per-point lines were suppressed above
            for point in result.failures:
                print(point.describe())
        for line in result.failure_lines():
            print(line)
        return 1 if result.failures else 0
    elif args.command == "store":
        return _dispatch_store(args)
    elif args.command == "all":
        runs = [(n, m) for m in ("vgg19", "resnet152") for n in ("fig3", "fig4", "table4")]
        runs += [("fig5", None), ("fig6", None), ("sync", "vgg19"), ("ablations", "resnet152")]
        for i, (name, model) in enumerate(runs):
            if i:
                print()
            print(EXPERIMENTS.get(name)(model, args.jobs).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
