"""Per-layer tracing of one benchmark repeat (``--trace`` runs only).

The tracer changes no file of the program: at run time, once every
``repro`` module is imported, it wraps public entry points from outside
and records

* spans — name, start, end, parent span and scenario index — kept in
  memory and written out when the repeat ends;
* simulated-event counts per run role (main run, twin runs, the 1F1B
  cross-check), read from each simulator's public counters around the
  calls that drive it;
* a cProfile of the whole repeat, grouped into self time per ``repro``
  module, with builtin and stdlib time charged to the ``repro`` module
  that called it.

Sweep workers are forked from the traced process, so they inherit the
wrappers; each one profiles its own points and leaves its profile and
spans in a per-process file that :meth:`Tracer.collect_workers` merges.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import os
import pstats
import sys
import time
import weakref
from collections import Counter, defaultdict

#: Self-time buckets: path prefix under ``src/repro/`` -> layer name.
#: The first matching prefix wins; repro files matching none count as
#: ``other``, together with the harness and unattributed stdlib time.
MODULE_PREFIXES = (
    ("sim/engine.py", "sim.engine"),
    ("sim/resources.py", "sim.resources"),
    ("sim/trace.py", "sim.trace"),
    ("sim/invariants.py", "sim.invariants"),
    ("sim/fastforward.py", "sim.fastforward"),
    ("sim/equivalence.py", "sim.equivalence"),
    ("netsim/", "netsim"),
    ("pipeline/variants/", "pipeline.variants"),
    ("pipeline/", "pipeline"),
    ("wsp/parameter_server.py", "wsp.parameter_server"),
    ("wsp/placement.py", "wsp.placement"),
    ("wsp/", "wsp.runtime"),
    ("partition/", "partition"),
    ("models/", "models"),
    ("faults/", "faults"),
    ("api/", "api"),
    ("scenarios/", "scenarios"),
    ("store/", "store"),
    ("exec/", "exec"),
    ("experiments/", "experiments"),
)
MODULES = tuple(name for _, name in MODULE_PREFIXES)

#: Phases of a scenario.  The spans that are direct children of a
#: scenario span tile it, and their sum over the scenario time is the
#: coverage; ``plan`` is a direct child where an experiment plans
#: itself, and nests inside ``generate`` and ``build`` elsewhere.
PHASES = (
    "generate", "build", "plan", "main_run", "twin_contention", "twin_horizon",
    "twin_equivalence", "check_1f1b", "fault_setup",
)
TWIN_ROLES = ("twin_contention", "twin_horizon", "twin_equivalence")


class Tracer:
    """Spans, event counts and a profile for one repeat."""

    def __init__(self, src_dir: str, worker_dir: str) -> None:
        self.repro_dir = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.profiler = cProfile.Profile()
        self._worker_pid: int | None = None
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []
        self.scenario = -1
        self.events: Counter = Counter()
        self.coalesced = 0
        self._sim_role: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._driving: set[int] = set()
        self._main_seen = False
        self._main_faulted = False
        self._pending = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def span(self, label: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``label``."""
        if self._pending and not self._open:
            self.begin_scenario()
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((label, time.perf_counter(), 0.0, parent, self.scenario))
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            name, start, _, parent, scenario = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, scenario)

    def begin_scenario(self) -> None:
        """Open the next scenario span (closing the previous one)."""
        self.end_scenario()
        self._pending = False
        self.scenario += 1
        self._main_seen = False
        self._open.append(len(self.spans))
        self.spans.append(("scenario", time.perf_counter(), 0.0, -1, self.scenario))

    def next_scenario(self) -> None:
        """Close the current scenario span; the next one opens at the next
        layer call, so the executor's own work between items stays out."""
        self.end_scenario()
        self._pending = True

    def end_scenario(self) -> None:
        if self._open and self.spans[self._open[-1]][0] == "scenario":
            index = self._open.pop()
            name, start, _, parent, scenario = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, scenario)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer the phases name."""
        import importlib

        import repro.exec
        from repro.api.build import build_scenario
        from repro.faults import FaultInjector, compile_schedule
        from repro.partition.planner import plan_virtual_worker, plan_virtual_worker_bnb
        from repro.pipeline.one_f_one_b import OneFOneBPipeline
        from repro.scenarios import ScenarioSpec, generate_scenario, run_scenario
        from repro.sim.engine import Simulator
        from repro.sim.fastforward import run_pipeline_fast_forward
        from repro.store import ResultStore
        from repro.wsp.runtime import HetPipeRuntime

        api_run = importlib.import_module("repro.api.run")
        # Import every layer first, so each module-level name bound to a
        # wrapped function exists when the wrappers are rebound.
        for module in ("repro.experiments", "repro.partition", "repro.pipeline"):
            importlib.import_module(module)
        tracer = self

        def phase(name):
            def wrap(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    return tracer.span(name, fn, *args, **kwargs)
                return wrapper
            return wrap

        def fresh_scenario(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._main_seen = False
                return fn(*args, **kwargs)
            return wrapper

        rebind(generate_scenario, phase("generate")(generate_scenario))
        # A fuzz seed's generated scenario is lifted into a RunSpec.
        ScenarioSpec.to_run_spec = phase("generate")(ScenarioSpec.to_run_spec)
        rebind(build_scenario, phase("build")(build_scenario))
        rebind(compile_schedule, phase("fault_setup")(compile_schedule))
        for planner in (plan_virtual_worker, plan_virtual_worker_bnb):
            rebind(planner, phase("plan")(planner))
        rebind(run_scenario, fresh_scenario(run_scenario))
        rebind(
            run_pipeline_fast_forward,
            self._dispatching(run_pipeline_fast_forward, lambda args: args[0].sim),
        )
        rebind(repro.exec.sweep_map, self._sweep_map(repro.exec.sweep_map))
        rebind(api_run.run, self._point(api_run.run))
        FaultInjector.arm = phase("fault_setup")(FaultInjector.arm)
        ResultStore.put = phase("store.put")(ResultStore.put)
        ResultStore.fetch = phase("store.fetch")(ResultStore.fetch)

        from_spec = HetPipeRuntime.from_spec.__func__

        @functools.wraps(from_spec)
        def traced_from_spec(cls, run, **kwargs):
            role = tracer._runtime_role(run, kwargs.get("trace"))
            runtime = tracer.span(role, from_spec, cls, run, **kwargs)
            tracer._sim_role[runtime.sim] = role
            return runtime

        HetPipeRuntime.from_spec = classmethod(traced_from_spec)
        for method in ("start", "check_invariants"):
            original = getattr(HetPipeRuntime, method)
            setattr(HetPipeRuntime, method, self._by_role(original, lambda rt: rt.sim))
        HetPipeRuntime.run_until_global_version = self._dispatching(
            HetPipeRuntime.run_until_global_version, lambda args: args[0].sim
        )
        for method in ("run", "run_until_idle"):
            setattr(Simulator, method, self._dispatching(getattr(Simulator, method), lambda args: args[0]))

        pipeline_init = OneFOneBPipeline.__init__

        @functools.wraps(pipeline_init)
        def traced_pipeline_init(pipeline, sim, *args, **kwargs):
            tracer._sim_role[sim] = "check_1f1b"
            return tracer.span("check_1f1b", pipeline_init, pipeline, sim, *args, **kwargs)

        OneFOneBPipeline.__init__ = traced_pipeline_init
        OneFOneBPipeline.start = phase("check_1f1b")(OneFOneBPipeline.start)

    def _runtime_role(self, run, trace) -> str:
        """Which run of the current scenario a ``from_spec`` call builds.

        The first runtime of a scenario is the main run.  Later ones are
        twins: the equivalence twin keeps a trace to attach its oracle
        to, while the makespan twins run without one — the fault-free
        horizon twin in a faulted scenario, else the dedicated-network
        contention twin.
        """
        if not self._main_seen:
            self._main_seen = True
            self._main_faulted = run.faults is not None
            return "main_run"
        if trace is not None:
            return "twin_equivalence"
        return "twin_horizon" if self._main_faulted else "twin_contention"

    def _by_role(self, fn, sim_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            role = tracer._sim_role.get(sim_of(obj), "main_run")
            return tracer.span(role, fn, obj, *args, **kwargs)

        return wrapper

    def _dispatching(self, fn, sim_of):
        """Wrap a call that dispatches events on a simulator.

        Only the outermost driving call per simulator records a span and
        the event delta, so a fast-forward loop that steps through
        ``run_until_idle`` is not counted twice.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sim = sim_of(args)
            if id(sim) in tracer._driving:
                return fn(*args, **kwargs)
            role = tracer._sim_role.get(sim, "main_run")
            before = sim.events_processed, sim.events_fast_forwarded
            tracer._driving.add(id(sim))
            try:
                return tracer.span(role, fn, *args, **kwargs)
            finally:
                tracer._driving.discard(id(sim))
                tracer.events[role] += sim.events_processed - before[0]
                tracer.coalesced += sim.events_fast_forwarded - before[1]

        return wrapper

    def _sweep_map(self, fn):
        """``sweep_map`` with workers: the parent's time in it is waiting."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(fn_, items, jobs=1, *args, **kwargs):
            if jobs == 1 and kwargs.get("timeout") is None:
                return fn(fn_, items, jobs, *args, **kwargs)
            return tracer.span("exec.sweep_map", fn, fn_, items, jobs, *args, **kwargs)

        return wrapper

    def _point(self, fn):
        """``repro.api.run.run``: a scenario span, profiled per worker."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                tracer.begin_scenario()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end_scenario()
            return tracer._worker_point(fn, args, kwargs)

        return wrapper

    def _worker_point(self, fn, args, kwargs):
        if self._worker_pid != os.getpid():
            # First point in a freshly forked worker: drop the state and
            # the profiler inherited from the parent and start our own.
            from repro.partition import plan_cache_stats

            self.profiler.disable()
            self.profiler = cProfile.Profile()
            self._reset()
            self._worker_pid = os.getpid()
            self._plan_base = plan_cache_stats()[:2]
        self.begin_scenario()
        self.profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self.profiler.disable()
            self.end_scenario()
            self._dump_worker()

    def _dump_worker(self) -> None:
        from repro.partition import plan_cache_stats

        base = os.path.join(self.worker_dir, str(os.getpid()))
        self.profiler.dump_stats(base + ".prof")
        hits, misses = plan_cache_stats()[:2]
        with open(base + ".json", "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "events": dict(self.events),
                    "coalesced": self.coalesced,
                    "plan_cache": [hits - self._plan_base[0], misses - self._plan_base[1]],
                },
                fh,
            )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def collect_workers(self) -> tuple[list, list[dict]]:
        """Profiles and span files the sweep workers left behind."""
        profiles, records = [], []
        if os.path.isdir(self.worker_dir):
            for name in sorted(os.listdir(self.worker_dir)):
                path = os.path.join(self.worker_dir, name)
                if name.endswith(".prof"):
                    profiles.append(path)
                elif name.endswith(".json"):
                    with open(path) as fh:
                        records.append(json.load(fh))
        return profiles, records

    def report(self, wall_s: float) -> dict:
        """Every per-layer number of this repeat (absolute values)."""
        from repro.partition import plan_cache_stats

        self.end_scenario()
        stats = pstats.Stats(self.profiler)
        worker_profiles, worker_records = self.collect_workers()
        for path in worker_profiles:
            stats.add(path)
        process_spans = [self.spans] + [r["spans"] for r in worker_records]
        events = Counter(self.events)
        coalesced = self.coalesced
        hits, misses = plan_cache_stats()[:2]
        for record in worker_records:
            events.update(record["events"])
            coalesced += record["coalesced"]
            hits += record["plan_cache"][0]
            misses += record["plan_cache"][1]
        phases, covered_s, scenario_s = phase_totals(process_spans)
        self_s, profiled_s = self_times(stats, self.repro_dir)
        twin = sum(events[role] for role in TWIN_ROLES)
        return {
            "wall_s": wall_s,
            "scenario_s": scenario_s,
            "covered_s": covered_s,
            "phase_s": phases,
            "store_put_s": _named_total(self.spans, "store.put"),
            "store_fetch_s": _named_total(self.spans, "store.fetch"),
            "exec_parent_wait_s": parent_wait(self.spans),
            "profiled_s": profiled_s,
            "self_s": self_s,
            "counts": {
                "events_main": events["main_run"],
                "events_twin": twin,
                "events_1f1b": events["check_1f1b"],
                "events_coalesced": coalesced,
                "plan_cache_hits": hits,
                "plan_cache_misses": misses,
                **call_counts(stats),
            },
            "spans": self.spans,
        }


def rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (callers that import names resolve them there)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def phase_totals(process_spans: list[list]) -> tuple[dict[str, float], float, float]:
    """Seconds per phase (outermost spans of each name), the seconds the
    direct children of scenario spans cover, and the summed scenario
    time, across processes."""
    phases = dict.fromkeys(PHASES, 0.0)
    covered_s = scenario_s = 0.0
    for spans in process_spans:
        for name, start, end, parent, _ in spans:
            if name == "scenario":
                scenario_s += end - start
                continue
            if name not in phases:
                continue
            if parent >= 0 and spans[parent][0] == "scenario":
                covered_s += end - start
            if not _inside(spans, parent, name):
                phases[name] += end - start
    return phases, covered_s, scenario_s


def _inside(spans, parent: int, name: str) -> bool:
    """Whether an ancestor span already carries ``name``."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _named_total(spans, name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans if n == name)


def parent_wait(spans) -> float:
    """Time the parent spent inside ``sweep_map`` with workers, less the
    spans it ran itself meanwhile (committing points to the store)."""
    total = 0.0
    for index, (name, start, end, _, _) in enumerate(spans):
        if name != "exec.sweep_map":
            continue
        nested = sum(e - s for _, s, e, parent, _ in spans if parent == index)
        total += end - start - nested
    return total


def _bucket(filename: str, repro_dir: str) -> str | None:
    if not filename.startswith(repro_dir):
        return None
    relative = filename[len(repro_dir):].replace(os.sep, "/")
    for prefix, name in MODULE_PREFIXES:
        if relative.startswith(prefix):
            return name
    return "other"


def self_times(stats: pstats.Stats, repro_dir: str) -> tuple[dict[str, float], float]:
    """Self time per layer; time in builtins and the stdlib is charged to
    the layers of its callers, in proportion to the time each caller
    spent in it."""
    harness_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep
    raw = stats.stats  # type: ignore[attr-defined]
    memo: dict = {}

    def owners(key, depth: int = 0) -> dict[str, float]:
        if key in memo:
            return memo[key]
        filename = key[0]
        bucket = _bucket(filename, repro_dir)
        if bucket is None and filename.startswith(harness_dir):
            bucket = "other"
        if bucket is not None:
            return {bucket: 1.0}
        memo[key] = {"other": 1.0}  # cycle guard while this key resolves
        callers = raw[key][4] if key in raw else {}
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if depth > 50 or total <= 0:
            return memo[key]
        shares: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for bucket, share in owners(caller, depth + 1).items():
                shares[bucket] += share * weight / total
        memo[key] = dict(shares)
        return memo[key]

    out = dict.fromkeys(MODULES + ("other",), 0.0)
    profiled = 0.0
    for key, (_, _, tottime, _, _) in raw.items():
        profiled += tottime
        for bucket, share in owners(key).items():
            out[bucket] += tottime * share
    return out, profiled


def _code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(stats: pstats.Stats) -> dict[str, int]:
    """Deterministic call counts of the layer entry points."""
    from repro.netsim.fabric import Fabric
    from repro.partition.bnb import solve_bnb
    from repro.partition.dp_solver import solve_boundaries
    from repro.sim.trace import Trace
    from repro.store import ResultStore
    from repro.wsp.parameter_server import ParameterServerSim
    import repro.sim.invariants as invariants

    raw = stats.stats  # type: ignore[attr-defined]

    def calls(*fns) -> int:
        return sum(raw.get(_code_key(inspect.unwrap(fn)), (0, 0))[1] for fn in fns)

    oracle_file = invariants.__file__
    oracle_calls = sum(
        entry[1]
        for (filename, _, name), entry in raw.items()
        if filename == oracle_file and name.startswith("on_")
    )
    return {
        "trace_emits": calls(Trace.emit),
        "oracle_calls": oracle_calls,
        "fabric_transfers": calls(Fabric.transfer),
        "ps_pushes": calls(ParameterServerSim.push),
        "ps_pulls": calls(ParameterServerSim.pull),
        "plan_solves": calls(solve_boundaries, solve_bnb),
        "store_puts": calls(ResultStore.put),
        "store_fetches": calls(ResultStore.fetch),
    }
