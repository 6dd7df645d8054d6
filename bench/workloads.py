"""The six benchmark workloads: their inputs and one timed repeat each.

Every workload is driven through public entry points only
(``run_fuzz``, ``repro.api.run.run``/``run_sweep``, ``ResultStore``).
A repeat returns the outputs the parent checks — digests, verdicts,
rendered-figure hashes — and, for fuzz workloads, the CPU time of each
scenario.

Fuzz workloads run a different *chunk* of seeds in each repeat, so one
run covers many seeds.  The chunks are drawn from a committed pool per
workload whose seeds are sorted by their simulated event count into as
many strata as a chunk has seeds; a chunk takes one seed from every
stratum.  Scenario costs are heavy-tailed: a batch of 300 consecutive
seeds varies by about 8% in size from one start seed to the next, and
the long-horizon batch by about 38%; stratified chunks vary by about
1% and 7%.  The other workloads run committed specs, which ``--seed``
does not change: a cluster64 scenario's CPU time varies by 17% with
the congested fabric its seed draws.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_DIR = os.path.join(BENCH_DIR, "specs")
POOL_PATH = os.path.join(SPEC_DIR, "seed_pools.json")
#: Pool candidates are the seeds below this bound.
POOL_LIMIT = 3000


@dataclass(frozen=True)
class FuzzInputs:
    """A ``run_fuzz`` batch: chunk size and the mode's keyword arguments."""

    size: int
    options: dict = field(default_factory=dict)
    #: keep only the seeds whose scenarios draw no task jitter, the
    #: only ones fast-forward can coalesce
    jitter_free: bool = False


_SHARED_FAULTS = {"network_model": "shared", "faults": True}
_FAST_FORWARD = {"fidelity": "fast_forward", "verify_equivalence": False}

#: Workload name -> (full inputs, --quick inputs).
FUZZ = {
    "fuzz_default": (FuzzInputs(300), FuzzInputs(40)),
    "fuzz_shared_faults": (FuzzInputs(200, _SHARED_FAULTS), FuzzInputs(20, _SHARED_FAULTS)),
    "long_horizon_ff": (
        FuzzInputs(40, {**_FAST_FORWARD, "waves_scale": 32}, jitter_free=True),
        FuzzInputs(8, {**_FAST_FORWARD, "waves_scale": 8}, jitter_free=True),
    ),
}
FIGURES = ("fig3_vgg19", "fig4_vgg19", "table4_vgg19")
QUICK_FIGURES = ("fig4_vgg19", "table4_vgg19")
SWEEP_RESUMES, QUICK_SWEEP_RESUMES = 20, 2
SWEEP_JOBS = 2
CLUSTER64_QUICK_WAVES = 8

WORKLOADS = tuple(FUZZ) + ("cluster64", "figures", "sweep_grid")


def chunk_seeds(workload: str, seed: int, quick: bool, chunk: int) -> list[int]:
    """The seeds of chunk ``chunk`` of a fuzz workload for ``--seed seed``.

    Chunk ``k`` takes entry ``seed + k`` (modulo the stratum size) of
    every stratum.  A stratum lists its seeds in seed order, so the entry
    a chunk takes is unrelated to its cost, and the costs of heavy and
    light strata do not rise and fall together from chunk to chunk.
    """
    inputs = FUZZ[workload][quick]
    with open(POOL_PATH) as fh:
        pool = json.load(fh)[workload]
    ranked = [s for _, s in sorted(zip(pool["events"], pool["seeds"]))]
    size = inputs.size
    strata = [sorted(ranked[i * len(ranked) // size:(i + 1) * len(ranked) // size])
              for i in range(size)]
    return [stratum[(seed + chunk) % len(stratum)] for stratum in strata]


def scan_pools() -> dict:
    """Each fuzz workload's seed pool, with every seed's event count.

    A pool holds the seeds below :data:`POOL_LIMIT` whose scenarios run
    without violations in the workload's mode, at both its full and its
    quick size, with the equivalence twin on where the mode has one.
    Only ``long_horizon_ff`` excludes seeds today.  They show known
    fast-forward faults: the run quiesces one to three global versions
    short of its target, or the coalesced run's staleness statistics
    differ from the full twin's.
    """
    from repro.scenarios import run_fuzz
    from repro.scenarios.generator import generate_scenario

    pools = {}
    for workload, variants in FUZZ.items():
        seeds = range(POOL_LIMIT)
        if variants[0].jitter_free:
            seeds = [s for s in seeds if generate_scenario(s).spec.jitter == 0.0]
        modes: list[dict] = []
        for inputs in reversed(variants):  # the full size last: its counts rank the pool
            options = dict(inputs.options)
            if options.get("fidelity") == "fast_forward":
                options["verify_equivalence"] = True
            if options not in modes:
                modes.append(options)
        excluded: set[int] = set()
        for options in modes:
            report = run_fuzz(seeds, jobs=1, **options)
            excluded.update(r.spec.seed for r in report.failures)
        kept = [r for r in report.results if r.spec.seed not in excluded]
        pools[workload] = {
            "limit": POOL_LIMIT,
            "excluded": sorted(excluded),
            "seeds": [r.spec.seed for r in kept],
            "events": [r.events_simulated for r in kept],
        }
    return pools


def _sha256(parts) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def load_spec(name: str):
    """A committed spec from ``bench/specs``, parsed and validated."""
    from repro.api.spec import RunSpec

    with open(os.path.join(SPEC_DIR, f"{name}.json")) as fh:
        return RunSpec.from_json(fh.read())


class Repeat:
    """Inputs of one repeat, loaded before the timer starts."""

    def __init__(self, workload: str, seed: int, quick: bool, chunk: int, tmp_dir: str):
        self.workload = workload
        self.quick = quick
        self.tmp_dir = tmp_dir
        # Import the entry points now: start-up belongs to set-up time.
        # Calls go through the modules so tracing wrappers take effect.
        import repro.api.run
        import repro.scenarios
        import repro.store

        self.api = repro.api.run
        self.scenarios = repro.scenarios
        self.store = repro.store
        if workload == "cluster64":
            spec = load_spec("cluster64")
            if quick:
                spec = replace(
                    spec, pipeline=replace(spec.pipeline, measured_waves=CLUSTER64_QUICK_WAVES)
                )
            self.specs = [spec]
        elif workload == "figures":
            self.specs = [load_spec(name) for name in (QUICK_FIGURES if quick else FIGURES)]
        elif workload == "sweep_grid":
            self.specs = [load_spec("sweep_grid_quick" if quick else "sweep_grid")]
        elif workload in FUZZ:
            self.seeds = chunk_seeds(workload, seed, quick, chunk)
        else:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    def run(self, on_item=None, verify: bool = False) -> dict:
        """Execute the repeat; ``on_item`` is called after every scenario."""
        if self.workload in FUZZ:
            return self._fuzz(on_item, verify)
        runs = {"cluster64": self._cluster64, "figures": self._figures, "sweep_grid": self._sweep_grid}
        return runs[self.workload]()

    def _fuzz(self, on_item, verify: bool) -> dict:
        options = dict(FUZZ[self.workload][self.quick].options)
        if verify:
            options["verify_equivalence"] = True
        item_ms: list[float] = []
        last = time.process_time()

        def stamp(_line: str) -> None:
            nonlocal last
            now = time.process_time()
            item_ms.append((now - last) * 1e3)
            last = now
            if on_item is not None:
                on_item()

        report = self.scenarios.run_fuzz(self.seeds, verbose_log=stamp, jobs=1, **options)
        digests = [result.digest for result in report.results]
        failures = [
            f"seed {r.spec.seed}: {r.violations[0]}" for r in report.results if not r.ok
        ]
        info = {}
        if verify:
            info["equivalence_checks"] = report.equivalence_checks
            info["equivalence_failures"] = report.equivalence_failures
        return {
            "item_ms": item_ms,
            "checked": len(report.results),
            "problems": failures,
            "outputs": {"digest": _sha256(digests)},
            "info": info,
        }

    def _cluster64(self) -> dict:
        result = self.api.run(self.specs[0])
        return {
            "checked": 1,
            "problems": [f"cluster64: {v}" for v in result.violations],
            "outputs": {"digest": result.digest},
            "info": {"img_per_s": result.throughput, "makespan_s": result.makespan},
        }

    def _figures(self) -> dict:
        renders = {}
        results = {}
        for spec in self.specs:
            name = f"{spec.experiment.name}_{spec.experiment.model}"
            results[spec.experiment.name] = self.api.run(spec, jobs=1)
            renders[name] = hashlib.sha256(
                results[spec.experiment.name].render().encode()
            ).hexdigest()
        return {
            "checked": 0,
            "problems": [],
            "outputs": {"renders": renders, "paper_err_pct": paper_error_pct(results)},
            "info": {},
        }

    def _sweep_grid(self) -> dict:
        spec = self.specs[0]
        problems = []
        with tempfile.TemporaryDirectory(dir=self.tmp_dir) as root:
            store = self.store.ResultStore(os.path.join(root, "store"))
            cold = self.api.run_sweep(spec, jobs=SWEEP_JOBS, store=store)
            lines = [point.describe() for point in cold.points]
            resumes = QUICK_SWEEP_RESUMES if self.quick else SWEEP_RESUMES
            start = time.process_time()
            for index in range(resumes):
                warm = self.api.run_sweep(spec, jobs=SWEEP_JOBS, store=store, resume=True)
                if warm.reused != len(lines) or [p.describe() for p in warm.points] != lines:
                    problems.append(f"sweep: resume pass {index} differs from the cold pass")
            resume_ms = (time.process_time() - start) * 1e3 / (resumes * len(lines))
        return {
            "checked": resumes,
            "problems": problems,
            "outputs": {
                "points": [[point.ok, point.summary] for point in cold.points],
                "rejected": [point.index for point in cold.failures],
            },
            "info": {"resume_ms_per_point": resume_ms},
        }


def paper_error_pct(results: dict) -> float:
    """Mean |simulated - paper| / paper, in %, over the vgg19 values the
    paper prints for Fig. 3 (Nm = 1), Fig. 4 and Table 4."""
    from repro.experiments.table4_whimpy import PAPER_TABLE4

    pairs = []
    if "fig3" in results:
        fig3 = results["fig3"]
        pairs += [(fig3.nm1_throughput(mix), paper) for mix, paper in fig3.paper_nm1.items()]
    if "fig4" in results:
        fig4 = results["fig4"]
        pairs += [(fig4.bar(label).throughput, paper) for label, paper in fig4.paper.items()]
    if "table4" in results:
        table4 = results["table4"]
        paper = PAPER_TABLE4[table4.model_name]
        for row in table4.rows:
            if paper["Horovod"][row.subset] is not None and row.horovod is not None:
                pairs.append((row.horovod, paper["Horovod"][row.subset]))
            pairs.append((row.hetpipe, paper["HetPipe"][row.subset][0]))
    return 100.0 * sum(abs(sim - ref) / ref for sim, ref in pairs) / len(pairs)
