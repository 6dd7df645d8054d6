"""Ablations of DESIGN.md §6 — design choices quantified.

1. **Wave-aggregated vs per-minibatch push** — WSP's communication
   saving (§5 argues pushing per wave "significantly reduces the
   communication overhead").
2. **GPU ordering search vs natural order** — our extension beyond the
   paper: letting the planner permute GPUs inside a virtual worker.
3. **GPipe-style flush vs HetPipe continuous pipeline** — the §2.3
   comparison, quantified on the same partition.
4. **D sweep under NP** — bounded staleness absorbing stragglers, the
   regime where D matters most (heterogeneous virtual workers).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.allocation import allocate
from repro.api.build import build_calibration
from repro.cluster import paper_cluster
from repro.experiments.common import build_model, choose_nm, deployment_spec, with_pipeline
from repro.experiments.report import format_table
from repro.partition import max_feasible_nm, plan_virtual_worker
from repro.pipeline import OneFOneBPipeline, measure_pipeline
from repro.units import mib
from repro.wsp import measure_run


@dataclass(frozen=True)
class AblationRow:
    name: str
    variant: str
    value: float
    unit: str


@dataclass(frozen=True)
class AblationResult:
    model_name: str
    rows: list[AblationRow]

    def values(self, name: str) -> dict[str, float]:
        return {r.variant: r.value for r in self.rows if r.name == name}

    def render(self) -> str:
        return format_table(
            ["ablation", "variant", "value", "unit"],
            [(r.name, r.variant, r.value, r.unit) for r in self.rows],
            title=f"Ablations — {self.model_name}",
        )


def run_ablations(
    model_name: str = "resnet152",
    calibration: str = "default",
) -> AblationResult:
    model = build_model(model_name)
    cluster = paper_cluster()
    calib = build_calibration(calibration)
    rows: list[AblationRow] = []

    # 1. wave push vs per-minibatch push (ED default placement, where
    # sync traffic crosses the network and the difference is visible)
    assignment = allocate(cluster, "ED")
    run = deployment_spec(model_name, calibration=calibration, allocation="ED")
    choice = choose_nm(model, assignment, cluster, run)
    for variant, per_minibatch in (("per-wave", False), ("per-minibatch", True)):
        metrics = measure_run(
            with_pipeline(
                run, nm=choice.nm, measured_waves=6, push_every_minibatch=per_minibatch
            ),
            cluster=cluster, model=model, plans=choice.plans,
        )
        rows.append(AblationRow("push-granularity", variant, metrics.throughput, "img/s"))
        rows.append(
            AblationRow(
                "push-granularity-traffic", variant,
                metrics.sync_cross_node_bytes_per_wave / mib(1), "MiB/wave",
            )
        )

    # 2. ordering search on one heterogeneous virtual worker
    vw = assignment.virtual_workers[0]
    for variant, search in (("natural", False), ("searched", True)):
        plan = plan_virtual_worker(
            model, vw, choice.nm, cluster.interconnect, calib,
            search_orderings=search,
        )
        metrics = measure_pipeline(plan, cluster.interconnect, model.batch_size, measured_minibatches=40)
        rows.append(AblationRow("gpu-ordering", variant, metrics.throughput, "img/s"))

    # 3. GPipe-style flush vs continuous pipeline on an identical plan
    plan = choice.plans[0]
    continuous = measure_pipeline(plan, cluster.interconnect, model.batch_size, measured_minibatches=40)
    flush = measure_pipeline(
        plan, cluster.interconnect, model.batch_size, measured_minibatches=40,
        variant="gpipe_flush",
    )
    rows.append(AblationRow("pipeline-style", "hetpipe-continuous", continuous.throughput, "img/s"))
    rows.append(AblationRow("pipeline-style", "gpipe-flush", flush.throughput, "img/s"))

    # 3b. PipeDream-style 1F1B dispatch on the same plan (§2.3 / §9)
    one_f_one_b = measure_pipeline(
        plan, cluster.interconnect, model.batch_size, measured_minibatches=40,
        pipeline=OneFOneBPipeline,
    )
    rows.append(AblationRow("pipeline-style", "pipedream-1f1b", one_f_one_b.throughput, "img/s"))

    # 3c. GPipe-style activation recomputation: more Maxm, slower steps
    vw0 = assignment.virtual_workers[0]
    recompute_cal = calib.with_overrides(activation_recompute=True)
    for variant, cal in (("off", calib), ("on", recompute_cal)):
        cap = max_feasible_nm(
            model, vw0, cluster.interconnect, cal, limit=10, search_orderings=False
        )
        rows.append(AblationRow("recompute-maxm", variant, float(cap), "Nm"))
        re_plan = plan_virtual_worker(
            model, vw0, min(cap, choice.nm), cluster.interconnect, cal,
            search_orderings=False,
        )
        metrics = measure_pipeline(
            re_plan, cluster.interconnect, model.batch_size, measured_minibatches=40
        )
        rows.append(AblationRow("recompute-throughput", variant, metrics.throughput, "img/s"))

    # 4. D sweep under NP (heterogeneous virtual workers -> stragglers)
    np_assignment = allocate(cluster, "NP")
    np_run = with_pipeline(run, allocation="NP")
    np_choice = choose_nm(model, np_assignment, cluster, np_run)
    np_run = with_pipeline(np_run, nm=np_choice.nm, measured_waves=6, jitter=0.05)
    for d in (0, 4, 32):
        metrics = measure_run(
            with_pipeline(np_run, d=d), cluster=cluster, model=model, plans=np_choice.plans
        )
        rows.append(AblationRow("np-d-sweep", f"D={d}", metrics.throughput, "img/s"))

    return AblationResult(model_name=model_name, rows=rows)
