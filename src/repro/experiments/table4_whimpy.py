"""Table 4: throughput as whimpy GPUs are added.

GPU subsets 4[V], 8[VR], 12[VRQ], 16[VRQG]; Horovod vs HetPipe with
ED-local placement (a single VVVV virtual worker for the 4-GPU case,
four equal virtual workers otherwise).  The paper's parenthesised
numbers — the total concurrent minibatches ``Nm x num_VWs`` — are
reported too, and ResNet-152 Horovod at 16 GPUs is the feasibility 'X'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.build import build_calibration
from repro.errors import MemoryCapacityError
from repro.experiments.common import (
    build_model,
    choose_nm,
    deployment_spec,
    hetpipe_assignment_for_subset,
    with_pipeline,
)
from repro.experiments.report import format_table
from repro.parallel import measure_horovod
from repro.wsp import measure_run

SUBSETS = ("V", "VR", "VRQ", "VRQG")

PAPER_TABLE4 = {
    "vgg19": {
        "Horovod": {"V": 164, "VR": 205, "VRQ": 265, "VRQG": 339},
        "HetPipe": {"V": (300, 5), "VR": (530, 16), "VRQ": (572, 20), "VRQG": (606, 20)},
    },
    "resnet152": {
        "Horovod": {"V": 233, "VR": 353, "VRQ": 415, "VRQG": None},  # X at 16
        "HetPipe": {"V": (256, 5), "VR": (516, 20), "VRQ": (538, 24), "VRQG": (580, 28)},
    },
}


@dataclass(frozen=True)
class Table4Row:
    subset: str
    gpus: int
    horovod: float | None  # None == infeasible (the paper's X)
    hetpipe: float
    concurrent: int  # Nm x num_VWs
    nm: int
    num_vws: int


@dataclass(frozen=True)
class Table4Result:
    model_name: str
    rows: list[Table4Row]

    def row(self, subset: str) -> Table4Row:
        for row in self.rows:
            if row.subset == subset:
                return row
        raise KeyError(subset)

    def speedup_from_whimpy(self) -> float:
        """HetPipe 16-GPU vs single-node throughput (paper: up to 2.3x)."""
        return self.row("VRQG").hetpipe / self.row("V").hetpipe

    def render(self) -> str:
        paper = PAPER_TABLE4[self.model_name]
        rows = []
        for row in self.rows:
            p_h = paper["Horovod"][row.subset]
            p_hp = paper["HetPipe"][row.subset]
            rows.append(
                (
                    f"{row.gpus}[{row.subset}]",
                    "X" if row.horovod is None else f"{row.horovod:.0f}",
                    "X" if p_h is None else p_h,
                    f"{row.hetpipe:.0f}({row.concurrent})",
                    f"{p_hp[0]}({p_hp[1]})",
                )
            )
        return format_table(
            ["GPUs", "Horovod", "paper", "HetPipe(conc)", "paper"],
            rows,
            title=f"Table 4 — {self.model_name}: adding whimpy GPUs (ED-local)",
        )


def _subset_row(args: tuple[str, str, str, int]) -> Table4Row:
    """One GPU-subset row (the :func:`repro.exec.sweep_map` item).

    Module-level and argument-pure so subsets can run in worker
    processes; each row is an independent deterministic measurement.
    """
    model_name, subset, calibration, measured_waves = args
    model = build_model(model_name)
    cluster, assignment = hetpipe_assignment_for_subset(subset)
    try:
        hv = measure_horovod(cluster, model, build_calibration(calibration))
        # The paper's 'X': Horovod cannot use this GPU set in full
        # (ResNet-152 does not fit the G GPUs at 16).
        horovod: float | None = hv.throughput if hv.excluded_gpus == 0 else None
    except MemoryCapacityError:
        horovod = None
    # a single-node VW cannot use 'local' placement benefits/penalties
    # distinction; placement local is still valid (all shards on the
    # one node)
    run = deployment_spec(
        model_name, subset, calibration=calibration, allocation=assignment.policy,
        placement="local", measured_waves=measured_waves,
    )
    choice = choose_nm(model, assignment, cluster, run)
    metrics = measure_run(
        with_pipeline(run, nm=choice.nm), cluster=cluster, model=model, plans=choice.plans
    )
    return Table4Row(
        subset=subset,
        gpus=assignment.total_gpus,
        horovod=horovod,
        hetpipe=metrics.throughput,
        concurrent=choice.nm * assignment.num_virtual_workers,
        nm=choice.nm,
        num_vws=assignment.num_virtual_workers,
    )


def run_table4(
    model_name: str,
    calibration: str = "default",
    measured_waves: int = 8,
    jobs: int | None = 1,
) -> Table4Result:
    """Measure Horovod and HetPipe(ED-local) on each GPU subset.

    ``jobs`` distributes the subsets across worker processes (see
    :mod:`repro.exec`); row order is fixed either way.
    """
    from repro.exec import sweep_map

    rows = sweep_map(
        _subset_row,
        [(model_name, subset, calibration, measured_waves) for subset in SUBSETS],
        jobs=jobs,
    )
    return Table4Result(model_name=model_name, rows=rows)
