"""Figure 3: single-virtual-worker throughput and GPU utilization vs Nm.

For each of the seven GPU mixes, partition the model (paper-faithful
natural order), run the pipeline alone at ``Nm = 1 .. min(Maxm, 7)`` and
record absolute throughput, throughput normalized to ``Nm = 1``, and the
maximum average per-stage GPU utilization — exactly the two panels the
paper plots.  The paper's annotated ``Nm = 1`` absolute numbers are
included for comparison.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.api.build import build_calibration
from repro.cluster import paper_cluster
from repro.errors import PartitionError
from repro.experiments.common import MAX_NM, PAPER_PLANNING, build_model, fig3_virtual_workers
from repro.experiments.report import format_table
from repro.models.profiler import Profiler
from repro.partition import max_feasible_nm, plan_virtual_worker
from repro.pipeline import measure_pipeline

logger = logging.getLogger(__name__)

#: The absolute Nm=1 throughputs annotated in Figure 3 (images/s).
PAPER_FIG3_NM1 = {
    "vgg19": {"VVVV": 119, "VRGQ": 60, "RRRR": 107, "VVQQ": 116, "GGGG": 62, "RRGG": 68, "QQQQ": 51},
    "resnet152": {"VVVV": 96, "VRGQ": 42, "RRRR": 87, "VVQQ": 53, "GGGG": 58, "RRGG": 58, "QQQQ": 43},
}


@dataclass(frozen=True)
class Fig3Row:
    """One (mix, Nm) measurement."""

    mix: str
    nm: int
    throughput: float
    normalized: float
    max_gpu_util: float
    peak_in_flight: tuple[int, ...]


@dataclass(frozen=True)
class Fig3Result:
    model_name: str
    rows: list[Fig3Row]
    paper_nm1: dict[str, int]

    def nm1_throughput(self, mix: str) -> float:
        for row in self.rows:
            if row.mix == mix and row.nm == 1:
                return row.throughput
        raise KeyError(mix)

    def render(self) -> str:
        lines = [
            format_table(
                ["mix", "Nm", "img/s", "norm", "max util", "paper Nm=1"],
                [
                    (
                        row.mix,
                        row.nm,
                        row.throughput,
                        row.normalized,
                        row.max_gpu_util,
                        self.paper_nm1[row.mix] if row.nm == 1 else "",
                    )
                    for row in self.rows
                ],
                title=f"Figure 3 — {self.model_name}: single virtual worker vs Nm",
            )
        ]
        return "\n".join(lines)


def _mix_rows(
    args: tuple[str, str, str, int, int],
) -> list[Fig3Row]:
    """All rows of one GPU mix (the per-worker sweep item).

    Module-level and argument-pure so :func:`repro.exec.sweep_map` can
    fan mixes out across worker processes; every measurement is a
    deterministic simulation, so the rows are identical wherever they
    run.
    """
    model_name, mix, calibration, max_nm, measured_minibatches = args
    model = build_model(model_name)
    cluster = paper_cluster()
    calib = build_calibration(calibration)
    profiler = Profiler(calib)
    gpus = fig3_virtual_workers(cluster)[mix]
    cap = max_feasible_nm(
        model, gpus, cluster.interconnect, calib, profiler, limit=max_nm
    )
    rows: list[Fig3Row] = []
    base = None
    for nm in range(1, cap + 1):
        try:
            plan = plan_virtual_worker(
                model, gpus, nm, cluster.interconnect, calib, profiler,
                **PAPER_PLANNING,
            )
        except PartitionError:
            break
        metrics = measure_pipeline(
            plan, cluster.interconnect, model.batch_size,
            measured_minibatches=measured_minibatches,
        )
        if base is None:
            base = metrics.throughput
        rows.append(
            Fig3Row(
                mix=mix,
                nm=nm,
                throughput=metrics.throughput,
                normalized=metrics.throughput / base,
                max_gpu_util=metrics.max_utilization,
                peak_in_flight=metrics.peak_in_flight,
            )
        )
    return rows


def run_fig3(
    model_name: str,
    calibration: str = "default",
    max_nm: int = MAX_NM,
    measured_minibatches: int = 40,
    jobs: int | None = 1,
) -> Fig3Result:
    """Measure all seven mixes across the feasible Nm range.

    ``jobs`` distributes the mixes across worker processes (see
    :mod:`repro.exec`); the rows come back in paper order either way.
    """
    from repro.exec import sweep_map

    mixes = list(fig3_virtual_workers(paper_cluster()))
    logger.info("fig3: %s over %d mixes (jobs=%s)", model_name, len(mixes), jobs)
    per_mix = sweep_map(
        _mix_rows,
        [(model_name, mix, calibration, max_nm, measured_minibatches) for mix in mixes],
        jobs=jobs,
    )
    rows = [row for mix_rows in per_mix for row in mix_rows]
    return Fig3Result(model_name=model_name, rows=rows, paper_nm1=PAPER_FIG3_NM1[model_name])
