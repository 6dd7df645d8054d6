"""§8.4 synchronization-overhead analysis: waiting and idle time vs D.

With compute jitter enabled (real clusters are noisy), measure per-wave
waiting time for the updated global weights at ``D = 0, 4, 32`` and the
fraction of waiting during which the virtual worker was truly idle.
Paper findings: waiting at ``D = 4`` is ~62% of ``D = 0``; actual idle
time is only ~18% of waiting because the pipeline keeps processing
already-admitted minibatches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import paper_cluster
from repro.allocation import allocate
from repro.experiments.common import build_model, choose_nm, deployment_spec, with_pipeline
from repro.experiments.report import format_table
from repro.wsp import measure_run


@dataclass(frozen=True)
class SyncOverheadRow:
    d: int
    throughput: float
    wait_per_wave: float
    idle_fraction: float
    wait_ratio_vs_d0: float


@dataclass(frozen=True)
class SyncOverheadResult:
    model_name: str
    rows: list[SyncOverheadRow]

    def row(self, d: int) -> SyncOverheadRow:
        for row in self.rows:
            if row.d == d:
                return row
        raise KeyError(d)

    def render(self) -> str:
        return format_table(
            ["D", "img/s", "wait/wave (ms)", "idle frac of wait", "wait vs D=0"],
            [
                (r.d, r.throughput, r.wait_per_wave * 1e3, r.idle_fraction, r.wait_ratio_vs_d0)
                for r in self.rows
            ],
            title=(
                f"§8.4 — {self.model_name} sync overhead vs D "
                "(paper: wait(D=4) ~= 62% of wait(D=0); idle ~= 18% of wait)"
            ),
        )


def run_sync_overhead(
    model_name: str = "vgg19",
    calibration: str = "default",
    d_values: tuple[int, ...] = (0, 4, 32),
    jitter: float = 0.08,
    measured_waves: int = 16,
) -> SyncOverheadResult:
    """Waiting/idle accounting of ED-local HetPipe across D values."""
    model = build_model(model_name)
    cluster = paper_cluster()
    assignment = allocate(cluster, "ED")
    run = deployment_spec(
        model_name, calibration=calibration, allocation="ED", placement="local"
    )
    choice = choose_nm(model, assignment, cluster, run)
    run = with_pipeline(run, nm=choice.nm, measured_waves=measured_waves, jitter=jitter)
    rows: list[SyncOverheadRow] = []
    base_wait: float | None = None
    for d in d_values:
        metrics = measure_run(
            with_pipeline(run, d=d), cluster=cluster, model=model, plans=choice.plans
        )
        if base_wait is None:
            base_wait = metrics.avg_wait_per_wave
        rows.append(
            SyncOverheadRow(
                d=d,
                throughput=metrics.throughput,
                wait_per_wave=metrics.avg_wait_per_wave,
                idle_fraction=metrics.idle_fraction_of_wait,
                wait_ratio_vs_d0=(
                    metrics.avg_wait_per_wave / base_wait if base_wait > 0 else 0.0
                ),
            )
        )
    return SyncOverheadResult(model_name=model_name, rows=rows)
