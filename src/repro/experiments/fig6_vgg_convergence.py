"""Figure 6: VGG-19 top-1 accuracy vs time as ``D`` varies.

All 16 GPUs, ED-local.  Four curves: Horovod, HetPipe ``D = 0``
(BSP-like), ``D = 4`` and ``D = 32``.  The paper's findings reproduced
in shape:

* ``D = 0`` converges faster than Horovod (throughput; paper: 29%);
* ``D = 4`` converges faster still (paper: 49% over Horovod) because
  waiting for the global weights shrinks;
* ``D = 32`` stops helping throughput while staleness grows under
  heavy-tail stalls, degrading convergence slightly vs ``D = 4``
  (paper: 4.7%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.build import build_calibration
from repro.cluster import paper_cluster
from repro.experiments.common import TARGET_ACCURACY, build_model
from repro.experiments.convergence_common import ConvergenceRun, hetpipe_run, horovod_run
from repro.experiments.report import format_table
from repro.parallel import measure_horovod

PAPER_SPEEDUP_VS_HOROVOD = {"D=0": 0.29, "D=4": 0.49}


@dataclass(frozen=True)
class Fig6Result:
    model_name: str
    runs: dict[str, ConvergenceRun]

    def render(self) -> str:
        base = self.runs["Horovod"]
        rows = []
        for label, run in self.runs.items():
            speedup = "" if label == "Horovod" else f"{run.speedup_vs(base):.2f}"
            rows.append(
                (
                    label,
                    run.throughput,
                    run.mean_time_to_target,
                    run.mean_minibatches_to_target,
                    run.final_accuracy,
                    speedup,
                    PAPER_SPEEDUP_VS_HOROVOD.get(label, ""),
                )
            )
        return format_table(
            ["config", "img/s", "t2a (s)", "mb2a", "final acc", "speedup", "paper"],
            rows,
            title=(
                f"Figure 6 — {self.model_name} convergence vs D "
                f"(target {TARGET_ACCURACY[self.model_name]})"
            ),
        )


def run_fig6(
    model_name: str = "vgg19",
    calibration: str = "default",
    d_values: tuple[int, ...] = (0, 4, 32),
) -> Fig6Result:
    """Horovod vs HetPipe at several global staleness bounds."""
    model = build_model(model_name)
    target = TARGET_ACCURACY[model_name]
    cluster = paper_cluster()

    horovod = measure_horovod(cluster, model, build_calibration(calibration))
    runs = {
        "Horovod": horovod_run(
            "Horovod", horovod.num_gpus, horovod.iteration_time,
            horovod.throughput, target,
        )
    }
    for d in d_values:
        runs[f"D={d}"] = hetpipe_run(
            f"D={d}", model_name, "VRQG", d=d, calibration=calibration
        )
    return Fig6Result(model_name=model_name, runs=runs)
