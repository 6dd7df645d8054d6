"""Figure 5: ResNet-152 top-1 accuracy vs time.

Three configurations at ``D = 0``:

* Horovod on 12 GPUs (ResNet-152 does not fit the four RTX 2060s),
* HetPipe on the same 12 GPUs (ED-local over V/R/Q),
* HetPipe on all 16 GPUs (ED-local over V/R/Q/G — the whimpy GPUs that
  Horovod cannot use at all contribute).

Per-minibatch virtual-time intervals come from the performance
simulator; the accuracy curves come from real SGD under the respective
synchronization semantics, averaged over seeds.  The paper's headline:
HetPipe-12 converges 35% faster than Horovod, HetPipe-16 39% faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.build import build_calibration
from repro.experiments.common import TARGET_ACCURACY, build_model, hetpipe_assignment_for_subset
from repro.experiments.convergence_common import ConvergenceRun, hetpipe_run, horovod_run
from repro.experiments.report import format_table
from repro.parallel import measure_horovod

PAPER_SPEEDUPS = {"HetPipe-12": 0.35, "HetPipe-16": 0.39}


@dataclass(frozen=True)
class Fig5Result:
    model_name: str
    runs: dict[str, ConvergenceRun]

    def render(self) -> str:
        base = self.runs["Horovod-12"]
        rows = []
        for label, run in self.runs.items():
            speedup = "" if label == "Horovod-12" else f"{run.speedup_vs(base):.2f}"
            rows.append(
                (
                    label,
                    run.throughput,
                    run.mean_time_to_target,
                    run.mean_minibatches_to_target,
                    run.final_accuracy,
                    speedup,
                    PAPER_SPEEDUPS.get(label, ""),
                )
            )
        return format_table(
            ["config", "img/s", "t2a (s)", "mb2a", "final acc", "speedup", "paper"],
            rows,
            title=(
                f"Figure 5 — {self.model_name} convergence "
                f"(target {TARGET_ACCURACY[self.model_name]})"
            ),
        )


def run_fig5(
    model_name: str = "resnet152",
    calibration: str = "default",
) -> Fig5Result:
    """Horovod-12 vs HetPipe-12 vs HetPipe-16 accuracy-over-time."""
    model = build_model(model_name)
    target = TARGET_ACCURACY[model_name]

    cluster12, _ = hetpipe_assignment_for_subset("VRQ")
    horovod = measure_horovod(cluster12, model, build_calibration(calibration))
    runs = {
        "Horovod-12": horovod_run(
            "Horovod-12", horovod.num_gpus, horovod.iteration_time,
            horovod.throughput, target,
        )
    }
    for subset, label in (("VRQ", "HetPipe-12"), ("VRQG", "HetPipe-16")):
        runs[label] = hetpipe_run(label, model_name, subset, d=0, calibration=calibration)
    return Fig5Result(model_name=model_name, runs=runs)
