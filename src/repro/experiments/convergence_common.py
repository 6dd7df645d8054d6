"""Shared machinery for the convergence experiments (Figures 5 and 6).

Settings chosen so the synthetic task exhibits the paper's regime (see
EXPERIMENTS.md calibration notes): at ``lr = 0.01`` staleness costs a
few percent of minibatches while throughput differences dominate, and
heavy-tail stalls let workers drift so that ``D`` matters.  Runs are
averaged over several seeds because time-to-threshold is noisy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    EXPERIMENT_MODEL_DIMS,
    TARGET_ACCURACY,
    build_model,
    choose_nm,
    deployment_spec,
    hetpipe_assignment_for_subset,
    with_pipeline,
)
from repro.training import (
    BSPTrainer,
    BSPTrainingConfig,
    WSPTrainer,
    WSPTrainingConfig,
    time_to_accuracy,
)
from repro.training.convergence import Curve
from repro.training.nn import make_classification
from repro.wsp import measure_run

#: Numeric-trainer settings shared by Fig. 5 and Fig. 6.
CONV_LR = 0.01
CONV_JITTER = 0.12
CONV_STALL_PROB = 0.005
CONV_SEEDS = (5, 6, 7)
CONV_MAX_MINIBATCHES = 25000
CONV_EVAL_EVERY = 300
CONV_SMOOTH_WINDOW = 7


@dataclass(frozen=True)
class ConvergenceRun:
    """Multi-seed summary of one configuration."""

    label: str
    throughput: float  # images/s from the performance layer
    mean_time_to_target: float
    mean_minibatches_to_target: float
    final_accuracy: float  # first seed
    curve: Curve  # first seed

    def speedup_vs(self, other: "ConvergenceRun") -> float:
        """Paper-style: 0.49 == 49% faster than ``other``."""
        return 1.0 - self.mean_time_to_target / other.mean_time_to_target


def _mean_seeded(label, throughput, target, make_trainer) -> ConvergenceRun:
    times, counts = [], []
    first_curve: Curve = []
    for seed in CONV_SEEDS:
        trainer = make_trainer(seed)
        curve = trainer.train(
            max_minibatches=CONV_MAX_MINIBATCHES, eval_every=CONV_EVAL_EVERY
        )
        t, n = time_to_accuracy(curve, target, window=CONV_SMOOTH_WINDOW)
        times.append(t)
        counts.append(n)
        if not first_curve:
            first_curve = curve
    return ConvergenceRun(
        label=label,
        throughput=throughput,
        mean_time_to_target=float(np.mean(times)),
        mean_minibatches_to_target=float(np.mean(counts)),
        final_accuracy=first_curve[-1][2],
        curve=first_curve,
    )


def horovod_run(label: str, num_workers: int, iteration_time: float, throughput: float, target: float) -> ConvergenceRun:
    """BSP numeric training at the Horovod performance model's pace."""
    dataset = make_classification()

    def make(seed: int) -> BSPTrainer:
        return BSPTrainer(
            BSPTrainingConfig(
                num_workers=num_workers,
                iteration_time=iteration_time,
                lr=CONV_LR,
                seed=seed,
            ),
            dataset,
            EXPERIMENT_MODEL_DIMS,
        )

    return _mean_seeded(label, throughput, target, make)


def hetpipe_run(
    label: str,
    model_name: str,
    subset: str,
    d: int,
    calibration: str,
    placement: str = "local",
) -> ConvergenceRun:
    """Perf-sim a HetPipe deployment, then train numerically at its pace."""
    model = build_model(model_name)
    cluster, assignment = hetpipe_assignment_for_subset(subset)
    run = deployment_spec(
        model_name, subset, calibration=calibration, allocation=assignment.policy,
        placement=placement, d=d, measured_waves=8,
    )
    choice = choose_nm(model, assignment, cluster, run)
    perf = measure_run(
        with_pipeline(run, nm=choice.nm), cluster=cluster, model=model, plans=choice.plans
    )
    intervals = tuple(
        perf.window / done if done else float("inf") for done in perf.per_vw_minibatches
    )
    dataset = make_classification()

    def make(seed: int) -> WSPTrainer:
        return WSPTrainer(
            WSPTrainingConfig(
                num_virtual_workers=assignment.num_virtual_workers,
                nm=choice.nm,
                d=d,
                lr=CONV_LR,
                minibatch_interval=intervals,
                jitter=CONV_JITTER,
                stall_prob=CONV_STALL_PROB,
                seed=seed,
            ),
            dataset,
            EXPERIMENT_MODEL_DIMS,
        )

    return _mean_seeded(label, perf.throughput, TARGET_ACCURACY[model_name], make)
