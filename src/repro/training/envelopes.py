"""Throughput envelopes — differential oracles for the fuzz harness.

Analytic bounds on what any correct WSP/pipeline execution can achieve;
the scenario runner compares every measured window against them.  They
live apart from :mod:`repro.training.theory` so the fuzz hot path does
not drag in NumPy and the numeric trainers — ``repro fuzz`` startup is
itself benchmarked.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.partition.spec import PartitionPlan


def pipeline_rate_bound(plan: "PartitionPlan", jitter: float = 0.0) -> float:
    """Upper bound on one virtual worker's steady minibatch rate (1/s).

    Every completed minibatch occupies the bottleneck stage's GPU for its
    forward + backward compute, and that GPU serializes work; jitter can
    shorten a task by at most a factor ``1 - jitter``.  Communication
    only slows things further, so this is a hard ceiling.
    """
    if not 0.0 <= jitter < 1.0:
        raise ConfigurationError(f"jitter must be in [0, 1), got {jitter}")
    busiest = max(stage.fwd_compute + stage.bwd_compute for stage in plan.stages)
    if busiest <= 0.0:
        return math.inf
    return 1.0 / (busiest * (1.0 - jitter))


def wsp_completion_bounds(nm: int, d: int, waves: int) -> tuple[int, int]:
    """Per-worker completed-minibatch bounds over a ``waves``-wave window.

    The window runs between two instants at which the global version has
    just advanced (by ``waves``).  Lower bound: at the window end the
    worker has pushed the final wave, so it completed ``(v1+1)*Nm``
    minibatches overall, while at the window start §5 admission capped it
    at ``(v0+D+2)*Nm + Nm-1`` — the difference is
    ``(waves-D-2)*Nm + 1``.  Upper bound: the mirror argument,
    ``(waves+D+2)*Nm - 1``.
    """
    if nm < 1 or d < 0 or waves < 1:
        raise ConfigurationError(f"invalid window (nm={nm}, d={d}, waves={waves})")
    low = max(0, (waves - d - 2) * nm + 1)
    high = (waves + d + 2) * nm - 1
    return low, high


def wsp_wave_time_bound(
    plan: "PartitionPlan",
    sync_time: float,
    jitter: float = 0.0,
) -> float:
    """Worst-case wall time for one worker to produce one recorded wave.

    Fully-serialized execution (zero pipeline overlap) of the wave's
    ``Nm`` minibatches, each stretched by jitter, plus ``sync_time`` —
    the caller's worst-case serialized push + pull + shard-apply cost for
    this worker.  Because a worker blocked by the D-gate is released the
    moment the global version advances, consecutive global versions are
    never farther apart than the slowest worker's bound (plus shared-PS
    contention, which the caller folds into ``sync_time``).
    """
    if jitter < 0.0:
        raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
    if sync_time < 0.0:
        raise ConfigurationError(f"sync_time must be >= 0, got {sync_time}")
    return plan.nm * plan.serial_latency * (1.0 + jitter) + sync_time
