"""Partition plan data model.

A :class:`PartitionPlan` assigns contiguous layer ranges of a model to
the ordered GPUs of one virtual worker, carrying the per-stage timing and
memory numbers the pipeline simulator consumes.  Plans are immutable and
self-validating: stages must tile the layer chain exactly and respect
device memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gpu import GPUDevice
from repro.errors import ConfigurationError
from repro.units import fmt_bytes


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: layers ``[start, stop)`` on ``gpu``.

    Times are *per minibatch*:

    * ``fwd_compute`` / ``bwd_compute`` — roofline compute time.
    * ``fwd_comm_in`` — receiving the input activation from the previous
      stage (0 for the first stage).
    * ``bwd_comm_in`` — receiving the output gradient from the next
      stage (0 for the last stage).
    * ``memory_bytes`` — requirement at the planned in-flight count
      ``in_flight``.
    """

    index: int
    start: int
    stop: int
    gpu: GPUDevice
    fwd_compute: float
    bwd_compute: float
    fwd_comm_in: float
    bwd_comm_in: float
    memory_bytes: float
    in_flight: int
    param_bytes: float
    activation_in_bytes: float  # boundary tensor received forward

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ConfigurationError(f"stage {self.index}: empty layer range")

    @property
    def fwd_time(self) -> float:
        """Forward service time including receiving its input."""
        return self.fwd_compute + self.fwd_comm_in

    @property
    def bwd_time(self) -> float:
        """Backward service time including receiving its output-gradient."""
        return self.bwd_compute + self.bwd_comm_in

    @property
    def period(self) -> float:
        """Total busy time the stage spends per minibatch — the paper's
        'execution time of a partition'.  The pipeline's steady-state
        throughput is one minibatch per max-stage period."""
        return self.fwd_time + self.bwd_time

    @property
    def layer_count(self) -> int:
        return self.stop - self.start

    def describe(self) -> str:
        return (
            f"stage{self.index} on {self.gpu}: layers [{self.start},{self.stop}) "
            f"period={self.period * 1e3:.1f}ms mem={fmt_bytes(self.memory_bytes)} "
            f"(m={self.in_flight})"
        )


@dataclass(frozen=True)
class PartitionPlan:
    """A complete stage assignment for one virtual worker."""

    model_name: str
    nm: int
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("plan with no stages")
        if self.nm < 1:
            raise ConfigurationError(f"nm must be >= 1, got {self.nm}")
        expected = 0
        for stage in self.stages:
            if stage.start != expected:
                raise ConfigurationError(
                    f"stage {stage.index} starts at {stage.start}, expected {expected}"
                )
            expected = stage.stop

    @property
    def k(self) -> int:
        """Number of stages / GPUs."""
        return len(self.stages)

    @property
    def num_layers(self) -> int:
        return self.stages[-1].stop

    @property
    def bottleneck_period(self) -> float:
        """Max stage period — the steady-state time per minibatch."""
        return max(stage.period for stage in self.stages)

    @property
    def serial_latency(self) -> float:
        """One minibatch traversing the whole pipe with no overlap
        (the ``Nm = 1`` behaviour, i.e. naive model parallelism)."""
        return sum(stage.period for stage in self.stages)

    @property
    def gpus(self) -> tuple[GPUDevice, ...]:
        return tuple(stage.gpu for stage in self.stages)

    def describe(self) -> str:
        header = (
            f"{self.model_name}: k={self.k}, Nm={self.nm}, "
            f"bottleneck={self.bottleneck_period * 1e3:.1f}ms, "
            f"serial={self.serial_latency * 1e3:.1f}ms"
        )
        return "\n".join([header] + ["  " + stage.describe() for stage in self.stages])
