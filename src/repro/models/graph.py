"""Model graph: an ordered chain of layer units.

HetPipe's partitioner divides "multiple layers of the model into k
partitions" (§4) — a chain decomposition.  :class:`ModelGraph` is that
chain plus whole-model accounting used across the reproduction (parameter
bytes drive PS traffic; total FLOPs drive compute time; boundary bytes
drive inter-stage activation/gradient traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.models.layers import LayerSpec
from repro.units import BYTES_PER_PARAM, mib


@dataclass(frozen=True)
class ModelGraph:
    """A DNN as a chain of units, at a fixed minibatch size."""

    name: str
    batch_size: int
    input_bytes: float
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError(f"{self.name}: batch_size must be positive")
        if not self.layers:
            raise ConfigurationError(f"{self.name}: model has no layers")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    @property
    def param_bytes(self) -> float:
        return sum(layer.param_bytes for layer in self.layers)

    @property
    def params(self) -> float:
        return self.param_bytes / BYTES_PER_PARAM

    @property
    def param_mib(self) -> float:
        """Parameter size in MiB — the unit the paper's '548MB' uses."""
        return self.param_bytes / mib(1)

    @property
    def flops_fwd(self) -> float:
        return sum(layer.flops_fwd for layer in self.layers)

    @property
    def flops_bwd(self) -> float:
        return sum(layer.flops_bwd for layer in self.layers)

    @property
    def total_flops(self) -> float:
        return self.flops_fwd + self.flops_bwd

    def boundary_bytes(self, index: int) -> float:
        """Activation bytes flowing from unit ``index`` to ``index + 1``.

        ``index == -1`` is the input boundary (data loader -> first unit).
        The backward gradient across the same boundary has equal size.
        """
        if index == -1:
            return self.input_bytes
        return self.layers[index].output_bytes

    def slice_params(self, start: int, stop: int) -> float:
        """Parameter bytes of units [start, stop)."""
        return sum(layer.param_bytes for layer in self.layers[start:stop])

    def names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def summary(self) -> str:
        """One-line description used in reports and logs."""
        return (
            f"{self.name}: {len(self.layers)} units, "
            f"{self.params / 1e6:.2f}M params ({self.param_mib:.0f} MiB), "
            f"{self.flops_fwd / self.batch_size / 1e9:.1f} GFLOPs/image fwd, "
            f"batch {self.batch_size}"
        )


def validate_chain(layers: Sequence[LayerSpec]) -> None:
    """Sanity checks shared by the model builders."""
    if not layers:
        raise ConfigurationError("empty layer chain")
    names = [layer.name for layer in layers]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigurationError(f"duplicate layer names: {dupes}")
