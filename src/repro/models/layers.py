"""Layer units: FLOPs, parameter and activation accounting.

A *unit* is the granularity the partitioner works at.  For VGG a unit is
one conv(+ReLU), pool or FC layer; for ResNet a unit is a whole residual
block (a composite), so the model stays a chain even though blocks have
internal branches — the skip connection never crosses a partition
boundary, matching how HetPipe's partitioner treats the model as a layer
sequence.

Conventions (all per *minibatch*, fp32):

* ``flops_fwd`` counts multiply and add separately (2 x MACs for conv/FC).
* ``flops_bwd`` defaults to twice forward (grad w.r.t. inputs + grad
  w.r.t. weights), the standard estimate the paper's profiling would
  observe.
* ``output_bytes`` is the activation tensor handed to the next unit —
  this is what crosses a partition boundary in the forward pass, and its
  gradient (same size) crosses back in the backward pass.
* ``stash_bytes`` is the activation memory a unit must hold from its
  forward pass until its backward pass for ONE in-flight minibatch
  (inputs + internal intermediates).
* ``kernel_count`` approximates CUDA kernel launches per pass, which
  feeds the per-layer overhead term of the roofline model (this is what
  makes ResNet-152, with ~50 small-kernel blocks, relatively slower than
  its raw FLOPs suggest — as in the paper's measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.units import BYTES_PER_PARAM


@dataclass(frozen=True)
class LayerSpec:
    """One chain unit of a model.  See module docstring for conventions.

    ``parts`` is non-empty for composite units (residual blocks): the
    profiler then costs each internal layer separately and sums, so a
    block mixes compute-bound convs with memory-bound BN/ReLU correctly
    instead of taking a single roofline max over the aggregate.
    """

    name: str
    kind: str
    flops_fwd: float
    flops_bwd: float
    param_bytes: float
    output_bytes: float
    stash_bytes: float
    workspace_bytes: float = 0.0
    kernel_count: int = 1
    parts: tuple["LayerSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.flops_fwd < 0 or self.flops_bwd < 0:
            raise ConfigurationError(f"{self.name}: negative FLOPs")
        if self.param_bytes < 0 or self.output_bytes < 0 or self.stash_bytes < 0:
            raise ConfigurationError(f"{self.name}: negative byte count")
        if self.kernel_count < 1:
            raise ConfigurationError(f"{self.name}: kernel_count must be >= 1")

    @property
    def params(self) -> float:
        """Parameter count (fp32)."""
        return self.param_bytes / BYTES_PER_PARAM

    @property
    def total_flops(self) -> float:
        return self.flops_fwd + self.flops_bwd


def _act_bytes(batch: int, channels: int, height: int, width: int) -> float:
    return float(batch) * channels * height * width * BYTES_PER_PARAM


def conv_unit(
    name: str,
    batch: int,
    cin: int,
    cout: int,
    kernel: int,
    out_h: int,
    out_w: int,
    *,
    in_h: int | None = None,
    in_w: int | None = None,
    with_relu: bool = True,
    with_bn: bool = False,
    bias: bool = True,
) -> LayerSpec:
    """A convolution (+BN)(+ReLU) unit.

    FLOPs: ``2 * K*K*Cin * Hout*Wout*Cout * B`` for the conv itself;
    BN/ReLU contribute element-wise FLOPs but are mostly memory-bound,
    which the profiler captures through the traffic term.  ``in_h/in_w``
    default to the output size (stride-1); pass them for strided convs so
    the stashed input activation is sized correctly.
    """
    macs = float(kernel) * kernel * cin * out_h * out_w * cout * batch
    flops = 2.0 * macs
    out_elems = float(batch) * cout * out_h * out_w
    params = float(kernel) * kernel * cin * cout + (cout if bias else 0)
    kernels = 1
    extra_flops = 0.0
    if with_bn:
        params += 2.0 * cout  # gamma, beta
        extra_flops += 2.0 * out_elems
        kernels += 1
    if with_relu:
        extra_flops += out_elems
        kernels += 1
    out_bytes = out_elems * BYTES_PER_PARAM
    # Stash: the conv input must be kept for the weight gradient; BN/ReLU
    # keep their own input (~= conv output).
    in_bytes = _act_bytes(batch, cin, in_h or out_h, in_w or out_w)
    stash = in_bytes + (out_bytes if (with_bn or with_relu) else 0.0)
    return LayerSpec(
        name=name,
        kind="conv",
        flops_fwd=flops + extra_flops,
        flops_bwd=2.0 * flops + extra_flops,
        param_bytes=params * BYTES_PER_PARAM,
        output_bytes=out_bytes,
        stash_bytes=stash,
        workspace_bytes=0.25 * out_bytes,
        kernel_count=kernels,
    )


def fc_unit(
    name: str,
    batch: int,
    cin: int,
    cout: int,
    *,
    with_relu: bool = False,
    with_dropout: bool = False,
) -> LayerSpec:
    """A fully-connected (+ReLU)(+dropout) unit."""
    macs = float(cin) * cout * batch
    flops = 2.0 * macs
    params = float(cin) * cout + cout
    out_bytes = float(batch) * cout * BYTES_PER_PARAM
    in_bytes = float(batch) * cin * BYTES_PER_PARAM
    kernels = 1 + int(with_relu) + int(with_dropout)
    return LayerSpec(
        name=name,
        kind="fc",
        flops_fwd=flops,
        flops_bwd=2.0 * flops,
        param_bytes=params * BYTES_PER_PARAM,
        output_bytes=out_bytes,
        stash_bytes=in_bytes + (out_bytes if (with_relu or with_dropout) else 0.0),
        kernel_count=kernels,
    )


def pool_unit(
    name: str,
    batch: int,
    channels: int,
    out_h: int,
    out_w: int,
    *,
    kernel: int = 2,
    kind: str = "pool",
) -> LayerSpec:
    """Max/avg pooling: negligible FLOPs, memory-bound."""
    out_elems = float(batch) * channels * out_h * out_w
    in_bytes = out_elems * kernel * kernel * BYTES_PER_PARAM
    out_bytes = out_elems * BYTES_PER_PARAM
    return LayerSpec(
        name=name,
        kind=kind,
        flops_fwd=out_elems * kernel * kernel,
        flops_bwd=out_elems * kernel * kernel,
        param_bytes=0.0,
        output_bytes=out_bytes,
        stash_bytes=in_bytes,
        kernel_count=1,
    )


def composite(name: str, kind: str, parts: Sequence[LayerSpec], output_bytes: float | None = None) -> LayerSpec:
    """Aggregate several internal layers into one chain unit.

    ``output_bytes`` defaults to the last part's output (the tensor that
    leaves the unit); everything else sums.
    """
    if not parts:
        raise ConfigurationError(f"{name}: composite of zero parts")
    return LayerSpec(
        name=name,
        kind=kind,
        flops_fwd=sum(p.flops_fwd for p in parts),
        flops_bwd=sum(p.flops_bwd for p in parts),
        param_bytes=sum(p.param_bytes for p in parts),
        output_bytes=parts[-1].output_bytes if output_bytes is None else output_bytes,
        stash_bytes=sum(p.stash_bytes for p in parts),
        workspace_bytes=max(p.workspace_bytes for p in parts),
        kernel_count=sum(p.kernel_count for p in parts),
        parts=tuple(parts),
    )
