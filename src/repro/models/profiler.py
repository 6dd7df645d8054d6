"""Roofline profiler: per-(layer, GPU type) forward/backward times.

Stands in for the paper's measurement step ("we first profile the DNN
model on each of the different types of GPUs in a cluster", §7).  Each
pass time is::

    max(flops / (effective_flops * kind_efficiency),
        traffic_bytes / memory_bandwidth)
    + kernel_count * kernel_overhead

The FLOP term captures compute-bound layers (large convs, FC), the
traffic term captures memory-bound ones (BN/ReLU/pool/add), and the
launch-overhead term captures why deep small-kernel models (ResNet-152)
run below their FLOP ratio — all three effects visible in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cluster.gpu import GPUSpec
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.layers import LayerSpec


@dataclass(frozen=True)
class LayerCost:
    """Forward/backward execution time of one unit on one GPU type."""

    fwd: float
    bwd: float

    @property
    def total(self) -> float:
        return self.fwd + self.bwd


@dataclass(frozen=True)
class ModelProfile:
    """Per-layer costs for one (model, GPU spec) pair with prefix sums.

    ``fwd_prefix[i]`` is the sum of forward times of units ``[0, i)``, so
    the partitioner reads any contiguous stage's compute time in O(1).
    """

    model_name: str
    gpu_code: str
    costs: tuple[LayerCost, ...]
    fwd_prefix: tuple[float, ...]
    bwd_prefix: tuple[float, ...]

    def stage_fwd(self, start: int, stop: int) -> float:
        return self.fwd_prefix[stop] - self.fwd_prefix[start]

    def stage_bwd(self, start: int, stop: int) -> float:
        return self.bwd_prefix[stop] - self.bwd_prefix[start]

    @property
    def total(self) -> float:
        return self.fwd_prefix[-1] + self.bwd_prefix[-1]


class Profiler:
    """Computes and caches :class:`ModelProfile` objects.

    The cache is keyed on ``(id(model), gpu code)``: hashing a model by
    value walks every layer.  Each entry holds its model, and a hit must
    be that very object, so an id reused after a model is collected can
    never serve another model's profile.
    """

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION) -> None:
        self.calibration = calibration
        self._cache: dict[tuple[int, str], tuple[ModelGraph, ModelProfile]] = {}

    def layer_cost(self, layer: LayerSpec, gpu: GPUSpec) -> LayerCost:
        """Roofline fwd/bwd time of one unit on one GPU type.

        Composite units (residual blocks) are costed part-by-part and
        summed, so compute-bound and memory-bound internal layers both
        contribute — a single max() over the aggregate would hide the
        memory-bound BN/ReLU/add time behind the conv FLOPs.
        """
        if layer.parts:
            fwd = 0.0
            bwd = 0.0
            for part in layer.parts:
                cost = self.layer_cost(part, gpu)
                fwd += cost.fwd
                bwd += cost.bwd
            return LayerCost(fwd=fwd, bwd=bwd)

        cal = self.calibration
        rate = gpu.effective_flops * cal.kind_efficiency(layer.kind)
        bandwidth = gpu.memory_bandwidth
        if layer.kind not in ("conv", "fc", "block", "stem"):
            bandwidth /= cal.elementwise_bw_derate

        fwd_traffic = (layer.stash_bytes + layer.output_bytes + layer.param_bytes) * cal.fwd_traffic_factor
        fwd = max(layer.flops_fwd / rate, fwd_traffic / bandwidth)
        fwd += layer.kernel_count * cal.kernel_overhead

        bwd_flops = layer.flops_bwd * cal.bwd_flops_factor
        bwd_traffic = (layer.stash_bytes + layer.output_bytes + 2 * layer.param_bytes) * cal.bwd_traffic_factor
        bwd = max(bwd_flops / rate, bwd_traffic / bandwidth)
        bwd += layer.kernel_count * cal.kernel_overhead * cal.bwd_kernel_factor
        if cal.activation_recompute:
            # the forward pass is re-run before backward can proceed
            bwd += fwd

        return LayerCost(fwd=fwd, bwd=bwd)

    def profile(self, model: ModelGraph, gpu: GPUSpec) -> ModelProfile:
        """Per-layer cost table for ``model`` on GPU type ``gpu``."""
        key = (id(model), gpu.code)
        cached = self._cache.get(key)
        if cached is not None and cached[0] is model:
            return cached[1]
        costs = tuple(self.layer_cost(layer, gpu) for layer in model.layers)
        fwd_prefix = [0.0]
        bwd_prefix = [0.0]
        for cost in costs:
            fwd_prefix.append(fwd_prefix[-1] + cost.fwd)
            bwd_prefix.append(bwd_prefix[-1] + cost.bwd)
        table = ModelProfile(
            model_name=model.name,
            gpu_code=gpu.code,
            costs=costs,
            fwd_prefix=tuple(fwd_prefix),
            bwd_prefix=tuple(bwd_prefix),
        )
        self._cache[key] = (model, table)
        return table

    def serial_minibatch_time(self, model: ModelGraph, gpu: GPUSpec) -> float:
        """Full fwd+bwd time of one minibatch on a single GPU of this type.

        This is the per-worker compute time of the Horovod baseline (each
        DP worker holds the whole model).
        """
        return self.profile(model, gpu).total
