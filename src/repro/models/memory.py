"""Per-stage GPU memory model.

§4 of the paper: the memory a pipeline stage needs depends on where it
sits — GPU1 "needs to hold on to the results of the forward pass for all
stages of the pipeline" while the last GPU is immediately done with each
minibatch.  We model the worst-case number of in-flight minibatches at
stage ``s`` (0-indexed) as ``max(1, Nm - s)``: the first stage can have
all ``Nm`` admitted minibatches stashed, each later stage one fewer.
The pipeline simulator measures the true peak and the test suite asserts
the analytic bound dominates it.

A stage's requirement for ``m`` in-flight minibatches:

* weights + gradient buffers: ``param_bytes * weight_state_multiplier``
* stashed weight versions (w_p is kept until p's backward pass, §4):
  ``param_bytes * weight_version_factor * (m - 1)``
* stashed activations: ``stash_bytes * m``
* workspace: max over layers.

Feasibility compares against the device capacity minus framework
overhead, scaled by ``usable_memory_fraction``.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.gpu import GPUSpec
from repro.errors import ConfigurationError
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.layers import LayerSpec


def in_flight_at_stage(nm: int, stage_index: int) -> int:
    """Worst-case concurrent minibatches held at a (0-indexed) stage."""
    return max(1, nm - stage_index)


#: Weight-version policy tag of the default (HetPipe §4) accounting.
DEFAULT_WEIGHT_POLICY = "stash_per_minibatch"


def weight_version_count(weight_policy: str, in_flight: int) -> int:
    """Extra weight copies a stage pins for ``in_flight`` minibatches.

    Per-variant accounting (see :mod:`repro.pipeline.variants.defs`):
    ``"stash_per_minibatch"`` (HetPipe §4 / PipeDream) stashes one
    version per in-flight minibatch beyond the live weights;
    ``"double_buffer"`` (PipeDream-2BW) holds exactly one shadow copy
    once the pipeline overlaps; ``"single"`` (GPipe flush) and
    ``"predicted"`` (XPipe) hold none — the wave drains before the next
    version, or prediction recomputes effective weights on the fly.
    """
    if weight_policy == "stash_per_minibatch":
        return max(0, in_flight - 1)
    if weight_policy == "double_buffer":
        return 1 if in_flight > 1 else 0
    if weight_policy in ("single", "predicted"):
        return 0
    raise ConfigurationError(
        f"unknown weight policy {weight_policy!r}; expected one of "
        f"stash_per_minibatch, double_buffer, single, predicted"
    )


def stage_memory_bytes(
    layers: Sequence[LayerSpec],
    in_flight: int,
    calibration: Calibration = DEFAULT_CALIBRATION,
    weight_policy: str = DEFAULT_WEIGHT_POLICY,
) -> float:
    """Memory needed by a stage holding ``in_flight`` minibatches.

    ``weight_policy`` selects the variant's weight-version accounting;
    the default reproduces HetPipe's §4 model with arithmetic (and float
    results) identical to the pre-variant implementation.  Activation
    stash accounting is shared by all variants: activations are pinned
    by in-flight minibatches regardless of how weights are versioned.
    """
    params = sum(layer.param_bytes for layer in layers)
    stash = sum(layer.stash_bytes for layer in layers) * calibration.activation_stash_factor
    if calibration.activation_recompute:
        # GPipe-style: keep only boundary activations, recompute the rest
        stash *= calibration.recompute_stash_fraction
    workspace = max((layer.workspace_bytes for layer in layers), default=0.0)
    weight_state = params * calibration.weight_state_multiplier
    weight_versions = (
        params * calibration.weight_version_factor
        * weight_version_count(weight_policy, in_flight)
    )
    return weight_state + weight_versions + stash * in_flight + workspace


def gpu_usable_bytes(gpu: GPUSpec, calibration: Calibration = DEFAULT_CALIBRATION) -> float:
    """Bytes of device memory available to the training job."""
    return gpu.memory_bytes * calibration.usable_memory_fraction - calibration.framework_overhead_bytes


def stage_fits(
    layers: Sequence[LayerSpec],
    in_flight: int,
    gpu: GPUSpec,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> bool:
    """True if the stage fits the device at the given concurrency."""
    return stage_memory_bytes(layers, in_flight, calibration) <= gpu_usable_bytes(gpu, calibration)


def model_fits_single_gpu(
    layers: Sequence[LayerSpec],
    gpu: GPUSpec,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> bool:
    """Whole-model DP feasibility check (one minibatch in flight)."""
    return stage_fits(layers, 1, gpu, calibration)
