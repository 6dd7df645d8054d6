"""DNN model substrate.

Programmatic layer graphs for the paper's two workloads (VGG-19 and
ResNet-152 at 224x224, batch 32) plus smaller variants, and the cost
models that stand in for the paper's TensorFlow profiling step (§7):

* :mod:`repro.models.layers` — per-layer FLOPs / parameter / activation
  accounting and constructors.
* :mod:`repro.models.graph` — a model as a chain of layer units (residual
  blocks are composite units so the chain abstraction holds).
* :mod:`repro.models.profiler` — roofline timing per (layer, GPU type).
* :mod:`repro.models.memory` — per-stage memory requirements as a
  function of in-flight minibatches.
* :mod:`repro.models.calibration` — every tunable constant in one place.
"""

from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.models.graph import ModelGraph
from repro.models.layers import LayerSpec, composite, conv_unit, fc_unit, pool_unit
from repro.models.memory import stage_memory_bytes
from repro.models.profiler import LayerCost, Profiler
from repro.models.resnet import build_resnet50, build_resnet101, build_resnet152
from repro.models.vgg import build_vgg16, build_vgg19

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "LayerCost",
    "LayerSpec",
    "ModelGraph",
    "Profiler",
    "build_resnet101",
    "build_resnet152",
    "build_resnet50",
    "build_vgg16",
    "build_vgg19",
    "composite",
    "conv_unit",
    "fc_unit",
    "pool_unit",
    "stage_memory_bytes",
]
