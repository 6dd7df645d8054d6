"""Pipelined model parallelism engine (§4 of the paper).

A :class:`~repro.pipeline.virtual_worker.VirtualWorkerPipeline` executes
minibatches through the stages of a
:class:`~repro.partition.spec.PartitionPlan` on the discrete-event
simulator, honoring the paper's scheduling conditions:

1. forward of minibatch ``p`` only after forwards of all ``p' < p``;
2. backward of ``p`` only after backwards of all ``p' < p``;
3. FIFO among ready tasks on each GPU, or backward-first under 1F1B
   (:class:`~repro.pipeline.one_f_one_b.OneFOneBPipeline`);
4. the last partition fuses forward+backward into a single task.

Admission keeps at most ``Nm`` minibatches in flight; an optional
:class:`~repro.pipeline.tasks.AdmissionGate` lets the WSP runtime add
the global-staleness condition without the pipeline knowing about
parameter servers.
"""

from repro.pipeline.tasks import AdmissionGate, OpenGate, wave_minibatches, wave_of
from repro.pipeline.one_f_one_b import OneFOneBPipeline
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.pipeline.metrics import PipelineMetrics, measure_pipeline

__all__ = [
    "AdmissionGate",
    "OneFOneBPipeline",
    "OpenGate",
    "PipelineMetrics",
    "VirtualWorkerPipeline",
    "measure_pipeline",
    "wave_minibatches",
    "wave_of",
]
