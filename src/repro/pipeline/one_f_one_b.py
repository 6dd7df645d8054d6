"""PipeDream-style one-forward-one-backward (1F1B) scheduling.

HetPipe schedules each GPU's ready tasks FIFO (§4 condition 3);
PipeDream instead *alternates* forward and backward work in steady
state, which bounds the number of stashed activations per stage without
an explicit admission cap.  The paper cites this scheduler (§2.3, §9:
"PipeDream employs the one-forward-one-backward scheduling algorithm")
— here it is the backward-first dispatch policy of the one pipeline
engine, so the ablation bench compares the two disciplines on identical
partitions.  Conditions 1–2 (per-type minibatch order) still hold.
"""

from __future__ import annotations

from repro.cluster.topology import InterconnectSpec
from repro.netsim.fabric import Fabric
from repro.partition.spec import PartitionPlan
from repro.pipeline.tasks import CountingGate
from repro.pipeline.virtual_worker import VirtualWorkerPipeline
from repro.sim.engine import Simulator
from repro.sim.trace import Trace


class OneFOneBPipeline(VirtualWorkerPipeline):
    """A virtual-worker pipeline under 1F1B dispatch, admitting the
    first ``limit`` minibatches with ``Nm`` in flight, as HetPipe does,
    so a comparison isolates the *dispatch discipline*."""

    backward_first = True

    def __init__(
        self,
        sim: Simulator,
        plan: PartitionPlan,
        interconnect: InterconnectSpec,
        limit: int,
        name: str = "1f1b",
        trace: Trace | None = None,
        fabric: Fabric | None = None,
    ) -> None:
        super().__init__(
            sim, plan, interconnect, name, gate=CountingGate(limit), trace=trace, fabric=fabric
        )
