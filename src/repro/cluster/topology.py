"""Cluster topology: nodes + interconnect parameters.

The :class:`Cluster` assigns cluster-unique GPU ids, answers locality
queries (same node or not) and exposes the effective point-to-point link
parameters the profiler and runtimes use.  Effective bandwidths follow §7
of the paper: PCIe peak is multiplied by a Paleo-style scaling-down
constant, and inter-node (InfiniBand) transfers use a latency + size/BW
linear-regression model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cluster.gpu import GPUDevice, GPUSpec
from repro.cluster.node import Node
from repro.errors import ConfigurationError
from repro.units import gb_per_s, gbps, us


@dataclass(frozen=True)
class InterconnectSpec:
    """Link parameters for a cluster.

    ``pcie_scale`` and ``ib_scale`` are the scaling-down constants (§7)
    that map peak to achievable bandwidth; latencies absorb the constant
    term of the linear-regression communication model.  The fitted
    values for a given software stack live in the named calibration
    profiles of :data:`repro.cluster.catalog.INTERCONNECT_PROFILES`
    (the defaults here equal the paper's ``grpc_tf112`` profile).
    """

    pcie_bandwidth: float = gb_per_s(15.75)  # PCIe 3.0 x16 peak
    pcie_scale: float = 0.75
    pcie_latency: float = us(25)
    ib_bandwidth: float = gbps(56)  # InfiniBand FDR
    #: achieved fraction of IB line rate for GPU-to-GPU tensor transfers;
    #: TF 1.12 staged transfers through host memory over gRPC, which
    #: sustains only ~0.8 GB/s — this constant is fitted to the paper's
    #: heterogeneous Nm=1 throughputs (see EXPERIMENTS.md calibration)
    ib_scale: float = 0.10
    ib_latency: float = us(150)

    def __post_init__(self) -> None:
        if not 0 < self.pcie_scale <= 1 or not 0 < self.ib_scale <= 1:
            raise ConfigurationError("link scaling constants must be in (0, 1]")

    @property
    def pcie_effective(self) -> float:
        """Achievable intra-node GPU-to-GPU bandwidth (bytes/s)."""
        return self.pcie_bandwidth * self.pcie_scale

    @property
    def ib_effective(self) -> float:
        """Achievable inter-node bandwidth (bytes/s)."""
        return self.ib_bandwidth * self.ib_scale

    def link_between(self, a: GPUDevice, b: GPUDevice) -> tuple[float, float]:
        """``(effective_bandwidth, latency)`` for a transfer from a to b."""
        if a.same_node(b):
            return self.pcie_effective, self.pcie_latency
        return self.ib_effective, self.ib_latency

    def transfer_time(self, nbytes: float, a: GPUDevice, b: GPUDevice) -> float:
        """Unloaded point-to-point transfer time for ``nbytes``."""
        if a.gpu_id == b.gpu_id:
            return 0.0
        bandwidth, latency = self.link_between(a, b)
        return latency + nbytes / bandwidth


class Cluster:
    """A set of nodes with an interconnect.

    >>> from repro.cluster.catalog import paper_cluster
    >>> cluster = paper_cluster()
    >>> len(cluster.gpus)
    16
    >>> cluster.codes()
    'VVVVRRRRGGGGQQQQ'
    """

    def __init__(self, nodes: Sequence[Node], interconnect: InterconnectSpec) -> None:
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        self.nodes = list(nodes)
        self.interconnect = interconnect
        self.gpus: list[GPUDevice] = []
        next_id = 0
        for node in self.nodes:
            devices = []
            for slot in range(node.gpu_count):
                devices.append(
                    GPUDevice(gpu_id=next_id, node_id=node.node_id, spec=node.gpu_spec, slot=slot)
                )
                next_id += 1
            node.gpus = devices
            self.gpus.extend(devices)
        self._by_id = {gpu.gpu_id: gpu for gpu in self.gpus}

    def gpu(self, gpu_id: int) -> GPUDevice:
        return self._by_id[gpu_id]

    def node(self, node_id: int) -> Node:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ConfigurationError(f"no node with id {node_id}")

    def codes(self) -> str:
        """Cluster fingerprint: one letter per GPU in id order."""
        return "".join(gpu.code for gpu in self.gpus)

    def specs(self) -> list[GPUSpec]:
        """Distinct GPU specs present, in first-appearance order."""
        seen: dict[str, GPUSpec] = {}
        for gpu in self.gpus:
            seen.setdefault(gpu.code, gpu.spec)
        return list(seen.values())

    def subset(self, gpu_ids: Iterable[int]) -> list[GPUDevice]:
        return [self._by_id[g] for g in gpu_ids]

    def __len__(self) -> int:
        return len(self.gpus)

    def __str__(self) -> str:
        return " ".join(str(node) for node in self.nodes)
