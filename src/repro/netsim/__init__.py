"""Contention-aware network fabric (shared NICs, PCIe switches, IB).

Replaces the private infinite-parallel :class:`~repro.sim.resources.Channel`
per traffic source with shared, FIFO-reserved resources built from the
cluster topology.  Selected via ``network_model="shared"`` on the WSP
runtime / measurement entry points; the default ``"dedicated"`` keeps
the original per-stream links (and bit-identical seed outputs).
"""

from repro.netsim.fabric import (
    DEFAULT_FABRIC_SPEC,
    Endpoint,
    Fabric,
    FabricEdge,
    FabricSpec,
    Flow,
    SharedLink,
    utilization_report,
)

__all__ = [
    "DEFAULT_FABRIC_SPEC",
    "Endpoint",
    "Fabric",
    "FabricEdge",
    "FabricSpec",
    "Flow",
    "SharedLink",
    "utilization_report",
]
