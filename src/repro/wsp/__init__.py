"""Wave Synchronous Parallel (WSP) — the paper's synchronization model.

* :mod:`repro.wsp.staleness` — the s_local / s_global arithmetic and the
  admission rule.
* :mod:`repro.wsp.placement` — default (round-robin), local, and sharded
  (size-balanced / locality-aware / contention-aware) parameter placement.
* :mod:`repro.wsp.parameter_server` — sharded PS simulation with wave
  clocks.
* :mod:`repro.wsp.runtime` — N virtual workers + PS, the full HetPipe
  system.
* :mod:`repro.wsp.measure` — steady-state measurement harness.
"""

from repro.wsp.measure import HetPipeMetrics, measure_run
from repro.wsp.parameter_server import ParameterServerSim
from repro.wsp.placement import (
    PlacementRequest,
    build_placements,
    contention_aware_placement,
    exact_split,
    local_placement,
    locality_aware_placement,
    round_robin_placement,
    size_balanced_placement,
    validate_local_placement,
)
from repro.wsp.runtime import HetPipeRuntime, VirtualWorkerStats
from repro.wsp.staleness import (
    admission_limit,
    desired_version_after_wave,
    global_staleness,
    local_staleness,
    missing_updates,
)

__all__ = [
    "HetPipeMetrics",
    "HetPipeRuntime",
    "ParameterServerSim",
    "PlacementRequest",
    "VirtualWorkerStats",
    "admission_limit",
    "build_placements",
    "contention_aware_placement",
    "desired_version_after_wave",
    "exact_split",
    "global_staleness",
    "local_placement",
    "locality_aware_placement",
    "local_staleness",
    "measure_run",
    "missing_updates",
    "round_robin_placement",
    "size_balanced_placement",
    "validate_local_placement",
]
