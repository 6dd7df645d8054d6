"""Discrete-event simulation engine.

This package is the substrate every performance experiment runs on.  It is
a deliberately small, deterministic event-driven simulator:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock.
* :class:`~repro.sim.resources.Processor` — a serially-executing resource
  (a GPU's compute engine) with busy-time accounting.
* :class:`~repro.sim.resources.Channel` — a FIFO bandwidth/latency link
  (PCIe lane, InfiniBand NIC) with traffic accounting.
* :class:`~repro.sim.trace.Trace` — structured event recording used by the
  metrics layer and by tests asserting ordering invariants.
* :mod:`~repro.sim.fastforward` — steady-state macro-event coalescing
  (the ``fidelity="fast_forward"`` mode) and its cycle detector.
* :mod:`~repro.sim.equivalence` — the semantic-equivalence contract that
  replaces bit-identical digests for coalesced runs.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.equivalence import compare_fingerprints, semantic_fingerprint
from repro.sim.fastforward import (
    FastForwardSummary,
    SteadyStateDetector,
    run_pipeline_fast_forward,
)
from repro.sim.resources import Channel, Processor
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Channel",
    "Event",
    "FastForwardSummary",
    "Processor",
    "Simulator",
    "SteadyStateDetector",
    "Trace",
    "TraceRecord",
    "compare_fingerprints",
    "run_pipeline_fast_forward",
    "semantic_fingerprint",
]
