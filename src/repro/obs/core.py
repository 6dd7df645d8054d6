"""The in-run telemetry collector.

One :class:`ObsCollector` is attached per instrumented run (via
``HetPipeRuntime.from_spec(..., obs=...)`` or ``measure_run``): the
runtime sets ``Simulator.obs`` before any resource is constructed, so
processors, channels, and shared-fabric links register themselves at
creation —
including the parameter server's lazily-created per-stream channels and
per-shard apply processors — and report exact busy spans as they finish
work.  Trace records flow in through :meth:`ObsCollector.on_trace` (a
plain :class:`~repro.sim.trace.Trace` subscriber, so digests are
untouched by construction) and are paired into stage-level task spans,
lifecycle annotations, and fast-forward macro-spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.spec import ObservabilitySpec
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecord

#: Trace categories recorded as instant annotations (one marker each).
ANNOTATION_CATEGORIES = frozenset(
    (
        "inject", "minibatch_done", "wave_push", "pull_done",
        "fault", "fault_recovered", "checkpoint", "repartition",
    )
)


@dataclass(frozen=True)
class Span:
    """One closed interval of work on one track (resource or stage)."""

    track: str
    name: str
    start: float
    end: float
    args: dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ObsReport:
    """Aggregate telemetry summary (surfaced on ``HetPipeMetrics``)."""

    spans: int
    annotations: int
    samples: int
    counters: dict[str, int]
    #: per-resource utilization over the run (fraction of time busy)
    utilization: dict[str, float]
    #: per-resource peak simultaneous waiters (0 for processors, whose
    #: queue drains through a single server)
    queue_depth_peak: dict[str, int]


class ObsCollector:
    """Accumulates spans, counters, annotations and samples.

    All methods are cheap appends; nothing here feeds back into the
    simulation, so an instrumented run follows the exact trajectory of
    an uninstrumented one (the digest-equality tests pin this down).
    """

    def __init__(self, spec: "ObservabilitySpec | None" = None) -> None:
        if spec is None:
            from repro.api.spec import ObservabilitySpec

            spec = ObservabilitySpec(enabled=True)
        self.spec = spec
        self.spans: list[Span] = []
        #: (time, name, track, args) instant markers
        self.annotations: list[tuple[float, str, str, dict[str, Any]]] = []
        self.counters: dict[str, int] = {}
        #: gauge name -> [(time, value), ...] time series
        self.series: dict[str, list[tuple[float, float]]] = {}
        self.resources: list[Any] = []
        self.samples_taken = 0
        self._resource_ids: set[int] = set()
        #: (actor, kind) -> (start time, start detail) for open task spans
        self._open: dict[tuple[str, str], tuple[float, dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    # instrumentation API
    # ------------------------------------------------------------------

    def count(self, name: str, inc: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + inc

    def gauge(self, name: str, value: float, time: float) -> None:
        """Append one ``(time, value)`` point to gauge ``name``."""
        self.series.setdefault(name, []).append((time, value))

    def register_resource(self, resource: Any) -> None:
        """Track a Processor/Channel/SharedLink for utilization sampling.

        Called by the resources themselves at construction when
        ``sim.obs`` is set, so lazily-created resources (PS streams,
        shard apply queues) are covered automatically.
        """
        if id(resource) not in self._resource_ids:
            self._resource_ids.add(id(resource))
            self.resources.append(resource)

    def processor_span(self, name: str, tag: Any, start: float, end: float) -> None:
        """Exact busy interval of one processor job (from ``_finish``)."""
        label = "job" if tag is None else str(tag)
        self.spans.append(Span(name, label, start, end, {}))

    def channel_span(self, name: str, start: float, end: float, nbytes: float) -> None:
        """Exact occupancy interval of one transfer on a link."""
        self.spans.append(Span(name, "xfer", start, end, {"nbytes": nbytes}))

    # ------------------------------------------------------------------
    # trace subscription
    # ------------------------------------------------------------------

    def on_trace(self, record: "TraceRecord") -> None:
        """Pair task start/done records into spans."""
        category = record.category
        if category.endswith("_start"):
            self._open[(record.actor, category[:-6])] = (record.time, record.detail)
            return
        if category.endswith("_done"):
            kind = category[:-5]
            opened = self._open.pop((record.actor, kind), None)
            if opened is not None:
                start, detail = opened
                args = {**detail, **record.detail}
                mb = args.get("minibatch")
                name = kind if mb is None else f"{kind} mb{mb}"
                self.spans.append(Span(record.actor, name, start, record.time, args))
        if category in ANNOTATION_CATEGORIES:
            self.count(category)
            self.annotations.append(
                (record.time, category, record.actor, dict(record.detail))
            )
        elif category == "fast_forward":
            # Coalesced steady-state cycles appear as one macro-span
            # covering the analytically-advanced interval.
            dt = float(record.detail.get("dt", 0.0))
            cycles = record.detail.get("cycles", 0)
            self.count("fast_forward")
            self.spans.append(
                Span(
                    record.actor,
                    f"fast_forward x{cycles}",
                    record.time - dt,
                    record.time,
                    dict(record.detail),
                )
            )

    # ------------------------------------------------------------------
    # periodic sampling
    # ------------------------------------------------------------------

    def install_sampler(self, sim: "Simulator") -> None:
        """Schedule the utilization/queue-depth sampler on ``sim``.

        Ticks every ``spec.sample_every`` simulated seconds and
        reschedules only while further work is pending, so runs still
        quiesce.  Sampling reads state without mutating it — the
        simulated trajectory is unchanged.
        """
        every = self.spec.sample_every
        if every <= 0:
            return

        def tick() -> None:
            self.sample(sim)
            if sim.peek() is not None:
                sim.schedule(every, tick)

        sim.schedule(every, tick)

    def sample(self, sim: "Simulator") -> None:
        """Take one sample of every registered resource and the engine."""
        now = sim.now
        self.samples_taken += 1
        self.gauge("sim.queue_depth", float(sim.queue_depth), now)
        for res in self.resources:
            self.gauge(f"{res.name}.util", res.utilization(), now)
            self.gauge(f"{res.name}.queue", float(res.queue_depth), now)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def report(self) -> ObsReport:
        """Summarize into the frozen :class:`ObsReport`."""
        utilization = {res.name: res.utilization() for res in self.resources}
        queue_depth_peak = {
            res.name: int(getattr(res, "max_queue_depth", 0))
            for res in self.resources
        }
        return ObsReport(
            spans=len(self.spans),
            annotations=len(self.annotations),
            samples=self.samples_taken,
            counters=dict(self.counters),
            utilization=utilization,
            queue_depth_peak=queue_depth_peak,
        )
