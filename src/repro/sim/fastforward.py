"""Steady-state fast-forward: macro-event coalescing for periodic regimes.

Both PipeDream and BaPipe analyze 1F1B pipelines through their periodic
steady state, and HetPipe's §4 WSP analysis reasons about steady-state
minibatch rates per virtual worker: after warmup, each worker repeats a
fixed per-cycle work pattern, so most simulated events are redundant
copies of one observed cycle.  This module detects that regime and lets
a client advance ``N`` cycles analytically — one clock translation plus
bulk counter updates — instead of dispatching ``O(minibatches × stages)``
heap events.

The contract is *semantic equivalence*, not bit-identical event streams:
a fast-forwarded run must reproduce makespan, per-stage / per-resource
utilization, minibatch counts, and staleness statistics of the full run
within 1e-9 relative error (see :mod:`repro.sim.equivalence` for the
oracle).  The pieces:

* :class:`SteadyStateDetector` — watches per-cycle deltas at
  client-defined boundaries (minibatch completions for a standalone
  pipeline, global-version advances for the WSP runtime).  A cycle is
  declared only when the *entire* per-cycle signature — counter deltas,
  structural levels, and the relative fingerprint of the pending event
  queue — repeats for ``confirm`` consecutive cycles.  Near-periodic
  streams (task jitter, drifting phases) never repeat exactly and are
  refused; periods up to ``max_period`` boundaries are recognized so
  multi-worker interleavings with longer super-cycles still coalesce.
* :func:`queue_fingerprint` — the pending event queue reduced to
  ``(callback site, argument count, time - now)`` triples.  Periodic
  dynamics are *time-translation invariant*: if the queue's relative
  structure and all state deltas repeat, the future evolves as a shifted
  copy of the observed cycle, which is exactly what the skip applies.
* :func:`run_pipeline_fast_forward` — the driver for standalone
  pipelines (:class:`~repro.pipeline.virtual_worker.VirtualWorkerPipeline`
  under either dispatch policy, 1F1B included): boundary
  per minibatch completion, with optional *preserved* completion indices
  that are always simulated (measurement windows sample state there).
* :class:`FastForwardSummary` — the macro event handed to invariant
  oracles and folded into ``hetpipe-trace/2`` digests in place of the
  coalesced raw records.

Float tolerance: cycle deltas are compared at ``rel_tol = 1e-12``.  True
periodic streams differ only by accumulated rounding (~1e-14 relative),
while genuinely aperiodic ones (jitter is >= 1e-2) differ by orders of
magnitude more, so the band between detection tolerance and the 1e-9
equivalence contract is wide on both sides: a skip of ``N`` cycles can
introduce at most ``~N * rel_tol`` relative drift, far inside 1e-9 for
any horizon the harness runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Relative tolerance for matching per-cycle float deltas (see module
#: docstring for why this sits far from both rounding noise and 1e-9).
REL_TOL = 1e-12

#: Longest super-cycle (in boundaries) the detector recognizes.
MAX_PERIOD = 4

#: Consecutive identical cycles required before a skip (the issue's K).
CONFIRM = 2


def _values_match(a: Any, b: Any, rel_tol: float) -> bool:
    """Structural equality with float tolerance.

    Ints, strings, and bools compare exactly; floats compare relatively
    (mixed int/float pairs compare as floats).  Tuples recurse.
    """
    if a is b:
        return True
    if isinstance(a, tuple):
        if not isinstance(b, tuple) or len(a) != len(b):
            return False
        return all(_values_match(x, y, rel_tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if a == b:
            return True
        try:
            return abs(a - b) <= rel_tol * max(abs(a), abs(b))
        except TypeError:
            return False
    return a == b


def _site_of(callback: Any) -> str:
    """A stable, process-independent identity for an event callback.

    Lambdas created at the same source site share one code object, so
    ``module:qualname`` names the *site*, not the closure instance —
    exactly the granularity at which periodic cycles repeat.
    """
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "?")
    qualname = getattr(func, "__qualname__", repr(type(func).__name__))
    return f"{module}:{qualname}"


def queue_fingerprint(sim: "Simulator") -> tuple:
    """Relative structural fingerprint of the pending event queue.

    Each live event contributes ``(site, nargs, time - now)``; the
    multiset is canonicalized by sorting.  Two boundaries with matching
    fingerprints (times within tolerance) hold time-translated copies of
    the same pending work.
    """
    now = sim.now
    entries = [
        (_site_of(event.callback), len(event.args), time - now)
        for time, _seq, event in sim._queue
        if not event.canceled
    ]
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return tuple(entries)


@dataclass(frozen=True)
class DetectedCycle:
    """One confirmed steady-state cycle, ready to be replayed in bulk."""

    period: int  #: boundaries per cycle
    dt: float  #: simulated seconds per cycle
    deltas: tuple  #: per-cycle counter deltas (client-defined layout)
    boundary_dts: tuple  #: per-boundary dt within the cycle (len == period)


@dataclass(frozen=True)
class FastForwardSummary:
    """The macro event describing one applied skip.

    Handed to :meth:`~repro.sim.invariants.RuntimeOracle.on_fast_forward`
    so live oracles can bulk-advance their expectations, and folded into
    ``hetpipe-trace/2`` digests in place of the coalesced raw records.
    """

    time: float  #: simulated time after the jump
    dt: float  #: simulated seconds coalesced
    cycles: int  #: macro cycles applied
    period: int  #: boundaries per macro cycle
    events_coalesced: int  #: heap events that were never dispatched
    minibatches: tuple  #: per-virtual-worker minibatch advance
    waves: tuple  #: per-virtual-worker wave advance
    versions: int  #: global-version advance (0 for standalone pipelines)


class SteadyStateDetector:
    """Confirms periodic steady state from boundary snapshots.

    The client calls :meth:`observe` at every cycle boundary with the
    current simulated time, a flat tuple of cumulative *counters*, and a
    structural *shape* (levels + queue fingerprint).  Once the same
    per-cycle delta has repeated ``confirm`` times — at any period up to
    ``max_period`` — the stable :class:`DetectedCycle` is returned and
    the client may apply a skip, after which it must call :meth:`rebase`
    with the totals it applied so subsequent boundaries keep matching
    without re-confirming from scratch.
    """

    def __init__(
        self,
        max_period: int = MAX_PERIOD,
        confirm: int = CONFIRM,
        rel_tol: float = REL_TOL,
    ) -> None:
        if confirm < 2:
            raise SimulationError("confirm must be >= 2 (one repeat is no pattern)")
        self.max_period = max_period
        self.confirm = confirm
        self.rel_tol = rel_tol
        self.cycles_detected = 0
        self._times: list[float] = []
        self._counters: list[tuple] = []
        self._shapes: list[tuple] = []
        #: boundaries needed to confirm the longest period
        self._keep = max_period * confirm + 1

    def _delta(self, i: int, j: int) -> tuple:
        """Counter deltas between history entries ``j`` (earlier) and ``i``."""
        return tuple(a - b for a, b in zip(self._counters[i], self._counters[j]))

    def observe(self, now: float, counters: tuple, shape: tuple) -> DetectedCycle | None:
        """Record a boundary snapshot; return the cycle once confirmed."""
        times, counts, shapes = self._times, self._counters, self._shapes
        if counts and len(counts[-1]) != len(counters):
            # The component inventory changed (e.g. a lazily-created PS
            # stream): earlier snapshots are incomparable — start over.
            del times[:], counts[:], shapes[:]
        times.append(now)
        counts.append(counters)
        shapes.append(shape)
        if len(times) > self._keep:
            del times[0], counts[0], shapes[0]
        n = len(times)
        tol = self.rel_tol
        for m in range(1, self.max_period + 1):
            span = self.confirm * m  # boundary intervals needed
            if n < span + 1:
                break
            last = n - 1
            # Anchor state must repeat exactly one period back...
            if not _values_match(shapes[last], shapes[last - m], tol):
                continue
            # ...and every boundary delta must match its lag-m twin over
            # confirm-1 full periods.
            ok = True
            for j in range(1, span - m + 1):
                a = (times[last - j + 1] - times[last - j],) + self._delta(last - j + 1, last - j)
                b = (times[last - j + 1 - m] - times[last - j - m],) + self._delta(
                    last - j + 1 - m, last - j - m
                )
                if not _values_match(a, b, tol):
                    ok = False
                    break
            if not ok:
                continue
            self.cycles_detected += 1
            return DetectedCycle(
                period=m,
                dt=times[last] - times[last - m],
                deltas=self._delta(last, last - m),
                boundary_dts=tuple(
                    times[last - m + j + 1] - times[last - m + j] for j in range(m)
                ),
            )
        return None

    def rebase(self, dt: float, deltas: Sequence) -> None:
        """Shift the recorded history past an applied skip.

        Adding the skip's totals to every stored snapshot keeps all
        historical per-cycle deltas intact, so the boundary right after
        a skip still matches and chained skips confirm instantly.
        """
        self._times = [t + dt for t in self._times]
        self._counters = [
            tuple(c + d for c, d in zip(entry, deltas)) for entry in self._counters
        ]


def pipeline_components(pipeline) -> list:
    """Fixed component order shared by every pipeline-shaped client."""
    comps: list = [pipeline]
    for state in pipeline.stages:
        comps.append(state.processor)
        if state.to_next is not None:
            comps.append(state.to_next)
        if state.to_prev is not None:
            comps.append(state.to_prev)
    return comps


def collect_counters(sim: "Simulator", comps: Iterable) -> tuple:
    """Flat cumulative-counter vector: slot 0 is the *virtual* event
    count (dispatched + coalesced) followed by per-component counters.

    The virtual count — unlike ``events_processed`` alone — advances by
    exactly one cycle's worth per boundary even across a skip, so
    :meth:`SteadyStateDetector.rebase` keeps history consistent and
    chained skips confirm instantly instead of corrupting slot 0.
    """
    values: list = [sim.events_processed + sim.events_fast_forwarded]
    for comp in comps:
        values.extend(comp.ff_counters())
    return tuple(values)


def collect_shape(sim: "Simulator", comps: Iterable) -> tuple:
    """Structural signature: per-component levels + queue fingerprint."""
    now = sim.now
    levels = tuple(comp.ff_levels(now) for comp in comps)
    return (levels, queue_fingerprint(sim))


def advance_components(
    comps: Sequence, sizes: Sequence[int], cycles: int, deltas: Sequence, dt: float
) -> None:
    """Distribute the flat delta vector back onto the components.

    ``deltas`` excludes the leading events-processed slot (the caller
    owns the simulator); ``sizes`` is each component's counter width.
    """
    offset = 0
    for comp, size in zip(comps, sizes):
        comp.ff_advance(cycles, deltas[offset : offset + size], dt)
        offset += size


def run_pipeline_fast_forward(
    pipeline,
    limit: int,
    preserve: Iterable[int] = (),
    max_events: int | None = None,
    detector: SteadyStateDetector | None = None,
) -> int:
    """Drive a standalone pipeline to quiescence, coalescing steady cycles.

    ``limit`` is the pipeline's admission cap (public minibatch ids);
    skips never admit past it, so the drain tail is always simulated.
    Completion indices in ``preserve`` are guaranteed to execute as real
    events (measurement code samples state in completion callbacks
    there).  Returns the number of minibatches fast-forwarded.

    ``done_times`` is kept contiguous: coalesced completions are filled
    in arithmetically from the confirmed cycle, so readers that index it
    (warmup/total window bounds) see every minibatch.  ``inject_times``
    and ``staleness_ledger`` only cover simulated minibatches — the
    semantic contract covers aggregates, not per-minibatch ledgers.
    """
    sim = pipeline.sim
    if getattr(pipeline, "jitter", 0.0) > 0.0:
        # Near-periodic by construction: the detector would refuse every
        # cycle anyway, so skip the bookkeeping entirely.
        sim.run_until_idle(**({"max_events": max_events} if max_events else {}))
        return 0
    det = detector if detector is not None else SteadyStateDetector()
    comps = pipeline_components(pipeline)
    sizes = [len(comp.ff_counters()) for comp in comps]
    boundaries = sorted(b for b in set(preserve) if b > 0)
    skipped = 0
    executed = 0
    last_completed = pipeline.completed
    while sim.step():
        executed += 1
        if max_events is not None and executed > max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        if pipeline.completed == last_completed:
            continue
        last_completed = pipeline.completed
        counters = collect_counters(sim, comps)
        cycle = det.observe(sim.now, counters, collect_shape(sim, comps))
        if cycle is None:
            continue
        m = cycle.period
        # Admissions during skipped cycles must stay within the limit
        # (steady state implies one inject per completion)...
        injected_public = pipeline.next_minibatch - 1 + pipeline.mb_offset
        budget = limit - injected_public
        # ...and no skipped cycle may swallow a preserved completion.
        for boundary in boundaries:
            if boundary > pipeline.completed:
                budget = min(budget, boundary - 1 - pipeline.completed)
                break
        cycles = budget // m
        if cycles <= 0:
            continue
        dt = cycles * cycle.dt
        events_delta = cycle.deltas[0]
        # Fill the coalesced completion times before counters move: each
        # boundary is one completion, at the confirmed per-boundary dts.
        done = pipeline.done_times
        anchor = sim.now
        index = pipeline.completed
        for i in range(cycles):
            base = anchor + i * cycle.dt
            offset = 0.0
            for boundary_dt in cycle.boundary_dts:
                offset += boundary_dt
                index += 1
                done[index] = base + offset
        sim.fast_forward(dt, events_coalesced=cycles * events_delta)
        advance_components(comps, sizes, cycles, cycle.deltas[1:], dt)
        minibatches = cycles * m
        skipped += minibatches
        pipeline.trace.record(
            sim.now,
            "fast_forward",
            pipeline.name,
            cycles=cycles,
            period=m,
            dt=dt,
            minibatches=minibatches,
            events=cycles * events_delta,
        )
        det.rebase(dt, tuple(cycles * d for d in cycle.deltas))
        last_completed = pipeline.completed
    return skipped
