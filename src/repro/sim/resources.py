"""Simulated resources: serially-executing processors and FIFO links.

Both resources follow the same discipline: work items are served one at a
time in submission order, and the resource keeps aggregate accounting
(busy seconds, bytes moved) that the metrics layer turns into the
utilization and traffic numbers the paper reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.engine import Simulator

Callback = Callable[[], None]


@dataclass(slots=True)
class _Job:
    duration: float
    on_complete: Callback | None
    tag: Any
    on_start: Callback | None = None


class Processor:
    """A resource that executes jobs one at a time, FIFO.

    Models a GPU compute engine: the pipeline scheduler submits forward /
    backward tasks with precomputed durations and the processor serializes
    them.  ``busy_time`` accumulates exact service time, which is what GPU
    utilization is measured from.
    """

    def __init__(self, sim: Simulator, name: str = "proc") -> None:
        self.sim = sim
        self.name = name
        self.busy_time = 0.0
        self.jobs_completed = 0
        self._queue: deque[_Job] = deque()
        self._busy = False
        self._busy_since: float | None = None
        #: fault-injection state: a down processor queues submissions
        #: without starting them until :meth:`restore` (crash/rejoin)
        self._down = False
        self._current: _Job | None = None
        self._current_event = None
        #: optional observer called with True/False on busy transitions;
        #: the WSP runtime uses it to account virtual-worker idle time
        self.on_state_change: Callable[[bool], None] | None = None
        self._notified_busy = False
        if sim.obs is not None:
            sim.obs.register_resource(self)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(
        self,
        duration: float,
        on_complete: Callback | None = None,
        tag: Any = None,
        on_start: Callback | None = None,
    ) -> None:
        """Enqueue a job of ``duration`` seconds; run it when the engine is free."""
        if duration < 0:
            raise SimulationError(f"{self.name}: negative job duration {duration}")
        self._queue.append(_Job(duration, on_complete, tag, on_start))
        if not self._busy and not self._down:
            self._start_next()

    def _notify(self) -> None:
        """Report busy/idle only on *net* transitions (back-to-back jobs
        do not toggle the observer)."""
        if self.on_state_change is not None and self._busy != self._notified_busy:
            self._notified_busy = self._busy
            self.on_state_change(self._busy)

    def _start_next(self) -> None:
        if not self._queue:
            return
        job = self._queue.popleft()
        self._busy = True
        self._busy_since = self.sim.now
        self._notify()
        if job.on_start is not None:
            job.on_start()
        self._current = job
        self._current_event = self.sim.schedule(job.duration, self._finish, job)

    def _finish(self, job: _Job) -> None:
        now = self.sim.now
        self.busy_time += now - self._busy_since
        self.jobs_completed += 1
        obs = self.sim.obs
        if obs is not None:
            obs.processor_span(self.name, job.tag, self._busy_since, now)
        # Start the next job before the completion callback so that work
        # submitted from the callback queues behind already-waiting jobs,
        # matching FIFO semantics.  The common back-to-back case (queue
        # non-empty) keeps the processor busy with no net state
        # transition, so the observer is not consulted — this inlines
        # _start_next + _notify minus the no-op branches.
        queue = self._queue
        if queue:
            nxt = queue.popleft()
            self._busy_since = now
            if nxt.on_start is not None:
                nxt.on_start()
            self._current = nxt
            self._current_event = self.sim.schedule(nxt.duration, self._finish, nxt)
        else:
            self._busy = False
            self._busy_since = None
            self._current = None
            self._current_event = None
            if self._notified_busy and self.on_state_change is not None:
                self._notified_busy = False
                self.on_state_change(False)
        if job.on_complete is not None:
            job.on_complete()

    # ------------------------------------------------------------------
    # fault injection (see repro.faults)
    # ------------------------------------------------------------------

    @property
    def down(self) -> bool:
        return self._down

    def fail(self) -> None:
        """Crash the processor: the in-flight job is aborted (it re-runs
        in full after :meth:`restore` — its partial service is lost, as
        on a real crash) and queued work waits for the rejoin."""
        if self._down:
            return
        self._down = True
        if self._busy:
            if self._current_event is not None:
                self._current_event.cancel()
            if self._current is not None:
                self._queue.appendleft(self._current)
            self._current = None
            self._current_event = None
            self._busy = False
            self._busy_since = None
            self._notify()

    def restore(self) -> None:
        """Rejoin after a crash: resume the queued work in order."""
        if not self._down:
            return
        self._down = False
        if not self._busy and self._queue:
            self._start_next()

    def halt(self) -> None:
        """Permanently stop: cancel in-flight work, drop the queue, and
        detach observers — used when a pipeline is abandoned by elastic
        re-partitioning (its replacement re-runs the lost work)."""
        self._down = True
        if self._busy:
            if self._current_event is not None:
                self._current_event.cancel()
            self._current = None
            self._current_event = None
            self._busy = False
            self._busy_since = None
            self._notify()
        self._queue.clear()
        self.on_state_change = None

    def drain_to(self, other: "Processor") -> None:
        """Move queued (and crash-aborted) jobs to ``other``, preserving
        order — PS-shard failover migrates pending applies this way."""
        jobs = list(self._queue)
        self._queue.clear()
        for job in jobs:
            other.submit(job.duration, job.on_complete, tag=job.tag, on_start=job.on_start)

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time busy.  ``elapsed`` defaults to ``sim.now``."""
        window = self.sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        busy = self.busy_time
        if self._busy and self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / window)

    # ------------------------------------------------------------------
    # steady-state fast-forward (see repro.sim.fastforward)
    # ------------------------------------------------------------------

    def ff_counters(self) -> tuple:
        """Cumulative counters whose per-cycle deltas define steady state."""
        return (self.busy_time, self.jobs_completed)

    def ff_levels(self, now: float) -> tuple:
        """Structural state that must repeat exactly across cycles."""
        return (
            len(self._queue),
            self._busy,
            now - self._busy_since if self._busy_since is not None else -1.0,
            tuple(job.duration for job in self._queue),
        )

    def ff_advance(self, cycles: int, deltas: tuple, dt: float) -> None:
        """Apply ``cycles`` confirmed cycles' accounting and shift anchors."""
        self.busy_time += cycles * deltas[0]
        self.jobs_completed += cycles * deltas[1]
        if self._busy_since is not None:
            self._busy_since += dt


class Channel:
    """A FIFO link with latency and bandwidth.

    A transfer of ``nbytes`` occupies the link for ``nbytes / bandwidth``
    seconds after waiting for earlier transfers, then completes ``latency``
    seconds later (latency models propagation + software stack and does
    not occupy the link, so back-to-back messages pipeline as on real
    NICs).  ``bytes_moved`` feeds the cross-node traffic accounting used
    to check the paper's 103 MB vs 515 MB claim.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"{name}: latency must be non-negative, got {latency}")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        #: fault-injection state: link degradation scales the effective
        #: bandwidth of *subsequent* transfers (1.0 = healthy; the
        #: no-fault arithmetic is untouched, keeping digests identical)
        self.rate_scale = 1.0
        self.bytes_moved = 0.0
        self.transfers_completed = 0
        self.busy_time = 0.0
        #: total time transfers spent waiting behind earlier ones before
        #: first occupying the link (``start - submit``)
        self.queue_delay_total = 0.0
        #: most transfers ever simultaneously waiting (not yet started)
        self.max_queue_depth = 0
        self._free_at = 0.0
        self._pending_starts: deque[float] = deque()
        if sim.obs is not None:
            sim.obs.register_resource(self)

    @property
    def queue_depth(self) -> int:
        """Transfers waiting for the link (not yet started) at ``sim.now``."""
        return sum(1 for t in self._pending_starts if t > self.sim.now)

    def transfer_time(self, nbytes: float) -> float:
        """Unloaded service time for ``nbytes`` (no queueing)."""
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: float, on_complete: Callback | None = None) -> float:
        """Start a transfer; returns its (absolute) completion time."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size {nbytes}")
        now = self.sim.now
        pending = self._pending_starts
        while pending and pending[0] <= now:
            pending.popleft()
        free_at = self._free_at
        if free_at > now:
            start = free_at
            self.queue_delay_total += start - now
            pending.append(start)
            if len(pending) > self.max_queue_depth:
                self.max_queue_depth = len(pending)
        else:
            start = now
        bandwidth = self.bandwidth
        if self.rate_scale != 1.0:
            bandwidth *= self.rate_scale
        occupy = nbytes / bandwidth
        self._free_at = start + occupy
        done = self._free_at + self.latency
        self.busy_time += occupy
        self.bytes_moved += nbytes
        self.transfers_completed += 1
        obs = self.sim.obs
        if obs is not None:
            obs.channel_span(self.name, start, start + occupy, nbytes)
        if on_complete is not None:
            self.sim.schedule_at(done, on_complete)
        return done

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time the link was occupied by payload bytes."""
        window = self.sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)

    # ------------------------------------------------------------------
    # steady-state fast-forward (see repro.sim.fastforward)
    # ------------------------------------------------------------------

    def ff_counters(self) -> tuple:
        """Cumulative counters whose per-cycle deltas define steady state."""
        return (
            self.bytes_moved,
            self.transfers_completed,
            self.busy_time,
            self.queue_delay_total,
        )

    def ff_levels(self, now: float) -> tuple:
        """Structural state that must repeat exactly across cycles."""
        return (
            max(self._free_at - now, 0.0),
            self.max_queue_depth,
            tuple(start - now for start in self._pending_starts),
        )

    def ff_advance(self, cycles: int, deltas: tuple, dt: float) -> None:
        """Apply ``cycles`` confirmed cycles' accounting and shift anchors."""
        self.bytes_moved += cycles * deltas[0]
        self.transfers_completed += cycles * deltas[1]
        self.busy_time += cycles * deltas[2]
        self.queue_delay_total += cycles * deltas[3]
        self._free_at += dt
        if self._pending_starts:
            self._pending_starts = deque(start + dt for start in self._pending_starts)
