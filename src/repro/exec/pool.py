"""Deterministic parallel sweep execution with streamed results.

Every multi-scenario entry point (``repro fuzz``, the figure
experiments, ``repro sweep``) funnels through
:func:`sweep_map`: a map over independent work items that can fan out
across worker processes (``jobs > 1``) while remaining **bit-identical
to the serial run**.

Determinism comes from three properties:

* work items are pure functions of their inputs (a fuzz seed fully
  determines its scenario; a figure row fully determines its
  measurement), so *where* an item runs cannot change its result;
* items are dealt to workers by a fixed round-robin stripe of the input
  order (worker ``w`` gets items ``w, w + jobs, w + 2 * jobs, ...``),
  never by completion order, so the assignment itself is reproducible;
* results are merged back by original item index before anything is
  reported, so output ordering is independent of scheduling.

Worker processes import ``fn`` by reference (it must be a module-level
callable) and **stream one message per completed item** back to the
parent.  Per-item streaming is what makes sweeps crash-safe and
watchdog-able: the parent can persist each result the moment it exists
(``on_stream`` — the hook ``repro sweep --store`` commits points
through, so a SIGKILL loses at most in-flight items), and it knows how
long the *current* item has been running, so a per-item wall-clock
``timeout`` can kill a hung worker instead of hanging the sweep.

The executor also owns the GC discipline of a sweep: the simulator
allocates millions of short-lived events/records whose lifetimes are
almost entirely refcount-managed, so the cyclic collector's generational
scans are pure overhead mid-run.  Both the serial loop and each worker
disable automatic collection and instead collect explicitly every
``_GC_EVERY`` items, bounding cycle buildup on very long sweeps.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import multiprocessing.connection
import os
import time
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigurationError, ItemTimeoutError, WorkerCrashError

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Items processed between explicit ``gc.collect()`` calls while the
#: automatic collector is paused.
_GC_EVERY = 64

#: Isolated attempts granted to each item of a dead (or watchdog-killed)
#: worker's stripe before the item is declared poisoned
#: (:class:`WorkerCrashError`) or pathological (:class:`ItemTimeoutError`).
_ITEM_RETRIES = 2

#: Sentinel for a result slot no worker has filled yet (``None`` is a
#: legitimate item result).
_MISSING = object()


def resolve_jobs(jobs: int | None) -> int:
    """Worker-count policy: ``None`` means one worker per CPU."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def stripe_indices(n_items: int, jobs: int) -> list[list[int]]:
    """Round-robin deal of ``range(n_items)`` across ``jobs`` workers.

    Interleaving (rather than contiguous blocks) balances sweeps whose
    per-item cost trends with position — fuzz seeds and Nm sweeps both
    do — while staying a pure function of ``(n_items, jobs)``.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return [list(range(w, n_items, jobs)) for w in range(min(jobs, n_items))]


class _gc_paused:
    """Context manager: pause automatic GC, restore and sweep on exit."""

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: Any) -> None:
        if self._was_enabled:
            gc.enable()
            gc.collect()


def _run_serial(
    fn: Callable[[T], R],
    items: Sequence[T],
    on_result: Callable[[int, Any], None] | None,
    on_stream: Callable[[int, Any], None] | None,
) -> list[R]:
    out: list[R] = []
    with _gc_paused():
        for index, item in enumerate(items):
            out.append(fn(item))
            if on_stream is not None:
                on_stream(index, out[-1])
            if on_result is not None:
                on_result(index, out[-1])
            if (index + 1) % _GC_EVERY == 0:
                gc.collect()
    return out


def _stripe_main(conn, fn: Callable[[T], R], items: list[T]) -> None:
    """Worker process entry: stream ``("item", local_index, result)`` per
    completed item, then ``("done", None)``.

    A worker that dies without finishing (segfault, OOM kill,
    ``os._exit``, watchdog SIGKILL) is detected by the parent as EOF on
    the pipe; an ordinary exception travels back explicitly as
    ``("error", exc)`` so it can re-raise with its type intact.  A
    vanished parent (its SIGKILL closed the read end) surfaces here as
    ``BrokenPipeError`` — exit quietly, there is nobody to report to.
    """
    try:
        with _gc_paused():
            for index, item in enumerate(items):
                result = fn(item)
                conn.send(("item", index, result))
                if (index + 1) % _GC_EVERY == 0:
                    gc.collect()
        conn.send(("done", None))
    except BrokenPipeError:
        return
    except BaseException as exc:
        try:
            conn.send(("error", exc))
        except BrokenPipeError:
            return
        except Exception:
            # Unpicklable exception: degrade to its repr.
            try:
                conn.send(("error", ConfigurationError(repr(exc))))
            except Exception:
                return


def _spawn_stripe(ctx, fn: Callable[[T], R], stripe_items: list[T]):
    """Start one stripe worker; returns ``(process, recv_conn)``."""
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_stripe_main, args=(send_conn, fn, stripe_items))
    proc.start()
    send_conn.close()  # parent keeps only the receive end: EOF == death
    return proc, recv_conn


def _kill(proc) -> None:
    """SIGKILL (not terminate): a hung item may be ignoring SIGTERM."""
    if proc.is_alive():
        kill = getattr(proc, "kill", proc.terminate)
        kill()
    proc.join()


class _Worker:
    """Parent-side state of one live stripe worker."""

    __slots__ = ("proc", "conn", "stripe", "done", "deadline")

    def __init__(self, proc, conn, stripe: list[int], deadline: float | None) -> None:
        self.proc = proc
        self.conn = conn
        self.stripe = stripe
        self.done = 0  # local index of the next item expected
        self.deadline = deadline

    @property
    def remaining(self) -> list[int]:
        return self.stripe[self.done:]


def _run_isolated(ctx, fn, item, timeout: float | None):
    """One item in its own process, watchdog enforced.

    Returns ``("ok", result)``, ``("died", exitcode)``, or
    ``("timeout", None)``; a worker exception re-raises here.
    """
    proc, conn = _spawn_stripe(ctx, fn, [item])
    try:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not conn.poll(wait):
                _kill(proc)
                return ("timeout", None)
            try:
                message = conn.recv()
            except EOFError:
                proc.join()
                return ("died", proc.exitcode)
            if message[0] == "item":
                proc.join()
                return ("ok", message[2])
            if message[0] == "error":
                proc.join()
                raise message[1]
            # ("done", None) before any item is impossible for a
            # one-item stripe; fall through and keep reading.
    finally:
        if proc.is_alive():  # pragma: no cover - defensive
            _kill(proc)
        conn.close()


def _recover_stripe(
    ctx,
    fn: Callable[[T], R],
    items: Sequence[T],
    indices: list[int],
    deliver: Callable[[int, Any], None],
    timeout: float | None,
    cause: str,
) -> None:
    """Re-run a dead/killed worker's unfinished items, one isolated
    process per item.

    Isolation keeps a segfaulting item from taking the parent down; the
    bounded per-item retries distinguish a transient failure (OOM kill
    under memory pressure, a load spike tripping the watchdog) from an
    item that is genuinely poisoned (:class:`WorkerCrashError`) or
    pathological (:class:`ItemTimeoutError`) — each error naming the
    item's original index.
    """
    logger.warning(
        "sweep_map: worker lost (%s); retrying its %d unfinished item(s) "
        "in isolated processes",
        cause, len(indices),
    )
    for index in indices:
        status, payload = "died", None
        for attempt in range(_ITEM_RETRIES):
            status, payload = _run_isolated(ctx, fn, items[index], timeout)
            if status == "ok":
                deliver(index, payload)
                break
            logger.warning(
                "sweep_map: item %d %s in isolation (attempt %d/%d)",
                index,
                "timed out" if status == "timeout" else f"died (exitcode {payload})",
                attempt + 1, _ITEM_RETRIES,
            )
        else:
            if status == "timeout":
                assert timeout is not None
                raise ItemTimeoutError(index, timeout, _ITEM_RETRIES)
            raise WorkerCrashError(
                index,
                f"process exited with code {payload} on all "
                f"{_ITEM_RETRIES} isolated attempts",
            )


def sweep_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = 1,
    mp_context: str | None = None,
    on_result: Callable[[int, R], None] | None = None,
    on_stream: Callable[[int, R], None] | None = None,
    timeout: float | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Returns results in item order; the output is bit-identical whatever
    ``jobs`` is (see module docstring for why).  ``fn`` must be a
    module-level callable and items/results must pickle when worker
    processes are involved.  A worker exception propagates to the
    caller.

    Two callbacks observe progress:

    * ``on_stream(index, result)`` fires the moment a result reaches
      the parent — **completion order**, not item order.  This is the
      crash-safety hook: persist here and a SIGKILL loses at most the
      in-flight items.
    * ``on_result(index, result)`` fires strictly in item order (each
      index only after every earlier one), so progress logging prints
      identically whatever ``jobs`` is.

    ``timeout`` arms a per-item wall-clock watchdog: an item that runs
    past it gets its worker killed and is re-run in an isolated process
    (bounded retries, like worker-death recovery); an item that exhausts
    its retries raises :class:`~repro.errors.ItemTimeoutError` naming
    its index — a single pathological item can hang neither a worker
    nor the sweep.  The watchdog needs a killable process boundary, so
    ``timeout`` forces the worker path even at ``jobs=1`` (results are
    bit-identical either way; only the process layout changes).

    A worker process that *dies* (segfault, OOM kill) does not hang or
    poison the batch: its unfinished items are re-run one isolated
    process per item with bounded retries, and only an item that keeps
    killing its process raises :class:`~repro.errors.WorkerCrashError` —
    naming that item's index.  ``KeyboardInterrupt`` tears the workers
    down (terminate + join) before propagating, so an interrupted
    ``repro fuzz``/``repro sweep`` leaves no orphan processes behind.
    """
    jobs = resolve_jobs(jobs)
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0 seconds, got {timeout}")
    items = list(items)
    if (jobs == 1 or len(items) <= 1) and timeout is None:
        logger.info(
            "sweep_map: %d item(s), serial (%s)",
            len(items), getattr(fn, "__name__", fn),
        )
        return _run_serial(fn, items, on_result, on_stream)
    if not items:
        return []

    stripes = stripe_indices(len(items), jobs)
    logger.info(
        "sweep_map: %d item(s) across %d worker(s) (%s)%s",
        len(items), len(stripes), getattr(fn, "__name__", fn),
        f", {timeout:g}s per-item watchdog" if timeout is not None else "",
    )
    ctx = multiprocessing.get_context(mp_context)
    out: list[Any] = [_MISSING] * len(items)
    emitted = 0

    def deliver(index: int, result: Any) -> None:
        nonlocal emitted
        out[index] = result
        if on_stream is not None:
            on_stream(index, result)
        if on_result is not None:
            while emitted < len(out) and out[emitted] is not _MISSING:
                on_result(emitted, out[emitted])
                emitted += 1

    def fresh_deadline() -> float | None:
        return None if timeout is None else time.monotonic() + timeout

    workers = [
        _Worker(*_spawn_stripe(ctx, fn, [items[i] for i in stripe]),
                stripe=stripe, deadline=fresh_deadline())
        for stripe in stripes
    ]
    live = list(workers)
    try:
        while live:
            wait: float | None = None
            if timeout is not None:
                now = time.monotonic()
                wait = max(0.0, min(w.deadline for w in live) - now)
            ready = multiprocessing.connection.wait(
                [w.conn for w in live], timeout=wait
            )
            ready_set = set(ready)
            now = time.monotonic()
            for worker in list(live):
                if worker.conn in ready_set:
                    # Drain every queued message: a fast worker may have
                    # several items buffered behind one wakeup.
                    while True:
                        try:
                            message = worker.conn.recv()
                        except EOFError:
                            live.remove(worker)
                            worker.proc.join()
                            _recover_stripe(
                                ctx, fn, items, worker.remaining, deliver,
                                timeout, f"exitcode {worker.proc.exitcode}",
                            )
                            break
                        if message[0] == "item":
                            deliver(worker.stripe[message[1]], message[2])
                            worker.done = message[1] + 1
                            worker.deadline = fresh_deadline()
                        elif message[0] == "done":
                            live.remove(worker)
                            worker.proc.join()
                            break
                        else:  # ("error", exc)
                            raise message[1]
                        if not worker.conn.poll():
                            break
                elif timeout is not None and now >= worker.deadline:
                    # Watchdog: the worker's current item has overrun.
                    live.remove(worker)
                    _kill(worker.proc)
                    _recover_stripe(
                        ctx, fn, items, worker.remaining, deliver,
                        timeout, f"item watchdog after {timeout:g}s",
                    )
    finally:
        # Reached with workers still alive only on an abnormal exit —
        # a raised worker exception, WorkerCrashError/ItemTimeoutError,
        # or the user's KeyboardInterrupt: tear everything down, leave
        # no orphans.
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.proc.join()
            worker.conn.close()
    missing = [i for i, r in enumerate(out) if r is _MISSING]
    if missing:
        raise ConfigurationError(
            f"workers returned no result for item(s) {missing[:8]}"
        )
    return out
