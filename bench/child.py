"""One benchmark repeat in a fresh process; prints one JSON line.

A fresh process starts with cold plan and materialization caches, which
is what every ``repro`` CLI call pays.  ``setup_s`` is the CPU time from
process start until the inputs are loaded and validated; ``cpu_s`` is
the CPU time of the repeat itself, including sweep workers reaped by
the end of it.

Both are also reported in *reference seconds*: divided by how much
slower than nominal this host ran a fixed reference computation
(:func:`probe_slice`) meanwhile.  On a shared host, CPU time itself
swings by up to 1.6x within minutes as neighbours load the machine.
A timer on the process's CPU time runs one slice of the reference every
:data:`SLICE_EVERY_S` in this process and in every sweep worker forked
from it, so the slices sample the same moments the work ran in; their
time is left out of ``cpu_s``.

Run by ``bench/run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
import time

#: CPU time between two reference slices.
SLICE_EVERY_S = 0.05
#: Thread CPU seconds one reference slice takes on an unloaded host (a
#: 2-CPU x86-64 VM with CPython 3.11); one reference second is the time
#: that host would take.
SLICE_NOMINAL_S = 0.0025

_KEYS = [(i % 997, f"vw{i % 13}.s{i % 7}", i) for i in range(10000)]
_COUNTS: dict = {}


class _Event:
    __slots__ = ("time", "seq", "callback")

    def __init__(self, time_, seq, callback):
        self.time, self.seq, self.callback = time_, seq, callback


def probe_slice(steps: int = 1500) -> float:
    """Thread CPU seconds of a fixed pure-Python computation shaped like
    the simulator's hot paths: heap-ordered events on small objects,
    callbacks, tuple-keyed counters, and float formatting into sha256."""
    rng = random.Random(steps)
    total = [0]

    def callback(value):
        total[0] += value

    was_enabled = gc.isenabled()
    gc.disable()
    start = time.thread_time()
    heap: list = []
    for i in range(steps):
        heapq.heappush(heap, (rng.random(), i, _Event(i * 0.5, i, callback)))
        key = _KEYS[(i * 7919) % len(_KEYS)]
        _COUNTS[key] = _COUNTS.get(key, 0) + 1
        if len(heap) > 500:
            _, seq, event = heapq.heappop(heap)
            event.callback(seq)
    digest = hashlib.sha256()
    for i in range(steps // 4):
        digest.update(f"{i * 0.5!r}|f_start|vw0.s1|{i!r}\n".encode())
    elapsed = time.thread_time() - start
    if was_enabled:
        gc.enable()
    return elapsed


class HostSpeed:
    """Reference slices on a CPU-time timer, here and in forked workers.

    Workers leave their slice totals in ``directory``, one file each,
    rewritten after every slice, since they exit without returning
    anything to this process.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.cpu = 0.0
        self.count = 0
        self.worker = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        os.register_at_fork(after_in_child=self._forked)
        self._tick()
        self._arm()

    def stop(self) -> tuple[float, int]:
        """Stop sampling; returns the slice CPU and count, workers included."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu, count = self.cpu, self.count
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name)) as fh:
                worker_cpu, worker_count = json.load(fh)
            cpu += worker_cpu
            count += worker_count
        return cpu, count

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, SLICE_EVERY_S, SLICE_EVERY_S)

    def _tick(self, *_signal) -> None:
        self.cpu += probe_slice()
        self.count += 1
        if self.worker:
            with open(os.path.join(self.directory, str(os.getpid())), "w") as fh:
                json.dump([self.cpu, self.count], fh)

    def _forked(self) -> None:
        # Interval timers do not survive fork; restart them in the worker.
        self.cpu, self.count, self.worker = 0.0, 0, True
        self._arm()


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="the src/ directory of the tree under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "verify", "pools"), default="plain")
    parser.add_argument("--chunk", type=int, default=0, help="fuzz chunk of this repeat")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="repeat-", dir=args.tmp)
    speed = None
    if args.mode == "plain":
        # Profiled repeats take no slices: the profiler would count them.
        speed = HostSpeed(tempfile.mkdtemp(prefix="slices-", dir=scratch))
        speed.start()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        shutil.rmtree(scratch)
        return 2
    import workloads

    if args.mode == "pools":
        shutil.rmtree(scratch)
        print(json.dumps(workloads.scan_pools()))
        return 0

    repeat = workloads.Repeat(args.workload, args.seed, args.quick, args.chunk, scratch)
    tracer = None
    on_item = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer(src, tempfile.mkdtemp(prefix="workers-", dir=scratch))
        tracer.install()
        on_item = tracer.next_scenario
    setup_s = time.process_time() - (speed.cpu if speed else 0.0)

    cpu0, wall0 = _cpu_now(), time.perf_counter()
    slices0 = speed.cpu if speed else 0.0
    if tracer is not None:
        if args.workload in workloads.FUZZ:
            tracer.next_scenario()
        tracer.profiler.enable()
    result = repeat.run(on_item=on_item, verify=args.mode == "verify")
    if tracer is not None:
        tracer.profiler.disable()
    if speed is not None:
        slice_cpu, slices = speed.stop()
    cpu_s, wall_s = _cpu_now() - cpu0, time.perf_counter() - wall0
    result.update(setup_s=setup_s, cpu_s=cpu_s, wall_s=wall_s, rss_mb=_peak_rss_mb())
    if speed is not None:
        slowdown = slice_cpu / slices / SLICE_NOMINAL_S
        cpu_s -= slice_cpu - slices0
        result.update(
            cpu_s=cpu_s, slowdown=slowdown, slices=slices,
            setup_ref_s=setup_s / slowdown, cpu_ref_s=cpu_s / slowdown,
        )
    if tracer is not None:
        result["trace"] = tracer.report(wall_s)
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
