"""Sweep execution: deterministic parallel fan-out.

:mod:`repro.exec.pool` holds :func:`sweep_map`, the executor every
multi-scenario entry point (fuzz batches, figure experiments, sweeps)
runs through: round-robin striping across worker processes with in-order
merging, so ``--jobs N`` output is bit-identical to serial.  Performance
is measured outside the package, by the repo benchmark in ``bench/``.
"""

from repro.exec.pool import resolve_jobs, stripe_indices, sweep_map

__all__ = [
    "resolve_jobs",
    "stripe_indices",
    "sweep_map",
]
