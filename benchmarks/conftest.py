"""Benchmark harness helpers.

Every benchmark regenerates one of the paper's tables/figures end to
end (cluster -> planner -> simulators -> report) and prints the rows
next to the paper's values, bypassing pytest's capture so the output
lands in ``bench_output.txt``.
"""

from __future__ import annotations

import hashlib

import pytest


@pytest.fixture()
def show(capsys):
    """Print through pytest's capture (benchmarks report their tables)."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show


def run_once(benchmark, fn):
    """Time one full regeneration of a table/figure (deterministic, so a
    single round is meaningful)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def sha256_text(text: str) -> str:
    """Hex sha256 of ``text`` — pins a rendered table byte for byte."""
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture()
def hetpipe_measurements(monkeypatch):
    """Every :class:`~repro.wsp.measure.HetPipeMetrics` measured while the
    fixture is active, in call order (Nm probes included)."""
    import repro.wsp.measure as measure

    recorded = []
    core = measure.measure_runtime

    def recording(*args, **kwargs):
        metrics = core(*args, **kwargs)
        recorded.append(metrics)
        return metrics

    monkeypatch.setattr(measure, "measure_runtime", recording)
    return recorded
