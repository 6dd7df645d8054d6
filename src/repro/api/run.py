"""Spec-driven execution: ``repro run`` / ``repro sweep`` behind one API.

:func:`run` executes a single concrete :class:`RunSpec`:

* ``kind="scenario"`` drives the spec through the full fuzz runner
  (:func:`repro.scenarios.runner.run_scenario`) — invariant oracles,
  differential bounds, 1F1B cross-check — and returns its
  :class:`~repro.scenarios.runner.ScenarioResult`;
* ``kind="experiment"`` regenerates a paper figure/table through the
  experiment registry and returns the experiment's result object
  (whatever the legacy subcommand would have printed via ``render()``).

:func:`run_sweep` expands a spec's ``sweep`` grid and fans the points
across worker processes with :func:`repro.exec.sweep_map` — the same
executor the fuzz batches use, so results come back **in point order
and bit-identical to a serial run**, each tagged with its point's
``spec_hash``.  This is the CI-facing planner-search entry point: a
grid over ``pipeline.planner`` / ``pipeline.nm`` (or any other spec
field) runs anywhere ``repro`` runs.

With a :class:`~repro.store.ResultStore` attached the sweep becomes
crash-safe and resumable: every completed point is committed to the
store the moment it finishes (completion order, via the executor's
``on_stream`` hook — a SIGKILL mid-grid loses at most the in-flight
points), and ``resume=True`` reconstructs any point whose verified
entry already exists instead of recomputing it.  Because each point's
outcome is a pure function of its spec — and the store keys entries by
``spec_hash`` — a resumed sweep's merged output is bit-identical to an
uninterrupted serial run; a corrupted entry is quarantined by the store
and simply recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import EXPERIMENTS, MODELS
from repro.api.spec import RunSpec, axis_assignments, expand_sweep
from repro.errors import SpecError


def run(spec: RunSpec, jobs: int | None = 1):
    """Execute one concrete spec; see the module docstring for kinds."""
    if spec.sweep is not None:
        raise SpecError(
            "spec has a sweep section; use run_sweep() / `repro sweep` for grids"
        )
    if spec.kind == "experiment":
        experiment = spec.experiment
        assert experiment is not None  # enforced by RunSpec validation
        MODELS.get(experiment.model)  # typed miss before any work starts
        return EXPERIMENTS.get(experiment.name)(experiment.model, jobs)
    from repro.scenarios.runner import run_scenario

    return run_scenario(spec)


@dataclass(frozen=True)
class SweepPointResult:
    """One merged sweep point: provenance plus the headline outcome."""

    index: int
    spec_hash: str
    label: str  # the swept axis assignments, e.g. "pipeline.planner=dp"
    kind: str
    ok: bool
    summary: str  # one-line outcome (throughput/digest or render digest)
    violations: tuple[str, ...] = ()

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL({len(self.violations)})"
        label = f" {self.label}" if self.label else ""
        return f"[{self.index:>3} {status:>8}] spec={self.spec_hash[:12]}{label} -> {self.summary}"


@dataclass(frozen=True)
class SweepResult:
    """All points of one grid, in expansion order.

    ``reused`` counts points reconstructed from a result store under
    ``resume=True`` rather than recomputed; it is provenance only — the
    points themselves (and their :meth:`SweepPointResult.describe`
    lines) are bit-identical either way, so per-point output diffs
    clean across a crash/resume boundary.
    """

    grid_hash: str
    points: tuple[SweepPointResult, ...]
    reused: int = 0

    @property
    def failures(self) -> tuple[SweepPointResult, ...]:
        return tuple(p for p in self.points if not p.ok)

    def summary_line(self) -> str:
        reused = f", {self.reused} reused" if self.reused else ""
        return (
            f"sweep: {len(self.points)} points, {len(self.failures)} failing"
            f"{reused} (grid {self.grid_hash[:12]})"
        )

    def failure_lines(self) -> list[str]:
        return [
            f"  point {point.index}: {violation}"
            for point in self.failures
            for violation in point.violations
        ]

    def render(self) -> str:
        lines = [self.summary_line()]
        lines.extend(point.describe() for point in self.points)
        lines.extend(self.failure_lines())
        return "\n".join(lines)


def _sweep_point(args: tuple[int, str, str]) -> SweepPointResult:
    """Run one expanded point (the :func:`repro.exec.sweep_map` item).

    Module-level and argument-pure — the point travels as canonical
    JSON so worker processes rebuild it with full validation.  Errors
    are contained per point — *any* error: an infeasible deployment
    (PartitionError on a too-deep Nm, say) is a normal planner-search
    outcome, and even an unexpected bug in one configuration's code
    path must fail its own point, not abort the other N-1 points of
    the grid.
    """
    index, point_json, label = args
    point = RunSpec.from_json(point_json)
    try:
        if point.kind == "experiment":
            import hashlib

            rendered = run(point, jobs=1).render()
            return SweepPointResult(
                index=index,
                spec_hash=point.spec_hash,
                label=label,
                kind=point.kind,
                ok=True,
                summary=f"render sha256 {hashlib.sha256(rendered.encode()).hexdigest()[:12]}",
            )
        result = run(point, jobs=1)
        return SweepPointResult(
            index=index,
            spec_hash=point.spec_hash,
            label=label,
            kind=point.kind,
            ok=result.ok,
            summary=(
                f"{result.throughput:8.1f} img/s, {result.events} events, "
                f"digest {result.digest[:12]}"
            ),
            violations=tuple(result.violations),
        )
    except Exception as exc:
        return SweepPointResult(
            index=index,
            spec_hash=point.spec_hash,
            label=label,
            kind=point.kind,
            ok=False,
            summary="failed before producing a result",
            violations=(f"{type(exc).__name__}: {exc}",),
        )


def _point_payload(result: SweepPointResult) -> dict:
    """The store-record payload of one completed point.

    Only the spec-determined outcome is stored — index and label are
    properties of the *grid* a point appears in, recomputed from the
    current expansion on resume, so a stored point reconstructs
    byte-identically into any grid that contains its spec.
    """
    return {
        "kind": result.kind,
        "ok": result.ok,
        "summary": result.summary,
        "violations": list(result.violations),
    }


def _point_from_record(record, index: int, label: str) -> SweepPointResult | None:
    """Rebuild a cached point from its verified store record.

    Returns ``None`` for a record that does not look like a sweep point
    (wrong kind, missing fields) — the caller recomputes, which is the
    correct degradation for a store shared with other tools.
    """
    payload = record.payload
    if record.kind not in ("scenario", "experiment"):
        return None
    if not isinstance(payload.get("summary"), str) or not isinstance(
        payload.get("ok"), bool
    ):
        return None
    return SweepPointResult(
        index=index,
        spec_hash=record.key,
        label=label,
        kind=record.kind,
        ok=payload["ok"],
        summary=payload["summary"],
        violations=tuple(payload.get("violations", ())),
    )


def run_sweep(
    spec: RunSpec,
    jobs: int | None = 1,
    on_result=None,
    store=None,
    resume: bool = False,
    timeout: float | None = None,
) -> SweepResult:
    """Expand ``spec``'s grid and run every point deterministically.

    ``jobs`` fans points across worker processes (``None`` = one per
    CPU); the merged results are in expansion order and bit-identical
    to ``jobs=1`` — per-point ``spec_hash`` values are computed from the
    canonical spec JSON, so they are stable across runs, hosts, and
    worker counts.  ``on_result`` (e.g. ``print``-driven) receives each
    :class:`SweepPointResult` in order as it merges.

    ``store`` (a :class:`~repro.store.ResultStore`) makes the sweep
    crash-safe: every completed point is committed the moment it
    finishes, in completion order, so a SIGKILL loses at most the
    in-flight points.  ``resume=True`` additionally skips any point
    whose verified entry already exists in the store (corrupted entries
    are quarantined and recomputed); the merged result — including the
    per-point ``describe()`` lines — is bit-identical to an
    uninterrupted run.  A ``store`` that is not a ``ResultStore``, or
    ``resume=True`` without one, is a :class:`~repro.errors.SpecError`
    raised before any point runs.  ``timeout`` arms the executor's
    per-item watchdog: a point that hangs past it is killed and retried in
    isolation, and raises :class:`~repro.errors.ItemTimeoutError` if it
    never finishes (finished points are already safe in the store).
    """
    from repro.exec import sweep_map
    from repro.store import ResultStore

    if spec.sweep is None:
        raise SpecError("spec has no sweep section; use run() for single points")
    if store is not None and not isinstance(store, ResultStore):
        raise SpecError(
            f"run_sweep takes store as a repro.store.ResultStore, got {store!r}; "
            "pass ResultStore(path)"
        )
    if resume and store is None:
        raise SpecError("--resume needs --store DIR (nowhere to resume from)")
    points = expand_sweep(spec)
    labels = [axis_assignments(spec, point) for point in points]

    merged: list = [None] * len(points)
    reused = 0
    pending: list[tuple[int, str, str]] = []
    for index, point in enumerate(points):
        cached = None
        if store is not None and resume:
            record = store.fetch(point.spec_hash)  # quarantines corruption
            if record is not None:
                cached = _point_from_record(record, index, labels[index])
        if cached is not None:
            merged[index] = cached
            reused += 1
        else:
            pending.append((index, point.to_json(indent=None), labels[index]))

    emitted = 0

    def _flush() -> None:
        nonlocal emitted
        while emitted < len(merged) and merged[emitted] is not None:
            if on_result is not None:
                on_result(merged[emitted])
            emitted += 1

    def _deliver(_sub_index: int, result: SweepPointResult) -> None:
        merged[result.index] = result
        _flush()

    on_stream = None
    if store is not None:
        on_stream = lambda _i, result: store.put(  # noqa: E731
            result.spec_hash,
            result.kind,
            _point_payload(result),
            spec=points[result.index].to_dict(),
            tool="repro sweep",
        )

    _flush()  # leading cached points print before any work starts
    if pending:
        sweep_map(
            _sweep_point,
            pending,
            jobs=jobs,
            on_result=_deliver,
            on_stream=on_stream,
            timeout=timeout,
        )
    return SweepResult(
        grid_hash=spec.spec_hash, points=tuple(merged), reused=reused
    )
