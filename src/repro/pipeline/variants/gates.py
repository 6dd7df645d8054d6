"""Admission gates for the pipeline-variant zoo.

Each gate is a *condition* AND-composed with a base gate via
:class:`ComposedGate` — the WSP runtime's staleness gate, or the
bounded :class:`~repro.pipeline.tasks.CountingGate` of a standalone
:func:`~repro.pipeline.metrics.measure_pipeline` run (whose
``variant="gpipe_flush"`` is the Table-2 ablation):

* :class:`WaveFlushGate` — GPipe semantics inside a WSP run: a
  minibatch of wave ``w`` is admitted only once every earlier wave has
  drained from its own pipeline.
* :class:`VersionWindowGate` — PipeDream-2BW semantics: admission
  blocks while the pipeline's stashed-version ledger (plus the version
  the new minibatch would be stamped with) exceeds the window.

Neither condition needs its own wake plumbing: both can only *open* on
a minibatch completion (which re-runs admission via the pipeline's
``_minibatch_done`` -> ``_try_inject`` path) or on a version advance
(which wakes through the composed WSP gate), so ``subscribe`` is a
no-op and deadlock-freedom follows — in-flight minibatches drain
independently of admission.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.pipeline.tasks import wave_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.virtual_worker import VirtualWorkerPipeline


class WaveFlushGate:
    """Wave flush against the attached pipeline's completion counter.

    Reads ``pipeline.completed`` (public numbering), which fast-forward
    advances through the pipeline's own ``ff_advance`` — so the flush
    condition stays consistent across steady-state skips for free.
    """

    def __init__(self, nm: int) -> None:
        self.nm = nm
        self._pipeline: "VirtualWorkerPipeline | None" = None

    def attach(self, pipeline: "VirtualWorkerPipeline") -> None:
        self._pipeline = pipeline

    def may_start(self, minibatch: int) -> bool:
        completed = self._pipeline.completed if self._pipeline is not None else 0
        return completed >= wave_of(minibatch, self.nm) * self.nm

    def subscribe(self, wake: Callable[[], None]) -> None:
        pass  # completions re-run admission through the pipeline itself


class VersionWindowGate:
    """Cap the distinct weight versions alive in the attached pipeline.

    2BW keeps exactly two buffers; a minibatch whose admission would
    pin a third distinct version (its stamp is the currently pulled
    version; in-flight minibatches keep theirs) waits until older
    versions drain.
    """

    def __init__(self, max_versions: int) -> None:
        self.max_versions = max_versions
        self._pipeline: "VirtualWorkerPipeline | None" = None

    def attach(self, pipeline: "VirtualWorkerPipeline") -> None:
        self._pipeline = pipeline

    def may_start(self, minibatch: int) -> bool:
        pipeline = self._pipeline
        if pipeline is None:
            return True
        alive = set(pipeline.version_stamps.values())
        alive.add(pipeline.weight_version)
        return len(alive) <= self.max_versions

    def subscribe(self, wake: Callable[[], None]) -> None:
        pass  # opens only on completions (see module docstring)


class ComposedGate:
    """AND-composition of the runtime's WSP gate with variant conditions.

    Forwards the WSP gate's surface — ``pulled_version`` (read *and*
    written: fast-forward bulk-advances it) and ``advance`` — so the
    runtime's pull path and steady-state machinery work unchanged, and
    relays ``attach`` to conditions that read pipeline state.
    """

    def __init__(self, base, extras) -> None:
        self.base = base
        self.extras = tuple(extras)

    def may_start(self, minibatch: int) -> bool:
        if not self.base.may_start(minibatch):
            return False
        return all(extra.may_start(minibatch) for extra in self.extras)

    def subscribe(self, wake: Callable[[], None]) -> None:
        self.base.subscribe(wake)
        for extra in self.extras:
            extra.subscribe(wake)

    def attach(self, pipeline: "VirtualWorkerPipeline") -> None:
        for extra in self.extras:
            attach = getattr(extra, "attach", None)
            if attach is not None:
                attach(pipeline)

    def advance(self, version: int) -> None:
        self.base.advance(version)

    @property
    def pulled_version(self) -> int:
        return self.base.pulled_version

    @pulled_version.setter
    def pulled_version(self, version: int) -> None:
        self.base.pulled_version = version


def build_variant_gate(variant_def, base, nm: int):
    """The runtime's gate for ``variant_def``: the WSP ``base`` gate,
    AND-composed with the variant's extra conditions when it has any
    (the default variant gets ``base`` back untouched — bit-identical
    admission)."""
    extras = []
    if variant_def.wave_flush:
        extras.append(WaveFlushGate(nm))
    if variant_def.version_window is not None:
        extras.append(VersionWindowGate(variant_def.version_window))
    if not extras:
        return base
    return ComposedGate(base, extras)
