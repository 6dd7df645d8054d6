"""The unified typed RunSpec API.

One declarative object — :class:`~repro.api.spec.RunSpec` — addresses
every axis of the design space (cluster x model x pipeline/WSP knobs x
network model x fidelity), serializes to canonical JSON with a stable
``spec_hash``, and drives every entry point:

>>> from repro.api import RunSpec, run
>>> spec = RunSpec.from_json(open("examples/specs/fig3_vgg19.json").read())
>>> print(run(spec).render())  # doctest: +SKIP

* :mod:`repro.api.spec` — the frozen section dataclasses, canonical
  JSON round-trip, ``spec_hash``, and sweep-grid expansion.
* :mod:`repro.api.registry` — named registries (models, cluster
  presets, calibrations, interconnect profiles, oracle suites,
  planners, experiments); unknown names raise
  :class:`~repro.errors.UnknownNameError` listing what exists.
* :mod:`repro.api.build` — spec -> built cluster/model/plans (a
  :class:`~repro.api.build.Deployment`).
* :mod:`repro.api.run` — :func:`~repro.api.run.run` /
  :func:`~repro.api.run.run_sweep`, the engines behind ``repro run``
  and ``repro sweep``.

Like :mod:`repro` itself, the namespace resolves lazily (PEP 562) so
importing :mod:`repro.api` costs nothing until a name is touched —
modules deeper in the stack (the scenario generator, the WSP runtime)
import spec types from here without dragging in the runner layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "SPEC_SCHEMA": "repro.api.spec",
    "ClusterSpec": "repro.api.spec",
    "ExperimentSpec": "repro.api.spec",
    "FaultSpec": "repro.api.spec",
    "FidelitySpec": "repro.api.spec",
    "ModelSpec": "repro.api.spec",
    "NetworkSpec": "repro.api.spec",
    "ObservabilitySpec": "repro.api.spec",
    "PipelineSpec": "repro.api.spec",
    "RunSpec": "repro.api.spec",
    "SweepAxis": "repro.api.spec",
    "SweepSpec": "repro.api.spec",
    "axis_assignments": "repro.api.spec",
    "expand_sweep": "repro.api.spec",
    "CALIBRATIONS": "repro.api.registry",
    "CLUSTERS": "repro.api.registry",
    "EXPERIMENTS": "repro.api.registry",
    "MODELS": "repro.api.registry",
    "ORACLES": "repro.api.registry",
    "PLANNERS": "repro.api.registry",
    "PROFILES": "repro.api.registry",
    "Registry": "repro.api.registry",
    "Deployment": "repro.api.build",
    "build_calibration": "repro.api.build",
    "build_cluster": "repro.api.build",
    "build_model": "repro.api.build",
    "build_scenario": "repro.api.build",
    "SweepPointResult": "repro.api.run",
    "SweepResult": "repro.api.run",
    "run": "repro.api.run",
    "run_sweep": "repro.api.run",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # static analyzers see the eager imports
    from repro.api.build import (
        Deployment,
        build_calibration,
        build_cluster,
        build_model,
        build_scenario,
    )
    from repro.api.registry import (
        CALIBRATIONS,
        CLUSTERS,
        EXPERIMENTS,
        MODELS,
        ORACLES,
        PLANNERS,
        PROFILES,
        Registry,
    )
    from repro.api.run import SweepPointResult, SweepResult, run, run_sweep
    from repro.api.spec import (
        SPEC_SCHEMA,
        ClusterSpec,
        ExperimentSpec,
        FaultSpec,
        FidelitySpec,
        ModelSpec,
        NetworkSpec,
        ObservabilitySpec,
        PipelineSpec,
        RunSpec,
        SweepAxis,
        SweepSpec,
        axis_assignments,
        expand_sweep,
    )
