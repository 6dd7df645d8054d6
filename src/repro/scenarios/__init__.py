"""Scenario fuzzing: seeded deterministic configurations + oracles.

* :mod:`repro.scenarios.generator` — seed -> :class:`ScenarioSpec` ->
  materialized cluster/model/plans (through the one memoized build
  path, :func:`repro.api.build.build_plans`).
* :mod:`repro.scenarios.runner` — run a scenario's
  :class:`~repro.api.spec.RunSpec` end to end under the invariant
  oracles of :mod:`repro.sim.invariants` and the differential envelopes
  of :mod:`repro.training.theory`.

Entry point: ``repro fuzz --seeds N`` (see :mod:`repro.cli`), or
:func:`run_fuzz` programmatically.
"""

from repro.scenarios.generator import (
    Scenario,
    ScenarioSpec,
    build_fuzz_model,
    congested_fabric_spec,
    generate_run_spec,
    generate_scenario,
    materialize,
)
from repro.scenarios.runner import (
    FuzzReport,
    ScenarioResult,
    run_fuzz,
    run_scenario,
)

__all__ = [
    "FuzzReport",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "build_fuzz_model",
    "congested_fabric_spec",
    "generate_run_spec",
    "generate_scenario",
    "materialize",
    "run_fuzz",
    "run_scenario",
]
