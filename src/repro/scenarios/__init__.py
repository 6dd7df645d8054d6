"""Scenario fuzzing: seeded deterministic configurations + oracles.

* :mod:`repro.scenarios.generator` — seed -> :class:`ScenarioSpec` (the
  drawn knobs) -> a :class:`~repro.api.spec.RunSpec`, lifted once by
  :meth:`ScenarioSpec.to_run_spec`; the Nm descent builds through the
  one memoized build path, :func:`repro.api.build.build_plans`.
* :mod:`repro.scenarios.runner` — run a scenario's RunSpec end to end
  under the invariant oracles of :mod:`repro.sim.invariants` and the
  differential envelopes of :mod:`repro.training.envelopes`.  The RunSpec
  is the only scenario description past the generator: the runner reads
  every knob from it, a fuzz mode (:class:`FuzzMode`) is one overlay on
  it, and every :class:`ScenarioResult` carries it.

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
    FuzzMode,
    FuzzReport,
    ScenarioResult,
    describe_run,
    run_fuzz,
    run_scenario,
)

__all__ = [
    "FuzzMode",
    "FuzzReport",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "build_fuzz_model",
    "congested_fabric_spec",
    "describe_run",
    "generate_run_spec",
    "generate_scenario",
    "materialize",
    "run_fuzz",
    "run_scenario",
]
