"""The semantic-equivalence fidelity contract, checked adversarially.

Hypothesis drives generated scenarios through both fidelity modes and
the full-run/fast-forward fingerprints must agree on every contract
observable — makespan, per-stage and per-resource utilization and
traffic, minibatch/wave/pull counts, and staleness statistics — within
1e-9 relative (integers exactly).  The fuzz runner's built-in
equivalence oracle is itself under test here: a scenario that fails the
contract must surface as a violation.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dataclasses import replace

from repro.api.spec import FidelitySpec
from repro.scenarios.generator import generate_run_spec, generate_scenario
from repro.scenarios.runner import run_scenario
from repro.sim.equivalence import compare_fingerprints


class TestCompareFingerprints:
    def test_equal_fingerprints_pass(self):
        fp = {"makespan": 1.25, "vw0.minibatches": 12}
        assert compare_fingerprints(fp, dict(fp)) == []

    def test_integers_must_match_exactly(self):
        assert compare_fingerprints({"vw0.minibatches": 12}, {"vw0.minibatches": 13})

    def test_floats_within_tolerance_pass(self):
        a = {"makespan": 1.0}
        b = {"makespan": 1.0 + 1e-12}
        assert compare_fingerprints(a, b) == []

    def test_floats_beyond_tolerance_fail(self):
        problems = compare_fingerprints({"makespan": 1.0}, {"makespan": 1.0 + 1e-6})
        assert problems and "makespan" in problems[0]

    def test_missing_keys_are_reported(self):
        assert compare_fingerprints({"a": 1}, {}) == [
            "equivalence: a present in only one run"
        ]


def _fast_forward(run, verify=None):
    """``run`` at fast_forward fidelity (``verify`` = verify_equivalence)."""
    return replace(
        run, fidelity=FidelitySpec(fidelity="fast_forward", verify_equivalence=verify)
    )


class TestScenarioEquivalence:
    """run_scenario's built-in oracle: full twin vs fast-forward."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=150))
    def test_generated_scenarios_hold_the_contract(self, seed):
        result = run_scenario(_fast_forward(generate_run_spec(seed)))
        # The twin comparison runs exactly when the main run coalesced;
        # a run that never skipped IS the full trajectory already.
        if result.equivalence_checked:
            assert result.events_fast_forwarded > 0
        assert result.violations == ()

    def test_deterministic_seed_coalesces_and_matches(self):
        # Seed 4 draws zero jitter (deterministic), so its steady state
        # must actually coalesce, not just trivially agree.
        result = run_scenario(_fast_forward(generate_run_spec(4)))
        assert result.violations == ()
        assert result.events_fast_forwarded > 0

    def test_long_horizon_reduction_is_asymptotic(self):
        run = generate_run_spec(4)
        short, long = (
            replace(run, pipeline=replace(
                run.pipeline, measured_waves=run.pipeline.measured_waves * k
            ))
            for k in (2, 16)
        )
        short_ff = run_scenario(_fast_forward(short, verify=False))
        long_full = run_scenario(
            replace(long, fidelity=FidelitySpec(verify_equivalence=False))
        )
        long_ff = run_scenario(_fast_forward(long, verify=False))
        assert long_ff.violations == () and long_full.violations == ()
        # 8x more waves must cost (far) less than 8x more dispatched
        # events: the added horizon is almost entirely coalesced.
        added_simulated = long_ff.events_simulated - short_ff.events_simulated
        added_full = long_full.events_simulated - short_ff.events_simulated
        assert added_simulated < 0.2 * added_full
        # and the semantics still match the full run exactly enough
        assert long_ff.per_vw_completions == long_full.per_vw_completions
        scale = max(abs(long_ff.makespan), abs(long_full.makespan))
        assert abs(long_ff.makespan - long_full.makespan) <= 1e-9 * scale
        assert abs(long_ff.window - long_full.window) <= 1e-9 * max(
            abs(long_ff.window), abs(long_full.window)
        )

    def test_full_fidelity_never_fast_forwards(self):
        result = run_scenario(generate_run_spec(4))
        assert result.fidelity == "full"
        assert result.events_fast_forwarded == 0
        assert not result.equivalence_checked

    def test_jittered_scenarios_run_full_under_fast_forward(self):
        jittered = next(
            generate_scenario(s).spec
            for s in range(100)
            if generate_scenario(s).spec.jitter > 0
        )
        result = run_scenario(_fast_forward(jittered.to_run_spec()))
        assert result.violations == ()
        # aperiodic by construction: the WSP runtime never skips, so the
        # twin comparison is vacuous and must be elided — the run IS the
        # full trajectory (the jitter-free 1F1B cross-check may still
        # coalesce, which is what events_fast_forwarded then counts)
        assert not result.equivalence_checked


class TestFuzzFidelityCli:
    def test_fuzz_cli_fast_forward_exits_clean(self, capsys):
        from repro.cli import main

        code = main(
            ["fuzz", "--seeds", "4", "--fidelity", "fast_forward", "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fast-forward:" in out and "0 failures" in out

    def test_fuzz_cli_waves_scale(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fuzz", "--seeds", "2", "--jobs", "1", "--waves-scale", "4",
                "--fidelity", "fast_forward", "--no-verify-equivalence",
            ]
        )
        assert code == 0
