"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

They run the benchmark in ``--quick`` mode (small inputs, one repeat per
workload), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args: list[str], root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def scratch_checkout():
    """A copy of ``bench/`` and ``BENCHMARK.json`` inside the checkout's
    own scratch directory, with ``src`` linked in."""
    os.makedirs(os.path.join(ROOT, ".bench"), exist_ok=True)
    root = tempfile.mkdtemp(prefix="checkout-", dir=os.path.join(ROOT, ".bench"))
    shutil.copytree(BENCH, os.path.join(root, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_summary_matches_hand_computed_quartiles():
    # Exclusive quartiles of 1..8 sit at positions 2.25, 4.5 and 6.75.
    assert stats.summarize([8, 1, 7, 2, 6, 3, 5, 4]) == {
        "median": 4.5, "q1": 2.25, "q3": 6.75, "n": 8,
    }
    # Of 1..5 at 1.5, 3 and 4.5.
    assert stats.summarize([1, 2, 3, 4, 5]) == {"median": 3, "q1": 1.5, "q3": 4.5, "n": 5}
    assert stats.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_claim_rule_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8]
    faster = [9.0, 9.1, 9.2, 9.3, 9.4]
    assert stats.claim_holds(faster, parent, wins=9, pairs=10)
    assert not stats.claim_holds(faster, parent, wins=8, pairs=10)
    # Winning every pair is not enough when the gap is inside the
    # parent's quartile spread.
    assert not stats.claim_holds([10.3, 10.4, 10.5, 10.6, 10.7], parent, wins=10, pairs=10)


def test_benchmark_json_follows_the_contract():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["bench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for workload in bench["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_emits_exactly_the_listed_metrics(trace, section):
    bench = _benchmark()
    expected = {m["name"]: m["unit"] for m in bench[section]}
    for workload in workloads.WORKLOADS:
        proc = _run(["--quick", "--workload", workload, "--trace", trace])
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        result = _result(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, workload
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_tampered_expected_digest_fails_the_run(scratch_checkout):
    os.symlink(os.path.join(ROOT, "src"), os.path.join(scratch_checkout, "src"))
    path = os.path.join(scratch_checkout, "bench", "expected.json")
    with open(path) as fh:
        expected = json.load(fh)
    digest = expected["quick"]["cluster64"]["digest"]
    expected["quick"]["cluster64"]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    with open(path, "w") as fh:
        json.dump(expected, fh)
    proc = _run(["--quick", "--workload", "cluster64"], root=scratch_checkout)
    assert proc.returncode != 0
    result = _result(proc)
    assert not result["correct"] and result["failed"] == 1
    assert "cluster64: digest changed" in proc.stdout


def test_run_without_the_program_fails_without_a_result(scratch_checkout):
    proc = _run(["--workload", "fuzz_default", "--seed", "1", "--seconds", "1"],
                root=scratch_checkout)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
