"""Unit tests for benchmarks/check_regression.py and the trajectory rows
it appends (benchmarks/trajectory.py), both loaded from their file paths
— the benchmarks directory is not a package.

The expensive fresh runs are monkeypatched out; what's under test is the
gate logic: exact comparison of deterministic fields, the speedup floor,
the deliberate re-baseline path, the artifact census and the commit a
trajectory row names."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_GATE_PATH = (Path(__file__).resolve().parent.parent
              / "benchmarks" / "check_regression.py")


@pytest.fixture(scope="module")
def gate_mod():
    spec = importlib.util.spec_from_file_location("check_regression",
                                                  _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh(cycles=2993, speedup=3.5):
    return {
        "n_cores": 64, "scale": 0,
        "wall_naive_s": 1.0, "wall_event_s": 1.0 / speedup,
        "aggregate_speedup": speedup, "floor_speedup": speedup * 0.9,
        "workloads": [
            {"benchmark": "quicksort", "n": 12, "cycles": cycles,
             "wall_naive_s": 1.0, "wall_event_s": 1.0 / speedup,
             "speedup": speedup},
        ],
    }


def _baseline(cycles=2993, floor=3.0):
    base = _fresh(cycles=cycles)
    base["floor_speedup"] = floor
    return base


@pytest.fixture
def patched(gate_mod, monkeypatch, tmp_path):
    """Route baselines to tmp_path and stub out the timing runs."""
    monkeypatch.setattr(gate_mod, "RESULTS_DIR", tmp_path)

    def install(baseline, fresh):
        (tmp_path / "BENCH_scheduler_fast_path.json").write_text(
            json.dumps(baseline))
        monkeypatch.setattr(gate_mod, "run_fast_path", lambda: fresh)
    return install


class TestGateHelpers:
    def test_exact_records_failures(self, gate_mod, capsys):
        gate = gate_mod.Gate()
        gate.exact("a", 1, 1)
        gate.exact("b", 1, 2)
        assert len(gate.failures) == 1
        out = capsys.readouterr().out
        assert "ok   a" in out and "FAIL b" in out

    def test_missing_baseline_exits(self, gate_mod, monkeypatch, tmp_path):
        monkeypatch.setattr(gate_mod, "RESULTS_DIR", tmp_path)
        with pytest.raises(SystemExit):
            gate_mod._load("scheduler_fast_path")


class TestFastPathGate:
    def test_passes_when_identical(self, gate_mod, patched, capsys):
        patched(_baseline(), _fresh())
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=False)
        assert gate.failures == []

    def test_cycles_drift_fails(self, gate_mod, patched, capsys):
        patched(_baseline(cycles=2993), _fresh(cycles=2994))
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=False)
        assert any("cycles" in f for f in gate.failures)

    def test_speedup_collapse_fails(self, gate_mod, patched, capsys):
        # fast path silently disabled: event as slow as naive
        patched(_baseline(floor=3.0), _fresh(speedup=1.02))
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=False)
        assert any("speedup" in f for f in gate.failures)

    def test_tolerance_absorbs_small_dip(self, gate_mod, patched, capsys):
        patched(_baseline(floor=3.0), _fresh(speedup=2.9))
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=False)
        assert gate.failures == []

    def test_missing_workload_record_fails(self, gate_mod, patched, capsys):
        baseline = _baseline()
        baseline["workloads"] = []
        patched(baseline, _fresh())
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=False)
        assert any("no baseline record" in f for f in gate.failures)

    def test_update_rewrites_baseline(self, gate_mod, patched, tmp_path,
                                      capsys):
        patched(_baseline(cycles=1), _fresh(cycles=2993))
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=True)
        assert gate.failures == []
        written = json.loads(
            (tmp_path / "BENCH_scheduler_fast_path.json").read_text())
        assert written["workloads"][0]["cycles"] == 2993
        assert "floor_speedup" in written

    def test_legacy_baseline_without_floor(self, gate_mod, patched, capsys):
        baseline = _baseline()
        del baseline["floor_speedup"]       # pre-floor baseline schema
        patched(baseline, _fresh(speedup=3.45))
        gate = gate_mod.Gate()
        gate_mod.check_fast_path(gate, tolerance=0.05, update=False)
        assert gate.failures == []


class TestArtifactCensus:
    @pytest.fixture
    def census(self, gate_mod, monkeypatch, tmp_path, capsys):
        """Run the census over BENCH_*.json files named *names*; returns
        (gate, printed lines)."""
        monkeypatch.setattr(gate_mod, "RESULTS_DIR", tmp_path)

        def run(*names):
            for name in names:
                (tmp_path / ("BENCH_%s.json" % name)).write_text("{}")
            gate = gate_mod.Gate()
            gate_mod.check_artifact_census(gate)
            return gate, capsys.readouterr().out.splitlines()
        return run

    def test_gated_artifact_passes_saying_it_is_gated(self, gate_mod,
                                                      census):
        gate, lines = census(gate_mod.GATED_BASELINES[0])
        assert gate.failures == []
        assert lines[1:] == ["  ok   BENCH_%s.json is gated"
                             % gate_mod.GATED_BASELINES[0]]

    def test_ignored_artifact_passes_saying_it_is_ignored(self, gate_mod,
                                                          census):
        gate, lines = census(gate_mod.IGNORED_ARTIFACTS[0])
        assert gate.failures == []
        assert lines[1:] == [
            "  ok   BENCH_%s.json is listed in IGNORED_ARTIFACTS "
            "(degradation artifact, not gated)"
            % gate_mod.IGNORED_ARTIFACTS[0]]

    def test_unknown_artifact_fails_saying_it_is_neither(self, census):
        gate, lines = census("mystery")
        message = ("BENCH_mystery.json is neither gated nor listed in "
                   "IGNORED_ARTIFACTS")
        assert gate.failures == [message]
        assert lines[1:] == ["  FAIL " + message]


_TRAJECTORY_PATH = _GATE_PATH.parent / "trajectory.py"


@pytest.fixture(scope="module")
def trajectory_mod():
    spec = importlib.util.spec_from_file_location("trajectory",
                                                  _TRAJECTORY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTrajectoryCommit:
    @pytest.fixture
    def repo(self, tmp_path):
        """A one-commit git repository: (path, its short hash)."""
        if shutil.which("git") is None:
            pytest.skip("no git binary")

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 *args], cwd=str(tmp_path), capture_output=True,
                text=True, check=True).stdout.strip()
        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "one")
        return tmp_path, git("rev-parse", "--short", "HEAD")

    def test_clean_tree_is_the_bare_hash(self, trajectory_mod, repo):
        path, head = repo
        (path / "untracked.txt").write_text("not part of the tree\n")
        assert trajectory_mod._git_commit(path) == head

    def test_tracked_change_marks_the_hash_dirty(self, trajectory_mod,
                                                 repo):
        path, head = repo
        (path / "tracked.txt").write_text("two\n")
        assert trajectory_mod._git_commit(path) == head + "+dirty"

    @pytest.mark.parametrize("commit", ["20ea008", "20ea008+dirty", None])
    def test_check_accepts(self, trajectory_mod, tmp_path, commit):
        path = tmp_path / "TRAJECTORY.jsonl"
        row = trajectory_mod.build_row(passed=True, failures=[])
        row["commit"] = commit
        trajectory_mod.append_row(row, path)
        assert trajectory_mod.validate_file(path) == []

    @pytest.mark.parametrize("commit", ["20ea008-dirty", "dirty", "", 7])
    def test_check_rejects(self, trajectory_mod, tmp_path, commit):
        path = tmp_path / "TRAJECTORY.jsonl"
        row = dict(trajectory_mod.build_row(passed=True, failures=[]),
                   commit=commit)
        path.write_text(json.dumps(row) + "\n")
        assert trajectory_mod.validate_file(path) == [
            "line 1: field 'commit' is %r, expected a short hash, "
            "optionally marked +dirty" % (commit,)]
