"""Tests of the benchmark itself.

The last three run workloads end to end and take a few minutes; none of
this is part of the tier-1 suite.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

import cProfile
import contextlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_out"
SPEC = run.load_spec()


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_table_entry_resolves():
    for entry in list(layers.LAYERS) + list(layers.COUNTERS.values()):
        assert tracing.resolve(entry)


def test_a_stale_table_entry_stops_the_fold():
    with pytest.raises(LookupError, match="does not resolve"):
        tracing.fold_profile(
            cProfile.Profile(),
            {"repro.sim.processor:Processor._gone": "sim.gone"}, {},
            layers.OTHER)


def test_fold_keeps_every_second_and_gives_helpers_to_callers():
    from repro.analytic import summodel

    profile = cProfile.Profile()
    profile.runcall(summodel.paper_table)
    seconds, counts = tracing.fold_profile(
        profile, {"repro.analytic.summodel:instructions": "model"},
        {"calls": "repro.analytic.summodel:instructions"}, "rest")
    import pstats
    total = sum(row[2] for row in pstats.Stats(profile).stats.values())
    assert set(seconds) == {"model", "rest"}
    assert sum(seconds.values()) == pytest.approx(total)
    assert counts["calls"] == len(summodel.paper_table())


def _spin():
    return sum(i * i for i in range(2000))


def _entry(depth):
    return _first(depth)


def _first(depth):
    _spin()
    return _second(depth - 1) if depth > 0 else 0


def _second(depth):
    _spin()
    return _third(depth - 1) if depth > 0 else 0


def _third(depth):
    _spin()
    return _first(depth - 1) if depth > 0 else 0


def test_helpers_calling_each_other_in_a_cycle_keep_their_callers_layer():
    # _first -> _second -> _third -> _first is one component: whichever
    # member the fold meets first, none of its time may reach "rest",
    # which keeps only the functions nothing profiled called (the
    # profiler's own disable call)
    profile = cProfile.Profile()
    profile.runcall(_entry, 30)
    seconds, _ = tracing.fold_profile(
        profile, {"%s:_entry" % __name__: "entry"}, {}, "rest")
    import pstats
    stats = pstats.Stats(profile).stats
    uncalled = sum(row[2] for key, row in stats.items()
                   if not row[4] and key[2] != "_entry")
    cycle = sum(row[2] for key, row in stats.items()
                if key[2] in ("_first", "_second", "_third"))
    assert cycle > 0
    assert seconds.get("rest", 0.0) == pytest.approx(uncalled)
    assert seconds["entry"] == pytest.approx(
        sum(row[2] for row in stats.values()) - uncalled)


def test_the_host_speed_probe_passes_values_and_raises_through():
    import signal

    import hostspeed

    probe = hostspeed.Probe()
    value, seconds = probe.time(sum, range(10 ** 6))
    assert value == sum(range(10 ** 6)) and seconds > 0
    with pytest.raises(ZeroDivisionError):
        probe.time(lambda: 1 // 0)
    # the timer is disarmed either way, and a late signal is dropped
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    signal.raise_signal(signal.SIGALRM)


def _bench(name):
    return workloads.all_workloads(SCRATCH)[name]


def test_exact_metrics_repeat_bit_for_bit_for_one_seed():
    SCRATCH.mkdir(exist_ok=True)
    # chaos_grid exercises both the sim.* and the faults.* counts
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["name"].split(".")[0] in ("sim", "faults")
             and m["unit"] != "s" and m["name"] != "sim.kips"]
    reports = [traced.run(_bench("chaos_grid"), 5, (0.0, 0.0), SCRATCH,
                          SPEC["per_layer"])
               for _ in range(2)]
    values = [{name: r["metrics"][name]["value"] for name in exact}
              for r in reports]
    assert values[0] == values[1]
    assert values[0]["faults.drops"] > 0

    keys = ("sim_cycles", "fetch_err_pct", "retire_err_pct")
    ends = [run.end_to_end(_bench("chaos_grid"), 5, 0,
                           SPEC["end_to_end"])["metrics"]
            for _ in range(2)]
    assert ([ends[0][k]["value"] for k in keys]
            == [ends[1][k]["value"] for k in keys])


@pytest.mark.parametrize("seed", [1, 2])
def test_nothing_fails_on_two_seeds(seed):
    SCRATCH.mkdir(exist_ok=True)
    for name in (w["name"] for w in SPEC["workloads"]):
        report = run.end_to_end(_bench(name), seed, 0, SPEC["end_to_end"])
        assert report["attempted"] > 0
        assert report["failed"] == 0, name


def test_chaos_grid_fails_when_the_batch_reports_go_uncaptured(
        monkeypatch):
    # as if chaos_sweep bound run_batch at import, out of the benchmark's
    # reach: nothing would count toward sim_cycles
    monkeypatch.setattr(workloads, "_batch_reports",
                        lambda: contextlib.nullcontext([]))
    SCRATCH.mkdir(exist_ok=True)
    bench = _bench("chaos_grid")
    done = bench.run(5, None, tracing.NULL)
    assert done.attempted == done.failed == bench.cells


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "observe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
