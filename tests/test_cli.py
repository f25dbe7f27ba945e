"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main

MINIC = """
long A[8] = {1, 2, 3, 4, 5, 6, 7, 8};
long sum(long* t, long k) {
    if (k == 1) return t[0];
    return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
}
long main() { out(sum(A, 8)); return 0; }
"""

ASM = """
main:
    movq $6, %rax
    imulq $7, %rax
    out %rax
    hlt
"""


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(MINIC)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(ASM)
    return str(path)


class TestCLI:
    def test_run_minic(self, minic_file, capsys):
        assert main(["run", minic_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "36"

    def test_run_asm(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "42"

    def test_runfork(self, minic_file, capsys):
        assert main(["runfork", minic_file, "--tree"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "36"
        assert "sections" in out and "section 1" in out

    def test_simulate(self, minic_file, capsys):
        assert main(["simulate", minic_file, "--cores", "4",
                     "--shortcut"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "36"
        assert "cycles" in out

    def test_simulate_scheduler_modes_agree(self, minic_file, capsys):
        outputs = []
        for kernel in ("naive", "event"):
            assert main(["simulate", minic_file, "--cores", "4",
                         "--kernel", kernel]) == 0
            outputs.append(capsys.readouterr().out)
        # cycle counts and outputs printed by the two kernels are identical
        assert outputs[0] == outputs[1]

    def test_removed_vector_kernel_rejected(self, minic_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", minic_file, "--kernel", "vector"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'vector' was removed" in err
        assert "bit-identical to 'event'" in err

    def test_stats_text(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "scheduler: event" in out
        assert "occupancy:" in out and "parked=" in out
        assert "request latency:" in out
        assert "noc:" in out

    def test_stats_json(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4", "--json",
                     "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "event"
        assert payload["cycles"] > 0
        assert len(payload["core_occupancy"]) == 4
        assert len(payload["trace"]) == 4
        assert all(len(row) == payload["cycles"]
                   for row in payload["trace"])
        assert payload["outputs"] == [36]

    def test_stats_json_naive_matches_event(self, minic_file, capsys):
        payloads = {}
        for kernel in ("naive", "event"):
            assert main(["stats", minic_file, "--cores", "4", "--json",
                         "--kernel", kernel]) == 0
            payloads[kernel] = json.loads(capsys.readouterr().out)
        for payload in payloads.values():
            del payload["scheduler"]
        assert payloads["naive"] == payloads["event"]

    def test_stats_events_text(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4", "--events"]) == 0
        out = capsys.readouterr().out
        assert "stall causes:" in out
        assert "wait_memory=" in out and "idle=" in out
        assert "p99=" in out

    def test_stats_events_json(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4", "--events",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stall_causes"]["causes"][0] == "wait_register"
        assert sum(payload["stall_causes"]["totals"].values()) > 0
        assert payload["events"], "raw events ride along under --events"
        assert {"cycle", "kind"} <= set(payload["events"][0])

    def test_trace_command(self, minic_file, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", minic_file, "--cores", "4",
                     "-o", str(out_path)]) == 0
        assert "perfetto" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert any(e.get("ph") == "X" and e.get("cat") == "section"
                   for e in events)
        assert any(e.get("ph") == "s" for e in events), "flow arrows"
        assert doc["otherData"]["cycles"] > 0

    def test_simulate_chrome_trace_flag(self, minic_file, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        assert main(["simulate", minic_file, "--cores", "4",
                     "--chrome-trace", str(out_path)]) == 0
        assert out_path.exists()
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_analyze_command(self, minic_file, capsys):
        assert main(["analyze", minic_file, "--cores", "4",
                     "--per-core"]) == 0
        out = capsys.readouterr().out
        assert "stall causes" in out
        assert "critical path" in out
        assert "core  0:" in out
        assert "chain:" in out

    def test_analyze_schedulers_agree(self, minic_file, capsys):
        reports = []
        for kernel in ("naive", "event"):
            assert main(["analyze", minic_file, "--cores", "4",
                         "--kernel", kernel]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_simulate_timing_table(self, asm_file, capsys):
        assert main(["simulate", asm_file, "--cores", "1", "--timing"]) == 0
        assert "core 1 pipeline" in capsys.readouterr().out

    def test_compile(self, minic_file, capsys):
        assert main(["compile", minic_file]) == 0
        out = capsys.readouterr().out
        assert "_start:" in out and "call sum" in out

    def test_compile_fork(self, minic_file, capsys):
        assert main(["compile", minic_file, "--fork"]) == 0
        assert "fork sum" in capsys.readouterr().out

    def test_transform(self, minic_file, capsys):
        assert main(["transform", minic_file]) == 0
        out = capsys.readouterr().out
        assert "fork sum" in out and "endfork" in out

    def test_ilp(self, minic_file, capsys):
        assert main(["ilp", minic_file]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "parallel" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 10
        assert "minSpanningTree/parallelKruskal" in out

    def test_faults_flag(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4", "--shortcut",
                     "--faults", "seed=7,drop=0.2,die=1@50", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fault_stats"]["deaths"] == 1
        assert payload["fault_stats"]["retries"] > 0

    def test_faults_flag_text_line(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4",
                     "--faults", "seed=7,drop=0.2"]) == 0
        assert "faults: " in capsys.readouterr().out

    def test_faults_identical_architectural_results(self, minic_file,
                                                    capsys):
        outputs = {}
        for spec in (None, "seed=3,drop=0.15,die=2@40"):
            argv = ["simulate", minic_file, "--cores", "4", "--shortcut"]
            if spec:
                argv += ["--faults", spec]
            assert main(argv) == 0
            out = capsys.readouterr().out
            outputs[spec] = [line for line in out.splitlines()
                             if not line.startswith("#")]
        assert outputs[None] == outputs["seed=3,drop=0.15,die=2@40"]

    def test_bad_faults_spec(self, minic_file, capsys):
        assert main(["simulate", minic_file, "--faults", "warp=9"]) == 1
        assert "unknown --faults key" in capsys.readouterr().err
        assert main(["simulate", minic_file, "--faults", "die=9@10",
                     "--cores", "4"]) == 1
        assert "outside" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.c"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "batch", "lint",
                                         "compile"])
    def test_directory_is_one_error_line(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(tmp_path) in lines[0]

    @pytest.mark.parametrize("command", ["simulate", "compile"])
    def test_non_utf8_file_is_one_error_line(self, command, tmp_path,
                                             capsys):
        path = tmp_path / "latin1.c"
        path.write_bytes(b"long main() { return 0; } /* caf\xe9 */\n")
        assert main([command, str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0] and "UTF-8" in lines[0]

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("long main() { return undeclared; }")
        assert main(["run", str(path)]) == 1
        assert "undeclared" in capsys.readouterr().err


class TestLintCLI:
    def test_clean_program(self, minic_file, capsys):
        assert main(["lint", minic_file]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_failing_finding(self, tmp_path, capsys):
        path = tmp_path / "hazard.s"
        path.write_text("main:\nfork f\nhlt\nf:\nret\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[fork-ret-mix]" in out
        assert "%s:2:" % path in out       # findings carry file:line

    def test_no_info_hides_notes(self, tmp_path, capsys):
        path = tmp_path / "ser.s"
        path.write_text(
            "main:\nfork f\npushq %rax\npopq %rax\nhlt\nf:\nendfork\n")
        assert main(["lint", str(path)]) == 0
        assert "stack-serialization" in capsys.readouterr().out
        assert main(["lint", "--no-info", str(path)]) == 0
        assert "stack-serialization" not in capsys.readouterr().out

    def test_validate_flag(self, minic_file, capsys):
        assert main(["lint", "--validate", minic_file]) == 0
        out = capsys.readouterr().out
        assert "machine: sound" in out and "sim: sound" in out

    def test_json_payload(self, minic_file, capsys):
        assert main(["lint", "--json", minic_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["failed"] is False
        (target,) = payload["targets"]
        assert target["name"] == minic_file
        assert target["counts"]["error"] == 0
        assert isinstance(target["findings"], list)

    def test_json_validate_payload(self, minic_file, capsys):
        assert main(["lint", "--json", "--validate", minic_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        (target,) = payload["targets"]
        sources = [v["source"] for v in target["validations"]]
        assert sources == ["machine", "sim"]
        assert all(v["sound"] for v in target["validations"])

    def test_diagnostics_carry_position(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("main:\nhlt\n.data\ncell: .zero 7x\n")
        assert main(["lint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "%s:4" % path in err
        assert "bad .zero size" in err

    def test_minic_diagnostics_carry_position(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main() { return 0; }")
        assert main(["lint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "%s:1:1:" % path in err

    def test_no_targets_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert capsys.readouterr().err

    def test_runfork_sanitize(self, minic_file, capsys):
        assert main(["runfork", minic_file, "--sanitize"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "36"


class TestDepsCLI:
    def test_text_report(self, minic_file, capsys):
        assert main(["deps", minic_file]) == 0
        out = capsys.readouterr().out
        assert "section deps:" in out
        assert "speedup bound:" in out
        assert "bound=" in out

    def test_measure_prints_soundness(self, minic_file, capsys):
        assert main(["deps", minic_file, "--measure", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "measured=" in out and "sound" in out
        assert "VIOLATED" not in out

    def test_validate_all_kernels(self, minic_file, capsys):
        assert main(["deps", minic_file, "--validate"]) == 0
        out = capsys.readouterr().out
        for kernel in ("event", "naive"):
            assert "deps[%s]: sound" % kernel in out

    def test_dot_output(self, minic_file, capsys):
        assert main(["deps", minic_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph section_deps")

    @pytest.mark.parametrize("flag", ["--json", "--measure"])
    def test_dot_rejects_json_and_measure(self, minic_file, capsys, flag):
        # --dot --json printed dot text and then JSON on one stdout;
        # --dot --measure simulated and printed nothing of it
        with pytest.raises(SystemExit) as info:
            main(["deps", minic_file, "--dot", flag])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dot cannot be combined with --json or --measure" \
            in captured.err

    def test_json_payload(self, minic_file, capsys):
        assert main(["deps", minic_file, "--json", "--validate",
                     "--cores", "16", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is False
        (target,) = payload["targets"]
        assert target["name"] == minic_file
        assert set(target["bound"]["speedup"]) == {"16", "64"}
        assert [v["kernel"] for v in target["validations"]] == [
            "event", "naive"]
        assert all(v["sound"] for v in target["validations"])

    def test_simulate_optimize_flag(self, minic_file, capsys):
        assert main(["simulate", minic_file, "--cores", "4"]) == 0
        base = capsys.readouterr().out
        assert main(["simulate", minic_file, "--cores", "4",
                     "--optimize"]) == 0
        opt = capsys.readouterr().out
        # same program output, strictly fewer committed cycles
        assert base.splitlines()[0] == opt.splitlines()[0] == "36"
        base_cycles = int(base.rsplit(" in ", 1)[1].split()[0])
        opt_cycles = int(opt.rsplit(" in ", 1)[1].split()[0])
        assert opt_cycles <= base_cycles

    def test_no_targets_is_usage_error(self, capsys):
        assert main(["deps"]) == 2
        assert capsys.readouterr().err


class TestChaosCLI:
    def test_chaos_default_subset(self, capsys):
        assert main(["chaos", "--cores", "8", "--drops", "0.1",
                     "--deaths", "1", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("benchmark")
        # header + 3 default shorts + the batch-engine summary line
        assert len(lines) == 5
        assert all(line.endswith("yes") for line in lines[1:4])
        assert lines[4].startswith("# engine: executed=6 cache_hits=0")

    def test_chaos_json(self, capsys):
        assert main(["chaos", "--cores", "8", "--drops", "0.0",
                     "--deaths", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_cores"] == 8
        assert all(rec["identical"] for rec in payload["records"])
        assert all(rec["slowdown"] == 1.0 for rec in payload["records"])


class TestMetricsCLI:
    def test_metrics_json(self, minic_file, capsys):
        assert main(["metrics", minic_file, "--cores", "4",
                     "--window", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["domain"] == "cycle"
        assert payload["window"] == 50
        assert payload["windows"] == -(-payload["cycles"] // 50)
        assert sum(payload["series"]["retired"]) == \
            payload["totals"]["retired"]
        assert payload["totals"]["noc_messages"] > 0

    def test_metrics_flag_overrides_window(self, minic_file, capsys):
        assert main(["metrics", minic_file, "--cores", "4",
                     "--window", "50", "--metrics", "25"]) == 0
        assert json.loads(capsys.readouterr().out)["window"] == 25

    def test_metrics_prometheus(self, minic_file, capsys):
        assert main(["metrics", minic_file, "--cores", "4",
                     "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_retired_total counter" in out
        assert 'repro_sim_cycles{domain="cycle"}' in out

    def test_metrics_kernels_agree(self, minic_file, capsys):
        payloads = {}
        for kernel in ("naive", "event"):
            assert main(["metrics", minic_file, "--cores", "4",
                         "--kernel", kernel, "--window", "40"]) == 0
            payloads[kernel] = json.loads(capsys.readouterr().out)
        assert payloads["naive"] == payloads["event"]

    def test_stats_json_carries_schema_version(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert "metrics" not in payload, \
            "metrics only ride along when --metrics sets a window"

    def test_stats_json_metrics_ride_along(self, minic_file, capsys):
        assert main(["stats", minic_file, "--cores", "4", "--json",
                     "--metrics", "60"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["window"] == 60
        # the embedded dict keeps its own (metrics) schema version
        assert payload["metrics"]["schema_version"] == 1

    def test_simulate_and_stats_print_summary_line(self, minic_file,
                                                   capsys):
        assert main(["simulate", minic_file, "--cores", "4",
                     "--metrics", "60"]) == 0
        assert "# metrics:" in capsys.readouterr().out
        assert main(["stats", minic_file, "--cores", "4",
                     "--metrics", "60"]) == 0
        assert "metrics: " in capsys.readouterr().out

    def test_metrics_chrome_trace_counter_tracks(self, minic_file,
                                                 tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["metrics", minic_file, "--cores", "4",
                     "--window", "40",
                     "--chrome-trace", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "C"}
        assert "retired/window" in names
        assert any(name.startswith("noc ") for name in names)


class TestEntryPoint:
    def test_pyproject_script_resolves(self, capsys):
        # the installed `repro` script must point at a real callable
        import importlib
        import re
        from pathlib import Path

        text = (Path(__file__).resolve().parents[1]
                / "pyproject.toml").read_text()
        match = re.search(
            r'^repro\s*=\s*"([\w.]+):(\w+)"$', text, re.MULTILINE)
        assert match, "[project.scripts] repro entry missing"
        module = importlib.import_module(match.group(1))
        entry = getattr(module, match.group(2))
        assert entry is main
        assert entry(["workloads"]) == 0
        assert capsys.readouterr().out.count("\n") == 10


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.strip() == repro.__version__

    def test_version_is_single_sourced(self):
        """``__version__`` comes from package metadata when installed,
        and in any case matches the pyproject pin (the fallback is kept
        in sync with it, so both paths agree)."""
        import re
        from pathlib import Path

        import repro

        text = (Path(__file__).resolve().parents[1]
                / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"$', text,
                          re.MULTILINE)
        assert match, "pyproject.toml version missing"
        assert repro.__version__ == match.group(1)


class TestRetiredTimeTravel:
    """Snapshot/resume is gone: its flags are argparse errors."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "{file}", "--checkpoint", "3"],
        ["simulate", "{file}", "--snapshot-dir", "snaps"],
        ["simulate", "{file}", "--resume-from", "a" * 64],
        ["trace", "{file}", "--seek", "4"],
        ["chaos", "--warm-start", "0.8"],
    ], ids=["checkpoint", "snapshot_dir", "resume_from", "seek",
            "warm_start"])
    def test_removed_flag_is_a_usage_error(self, asm_file, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(file=asm_file) for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
