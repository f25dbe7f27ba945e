"""``repro batch`` on malformed job specs: every rejection is one
``error:`` line on stderr and exit status 1 — never a traceback — and a
spec with any bad entry runs nothing at all (all-or-nothing: its valid
siblings are not executed and the cache directory is never created)."""

import json

import pytest

from repro.__main__ import main

_ASM = {"asm": "main:\n    movq $7, %rax\n    out %rax\n    hlt\n"}

#: (case id, spec file text, fragment the error line must contain)
_BAD_SPECS = [
    ("invalid_json", '{"jobs": [', "invalid JSON"),
    ("scalar_spec", "42", "job spec must be an object or a list"),
    ("string_spec", '"quicksort"', "job spec must be an object or a list"),
    ("jobs_not_a_list", {"jobs": {"id": "x"}}, "spec jobs must be a list"),
    ("defaults_not_an_object", {"defaults": 3, "jobs": [_ASM]},
     "spec defaults must be an object"),
    ("unknown_spec_key", {"jobs": [_ASM], "workers": 4},
     "unknown spec keys: workers"),
    ("unknown_defaults_key", {"defaults": {"id": "x"}, "jobs": [_ASM]},
     "unknown defaults keys: id"),
    ("empty_job_list", {"jobs": []}, "job spec lists no jobs"),
    ("entry_not_an_object", [1], "job 0: job entry must be an object"),
    ("unknown_entry_key", [{"workload": "quicksort", "cores": 4}],
     "job 0: unknown job-spec keys: cores"),
    ("no_program_source", [{"id": "x"}], "job 0: job entry needs exactly"),
    ("two_program_sources", [dict(_ASM, c="long main() { return 0; }")],
     "job 0: job entry needs exactly"),
    ("unknown_workload", [{"workload": "astrology"}],
     "job 0: unknown workload 'astrology'"),
    ("non_integer_scale", [{"workload": "quicksort", "scale": "big"}],
     "job 0: scale must be an integer"),
    ("non_integer_seed", [{"workload": "quicksort", "seed": None}],
     "job 0: seed must be an integer"),
    ("malformed_asm", [{"asm": "main:\n    frob %rax\n"}],
     "job 0: unknown mnemonic 'frob'"),
    ("malformed_minic", [{"c": "long main( { }"}], "job 0: expected"),
    ("missing_file", [{"file": "nope.c"}], "job 0: cannot read"),
    ("file_is_a_directory", [{"file": "."}], "job 0: cannot read"),
    ("file_not_a_string", [{"file": 5}],
     "job 0: file must be a path string"),
    ("config_not_an_object", [dict(_ASM, config=[1])],
     "job 0: config must be an object"),
    ("unknown_config_key", [dict(_ASM, config={"warp_drive": 9})],
     "job 0: unknown SimConfig keys: warp_drive"),
    ("config_value_wrong_type", [dict(_ASM, config={"n_cores": "many"})],
     "job 0: invalid config"),
    ("config_value_out_of_range", [dict(_ASM, config={"n_cores": 0})],
     "job 0: invalid config: need at least one core"),
    ("removed_kernel", [dict(_ASM, config={"kernel": "vector"})],
     "job 0: invalid config: kernel 'vector' was removed"),
    ("faults_not_an_object", [dict(_ASM, config={"faults": [1]})],
     "job 0: faults must be an object"),
    ("occupancy_off", [dict(_ASM, config={"collect_occupancy": False})],
     "job 0: collect_occupancy must be true"),
    ("retired_checkpoints", [dict(_ASM, config={"checkpoint_cycles": [5]})],
     "job 0: unknown SimConfig keys: checkpoint_cycles"),
    ("retired_fault_start",
     [dict(_ASM, config={"faults": {"start_cycle": 5}})],
     "job 0: unknown FaultPlan keys: start_cycle"),
]


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("spec, fragment",
                         [case[1:] for case in _BAD_SPECS],
                         ids=[case[0] for case in _BAD_SPECS])
def test_bad_spec_is_one_error_line(tmp_path, capsys, spec, fragment):
    cache_dir = tmp_path / "cache"
    rc = main(["batch", _write_spec(tmp_path, spec),
               "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert fragment in lines[0]
    assert not cache_dir.exists(), "a rejected spec must run nothing"


def test_one_bad_entry_rejects_the_whole_spec(tmp_path, capsys):
    spec = [dict(_ASM, id="good"), dict(_ASM, id="also-good"),
            {"id": "bad", "workload": "quicksort", "cores": 4}]
    cache_dir = tmp_path / "cache"
    rc = main(["batch", _write_spec(tmp_path, spec),
               "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "job 2: unknown job-spec keys: cores" in captured.err
    assert "[ok]" not in captured.out
    assert not cache_dir.exists()


def test_non_utf8_program_file(tmp_path, capsys):
    (tmp_path / "latin1.s").write_bytes(b"main:\n    hlt  # caf\xe9\n")
    rc = main(["batch", _write_spec(tmp_path, [{"file": "latin1.s"}])])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert "job 0: cannot read" in lines[0] and "UTF-8" in lines[0]


def test_missing_spec_file(tmp_path, capsys):
    rc = main(["batch", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert "absent.json" in captured.err
