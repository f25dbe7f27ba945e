"""``repro batch`` against the engine, one Table 1 workload at a time.

A spec entry ``{"workload": w}`` run through the CLI on a two-worker
pool into a fresh cache, then again warm, must yield exactly what
:func:`~repro.runner.execute_job` computes in-process for the job built
directly from the workload: the same content address, a byte-identical
canonical payload cold and warm, and the workload oracle's outputs.
Spec parsing, the pool, the cache round trip and the CLI's JSON report
may change *where* a payload is computed, never *what* it is.
"""

import contextlib
import io
import json

import pytest

from repro.__main__ import main
from repro.fork import fork_transform
from repro.runner import Job, execute_job
from repro.sim import SimConfig
from repro.workloads import WORKLOADS

SHORTS = [w.short for w in WORKLOADS]


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


def _direct_job(workload):
    inst = workload.instance(scale=0, seed=1)
    return Job.from_program(fork_transform(inst.program), config=SimConfig())


def _batch_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    report = json.loads(out.getvalue())
    return {o["job_id"]: o for o in report["outcomes"]}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """(cold, warm) outcomes by workload short name."""
    root = tmp_path_factory.mktemp("batch-diff")
    spec = root / "spec.json"
    spec.write_text(json.dumps(
        {"jobs": [{"id": short, "workload": short} for short in SHORTS]}))
    argv = ["batch", str(spec), "--json", "--jobs", "2",
            "--cache-dir", str(root / "cache")]
    return _batch_json(argv), _batch_json(argv)


@pytest.fixture(scope="module")
def workloads():
    return {w.short: w for w in WORKLOADS}


@pytest.mark.parametrize("short", SHORTS)
class TestBatchMatchesEngine:
    def test_spec_builds_the_direct_job(self, cli_runs, workloads, short):
        cold, _ = cli_runs
        assert cold[short]["key"] == _direct_job(workloads[short]).key()

    def test_cold_payload_matches_engine(self, cli_runs, workloads, short):
        cold, _ = cli_runs
        assert cold[short]["status"] == "ok"
        engine = execute_job(_direct_job(workloads[short]))
        assert _canon(cold[short]["payload"]) == _canon(engine)

    def test_warm_payload_matches_cold(self, cli_runs, short):
        cold, warm = cli_runs
        assert warm[short]["status"] == "cached"
        assert warm[short]["key"] == cold[short]["key"]
        assert _canon(warm[short]["payload"]) == \
            _canon(cold[short]["payload"])

    def test_outputs_match_oracle(self, cli_runs, workloads, short):
        cold, _ = cli_runs
        expected = workloads[short].instance(scale=0, seed=1).expected_output
        assert cold[short]["payload"]["outputs"] == expected
