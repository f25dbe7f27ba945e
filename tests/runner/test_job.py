"""Job identity: content-addressed keys and the wire format."""

from dataclasses import fields

import pytest

from repro import assemble
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.fork import fork_transform
from repro.runner import SCHEMA_VERSION, Job
from repro.sim import SimConfig
from repro.workloads import get_workload

#: one non-default value per constructor field of SimConfig
_CHANGED = {
    "n_cores": 16,
    "section_create_latency": 3,
    "noc_latency": 2,
    "topology": "mesh",
    "dmh_latency": 2,
    "fetch_width": 2,
    "rename_width": 2,
    "execute_width": 2,
    "addr_rename_width": 2,
    "memory_width": 2,
    "retire_width": 2,
    "placement": "least_loaded",
    "placement_seed": 7,
    "stack_shortcut": True,
    "line_bytes": 128,
    "trace": True,
    "events": True,
    "max_cycles": 1000,
    "faults": FaultPlan(drop_rate=0.1),
    "kernel": "naive",
    "optimize": True,
    "metrics_window": 64,
}

_ANSWER = "main:\n    movq $41, %rax\n    incq %rax\n    out %rax\n    hlt\n"


def _quicksort_job(**kwargs):
    prog = fork_transform(get_workload("quicksort").instance(scale=0,
                                                             seed=1).program)
    return Job.from_program(prog, **kwargs)


class TestJobKey:
    def test_key_is_deterministic(self):
        assert _quicksort_job().key() == _quicksort_job().key()

    def test_key_ignores_job_id(self):
        # the key addresses *content*; what the caller names the job is
        # presentation, not identity — else renaming a job would defeat
        # the cache
        a = _quicksort_job(job_id="alpha")
        b = _quicksort_job(job_id="beta")
        assert a.key() == b.key()

    def test_key_tracks_config(self):
        a = _quicksort_job(config=SimConfig(n_cores=4))
        b = _quicksort_job(config=SimConfig(n_cores=8))
        assert a.key() != b.key()

    def test_key_tracks_requested_outputs(self):
        a = _quicksort_job(include_memory=False)
        b = _quicksort_job(include_memory=True)
        assert a.key() != b.key()

    def test_key_tracks_program(self):
        other = fork_transform(
            get_workload("bfs").instance(scale=0, seed=1).program)
        assert (_quicksort_job().key()
                != Job.from_program(other).key())

    def test_default_job_id_derived_from_key(self):
        job = _quicksort_job()
        assert job.job_id == "job-" + job.key()[:12]

    @pytest.mark.parametrize("name", sorted(_CHANGED))
    def test_key_tracks_every_config_field(self, name):
        # a knob the key ignored would let a cache serve one config's
        # result for another
        base = _quicksort_job()
        changed = _quicksort_job(config=SimConfig(**{name: _CHANGED[name]}))
        assert changed.key() != base.key()
        clone = Job.from_wire(changed.to_wire())
        assert getattr(clone.config, name) == _CHANGED[name]
        assert clone.key() == changed.key()

    def test_every_config_field_is_covered(self):
        settable = {f.name for f in fields(SimConfig) if f.init}
        assert settable == set(_CHANGED)

    @pytest.mark.parametrize("config, key", [
        (SimConfig(),
         "7534baf6be19d2ff0ae81a39c116520b2e41f69900a880e319652c8d4bad05d5"),
        (SimConfig(n_cores=2, kernel="naive"),
         "c7dddf65a98d6841ffc47f6b47c44f2721c151b8ccf4409b8a09da832aaa7e11"),
    ], ids=["default", "naive-2"])
    def test_key_is_pinned(self, config, key):
        # an existing on-disk cache stays warm only while the canonical
        # form is byte-stable; changing it needs a SCHEMA_VERSION bump
        assert Job.from_program(assemble(_ANSWER), config=config).key() \
            == key


class TestJobProgram:
    def test_program_roundtrips_listing(self):
        # the listing is the canonical serialization: re-assembling it
        # must yield the same listing (fixpoint), or workers would
        # simulate a different program than the caller digested
        job = _quicksort_job()
        assert job.program().listing() == job.asm

    def test_entry_point_survives(self):
        # MiniC programs enter via _start, not the first instruction;
        # the .entry directive carries that through the wire format
        job = _quicksort_job()
        original = fork_transform(
            get_workload("quicksort").instance(scale=0, seed=1).program)
        assert job.program().entry == original.entry


class TestJobWire:
    def test_wire_roundtrip(self):
        job = _quicksort_job(job_id="w", include_memory=True)
        clone = Job.from_wire(job.to_wire())
        assert clone == job
        assert clone.key() == job.key()

    def test_wire_schema_checked(self):
        wire = _quicksort_job().to_wire()
        wire["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ReproError):
            Job.from_wire(wire)
