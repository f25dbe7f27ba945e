"""The repro.api stability facade."""

import pytest

import repro
from repro import api
from repro.runner import Job

_C = "long main() { out(40 + 2); return 0; }"
_ASM = "main:\n    movq $7, %rax\n    out %rax\n    hlt\n"


class TestFacadeSurface:
    def test_all_names_exist(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_package_reexports(self):
        # the package root exposes the facade and the engine types
        for name in ("api", "BatchReport", "Job", "ResultCache",
                     "run_batch"):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestFacadeCalls:
    def test_compile_and_run_sequential(self):
        result = api.run_sequential(api.compile_c(_C))
        assert result.signed_output == [42]

    def test_assemble_and_simulate(self):
        run = api.simulate(api.assemble(_ASM))
        assert run.result.outputs == [7]
        assert run.processor is not None

    def test_run_forked_typed_result(self):
        run = api.run_forked(api.compile_c(_C, fork=True))
        assert run.result.signed_output == [42]
        assert run.sections >= 1
        assert run.machine.section_table()

    def test_transform_alias(self):
        prog = api.compile_c(_C)
        assert "fork" in api.transform(prog).listing()

    def test_load_program_by_suffix(self, tmp_path):
        c_path = tmp_path / "p.c"
        c_path.write_text(_C)
        s_path = tmp_path / "p.s"
        s_path.write_text(_ASM)
        assert "fork" in api.load_program(str(c_path)).listing()
        assert api.load_program(str(s_path)).code


class TestFacadeBatch:
    def test_make_jobs_lifts_programs(self):
        prog = api.compile_c(_C, fork=True)
        job = Job.from_program(prog, job_id="kept")
        jobs = api.make_jobs([prog, job])
        assert jobs[0].job_id == "job-0"
        assert jobs[1] is job

    def test_batch_with_cache_dir(self, tmp_path):
        jobs = api.make_jobs([api.compile_c(_C, fork=True)])
        cold = api.batch(jobs, cache_dir=str(tmp_path))
        warm = api.batch(jobs, cache_dir=str(tmp_path))
        assert cold.executed == 1 and warm.cache_hits == 1
        assert warm.payloads() == cold.payloads()

    def test_batch_use_cache_false(self, tmp_path):
        jobs = api.make_jobs([api.compile_c(_C, fork=True)])
        api.batch(jobs, cache_dir=str(tmp_path))
        again = api.batch(jobs, cache_dir=str(tmp_path), use_cache=False)
        assert again.executed == 1 and again.cache_hits == 0


class TestApiV2:
    """What v2 brought as v4 leaves it: kernel= is the only way to pick
    a kernel (the event_driven= constructor argument and the vector
    kernel went in v3), and the v2 time-travel entries are gone."""

    def test_schema_version_is_four(self):
        assert api.API_SCHEMA_VERSION == 4

    def test_event_driven_is_not_a_constructor_argument(self):
        from repro.sim import SimConfig
        with pytest.raises(TypeError, match="event_driven"):
            SimConfig(event_driven=True)

    def test_vector_kernel_rejected_as_removed(self):
        from repro.sim import SimConfig
        with pytest.raises(ValueError, match="removed.*bit-identical"):
            SimConfig(kernel="vector")
        wire = SimConfig().to_dict()
        wire["kernel"] = "vector"
        with pytest.raises(ValueError, match="removed.*bit-identical"):
            SimConfig.from_dict(wire)

    def test_from_dict_accepts_legacy_event_driven_only_if_it_agrees(self):
        from repro.errors import SimulationError
        from repro.sim import SimConfig
        for kernel in ("naive", "event"):
            wire = SimConfig(kernel=kernel).to_dict()
            assert wire["event_driven"] == (kernel != "naive")
            assert SimConfig.from_dict(wire).kernel == kernel
            wire["event_driven"] = kernel == "naive"
            with pytest.raises(SimulationError, match="contradicts"):
                SimConfig.from_dict(wire)
        assert SimConfig.from_dict({"event_driven": True}).kernel == "event"
        with pytest.raises(SimulationError, match="contradicts"):
            SimConfig.from_dict({"event_driven": False})

    def test_kernel_spelling_does_not_warn(self):
        import warnings
        from repro.sim import SimConfig
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = SimConfig(kernel="naive")
        assert cfg.event_driven is False
        assert not caught

    def test_wire_form_configs_never_warn(self):
        import warnings
        from repro.sim import SimConfig
        wire = SimConfig(kernel="event").to_dict()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = SimConfig.from_dict(wire)
        assert back.kernel == "event"
        assert not caught, "deserialized payloads must not deprecation-warn"

    def test_time_travel_entries_are_gone(self):
        for name in ("Snapshot", "SnapshotError", "capture_prefix",
                     "resume", "SNAPSHOT_SCHEMA_VERSION"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)
        for name in ("snapshot", "resume", "checkpoints_of"):
            assert name not in api.__all__
            assert not hasattr(api, name)
        with pytest.raises(TypeError, match="resume_from"):
            api.simulate(api.assemble(_ASM), resume_from=None)
