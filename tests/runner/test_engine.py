"""Engine behaviour: failure isolation, callbacks, report accounting."""

import pytest

import json

from repro import assemble
from repro.errors import ReproError
from repro.runner import Job, ResultCache, execute_job, run_batch
from repro.runner.engine import FAILED, OK, PHASES, _pool_worker
from repro.sim import SimConfig

_GOOD = """
main:
    movq $41, %rax
    incq %rax
    out %rax
    hlt
"""


def _good_job(**kwargs):
    return Job.from_program(assemble(_GOOD), config=SimConfig(n_cores=2),
                            **kwargs)


def _bad_job():
    # assembles fine at spec time but exceeds its cycle budget when run:
    # failure surfaces inside the worker, where isolation must catch it
    source = """
    main:
        jmp main
    """
    return Job.from_program(assemble(source),
                            config=SimConfig(n_cores=1, max_cycles=200),
                            job_id="bad")


class TestExecuteJob:
    def test_payload_shape(self):
        payload = execute_job(_good_job())
        assert payload["outputs"] == [42]
        assert payload["cycles"] > 0
        assert "memory_digest" in payload

    def test_include_memory(self):
        with_mem = execute_job(_good_job(include_memory=True))
        without = execute_job(_good_job())
        assert "final_memory" in with_mem
        assert "final_memory" not in without

    def test_raises_unisolated(self):
        with pytest.raises(ReproError):
            execute_job(_bad_job())

    def test_include_trace(self):
        def job(include):
            return Job.from_program(
                assemble(_GOOD), config=SimConfig(n_cores=2, trace=True),
                include_trace=include)
        assert "trace" in execute_job(job(True))
        assert "trace" not in execute_job(job(False))

    def test_include_events(self):
        def job(include):
            return Job.from_program(
                assemble(_GOOD), config=SimConfig(n_cores=2, events=True),
                include_events=include)
        assert execute_job(job(True))["events"]
        assert "events" not in execute_job(job(False))


class TestPoolWorker:
    """The picklable worker entry every pool process runs."""

    def test_result_tuple(self):
        status, payload, wall, phases, t_in, t_out = \
            _pool_worker(_good_job().to_wire())
        assert status == OK
        assert payload == execute_job(_good_job())
        assert set(phases) == set(PHASES)
        assert wall >= 0 and t_out >= t_in

    def test_schema_drift_fails_without_raising(self):
        wire = _good_job().to_wire()
        wire["schema"] += 1
        status, error, _, phases, _, _ = _pool_worker(wire)
        assert status == FAILED
        assert "schema" in error and phases == {}

    def test_unexpected_error_returns_traceback(self):
        wire = _good_job().to_wire()
        del wire["asm"]
        status, error, _, _, _, _ = _pool_worker(wire)
        assert status == FAILED
        assert "Traceback" in error and "KeyError" in error


class TestFailureIsolation:
    def test_one_failure_leaves_others_untouched(self):
        report = run_batch([_good_job(job_id="a"), _bad_job(),
                            _good_job(job_id="b")])
        assert not report.ok
        assert report.executed == 2
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        failed = report.outcomes[1]
        assert failed.payload is None
        assert "cycle budget" in failed.error

    def test_pool_isolates_too(self):
        report = run_batch([_good_job(job_id="a"), _bad_job()],
                           pool_size=2)
        assert report.executed == 1 and len(report.failures) == 1

    def test_pool_keeps_job_order(self):
        jobs = [_good_job(job_id="a"), _bad_job(), _good_job(job_id="b"),
                _good_job(job_id="c", include_memory=True)]
        report = run_batch(jobs, pool_size=2)
        assert [o.job_id for o in report.outcomes] == ["a", "bad", "b", "c"]
        assert [o.status for o in report.outcomes] == \
            ["ok", "failed", "ok", "ok"]

    def test_failures_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_bad_job()], cache=cache)
        assert len(cache) == 0
        # and the retry actually re-executes
        assert run_batch([_bad_job()], cache=cache).executed == 0


class TestReport:
    def test_on_outcome_called_per_job(self):
        seen = []
        run_batch([_good_job(job_id="a"), _good_job(job_id="b")],
                  on_outcome=lambda o: seen.append(o.job_id))
        assert sorted(seen) == ["a", "b"]

    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_cache_hits_settle_first(self, tmp_path, pool_size):
        cache = ResultCache(tmp_path)
        run_batch([_good_job(job_id="warm")], cache=cache)
        jobs = [_good_job(job_id="first", include_memory=True),
                _good_job(job_id="warm"),
                _good_job(job_id="last", include_trace=True)]
        seen = []
        report = run_batch(jobs, pool_size=pool_size, cache=cache,
                           on_outcome=lambda o: seen.append(o.job_id))
        # the callback sees the hit before any execution...
        assert seen == ["warm", "first", "last"]
        # ...while the report keeps job order
        assert [o.job_id for o in report.outcomes] == \
            ["first", "warm", "last"]
        assert [o.status for o in report.outcomes] == \
            ["ok", "cached", "ok"]

    def test_pool_size_zero_runs_serially(self):
        report = run_batch([_good_job()], pool_size=0)
        assert report.pool_size == 1 and report.ok

    def test_pool_wider_than_batch_matches_serial(self):
        jobs = [_good_job(job_id="a"), _good_job(job_id="b",
                                                 include_memory=True)]
        pooled = run_batch(jobs, pool_size=4)
        assert pooled.pool_size == 4
        assert pooled.payloads() == run_batch(jobs).payloads()

    def test_payloads_none_where_failed(self):
        report = run_batch([_good_job(), _bad_job()])
        first, second = report.payloads()
        assert first["outputs"] == [42] and second is None

    def test_identical_jobs_share_one_cache_entry(self, tmp_path):
        # the key ignores the label, so relabelled copies are one entry
        cache = ResultCache(tmp_path)
        report = run_batch([_good_job(job_id="x"), _good_job(job_id="y")],
                           cache=cache)
        assert report.ok and len(cache) == 1
        x, y = report.payloads()
        assert json.dumps(x, sort_keys=True) == json.dumps(y, sort_keys=True)

    def test_summary_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_batch([_good_job()], cache=cache)
        # include_memory changes the key, so this one is a fresh execute
        fresh = _good_job(include_memory=True)
        report = run_batch([_good_job(), fresh, _bad_job()], cache=cache)
        assert report.cache_hits == 1
        assert report.executed == 1
        assert "1 executed, 1 cached, 1 failed" in report.summary()

    def test_json_dict_timing_toggle(self):
        report = run_batch([_good_job()])
        timed = report.to_json_dict()
        bare = report.to_json_dict(timing=False)
        assert "wall_s" in timed and "wall_s" not in bare
        assert "wall_s" in timed["outcomes"][0]
        assert "wall_s" not in bare["outcomes"][0]
