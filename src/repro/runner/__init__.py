"""Parallel batch-execution engine with content-addressed result caching.

The substrate every multi-config driver runs on (``repro batch``, the
chaos sweep, the benchmark grids, the regression gate)::

    from repro.runner import Job, ResultCache, run_batch
    from repro.sim import SimConfig

    jobs = [Job.from_program(prog, SimConfig(n_cores=n), job_id="n%d" % n)
            for n in (1, 8, 32)]
    report = run_batch(jobs, pool_size=4,
                       cache=ResultCache(".repro-cache"))
    print(report.summary())            # "3 jobs: 3 executed, 0 cached..."
    cycles = [p["cycles"] for p in report.payloads()]

A job's cache key is the sha256 of its canonical serialization (program
listing + ``SimConfig.to_dict`` + requested outputs), so unchanged jobs
are served from cache byte-identically; see :mod:`repro.runner.job`.
"""

from .cache import ResultCache
from .engine import BatchReport, JobOutcome, execute_job, run_batch
from .job import Job, SCHEMA_VERSION
from .spec import job_from_entry, jobs_from_spec

__all__ = [
    "BatchReport", "Job", "JobOutcome", "ResultCache", "SCHEMA_VERSION",
    "execute_job", "job_from_entry", "jobs_from_spec", "run_batch",
]
