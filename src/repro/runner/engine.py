"""The batch-execution engine: a worker pool over simulation jobs, with
content-addressed memoization.

Execution contract:

* **determinism** — a job's payload is a pure function of its canonical
  form.  Serial execution, a pool of any size, and a cache hit all
  produce the same JSON-normalized payload (the pool only changes *who*
  computes, never *what*); ``tests/runner/test_determinism.py`` holds
  every Table 1 workload to this bit-for-bit.
* **failure isolation** — one job raising (bad program, config rejected,
  simulation error) marks that outcome ``failed`` with the error text
  and leaves every other job untouched.  Worker crashes cannot poison
  the cache: only successful payloads are stored.
* **memoization** — with a :class:`~repro.runner.cache.ResultCache`
  attached, jobs whose key has a valid entry are served without
  executing anything; everything recomputed is written back.  A warm
  second run of an unchanged sweep therefore executes zero simulations.
* **telemetry separation** — per-job phase timings, cache counters and
  the pool-utilization timeline are *host-domain* metrics
  (:mod:`repro.obs.metrics`): they ride only under ``timing=True``
  exports, so the timing-free differential report — and every cached
  payload — stays free of wall-clock noise.

The per-job result payload is ``SimResult.to_json_dict(...)`` (shaped by
the job's include flags) plus ``memory_digest`` — enough for every sweep
to verify architectural identity without shipping full memory images.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..obs.metrics import HOST_DOMAIN, MetricsRegistry
from .cache import ResultCache
from .job import Job

#: outcome states
OK, CACHED, FAILED = "ok", "cached", "failed"

#: execution phases timed per job, in pipeline order
PHASES = ("assemble_s", "simulate_s", "export_s")

#: wall-clock histogram bounds for per-job execution time, seconds
_WALL_BOUNDS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0)

#: resolution of the pool-utilization timeline
_TIMELINE_BUCKETS = 20


def execute_job_timed(job: Job) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Run one job to ``(payload, phase walls)`` (no cache, no isolation).

    The payload is normalized through a JSON round-trip so that fresh
    and cache-served results are indistinguishable (tuples become lists,
    int keys become strings) and comparisons are representation-free.
    Phase walls time the job's pipeline stages (program assembly,
    simulation, payload export+normalization) — host-domain telemetry
    that never enters the payload itself.
    """
    import json

    from ..faults.sweep import memory_digest
    from ..sim.processor import simulate

    t0 = time.perf_counter()
    program = job.program()
    t1 = time.perf_counter()
    result, _ = simulate(program, job.config)
    t2 = time.perf_counter()
    payload = result.to_json_dict(include_memory=job.include_memory,
                                  include_trace=job.include_trace,
                                  include_events=job.include_events)
    payload["memory_digest"] = memory_digest(result.final_memory)
    normalized: Dict[str, Any] = json.loads(json.dumps(payload,
                                                       sort_keys=True))
    t3 = time.perf_counter()
    phases = {"assemble_s": t1 - t0, "simulate_s": t2 - t1,
              "export_s": t3 - t2}
    return normalized, phases


def execute_job(job: Job) -> Dict[str, Any]:
    """Run one job to its result payload (no cache, no isolation)."""
    return execute_job_timed(job)[0]


#: wire format of one worker result:
#: (status, value, wall_s, phases, start_ts, end_ts) — the timestamps
#: are ``time.perf_counter()`` readings, comparable across processes on
#: every supported platform (monotonic system-wide clocks)
WorkerResult = Tuple[str, Any, float, Dict[str, float], float, float]


def _pool_worker(wire: Dict[str, Any]) -> WorkerResult:
    """Top-level (picklable) worker: wire dict -> WorkerResult."""
    start = time.perf_counter()
    try:
        payload, phases = execute_job_timed(Job.from_wire(wire))
        end = time.perf_counter()
        return OK, payload, end - start, phases, start, end
    except ReproError as exc:
        end = time.perf_counter()
        return FAILED, str(exc), end - start, {}, start, end
    except Exception:                                  # noqa: BLE001
        end = time.perf_counter()
        return FAILED, traceback.format_exc(limit=8), end - start, {}, \
            start, end


@dataclass
class JobOutcome:
    """What happened to one job of a batch."""

    job_id: str
    key: str
    status: str                        #: "ok" | "cached" | "failed"
    wall_s: float                      #: execution wall (0 for cached)
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: per-phase execution walls (PHASES keys); None for cached jobs
    phases: Optional[Dict[str, float]] = None
    #: (start, end) offsets into the batch wall, seconds — feeds the
    #: pool-utilization timeline; None for cached jobs
    span: Optional[Tuple[float, float]] = None

    def to_json_dict(self, timing: bool = True) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"job_id": self.job_id, "key": self.key,
                                 "status": self.status}
        if timing:
            entry["wall_s"] = self.wall_s
            if self.phases is not None:
                entry["phases"] = self.phases
        if self.error is not None:
            entry["error"] = self.error
        if self.payload is not None:
            entry["payload"] = self.payload
        return entry


def _pool_timeline(spans: Sequence[Tuple[float, float]],
                   wall_s: float) -> Dict[str, Any]:
    """Worker-pool concurrency over the batch wall: how many jobs were
    executing during each of ``_TIMELINE_BUCKETS`` equal slices."""
    if not spans or wall_s <= 0:
        return {"bucket_s": 0.0, "concurrency": []}
    n = _TIMELINE_BUCKETS
    bucket = wall_s / n
    concurrency = [0] * n
    for s, e in spans:
        first = max(0, min(n - 1, int(s / bucket)))
        last = max(first, min(n - 1, int(max(s, e - 1e-9) / bucket)))
        for b in range(first, last + 1):
            concurrency[b] += 1
    return {"bucket_s": bucket, "concurrency": concurrency}


def build_host_metrics(outcomes: Sequence[JobOutcome], pool_size: int,
                       wall_s: float,
                       cache_stats: Optional[Dict[str, int]],
                       ) -> Dict[str, Any]:
    """Fold a finished batch into the host-domain metrics export: job
    counters by outcome, a wall-clock histogram, per-phase totals, cache
    counters and the pool-utilization timeline."""
    reg = MetricsRegistry(HOST_DOMAIN)
    for outcome in outcomes:
        reg.counter("batch_jobs", "jobs by outcome",
                    status=outcome.status).inc()
    walls = reg.histogram("batch_job_wall_seconds", _WALL_BOUNDS,
                          "per-job execution wall")
    for outcome in outcomes:
        if outcome.status == OK:
            walls.observe(outcome.wall_s)
        if outcome.phases:
            for phase in PHASES:
                reg.gauge("batch_phase_seconds", "summed phase wall",
                          phase=phase).add(outcome.phases.get(phase, 0.0))
    if cache_stats is not None:
        for status in ("hits", "misses", "healed"):
            reg.counter("batch_cache_requests", "cache lookups by result",
                        status=status).inc(cache_stats.get(status, 0))
    reg.gauge("batch_pool_size", "worker processes").set(pool_size)
    reg.gauge("batch_wall_seconds", "whole-batch wall").set(wall_s)
    payload = reg.to_json_dict()
    payload["pool"] = _pool_timeline(
        [o.span for o in outcomes if o.span is not None], wall_s)
    return payload


@dataclass
class BatchReport:
    """Aggregate outcome of one :func:`run_batch` call, in job order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    pool_size: int = 1
    cache_dir: Optional[str] = None
    wall_s: float = 0.0
    #: cache hit/miss/heal counters for this batch's lookups; None when
    #: no cache was attached
    cache_stats: Optional[Dict[str, int]] = None
    #: host-domain metrics export (:func:`build_host_metrics`); timing
    #: data, so exported only under ``timing=True``
    host_metrics: Optional[Dict[str, Any]] = None

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == OK)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == CACHED)

    @property
    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def ok(self) -> bool:
        return not self.failures

    def payloads(self) -> List[Optional[Dict[str, Any]]]:
        """Result payloads in job order (None where a job failed)."""
        return [o.payload for o in self.outcomes]

    def summary(self) -> str:
        line = ("%d jobs: %d executed, %d cached, %d failed "
                "(pool=%d) in %.2fs"
                % (len(self.outcomes), self.executed, self.cache_hits,
                   len(self.failures), self.pool_size, self.wall_s))
        if self.cache_stats is not None:
            line += (" | cache: %d hit, %d miss, %d healed"
                     % (self.cache_stats.get("hits", 0),
                        self.cache_stats.get("misses", 0),
                        self.cache_stats.get("healed", 0)))
        return line

    def to_json_dict(self, timing: bool = True) -> Dict[str, Any]:
        """Machine-readable report.  ``timing=False`` drops wall clocks
        and all host-domain telemetry, leaving only deterministic fields
        — byte-identical across runs and machines, which is what
        differential tests compare."""
        payload: Dict[str, Any] = {
            "jobs": len(self.outcomes),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed": len(self.failures),
            "pool_size": self.pool_size,
            "cache_dir": self.cache_dir,
            "outcomes": [o.to_json_dict(timing=timing)
                         for o in self.outcomes],
        }
        if timing:
            payload["wall_s"] = self.wall_s
            if self.cache_stats is not None:
                payload["cache"] = self.cache_stats
            if self.host_metrics is not None:
                payload["host_metrics"] = self.host_metrics
        if not timing:
            payload.pop("pool_size")
            payload.pop("cache_dir")
        return payload


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, no re-import) where the platform offers it."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _executed_outcome(job: Job, key: str, raw: WorkerResult,
                      start: float,
                      cache: Optional[ResultCache]) -> JobOutcome:
    """Fold one worker's wire result into a settled :class:`JobOutcome`
    (writing successes back to *cache*) — shared by the serial and the
    pooled path so both produce identical outcomes."""
    status, value, wall, phases, t_in, t_out = raw
    span = (max(0.0, t_in - start), max(0.0, t_out - start))
    if status == OK:
        if cache is not None:
            cache.put(key, value)
        return JobOutcome(job.job_id, key, OK, wall, payload=value,
                          phases=phases, span=span)
    return JobOutcome(job.job_id, key, FAILED, wall, error=value,
                      phases=phases or None, span=span)


def run_batch(jobs: Sequence[Job], pool_size: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              on_outcome: Optional[Callable[[JobOutcome], None]] = None,
              ) -> BatchReport:
    """Run *jobs*, fanning execution over *pool_size* worker processes.

    ``pool_size`` of None/0/1 runs serially in-process (the reference
    path the pool is tested against).  With a *cache*, valid entries are
    served without execution and fresh results are written back.
    *on_outcome* is called once per job, in job order, as outcomes
    settle (cache hits first, then executions).
    """
    start = time.perf_counter()
    report = BatchReport(pool_size=max(1, pool_size or 1),
                         cache_dir=str(cache.root) if cache else None)
    cache_before = dict(cache.stats) if cache is not None else None
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

    def settle(index: int, outcome: JobOutcome) -> None:
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    pending: List[Tuple[int, Job, str]] = []
    for index, job in enumerate(jobs):
        key = job.key()
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            settle(index, JobOutcome(job.job_id, key, CACHED, 0.0,
                                     payload=hit))
        else:
            pending.append((index, job, key))

    if pending:
        wires = [job.to_wire() for _, job, _ in pending]
        workers = min(report.pool_size, len(pending))
        if workers > 1:
            with _pool_context().Pool(workers) as pool:
                raw = pool.map(_pool_worker, wires, chunksize=1)
        else:
            raw = [_pool_worker(wire) for wire in wires]
        for (index, job, key), one in zip(pending, raw):
            settle(index, _executed_outcome(job, key, one, start, cache))

    report.outcomes = [o for o in outcomes if o is not None]
    report.wall_s = time.perf_counter() - start
    if cache is not None and cache_before is not None:
        report.cache_stats = {name: cache.stats[name] - cache_before[name]
                              for name in cache.stats}
    report.host_metrics = build_host_metrics(
        report.outcomes, report.pool_size, report.wall_s,
        report.cache_stats)
    return report
