"""Chaos sweep: graceful-degradation curves over a fault grid.

Shared by ``repro chaos`` and ``benchmarks/bench_faults_sweep.py``: run
each workload fault-free, then across a (drop-rate x core-deaths) grid,
checking that every faulted run still produces **bit-identical
architectural results** (outputs + final memory) and recording how much
slower it got and how much recovery work it did.

Every simulation goes through the batch engine (:mod:`repro.runner`):
the fault-free bases are one batch, the grid cells another, so a
``pool_size`` fans the 90-cell E9 grid over worker processes and a
``cache`` makes an unchanged re-sweep execute zero simulations — the
records are built purely from job payloads and are bit-identical however
the jobs were scheduled or served.
"""

from __future__ import annotations

import hashlib
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..errors import ReproError
from .models import CoreDeath, FaultPlan

if TYPE_CHECKING:   # runtime imports stay local (sim imports faults)
    from ..runner.engine import BatchReport
    from ..runner.job import Job
    from ..sim.config import SimConfig


def memory_digest(memory: Dict[int, int]) -> str:
    """Stable sha256 of a final-memory map (the golden tests' scheme)."""
    blob = ";".join("%d:%d" % (addr, memory[addr])
                    for addr in sorted(memory)).encode()
    return hashlib.sha256(blob).hexdigest()


def deaths_for(base_cycles: int, n_cores: int,
               count: int) -> List[CoreDeath]:
    """Deterministic death schedule: kill the *count* highest-numbered
    cores, spread across the fault-free run's midlife (faulted runs only
    get longer, so these cycles always land mid-run)."""
    deaths = []
    for k in range(count):
        cycle = max(1, base_cycles * (k + 1) // (count + 2))
        deaths.append(CoreDeath(core=n_cores - 1 - k, cycle=cycle))
    return deaths


def _grid_config(n_cores: int, scheduler: str,
                 plan: Optional[FaultPlan] = None) -> "SimConfig":
    from ..sim import SimConfig
    return SimConfig(n_cores=n_cores, stack_shortcut=True,
                     kernel=scheduler, faults=plan)


def _workload_programs(shorts: Sequence[str], scale: int,
                       data_seed: int) -> Tuple[Dict[str, str],
                                                Dict[str, int]]:
    """Canonical (fork-transformed) listings + dataset sizes, one compile
    per workload however many grid cells reuse it."""
    from ..fork import fork_transform
    from ..workloads import get_workload

    listings: Dict[str, str] = {}
    sizes: Dict[str, int] = {}
    for short in shorts:
        inst = get_workload(short).instance(scale=scale, seed=data_seed)
        sizes[short] = inst.n
        listings[short] = fork_transform(inst.program).listing()
    return listings, sizes


def _base_jobs(listings: Dict[str, str], shorts: Sequence[str],
               n_cores: int, scheduler: str) -> List["Job"]:
    """Fault-free reference jobs, one per workload."""
    from ..runner import Job

    return [Job(asm=listings[short],
                config=_grid_config(n_cores, scheduler),
                job_id="base:%s" % short)
            for short in shorts]


def _run_jobs(jobs: Sequence["Job"], pool_size: Optional[int],
              cache: Optional[Any]
              ) -> Tuple[List[Dict[str, Any]], "BatchReport"]:
    """Run a batch; raise (chaos contract) if any job failed."""
    from ..runner import run_batch

    report = run_batch(jobs, pool_size=pool_size, cache=cache)
    if not report.ok:
        worst = report.failures[0]
        raise ReproError("chaos sweep job %s failed: %s"
                         % (worst.job_id, worst.error))
    payloads: List[Dict[str, Any]] = []
    for outcome in report.outcomes:
        assert outcome.payload is not None   # report.ok guarantees it
        payloads.append(outcome.payload)
    return payloads, report


def _grid_plans(shorts: Sequence[str], drops: Iterable[float],
                death_counts: Iterable[int],
                base_cycles: Dict[str, int], n_cores: int,
                seed: int) -> List[Tuple[str, float, int, FaultPlan]]:
    cells: List[Tuple[str, float, int, FaultPlan]] = []
    for short in shorts:
        for drop in drops:
            for n_deaths in death_counts:
                plan = FaultPlan(
                    seed=seed, drop_rate=drop,
                    deaths=tuple(deaths_for(base_cycles[short], n_cores,
                                            n_deaths)))
                cells.append((short, drop, n_deaths, plan))
    return cells


def chaos_spec(shorts: Sequence[str], drops: Iterable[float],
               death_counts: Iterable[int], n_cores: int = 16,
               seed: int = 1234, scale: int = 0, data_seed: int = 1,
               scheduler: str = "event",
               pool_size: Optional[int] = None,
               cache: Optional[Any] = None) -> Dict[str, Any]:
    """A ``repro batch`` job spec covering the whole chaos grid.

    Runs the fault-free base phase first (death schedules depend on base
    cycle counts), then emits base + grid cells as concrete job entries
    whose configs embed the fault plans — feed the result to
    ``repro batch --jobs N`` to execute the E9 grid on a pool.
    """
    drops, death_counts = list(drops), list(death_counts)
    listings, _ = _workload_programs(shorts, scale, data_seed)
    base_jobs = _base_jobs(listings, shorts, n_cores, scheduler)
    payloads, _ = _run_jobs(base_jobs, pool_size, cache)
    base_cycles = {short: payloads[i]["cycles"]
                   for i, short in enumerate(shorts)}
    entries: List[Dict[str, Any]] = [
        {"id": "base:%s" % short, "workload": short,
         "scale": scale, "seed": data_seed,
         "config": _grid_config(n_cores, scheduler).to_dict()}
        for short in shorts]
    for short, drop, n_deaths, plan in _grid_plans(
            shorts, drops, death_counts, base_cycles, n_cores, seed):
        entries.append({
            "id": "chaos:%s:drop=%.3f:deaths=%d" % (short, drop, n_deaths),
            "workload": short, "scale": scale, "seed": data_seed,
            "config": _grid_config(n_cores, scheduler, plan).to_dict(),
        })
    return {"jobs": entries}


def chaos_sweep(shorts: Sequence[str], drops: Iterable[float],
                death_counts: Iterable[int], n_cores: int = 16,
                seed: int = 1234, scale: int = 0, data_seed: int = 1,
                scheduler: str = "event",
                pool_size: Optional[int] = None,
                cache: Optional[Any] = None) -> Dict[str, Any]:
    """The degradation grid.  Returns a JSON-ready payload whose
    ``records`` carry, per (workload, drop, deaths) cell: cycles,
    slowdown vs fault-free, the fault/recovery counters, and whether the
    architectural results stayed bit-identical.  ``batch`` summarizes the
    engine's work (executed vs cache-served vs pool size)."""
    drops, death_counts = list(drops), list(death_counts)
    listings, sizes = _workload_programs(shorts, scale, data_seed)
    base_jobs = _base_jobs(listings, shorts, n_cores, scheduler)
    base_payloads, base_report = _run_jobs(base_jobs, pool_size, cache)
    base = dict(zip(shorts, base_payloads))

    cells = _grid_plans(shorts, drops, death_counts,
                        {s: base[s]["cycles"] for s in shorts},
                        n_cores, seed)
    from ..runner import Job
    grid_jobs = [Job(asm=listings[short],
                     config=_grid_config(n_cores, scheduler, plan),
                     job_id="chaos:%s:drop=%.3f:deaths=%d"
                            % (short, drop, n_deaths))
                 for short, drop, n_deaths, plan in cells]
    grid_payloads, grid_report = _run_jobs(grid_jobs, pool_size, cache)

    records: List[Dict[str, Any]] = []
    for (short, drop, n_deaths, _), payload in zip(cells, grid_payloads):
        stats = payload.get("fault_stats") or {}
        ref = base[short]
        records.append({
            "benchmark": short, "n": sizes[short],
            "drop_rate": drop, "deaths": n_deaths,
            "cycles": payload["cycles"],
            "base_cycles": ref["cycles"],
            "slowdown": payload["cycles"] / ref["cycles"],
            "retries": stats.get("retries", 0),
            "backoff_cycles": stats.get("backoff_cycles", 0),
            "redispatches": stats.get("redispatches", 0),
            "replayed_instructions":
                stats.get("replayed_instructions", 0),
            "identical": (payload["outputs"] == ref["outputs"]
                          and payload["memory_digest"]
                          == ref["memory_digest"]),
        })
    return {"n_cores": n_cores, "seed": seed, "scale": scale,
            "scheduler": scheduler, "workloads": list(shorts),
            "records": records,
            "batch": {
                "pool_size": grid_report.pool_size,
                "executed": base_report.executed + grid_report.executed,
                "cache_hits": (base_report.cache_hits
                               + grid_report.cache_hits),
                "wall_s": base_report.wall_s + grid_report.wall_s,
            }}

