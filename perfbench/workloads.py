"""The benchmark's four workloads.

Each workload is driven through the public API only and uses
``SimConfig`` defaults except for the knobs named here; none names a
kernel, so every run measures the kernel users get by default.  Every
simulated run starts cold: empty MAATs, and the DMH holds the loader
image, as in the paper's model.

A workload splits into steps, so run.py can time them apart:

``inputs(seed)``
    datasets, made from the seed (never timed);
``setup(inputs, tracer)``
    the compile, fork-transform and assemble calls made before the first
    simulated cycle (with ``import repro``, the ``setup_s`` metric);
``oracle(inputs, prepared)``
    what the results are checked against (never timed);
``run(prepared, oracle, tracer, pool_size)``
    the timed body, every simulation plus its sweep and export calls, as
    a :class:`Pass`.  Each unit's result is checked right after its timer
    stops and then dropped, keeping only a summary, so results never pile
    up in memory across units or repetitions.  Units are timed by the
    tracer's clock: at the reference host speed in end-to-end runs (see
    :mod:`hostspeed`), raw in traced ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import random
import shutil
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import tracing

#: 5*2^n elements for n = 0..8, the paper's Section 5 evaluation points
SUM_NS = tuple(range(9))

#: Table 1 at 256 cores: the suite BENCH_vector_kernel.json times
TABLE1_CORES = 256

#: the E9 grid: NoC drop rate x number of fail-stopped cores
CHAOS_DROPS = (0.0, 0.05, 0.15)
CHAOS_DEATHS = (0, 1, 2)
CHAOS_CORES = 16
#: programs whose grid cycle totals move by at most 9% between seeds
#: (bfs moves 67%, quicksort 24%, knn 23%), so the grid's wall time
#: tracks the code rather than the dataset a seed happens to draw
CHAOS_PROGRAMS = ("dictionary", "mis", "matching", "dedup")
#: worker processes for the grid (the 2-core reference machine's nproc)
POOL_SIZE = 2

#: ``repro metrics``' default sampling window
METRICS_WINDOW = 100

MASK = 2 ** 64 - 1


@dataclasses.dataclass
class Pass:
    """One execution of a workload's timed body, already checked."""

    #: times one call as ``(value, host seconds)``: the tracer's clock
    timer: Callable[..., Tuple[Any, float]] = tracing.clock
    #: host seconds of each unit of work, by :attr:`timer`
    units: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: per-simulation summaries (see :func:`summary`), in run order
    sims: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def clock(self, unit: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Run one unit of work and record its host seconds.  The
        previous unit's cyclic garbage is collected first (as in
        benchmarks/bench_vector_kernel.py), so one unit's memory never
        lands on the next."""
        gc.collect()
        result, self.units[unit] = self.timer(guarded, fn, *args, **kwargs)
        return result

    def measure(self, unit: str, keep: Callable[[Any], Optional[Dict]],
                fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Clock one simulation unit, then check it: *keep* returns the
        summary to keep, or None when the result is wrong.  The result is
        dropped on return."""
        result = self.clock(unit, fn, *args, **kwargs)
        sim = None if isinstance(result, Failure) else keep(result)
        self.tally(sim is not None)
        if sim is not None:
            self.sims.append(sim)


class Failure:
    """Stands in for the result of a unit that raised."""


def guarded(fn, *args, **kwargs) -> Any:
    """*fn*'s value; a raise comes back as a :class:`Failure` (traceback
    on stderr) so the pass goes on and the failure is counted."""
    try:
        return fn(*args, **kwargs)
    except Exception:                                  # noqa: BLE001
        sys.stderr.write(traceback.format_exc(limit=6))
        return Failure()


def summary(result: Any) -> Dict[str, Any]:
    """The per-simulation counts the traced run reports, from a
    ``SimResult`` or from a batch job's JSON payload."""
    if isinstance(result, dict):
        def get(key):
            return result.get(key)
        latency, noc = result["request_latency"], result["noc"]
        occupancy = result["core_occupancy"]
    else:
        def get(key):
            return getattr(result, key)
        latency, noc = result.request_latency_stats(), result.noc_stats
        occupancy = result.core_occupancy
    entry = {key: get(key) for key in (
        "cycles", "instructions", "sections", "fetch_end", "retire_end",
        "fetch_computed", "requests", "request_hops")}
    entry["n_cores"] = len(occupancy)
    entry["latency"] = latency
    entry["noc_messages"] = noc["messages"]
    entry["dmh_reads"] = noc["dmh_reads"]
    entry["occupancy"] = {state: sum(core.get(state, 0)
                                     for core in occupancy)
                          for state in ("fetching", "computing",
                                        "blocked", "parked")}
    entry["fault_stats"] = get("fault_stats") or {}
    return entry


def _simulate(tracer, program, config, sim_id, initial_regs=None):
    from repro import api

    with tracer.span("sim.simulate", sim=sim_id):
        return tracer.profiled(api.simulate, program, config,
                               initial_regs=initial_regs).result


def _front_end(tracer, source: str, sim_id: str):
    """MiniC source -> fork-transformed program, one span per layer."""
    from repro import api
    from repro.minic import compile_to_asm

    with tracer.span("minic.compile", sim=sim_id):
        asm = compile_to_asm(source)
    with tracer.span("isa.assemble", sim=sim_id):
        program = api.assemble(asm, entry="_start")
    with tracer.span("fork.transform", sim=sim_id):
        return api.transform(program)


def _instances(names, seed):
    from repro.workloads import get_workload

    return {name: get_workload(name).instance(scale=0, seed=seed)
            for name in names}


# ----------------------------------------------------------------------
# sum_reduction
# ----------------------------------------------------------------------

class SumReduction:
    """The paper's forked ``sum`` over 5*2^n seeded values, n = 0..8:
    one core per section (up to 1535 cores), stack shortcut on."""

    name = "sum_reduction"

    def inputs(self, seed: int) -> Dict[int, List[int]]:
        from repro import analytic

        values = {}
        for n in SUM_NS:
            rng = random.Random("sum:%d:%d" % (seed, n))
            values[n] = [rng.randrange(-10 ** 6, 10 ** 6)
                         for _ in range(analytic.sum_sizes(n))]
        return values

    def setup(self, inputs, tracer) -> Dict[int, Tuple[Any, Dict]]:
        from repro import api
        from repro.paper import SUM_FORKED_ASM

        prepared = {}
        for n, values in inputs.items():
            source = SUM_FORKED_ASM + (
                "\n.data\nn: .quad %d\ntab: .quad %s\n"
                % (len(values), ", ".join(map(str, values))))
            with tracer.span("isa.assemble", sim="n=%d" % n):
                program = api.assemble(source, entry="sum")
            regs = {"rdi": program.data_symbols["tab"], "rsi": len(values)}
            prepared[n] = (program, regs)
        return prepared

    def oracle(self, inputs, prepared) -> Dict[int, int]:
        return {n: sum(values) & MASK for n, values in inputs.items()}

    def check_counts(self, prepared) -> Pass:
        """Outside the timed body: the functional machine's instruction
        and section counts equal the closed forms."""
        from repro import analytic
        from repro.machine import ForkedMachine

        done = Pass()
        for n, (program, regs) in prepared.items():
            machine = ForkedMachine(program, initial_regs=regs)
            run = guarded(machine.run)
            done.tally(not isinstance(run, Failure)
                       and run.steps == analytic.instructions(n)
                       and len(machine.section_table())
                       == analytic.sections(n))
        return done

    def run(self, prepared, oracle, tracer, pool_size=POOL_SIZE) -> Pass:
        from repro import analytic
        from repro.sim import SimConfig

        done = Pass(tracer.clock)
        for n, (program, regs) in prepared.items():
            config = SimConfig(n_cores=analytic.sections(n),
                               stack_shortcut=True)
            done.measure(
                "n=%d" % n,
                lambda r, n=n: (summary(r) if r.final_regs["rax"]
                                == oracle[n] else None),
                _simulate, tracer, program, config, "n=%d" % n, regs)
        return done


def accuracy(done: Pass) -> Tuple[float, float]:
    """Mean relative error (%) of a sum_reduction pass's fetch and retire
    times against the paper's closed forms 30+12n and 43+15n."""
    from repro import analytic

    if done.failed or len(done.sims) != len(SUM_NS):
        raise RuntimeError("the sum reduction failed: no accuracy figure")
    fetch = retire = 0.0
    for n, sim in zip(SUM_NS, done.sims):
        fetch += (abs(sim["fetch_end"] - analytic.fetch_cycles(n))
                  / analytic.fetch_cycles(n))
        retire += (abs(sim["retire_end"] - analytic.retire_cycles(n))
                   / analytic.retire_cycles(n))
    return 100.0 * fetch / len(SUM_NS), 100.0 * retire / len(SUM_NS)


# ----------------------------------------------------------------------
# table1_256
# ----------------------------------------------------------------------

class Table1:
    """All ten Table 1 programs at scale 0, seeded datasets, 256 cores,
    default protocol (no stack shortcut)."""

    name = "table1_256"

    def inputs(self, seed: int):
        from repro.workloads import WORKLOADS

        return _instances([w.short for w in WORKLOADS], seed)

    def setup(self, inputs, tracer):
        return {name: _front_end(tracer, inst.source, name)
                for name, inst in inputs.items()}

    def oracle(self, inputs, prepared) -> Dict[str, List[int]]:
        return {name: inst.expected_output for name, inst in inputs.items()}

    def run(self, prepared, oracle, tracer, pool_size=POOL_SIZE) -> Pass:
        from repro.sim import SimConfig

        done = Pass(tracer.clock)
        for name, program in prepared.items():
            done.measure(
                name,
                lambda r, name=name: (summary(r) if r.signed_outputs
                                      == oracle[name] else None),
                _simulate, tracer, program, SimConfig(n_cores=TABLE1_CORES),
                name)
        return done


# ----------------------------------------------------------------------
# chaos_grid
# ----------------------------------------------------------------------

class ChaosGrid:
    """``chaos_sweep`` over the E9 grid on a pool into a fresh result
    cache (cold), then the same grid again served from that cache
    (warm)."""

    name = "chaos_grid"
    cells = len(CHAOS_PROGRAMS) * len(CHAOS_DROPS) * len(CHAOS_DEATHS)
    jobs = cells + len(CHAOS_PROGRAMS)

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self._passes = 0

    def inputs(self, seed: int) -> int:
        return seed

    def setup(self, inputs, tracer) -> int:
        # chaos_sweep compiles inside the call: set-up is the import
        return inputs

    def oracle(self, inputs, prepared) -> None:
        # each cell's oracle is its own fault-free base run
        return None

    @staticmethod
    def _sweep(tracer, unit, seed, pool_size, cache):
        from repro.faults import chaos_sweep

        with tracer.span("faults.chaos_sweep", sim=unit):
            return tracer.profiled(
                chaos_sweep, list(CHAOS_PROGRAMS), CHAOS_DROPS,
                CHAOS_DEATHS, n_cores=CHAOS_CORES, seed=seed,
                data_seed=seed, pool_size=pool_size, cache=cache)

    def run(self, prepared, oracle, tracer, pool_size=POOL_SIZE) -> Pass:
        from repro.runner import ResultCache

        self._passes += 1
        cache_dir = self.scratch / ("cache-%d-%d" % (os.getpid(),
                                                     self._passes))
        shutil.rmtree(cache_dir, ignore_errors=True)
        done = Pass(tracer.clock)
        sweeps = {}
        try:
            for unit in ("cold", "warm"):
                with _batch_reports() as reports:
                    sweeps[unit] = done.clock(
                        unit, self._sweep, tracer, unit, prepared,
                        pool_size, ResultCache(cache_dir))
                done.extra[unit] = reports
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self._check(sweeps["cold"], sweeps["warm"], done)
        done.sims = [summary(outcome.payload)
                     for report in done.extra["cold"]
                     for outcome in report.outcomes if outcome.payload]
        return done

    def _check(self, cold, warm, done: Pass) -> None:
        if isinstance(cold, Failure) or isinstance(warm, Failure):
            for _ in range(self.cells):
                done.tally(False)
            return
        done.extra["records"] = cold["records"]
        outcomes = [outcome for report in done.extra["cold"]
                    for outcome in report.outcomes]
        # a stale cache would let the cold pass time nothing, a broken one
        # would make the warm pass simulate again, and uncaptured reports
        # would leave sim_cycles and the per-layer counts summing nothing
        checks = {
            "the cold pass executed every job":
                cold["batch"]["executed"] == self.jobs,
            "the warm pass executed none": warm["batch"]["executed"] == 0,
            "the warm records equal the cold ones":
                warm["records"] == cold["records"],
            "every cold job was captured with its payload":
                len(outcomes) == self.jobs
                and all(o.payload for o in outcomes),
            "every cell has a record": len(cold["records"]) == self.cells,
        }
        broken = [what for what, ok in checks.items() if not ok]
        if broken:
            sys.stderr.write("chaos_grid: not so: %s\n" % "; ".join(broken))
            for _ in range(self.cells):
                done.tally(False)
            return
        for record in cold["records"]:
            done.tally(record["identical"])


@contextlib.contextmanager
def _batch_reports() -> Iterator[List[Any]]:
    """Collect the :class:`BatchReport` of every ``run_batch`` call that
    ``chaos_sweep`` makes (it looks ``run_batch`` up on ``repro.runner``
    at call time), for the engine's own job counts and phase walls."""
    import repro.runner as runner

    real = runner.run_batch
    reports: List[Any] = []

    def recording(*args, **kwargs):
        report = real(*args, **kwargs)
        reports.append(report)
        return report

    runner.run_batch = recording
    try:
        yield reports
    finally:
        runner.run_batch = real


# ----------------------------------------------------------------------
# observe
# ----------------------------------------------------------------------

def _exports(tracer, result, name) -> Dict[str, str]:
    """Every exporter behind ``repro stats --json --trace --events``,
    ``repro trace``, ``repro analyze`` and ``repro metrics --prom``."""
    from repro.obs import (critical_path, cycle_metrics_to_registry,
                           render_critical_path, summarize_causes,
                           to_chrome_trace)

    out = {}
    with tracer.span("obs.export", sim=name):
        out["stats"] = json.dumps(
            result.to_json_dict(include_trace=True, include_events=True),
            indent=2, sort_keys=True)
    with tracer.span("obs.chrome_trace", sim=name):
        out["trace"] = json.dumps(to_chrome_trace(result))
    with tracer.span("obs.critical_path", sim=name):
        out["analyze"] = "\n".join([
            result.describe(),
            summarize_causes(result.stall_causes["totals"]),
            render_critical_path(critical_path(result), result.cycles)])
    with tracer.span("obs.prometheus", sim=name):
        out["prom"] = cycle_metrics_to_registry(
            result.metrics).render_prometheus()
    return out


def _prometheus_parses(text: str) -> bool:
    samples = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            return False
        float(value)
        samples += 1
    return samples > 0


def _core_fields(result) -> Tuple:
    return (result.cycles, result.instructions, result.sections,
            result.outputs, result.final_regs, result.final_memory,
            result.fetch_end, result.retire_end, result.fetch_computed,
            result.requests, result.request_hops, result.request_latencies,
            result.per_core_instructions, result.core_occupancy,
            result.noc_stats)


class Observe:
    """chaos_grid's programs and fault-free config with events, trace and
    windowed metrics on, then every observability exporter."""

    name = "observe"

    def inputs(self, seed: int):
        return _instances(CHAOS_PROGRAMS, seed)

    def setup(self, inputs, tracer):
        return {name: _front_end(tracer, inst.source, name)
                for name, inst in inputs.items()}

    @staticmethod
    def config(observed: bool):
        from repro.sim import SimConfig

        if not observed:
            return SimConfig(n_cores=CHAOS_CORES, stack_shortcut=True)
        return SimConfig(n_cores=CHAOS_CORES, stack_shortcut=True,
                         events=True, trace=True,
                         metrics_window=METRICS_WINDOW)

    def oracle(self, inputs, prepared) -> Dict[str, Any]:
        """Core fields of events-off runs of the same programs (None
        where that run itself fails the workload oracle)."""
        from repro import api

        references = {}
        for name, program in prepared.items():
            ref = guarded(api.simulate, program, self.config(False))
            good = (not isinstance(ref, Failure)
                    and ref.result.signed_outputs
                    == inputs[name].expected_output)
            references[name] = _core_fields(ref.result) if good else None
        return references

    def run(self, prepared, oracle, tracer, pool_size=POOL_SIZE) -> Pass:
        done = Pass(tracer.clock)

        def one(name, program):
            result = _simulate(tracer, program, self.config(True), name)
            return result, _exports(tracer, result, name)

        def keep(name, got) -> Optional[Dict]:
            result, out = got
            try:
                ok = (oracle[name] is not None
                      and _core_fields(result) == oracle[name]
                      and json.loads(out["stats"])["cycles"] == result.cycles
                      and bool(json.loads(out["trace"])["traceEvents"])
                      and "critical path" in out["analyze"]
                      and _prometheus_parses(out["prom"]))
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                return None
            sim = summary(result)
            sim["events"] = len(result.events)
            sim["stalls"] = result.stall_causes["totals"]
            sim["export_bytes"] = sum(len(text.encode())
                                      for text in out.values())
            return sim

        for name, program in prepared.items():
            done.measure(name, lambda got, name=name: keep(name, got),
                         one, name, program)
        return done


def all_workloads(scratch: Path) -> Dict[str, Any]:
    return {w.name: w for w in (SumReduction(), Table1(), ChaosGrid(scratch),
                                Observe())}
