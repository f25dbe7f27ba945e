"""Stable public API facade.

This module is the library's **stability contract**: the functions here
(and the typed results they return) keep their signatures across
releases, while subpackage internals (``repro.sim``, ``repro.machine``,
``repro.runner``, ...) may be refactored freely.  New code — including
the ``python -m repro`` CLI itself — should call this facade::

    from repro import api

    prog = api.compile_c(source, fork=True)
    run = api.simulate(prog, SimConfig(n_cores=16))
    print(run.result.describe())

    report = api.batch(jobs, pool_size=4, cache_dir=".repro-cache")

The entry points cover the library's pipeline: :func:`compile_c` /
:func:`assemble` produce a :class:`~repro.isa.program.Program`;
:func:`run_sequential` / :func:`run_forked` execute it functionally;
:func:`simulate` runs the cycle-level many-core; :func:`batch` fans a
list of :class:`~repro.runner.Job` out over a worker pool with
content-addressed result caching (:mod:`repro.runner`).

API v3 leaves two kernels, ``SimConfig(kernel="event")`` (the
default) and ``kernel="naive"``.  The ``event_driven=`` constructor
argument is gone (a wire-format dict may still carry it, when it agrees
with ``kernel``), and ``kernel="vector"`` is rejected: it was
bit-identical to ``"event"``, which now carries its lazy request
scheduler.

API v4 (``API_SCHEMA_VERSION == 4``) retires the time travel that v2
added: the ``snapshot`` and ``resume`` entries, the one that armed
captures on a full run, and ``simulate``'s resume keyword are gone.
Every simulation runs from cycle 0; a resumed run only ever returned
the cold run's result.  The ``SimConfig`` and ``FaultPlan`` keys that
served them are now rejected as unknown keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

from .fork import fork_transform
from .isa import assemble as _assemble
from .isa.program import Program
from .machine import (ForkedMachine, RunResult,
                      run_forked as _run_forked,
                      run_sequential as _run_sequential)
from .minic import compile_source as _compile_source
from .runner import BatchReport, Job, JobOutcome, ResultCache, run_batch
from .sim import (Processor, SimConfig, SimResult,
                  simulate as _simulate)

#: facade major version: bump on any breaking signature change here.
#: v2 = time travel (snapshot/resume) + kernel= replacing event_driven=;
#: v3 = event_driven= and kernel="vector" removed; v4 = time travel
#: removed.
API_SCHEMA_VERSION = 4

__all__ = [
    "API_SCHEMA_VERSION", "ForkRun", "SimRun", "assemble", "batch",
    "compile_c", "load_program", "make_jobs", "run_forked",
    "run_sequential", "simulate",
]


@dataclass
class ForkRun:
    """Typed result of :func:`run_forked`."""

    result: RunResult
    machine: ForkedMachine

    @property
    def sections(self) -> int:
        return len(self.machine.section_table())


@dataclass
class SimRun:
    """Typed result of :func:`simulate`."""

    result: SimResult
    processor: Processor


def compile_c(source: str, fork: bool = False,
              fork_loops: bool = False) -> Program:
    """Compile MiniC *source*; ``fork`` emits fork/endfork sections."""
    return _compile_source(source, fork_mode=fork, fork_loops=fork_loops)


def assemble(source: str, entry: Optional[str] = None) -> Program:
    """Assemble toy-x86 *source* (honours an ``.entry`` directive)."""
    return _assemble(source, entry=entry)


def load_program(path: str, fork: bool = True,
                 fork_loops: bool = False) -> Program:
    """Load a program by file suffix: ``.c`` compiles as MiniC (fork mode
    by default — the CLI's convention), anything else assembles."""
    with open(path) as handle:
        source = handle.read()
    if path.endswith(".c"):
        return compile_c(source, fork=fork, fork_loops=fork_loops)
    return assemble(source)


def run_sequential(program: Program, record_trace: bool = False,
                   max_steps: Optional[int] = None) -> RunResult:
    """Run on the sequential reference machine."""
    return _run_sequential(program, record_trace=record_trace,
                           max_steps=max_steps)


def run_forked(program: Program, record_trace: bool = False,
               max_steps: Optional[int] = None,
               sanitize: bool = False) -> ForkRun:
    """Run under section semantics; the machine rides along for section
    inspection (``sanitize`` enables the runtime renaming checks)."""
    result, machine = _run_forked(program, record_trace=record_trace,
                                  max_steps=max_steps, sanitize=sanitize)
    return ForkRun(result=result, machine=machine)


def simulate(program: Program, config: Optional[SimConfig] = None,
             initial_regs: Optional[Dict[str, int]] = None) -> SimRun:
    """Cycle-simulate on the distributed many-core."""
    result, processor = _simulate(program, config=config,
                                  initial_regs=initial_regs)
    return SimRun(result=result, processor=processor)


def make_jobs(programs: Sequence[Union[Program, Job]],
              config: Optional[SimConfig] = None,
              include_memory: bool = False) -> list:
    """Lift programs (or pass-through Jobs) into batch jobs sharing one
    config — the common shape of a sweep over programs."""
    jobs = []
    for index, entry in enumerate(programs):
        if isinstance(entry, Job):
            jobs.append(entry)
        else:
            jobs.append(Job.from_program(entry, config=config,
                                         job_id="job-%d" % index,
                                         include_memory=include_memory))
    return jobs


def batch(jobs: Sequence[Job], pool_size: Optional[int] = None,
          cache_dir: Optional[str] = None, use_cache: bool = True,
          on_outcome: Optional[Callable[[JobOutcome], None]] = None,
          ) -> BatchReport:
    """Run *jobs* through the batch engine (:func:`repro.runner.run_batch`).

    ``pool_size`` None/0/1 executes serially; ``cache_dir`` attaches a
    content-addressed result cache unless ``use_cache`` is False.  Every
    job failure is isolated into its outcome — check ``report.ok``.
    """
    cache = (ResultCache(cache_dir)
             if use_cache and cache_dir is not None else None)
    return run_batch(jobs, pool_size=pool_size, cache=cache,
                     on_outcome=on_outcome)


# re-exported so facade users need no subpackage imports for the common path
transform = fork_transform
