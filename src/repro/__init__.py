"""repro — reproduction of *Toward a Core Design to Distribute an Execution
on a Many-Core Processor* (Goossens, Parello, Porada, Rahmoune; PaCT 2015).

Subsystem map (see DESIGN.md for the full inventory):

* :mod:`repro.isa`       — toy x86-64 subset + ``fork``/``endfork``, assembler
* :mod:`repro.machine`   — sequential and forked (section) functional machines
* :mod:`repro.minic`     — the MiniC compiler (the paper's "unchanged C programs")
* :mod:`repro.fork`      — the call→fork program transformation (Fig. 2 → Fig. 5)
* :mod:`repro.ilp`       — trace ILP limit study (Fig. 7 models + Wall models)
* :mod:`repro.sim`       — cycle-level distributed many-core simulator (Fig. 8-10)
* :mod:`repro.workloads` — the ten Table 1 PBBS benchmarks in MiniC
* :mod:`repro.analytic`  — Section 5 closed-form model of the sum reduction
* :mod:`repro.paper`     — the paper's Figure 2 / Figure 5 listings, runnable
* :mod:`repro.runner`    — parallel batch engine + content-addressed cache
* :mod:`repro.api`       — the **stable facade**; subpackage internals are
  not a stability contract, this module is

Thirty-second tour::

    from repro import (assemble, run_sequential, run_forked, simulate,
                       SimConfig, analyze, SEQUENTIAL_MODEL, PARALLEL_MODEL)
    from repro.paper import sum_forked_program, paper_array

    prog = sum_forked_program(paper_array(5))
    result, machine = run_forked(prog)          # functional section semantics
    sim, proc = simulate(prog, SimConfig(n_cores=5))
    print(proc.timing_table())                  # the paper's Figure 10
"""

from .errors import (
    AssemblerError,
    CompileError,
    ExecutionError,
    ReproError,
    SimulationError,
)
from .ilp import (
    DependencyModel,
    ILPResult,
    PARALLEL_MODEL,
    SEQUENTIAL_MODEL,
    analyze,
    wall_good_model,
    wall_perfect_model,
)
from .isa import Instruction, Program, assemble
from .machine import (
    ForkedMachine,
    RunResult,
    SequentialMachine,
    Trace,
    TraceEntry,
    run_forked,
    run_sequential,
)
from .minic import compile_source, compile_to_asm
from .fork import fork_transform, render_section_trace, render_section_tree
from .sim import Processor, SimConfig, SimResult, simulate
from .runner import BatchReport, Job, ResultCache, run_batch
from . import api

#: fallback when the distribution is not installed (e.g. a bare
#: ``PYTHONPATH=src`` checkout); keep in sync with pyproject.toml
_FALLBACK_VERSION = "1.0.0"


def _detect_version() -> str:
    """Single-source the version from the installed package metadata
    (pyproject.toml), falling back to the pinned constant on a plain
    source checkout.  ``repro --version`` reports this value."""
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:                               # pragma: no cover
        return _FALLBACK_VERSION
    try:
        return version("repro")
    except PackageNotFoundError:
        return _FALLBACK_VERSION


__version__ = _detect_version()

__all__ = [
    "AssemblerError", "BatchReport", "CompileError", "DependencyModel",
    "ExecutionError", "ForkedMachine", "ILPResult", "Instruction", "Job",
    "PARALLEL_MODEL", "Processor", "Program", "ReproError", "ResultCache",
    "RunResult", "SEQUENTIAL_MODEL", "SequentialMachine", "SimConfig",
    "SimResult", "SimulationError", "Trace", "TraceEntry", "analyze",
    "api", "assemble", "compile_source", "compile_to_asm",
    "fork_transform", "render_section_trace", "render_section_tree",
    "run_batch", "run_forked", "run_sequential", "simulate",
    "wall_good_model", "wall_perfect_model",
]
