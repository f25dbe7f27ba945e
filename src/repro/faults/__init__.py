"""repro.faults — deterministic fault injection and resilient execution.

Public surface:

* :class:`~repro.faults.models.FaultPlan` (with :class:`LinkSpike` and
  :class:`CoreDeath`) — *what* goes wrong, attached to a run via
  :attr:`repro.sim.SimConfig.faults`;
* :class:`~repro.faults.recovery.FaultEngine` — *how* the simulator
  recovers (retry/backoff, rid dedupe, section re-dispatch);
* :func:`~repro.faults.sweep.chaos_sweep` — the degradation grid behind
  ``repro chaos`` and ``benchmarks/bench_faults_sweep.py``.

The contract (tests/faults/): any faulted run that completes is
bit-identical in outputs and final memory to the fault-free run, under
both schedulers — sequential consistency survives chaos.
"""

from .models import CoreDeath, FaultPlan, LinkSpike
from .recovery import FaultEngine, FaultStats
from .sweep import chaos_spec, chaos_sweep, deaths_for, memory_digest

__all__ = ["CoreDeath", "FaultPlan", "LinkSpike", "FaultEngine",
           "FaultStats", "chaos_spec", "chaos_sweep", "deaths_for",
           "memory_digest"]
