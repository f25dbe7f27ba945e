"""Simulation results and cycle-level observability.

Beyond the headline numbers (cycles, IPC, renaming traffic), every run
records one core-state timeline per core (``Core.timeline``: runs of
``[state, cycles]`` over the four states ``fetching`` / ``computing`` /
``blocked`` / ``parked``), identical in both scheduler modes.  Two views
of it are built here:

* **occupancy histograms** — for every core, how many cycles it spent in
  each state (:func:`occupancy_counts`), and for every section, how many
  cycles it fetched versus sat blocked between creation and completion.
  Always exported;
* **the trace** — the timeline spelled out as one state code per core
  per cycle (:attr:`repro.sim.SimConfig.trace`, opt-in).

Events, stall causes and windowed metrics are the opt-in layers of
:mod:`repro.obs` (:attr:`repro.sim.SimConfig.events` and
:attr:`repro.sim.SimConfig.metrics_window`).

``python -m repro stats FILE --json`` exports everything machine-readably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..machine.executor import to_signed

#: core states, in the order used by the compact trace encoding
CORE_STATES = ("fetching", "computing", "blocked", "parked")
#: one-character codes for the per-cycle trace strings
STATE_CODES = "FCBP"
#: indices into CORE_STATES (the hot-loop representation)
FETCHING, COMPUTING, BLOCKED, PARKED = range(4)


def _rank(n: int, pct: int) -> int:
    """Nearest-rank index of percentile *pct* in a sorted list of *n*.

    ``ceil(n * pct / 100) - 1``, computed in integers (a float ``ceil``
    suffers representation error, e.g. ``0.99 * 100 != 99``), clamped to
    the valid range — so p90 of 10 samples is the 9th value, never an
    out-of-order overshoot to the max.
    """
    return max(0, min(n - 1, (n * pct + 99) // 100 - 1))


def request_latency_stats(latencies: List[int]) -> Dict[str, float]:
    """min/mean/p50/p90/p99/max summary of a list of request latencies.

    Percentiles use the nearest-rank convention (the smallest value with at
    least ``pct`` percent of the samples at or below it), so ``p50`` of a
    single element is that element and all-equal inputs report that value
    everywhere.  An empty input yields an all-zero summary with
    ``count == 0``.
    """
    lat = sorted(latencies)
    if not lat:
        return {"count": 0, "min": 0, "mean": 0.0, "p50": 0, "p90": 0,
                "p99": 0, "max": 0}
    n = len(lat)
    return {
        "count": n,
        "min": lat[0],
        "mean": sum(lat) / n,
        "p50": lat[_rank(n, 50)],
        "p90": lat[_rank(n, 90)],
        "p99": lat[_rank(n, 99)],
        "max": lat[-1],
    }


def occupancy_counts(runs: Iterable[Sequence[int]]) -> Dict[str, int]:
    """Cycles per state of a core's timeline of ``(state, cycles)`` runs,
    as a named histogram."""
    counts = [0] * len(CORE_STATES)
    for state, n in runs:
        counts[state] += n
    return dict(zip(CORE_STATES, counts))


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    cycles: int                       #: total cycles to completion
    instructions: int                 #: dynamic instructions
    sections: int                     #: sections created
    outputs: List[int]                #: out-instruction values, total order
    final_regs: Dict[str, int]
    final_memory: Dict[int, int]
    fetch_end: int                    #: cycle of the last fetch
    retire_end: int                   #: cycle of the last retirement
    fetch_computed: int               #: instructions computed at fetch
    requests: int                     #: renaming requests issued
    request_hops: int                 #: section-to-section hops walked
    per_core_instructions: List[int] = field(default_factory=list)
    #: issue-to-fill latency of every resolved renaming request, in cycles
    request_latencies: List[int] = field(default_factory=list, repr=False)
    #: which scheduler produced this result: "event" or "naive"
    scheduler: str = "event"
    #: per-core state histogram: one {state: cycles} dict per core
    core_occupancy: List[Dict[str, int]] = field(default_factory=list,
                                                 repr=False)
    #: per-section occupancy keyed by sid: created / completed cycle,
    #: distinct fetch cycles, and blocked cycles over the lifetime
    section_occupancy: Dict[int, Dict[str, int]] = field(default_factory=dict,
                                                         repr=False)
    #: NoC traffic: {"messages", "hop_cycles", "dmh_reads"}
    noc_stats: Dict[str, int] = field(default_factory=dict, repr=False)
    #: opt-in rendering of the core-state timelines: one string per core,
    #: one state code per cycle ("F" fetching, "C" computing, "B" blocked,
    #: "P" parked), cut short at a fail-stopped core's death
    trace: Optional[List[str]] = field(default=None, repr=False)
    #: structured event stream (:mod:`repro.obs.events` tuples); None
    #: unless the run had :attr:`repro.sim.SimConfig.events` on
    events: Optional[list] = field(default=None, repr=False)
    #: stall-cause attribution (:func:`repro.obs.stalls.attribute_stalls`):
    #: {"causes", "totals", "per_core", "per_section"}; None without events
    stall_causes: Optional[dict] = field(default=None, repr=False)
    #: fault-injection / recovery counters
    #: (:class:`repro.faults.recovery.FaultStats`); None unless the run
    #: carried a :attr:`repro.sim.SimConfig.faults` plan — keeping
    #: fault-free JSON exports byte-identical to pre-faults goldens
    fault_stats: Optional[Dict[str, int]] = field(default=None, repr=False)
    #: windowed cycle-domain metrics
    #: (:func:`repro.obs.metrics.derive_cycle_metrics`); None unless the
    #: run set :attr:`repro.sim.SimConfig.metrics_window` — keeping
    #: metric-free JSON exports byte-identical to older goldens.  Derived
    #: post-hoc from bit-identical artifacts, so both kernels carry
    #: identical dicts.
    metrics: Optional[dict] = field(default=None, repr=False)

    def request_latency_stats(self) -> Dict[str, float]:
        """min/mean/p50/p90/max of renaming-request latencies."""
        return request_latency_stats(self.request_latencies)

    def occupancy_summary(self) -> Dict[str, float]:
        """Fraction of core-cycles spent in each state across all cores."""
        totals = {name: 0 for name in CORE_STATES}
        for histogram in self.core_occupancy:
            for name in CORE_STATES:
                totals[name] += histogram.get(name, 0)
        grand = sum(totals.values())
        if not grand:
            return {name: 0.0 for name in CORE_STATES}
        return {name: totals[name] / grand for name in CORE_STATES}

    @property
    def fetch_ipc(self) -> float:
        return self.instructions / self.fetch_end if self.fetch_end else 0.0

    @property
    def retire_ipc(self) -> float:
        return self.instructions / self.retire_end if self.retire_end else 0.0

    @property
    def return_value(self) -> int:
        return self.final_regs.get("rax", 0)

    @property
    def signed_outputs(self) -> List[int]:
        return [to_signed(v) for v in self.outputs]

    def describe(self) -> str:
        return ("%d instructions / %d sections in %d cycles "
                "(fetch %d cycles = %.2f IPC, retire %d cycles = %.2f IPC)"
                % (self.instructions, self.sections, self.cycles,
                   self.fetch_end, self.fetch_ipc,
                   self.retire_end, self.retire_ipc))

    def to_json_dict(self, include_memory: bool = False,
                     include_trace: bool = False,
                     include_events: bool = False) -> dict:
        """Machine-readable export for benchmark scripts and the
        ``repro stats --json`` CLI.  ``final_memory`` is summarized (size
        only) unless *include_memory*; the per-cycle trace rides along only
        when *include_trace* and the run recorded one; likewise the raw
        event stream under *include_events*.  ``stall_causes`` is always
        exported when the run attributed stalls."""
        payload = {
            "scheduler": self.scheduler,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "sections": self.sections,
            "outputs": self.outputs,
            "fetch_end": self.fetch_end,
            "retire_end": self.retire_end,
            "fetch_ipc": self.fetch_ipc,
            "retire_ipc": self.retire_ipc,
            "fetch_computed": self.fetch_computed,
            "requests": self.requests,
            "request_hops": self.request_hops,
            "per_core_instructions": self.per_core_instructions,
            "request_latency": self.request_latency_stats(),
            "final_regs": self.final_regs,
            "final_memory_words": len(self.final_memory),
            "return_value": self.return_value,
            "core_occupancy": self.core_occupancy,
            "occupancy_summary": self.occupancy_summary(),
            "section_occupancy": {str(sid): entry for sid, entry
                                  in self.section_occupancy.items()},
            "noc": self.noc_stats,
        }
        if self.stall_causes is not None:
            payload["stall_causes"] = {
                "causes": self.stall_causes["causes"],
                "totals": self.stall_causes["totals"],
                "per_core": self.stall_causes["per_core"],
                "per_section": {str(sid): entry for sid, entry
                                in self.stall_causes["per_section"].items()},
            }
        if self.fault_stats is not None:
            payload["fault_stats"] = self.fault_stats
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if include_memory:
            payload["final_memory"] = {str(addr): value for addr, value
                                       in sorted(self.final_memory.items())}
        if include_trace and self.trace is not None:
            payload["trace"] = self.trace
        if include_events and self.events is not None:
            from ..obs.events import events_to_json
            payload["events"] = events_to_json(self.events)
        return payload
