"""Stall-cause attribution: *why* was a core (or section) not fetching?

The occupancy layer of PR 1 says a core was ``blocked`` without saying on
what.  This module splits every blocked/parked core cycle — and every
non-fetching cycle of every section's lifetime — into one of these causes:

=================  ==========================================================
cause              meaning
=================  ==========================================================
``wait_register``  a register renaming request is parked at a producer
                   section (not yet fetch-final / value not yet produced),
                   or the core waits on a local register dependency chain
``wait_memory``    same for memory: a MAAT import awaiting a producer or
                   the DMH, or an in-flight load in the local pipeline
``noc_transit``    the blocking request is travelling — a section-to-section
                   hop, the reply flight home, or the architectural port
                   hop (same-core walks cost one cycle per section and
                   count here too: the walk *is* the transport)
``fork_latency``   a forked section exists but sits in its
                   ``section_create_latency`` window before first fetch
``no_free_core``   a section was runnable but its host core's fetch stage
                   was serving another section — on a larger machine this
                   section would have been placed on a free core
``fault_recovery`` injected-fault recovery (repro.faults): the re-dispatch
                   window after a fail-stop, or a dropped message's backoff
                   wait — zero in every fault-free run
``idle``           the core hosts no live section at all
=================  ==========================================================

Attribution is computed *post-hoc* from the structured event stream plus
each core's (mode-identical) run-length state timeline, so the naive and
event-driven schedulers can't disagree; a cycle with several candidate
causes resolves by the fixed priority ``wait_memory`` > ``wait_register``
> ``noc_transit`` > not-started (fork/no-free-core) > local pipeline.

:func:`live_request_cause` classifies an *in-flight* request from its
current state with the same taxonomy; it backs the deadlock diagnostic
(:func:`stall_diagnostic`), which is what ``Processor._stall_diagnostic``
now delegates to — one classifier, two consumers.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import collect_fault_windows, collect_requests

#: the taxonomy, in report order
STALL_CAUSES = ("wait_register", "wait_memory", "noc_transit",
                "fork_latency", "no_free_core", "fault_recovery", "idle")


class _IntervalSet:
    """Merged sorted set of half-open-left cycle windows ``(s, e]``."""

    __slots__ = ("starts", "ends")

    def __init__(self, intervals: Iterable[Tuple[int, int]]) -> None:
        merged: List[Tuple[int, int]] = []
        for s, e in sorted(i for i in intervals if i[1] > i[0]):
            if merged and s <= merged[-1][1]:
                last = merged[-1]
                merged[-1] = (last[0], max(last[1], e))
            else:
                merged.append((s, e))
        self.starts = [s for s, _ in merged]
        self.ends = [e for _, e in merged]

    def covers(self, cycle: int) -> bool:
        index = bisect_right(self.starts, cycle - 1) - 1
        return index >= 0 and cycle <= self.ends[index]


def _subtract(window: Tuple[int, int],
              cuts: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``(s, e]`` minus a list of ``(s, e]`` cuts."""
    start, end = window
    out: List[Tuple[int, int]] = []
    for cut_start, cut_end in sorted(cuts):
        if cut_end <= start:
            continue
        if cut_start >= end:
            break
        if cut_start > start:
            out.append((start, cut_start))
        start = max(start, cut_end)
        if start >= end:
            return out
    if start < end:
        out.append((start, end))
    return out


class _SectionView:
    """Per-section timing material the attributor classifies against."""

    __slots__ = ("sid", "core", "created", "completed", "first_fetch",
                 "start", "fetch_set", "transit", "wait_reg", "wait_mem",
                 "load_wait", "fault")

    def __init__(self, sec: Any, horizon: int,
                 requests: List[Dict[str, Any]],
                 fault_windows: Optional[List[Tuple[int, int]]] = None
                 ) -> None:
        self.sid = sec.sid
        self.core = sec.core_id
        self.created = sec.created_cycle
        self.completed = (sec.completed_cycle
                          if sec.completed_cycle is not None else horizon)
        self.first_fetch = sec.first_fetch_cycle
        instrs = sec.instructions
        self.start = instrs[0].fd if instrs else None
        self.fetch_set = frozenset(d.fd for d in instrs)
        transit: List[Tuple[int, int]] = []
        wait_reg: List[Tuple[int, int]] = []
        wait_mem: List[Tuple[int, int]] = []
        for req in requests:
            fill = req["fill"] if req["fill"] is not None else horizon
            active = (req["issue"], fill)
            transit.extend(req["transit"])
            waits = _subtract(active, req["transit"])
            (wait_reg if req["kind"] == "reg" else wait_mem).extend(waits)
        self.transit = _IntervalSet(transit)
        self.wait_reg = _IntervalSet(wait_reg)
        self.wait_mem = _IntervalSet(wait_mem)
        self.fault = _IntervalSet(fault_windows or [])
        # loads sitting in the LSQ between address rename and memory access
        self.load_wait = _IntervalSet(
            (d.ar, d.ma if d.ma is not None else horizon)
            for d in instrs
            if d.is_load and d.ar is not None)

    def live_at(self, cycle: int) -> bool:
        return self.created < cycle <= self.completed


def _classify(views: List[_SectionView], cycle: int) -> str:
    """Cause of one blocked cycle given the live sections to blame."""
    if not views:
        return "idle"
    # recovery windows outrank everything: during them the section is not
    # waiting on a dependency but on the fault machinery itself
    for view in views:
        if view.fault.covers(cycle):
            return "fault_recovery"
    for view in views:
        if view.wait_mem.covers(cycle):
            return "wait_memory"
    for view in views:
        if view.wait_reg.covers(cycle):
            return "wait_register"
    for view in views:
        if view.transit.covers(cycle):
            return "noc_transit"
    not_started = [v for v in views
                   if v.start is None or cycle < v.start]
    if not_started:
        if any(cycle < v.first_fetch for v in not_started):
            return "fork_latency"
        return "no_free_core"
    for view in views:
        if view.load_wait.covers(cycle):
            return "wait_memory"
    return "wait_register"


def attribute_stalls(proc: Any) -> Dict[str, Any]:
    """Attribute every blocked/parked cycle of a finished (or deadlocked)
    run, read off each core's state timeline (``Core.timeline``, always
    recorded).  Requires the run to have collected events
    (``SimConfig.events``).

    Returns ``{"causes", "totals", "per_core", "per_section"}`` where
    ``per_core[i]`` sums to core *i*'s blocked + parked occupancy and
    ``per_section[sid]`` sums to that section's ``blocked_cycles``.
    """
    from ..sim.stats import BLOCKED, PARKED       # at call time: no cycle
    requests = collect_requests(proc.tracer.events)
    by_sid: Dict[int, List[Dict[str, Any]]] = {}
    for req in requests.values():
        by_sid.setdefault(req["sid"], []).append(req)
    fault_windows = collect_fault_windows(proc.tracer.events)
    horizon = proc.cycle
    views = [_SectionView(sec, horizon, by_sid.get(sec.sid, []),
                          fault_windows.get(sec.sid))
             for sec in proc.sections]
    views_by_core: Dict[int, List[_SectionView]] = {}
    for view in views:
        views_by_core.setdefault(view.core, []).append(view)

    per_core: List[Dict[str, int]] = []
    totals = {cause: 0 for cause in STALL_CAUSES}
    for core in proc.cores:
        counts = {cause: 0 for cause in STALL_CAUSES}
        hosted = sorted(views_by_core.get(core.id, []),
                        key=lambda v: v.sid)
        end = 0                 # last cycle of the previous run
        for state, n in core.timeline:
            start, end = end + 1, end + n
            if state != BLOCKED and state != PARKED:
                continue
            for cycle in range(start, end + 1):
                live = [v for v in hosted if v.live_at(cycle)]
                counts[_classify(live, cycle)] += 1
        per_core.append(counts)
        for cause, n in counts.items():
            totals[cause] += n

    per_section: Dict[int, Dict[str, int]] = {}
    for view in views:
        counts = {cause: 0 for cause in STALL_CAUSES}
        for cycle in range(view.created + 1, view.completed + 1):
            if cycle in view.fetch_set:
                continue
            counts[_classify([view], cycle)] += 1
        per_section[view.sid] = counts

    return {"causes": list(STALL_CAUSES), "totals": totals,
            "per_core": per_core, "per_section": per_section}


def summarize_causes(counts: Dict[str, int]) -> str:
    """One-line rendering of a cause histogram, stable order."""
    return "  ".join("%s=%d" % (cause, counts.get(cause, 0))
                     for cause in STALL_CAUSES)


# ---------------------------------------------------------------------------
# live classification — the deadlock diagnostic's view of the same taxonomy
# ---------------------------------------------------------------------------

def live_request_cause(req: Any, now: int) -> str:
    """Classify an in-flight request *right now* with the same cause names
    the attributor assigns historically."""
    if req.reply_cycle is not None:
        return "noc_transit"
    if req.hit_cell is not None:
        return "wait_register" if req.kind == "reg" else "wait_memory"
    if req.wake_cycle > now:
        return "noc_transit"
    return "wait_register" if req.kind == "reg" else "wait_memory"


def stall_diagnostic(proc: Any) -> str:
    """Describe why a run is stuck (cycle budget exhausted): the stuck
    sections plus every pending request tagged with its live stall cause.
    Shares :func:`live_request_cause` with the attributor so the deadlock
    message and the per-cycle attribution can't drift apart."""
    stuck = [sec for sec in proc.sections if not sec.complete]
    parts: List[str] = []
    for sec in stuck[:8]:
        head = sec.rob[0] if sec.rob else None
        parts.append("s%d(ip=%s, fetched=%d, renamed=%d, rob=%d, head=%s)"
                     % (sec.sid, sec.ip, len(sec.instructions),
                        sec.renamed_count, len(sec.rob),
                        head.tag if head else "-"))
    pending = ["%s [%s]" % (req.describe(),
                            live_request_cause(req, proc.cycle))
               for req in proc.requests if not req.done]
    message = "stuck sections: %s; pending requests: %s" % (
        "; ".join(parts), "; ".join(pending[:8]))
    dead = [c.id for c in proc.cores if getattr(c, "dead", False)]
    if dead:
        message += "; dead cores: %s" % dead
    return message
