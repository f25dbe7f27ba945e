"""Stall-cause attribution: *why* was a core (or section) not fetching?

A core's state timeline says it was ``blocked`` or ``parked`` without
saying on what.  This module splits every blocked/parked core cycle — and
every non-fetching cycle of every section's lifetime — into one of these
causes:

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
event-driven schedulers can't disagree.  Each section yields ranked
windows ``(s, e, rank)``, each covering the cycles ``s < c <= e`` of the
section's life; a cycle's cause is the most urgent rank among the windows
of the sections live on it (:func:`_count`).  The ranks, most urgent
first: ``fault_recovery`` > ``wait_memory`` > ``wait_register`` >
``noc_transit`` > ``fork_latency`` > ``no_free_core`` > a load between
address rename and memory access (``wait_memory``) > any other live
cycle (``wait_register``).

:func:`live_request_cause` names the cause of an *in-flight* request from
its current state, with the same cause names; it backs the deadlock
diagnostic (:func:`stall_diagnostic`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .events import collect_fault_windows, collect_requests

#: the taxonomy, in report order
STALL_CAUSES = ("wait_register", "wait_memory", "noc_transit",
                "fork_latency", "no_free_core", "fault_recovery", "idle")

#: the cause of each window rank, most urgent first
_RANK_CAUSE = ("fault_recovery", "wait_memory", "wait_register",
               "noc_transit", "fork_latency", "no_free_core",
               "wait_memory", "wait_register")
(_FAULT, _WAIT_MEMORY, _WAIT_REGISTER, _TRANSIT, _FORK, _NO_FREE_CORE,
 _LOAD, _LIVE) = range(len(_RANK_CAUSE))
#: the sweep's layer for the spans being counted, after every rank
_SPAN = len(_RANK_CAUSE)

#: ``(s, e, rank)``: *rank* holds on the cycles ``s < c <= e``
Window = Tuple[int, int, int]
Span = Tuple[int, int]


def _subtract(window: Span, cuts: Iterable[Span]) -> List[Span]:
    """``(s, e]`` minus a list of ``(s, e]`` cuts."""
    start, end = window
    out: List[Span] = []
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


def _cut(windows: Iterable[Window], life: Span) -> List[Window]:
    """*windows* clipped to ``life = (s, e]``, empty ones dropped."""
    low, high = life
    out: List[Window] = []
    for start, end, rank in windows:
        start, end = max(start, low), min(end, high)
        if start < end:
            out.append((start, end, rank))
    return out


def _section_windows(sec: Any, life: Span, horizon: int,
                     requests: Iterable[Dict[str, Any]],
                     faults: Iterable[Span]) -> List[Window]:
    """One section's ranked windows, cut to its *life*.  An open request
    or load holds until *horizon*."""
    instrs = sec.instructions
    # the cycles before its first fetch, all of them if it never fetched
    unstarted = instrs[0].fd - 1 if instrs else horizon
    first_fetch = sec.first_fetch_cycle
    windows = [(start, end, _FAULT) for start, end in faults]
    for req in requests:
        fill = req["fill"] if req["fill"] is not None else horizon
        rank = _WAIT_REGISTER if req["kind"] == "reg" else _WAIT_MEMORY
        windows += [(start, end, rank) for start, end
                    in _subtract((req["issue"], fill), req["transit"])]
        windows += [(start, end, _TRANSIT) for start, end in req["transit"]]
    windows.append((life[0], min(first_fetch - 1, unstarted), _FORK))
    windows.append((first_fetch - 1, unstarted, _NO_FREE_CORE))
    windows += [(d.ar, d.ma if d.ma is not None else horizon, _LOAD)
                for d in instrs if d.is_load and d.ar is not None]
    windows.append((life[0], life[1], _LIVE))
    return _cut(windows, life)


def _count(windows: Sequence[Window],
           spans: Sequence[Span]) -> Dict[str, int]:
    """Cause histogram of the cycles of *spans* (disjoint ``(s, e]``):
    each cycle takes the most urgent rank among the *windows* covering
    it, ``idle`` where none does.

    One sweep over the change points of both: between two consecutive
    points every window and span is wholly on or wholly off."""
    points = [(start, rank, 1) for start, _, rank in windows]
    points += [(end, rank, -1) for _, end, rank in windows]
    points += [(start, _SPAN, 1) for start, _ in spans]
    points += [(end, _SPAN, -1) for _, end in spans]
    points.sort()
    active = [0] * (_SPAN + 1)
    counts = dict.fromkeys(STALL_CAUSES, 0)
    last = 0
    for cycle, layer, delta in points:
        if active[_SPAN] and cycle > last:
            cause = "idle"
            for rank in range(_SPAN):
                if active[rank]:
                    cause = _RANK_CAUSE[rank]
                    break
            counts[cause] += cycle - last
        active[layer] += delta
        last = cycle
    return counts


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
    events = proc.tracer.events
    by_sid: Dict[int, List[Dict[str, Any]]] = {}
    for req in collect_requests(events).values():
        by_sid.setdefault(req["sid"], []).append(req)
    fault_windows = collect_fault_windows(events)
    moves: Dict[int, List[Tuple[int, int]]] = {}
    for cycle, kind, fields in events:
        if kind == "section_redispatch":
            moves.setdefault(fields["sid"], []).append((cycle, fields["src"]))
    horizon = proc.cycle

    by_core: Dict[int, List[Window]] = {}
    per_section: Dict[int, Dict[str, int]] = {}
    for sec in proc.sections:
        life = (sec.created_cycle, sec.completed_cycle
                if sec.completed_cycle is not None else horizon)
        windows = _section_windows(sec, life, horizon,
                                   by_sid.get(sec.sid, ()),
                                   fault_windows.get(sec.sid, ()))
        # each host is charged while the section lives on it: a core that
        # fail-stops at cycle X was last alive at X - 1, and the section's
        # new host holds it from X on
        since = life[0]
        for cycle, src in moves.get(sec.sid, ()):
            by_core.setdefault(src, []).extend(
                _cut(windows, (since, cycle - 1)))
            since = cycle - 1
        by_core.setdefault(sec.core_id, []).extend(
            _cut(windows, (since, life[1])))
        fetches = [(fd - 1, fd) for fd in {d.fd for d in sec.instructions}]
        per_section[sec.sid] = _count(windows, _subtract(life, fetches))

    per_core: List[Dict[str, int]] = []
    totals = dict.fromkeys(STALL_CAUSES, 0)
    for core in proc.cores:
        stalled: List[Span] = []
        end = 0                 # last cycle of the previous run
        for state, n in core.timeline:
            if state == BLOCKED or state == PARKED:
                stalled.append((end, end + n))
            end += n
        counts = _count(by_core.get(core.id, []), stalled)
        per_core.append(counts)
        for cause, n in counts.items():
            totals[cause] += n

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
    sections plus every pending request tagged with its live stall cause
    (:func:`live_request_cause`, which uses the attributor's cause names)."""
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
