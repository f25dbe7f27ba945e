"""Structured event records emitted by the simulator.

An event is the plain tuple ``(cycle, kind, fields)`` — hashable-free and
directly comparable, which is what the differential harness relies on: the
naive and event-driven schedulers must produce *equal* streams.  ``fields``
is a small dict whose keys depend on ``kind``:

===================  ========================================================
kind                 fields
===================  ========================================================
``section_fork``     ``parent``, ``child``, ``core``, ``first_fetch``
``section_start``    ``sid``, ``core`` — the section's first fetched cycle
``section_complete`` ``sid``, ``core`` — last instruction retired
``request_issue``    ``rid``, ``kind`` ("reg"/"mem"), ``sid``, ``core``,
                     ``what`` (register name or word address)
``request_hop``      ``rid``, ``src``, ``dst`` (cores), ``sid`` (section the
                     request travels to), ``wait`` (cycles the request is in
                     flight; 0 = same-core route, no delay)
``request_hit``      ``rid``, ``sid`` (producer section), ``core``
``request_dmh``      ``rid``, ``core`` (requester), ``arrive`` (reply cycle)
``request_reply``    ``rid``, ``src``, ``dst`` (cores), ``arrive``
``request_fill``     ``rid``, ``sid`` (requester), ``value``
``noc_send``         ``src``, ``dst``, ``latency`` — any cross-core message
``noc_deliver``      ``src``, ``dst`` — stamped at the arrival cycle
``retire``           ``sid``, ``index`` — one per retired instruction
``core_park``        ``core``, ``state`` ("blocked"/"parked"); synthesized
``core_wake``        ``core``; synthesized from the core-state timeline
``fault_injected``   ``fault`` ("drop"/"spike"/"jitter"/"ack_loss") plus
                     fault-specific fields (``rid``/``src``/``dst``/
                     ``attempt``/``extra``/``core``) — repro.faults
``msg_retry``        ``rid``, ``sid``, ``src``, ``dst``, ``attempt``,
                     ``wait`` — re-send after a drop timeout, stamped at
                     the re-send cycle (``wait`` cycles after the drop)
``section_redispatch`` ``sid``, ``src``, ``dst`` (cores), ``first_fetch``
                     — fail-stop recovery restarted the section
``core_dead``        ``core`` — fail-stop at this cycle
===================  ========================================================

``core_park`` / ``core_wake`` are *derived* from each core's run-length
state timeline (``Core.timeline``) rather than from the event-driven
scheduler's park machinery — the naive scheduler never parks, so deriving
them from the (mode-identical) timeline is what keeps the two streams
equal.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, Iterable, List, Sequence, Set,
                    Tuple)

#: every event kind the simulator can emit, in rough pipeline order
EVENT_KINDS = (
    "section_fork", "section_start", "section_complete",
    "request_issue", "request_hop", "request_hit", "request_dmh",
    "request_reply", "request_fill",
    "noc_send", "noc_deliver", "retire",
    "core_park", "core_wake",
    "fault_injected", "msg_retry", "section_redispatch", "core_dead",
)

Event = Tuple[int, str, Dict[str, Any]]


class EventTrace:
    """Append-only event collector owned by a :class:`~repro.sim.Processor`
    — the kernel's one observation channel besides its always-on
    counters.

    The processor creates one when ``SimConfig.events`` is on (the
    stream becomes ``SimResult.events``) or ``SimConfig.metrics_window``
    is set (the windowed metrics fold it); otherwise it holds ``tracer =
    None``, so the per-emission cost in the default configuration is a
    single attribute load and ``is None`` test at each instrumentation
    point.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, cycle: int, kind: str, /, **fields: Any) -> None:
        # positional-only so a field may itself be named "kind"
        # (request_issue carries kind="reg"/"mem")
        self.events.append((cycle, kind, fields))


def synthesize_core_events(runs_per_core: Sequence[Sequence[Sequence[int]]],
                           state_names: Sequence[str],
                           stalled_states: Iterable[int]) -> List[Event]:
    """Derive ``core_park`` / ``core_wake`` events from each core's
    timeline of ``(state, cycles)`` runs, the first starting at cycle 1.

    A park event opens every maximal stretch of cycles whose state is in
    *stalled_states* (carrying the stretch's first state name), and a
    wake event closes it — but only if the core actually resumed before
    the end of the run.  Pure function of the timeline, hence
    scheduler-agnostic.
    """
    events: List[Event] = []
    stalled_set = frozenset(stalled_states)
    for core_id, runs in enumerate(runs_per_core):
        cycle = 1
        in_stall = False
        for state, n in runs:
            stalled = state in stalled_set
            if stalled and not in_stall:
                events.append((cycle, "core_park",
                               {"core": core_id,
                                "state": state_names[state]}))
            elif not stalled and in_stall:
                events.append((cycle, "core_wake", {"core": core_id}))
            in_stall = stalled
            cycle += n
    return events


def events_to_json(events: Iterable[Event]) -> List[Dict[str, Any]]:
    """Flatten ``(cycle, kind, fields)`` tuples for JSON export."""
    out: List[Dict[str, Any]] = []
    for cycle, kind, fields in events:
        record: Dict[str, Any] = {"cycle": cycle, "kind": kind}
        record.update(fields)
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# shared reconstructions — both exporters and the stall attributor rebuild
# section / request timelines from the stream instead of poking sim state
# ---------------------------------------------------------------------------

def collect_sections(events: Iterable[Event]
                     ) -> Dict[int, Dict[str, Any]]:
    """Section timeline keyed by sid: ``core``, ``created``,
    ``first_fetch``, ``start`` (first fetched cycle or None), ``complete``
    (completion cycle or None) and ``parent`` (None for the root).

    The root section (sid 1, core 0) exists before any event fires, so it
    is seeded here rather than discovered.
    """
    sections: Dict[int, Dict[str, Any]] = {
        1: {"sid": 1, "core": 0, "created": 0, "first_fetch": 1,
            "start": None, "complete": None, "parent": None},
    }
    for cycle, kind, f in events:
        if kind == "section_fork":
            sections[f["child"]] = {
                "sid": f["child"], "core": f["core"], "created": cycle,
                "first_fetch": f["first_fetch"], "start": None,
                "complete": None, "parent": f["parent"],
            }
        elif kind == "section_start":
            entry = sections.get(f["sid"])
            # unknown sid: the stream was truncated before this section's
            # fork event — skip rather than KeyError
            if entry is not None and entry["start"] is None:
                entry["start"] = cycle
        elif kind == "section_complete":
            entry = sections.get(f["sid"])
            if entry is not None:
                entry["complete"] = cycle
    return sections


def collect_requests(events: Iterable[Event]
                     ) -> Dict[int, Dict[str, Any]]:
    """Renaming-request timelines keyed by rid.

    Each entry carries ``sid``/``kind``/``what``/``issue``/``fill`` plus:

    * ``transit`` — list of half-open-left windows ``(s, e]`` during which
      the request is travelling (section hops, the reply flight, and the
      architectural port hop of register reads);
    * ``path`` — ``(cycle, core, sid)`` per section hop, for flow arrows;
    * ``producer`` — sid of the answering section (None = architectural);
    * ``dmh`` — answered by the data memory hierarchy;
    * ``hops`` — section-to-section hops walked.
    """
    requests: Dict[int, Dict[str, Any]] = {}
    for cycle, kind, f in events:
        if kind == "request_issue":
            requests[f["rid"]] = {
                "rid": f["rid"], "sid": f["sid"], "kind": f["kind"],
                "what": f["what"], "issue": cycle, "fill": None,
                "transit": [], "path": [], "producer": None,
                "dmh": False, "hops": 0,
            }
        elif kind == "request_hop":
            req = requests.get(f["rid"])
            # unknown rid: the stream was truncated before this request's
            # issue event — skip rather than KeyError (same below)
            if req is None:
                continue
            req["hops"] += 1
            req["path"].append((cycle, f["dst"], f["sid"]))
            if f["wait"]:
                req["transit"].append((cycle, cycle + f["wait"]))
        elif kind == "request_hit":
            req = requests.get(f["rid"])
            if req is not None:
                req["producer"] = f["sid"]
        elif kind == "request_reply":
            req = requests.get(f["rid"])
            if req is not None:
                req["transit"].append((cycle, f["arrive"]))
        elif kind == "request_dmh":
            req = requests.get(f["rid"])
            if req is None:
                continue
            req["dmh"] = True
            if req["kind"] == "reg":
                # register reads off the oldest end pay only the port hop;
                # memory reads pay the DMH access, attributed wait_memory
                req["transit"].append((cycle, f["arrive"]))
        elif kind == "request_fill":
            req = requests.get(f["rid"])
            if req is not None:
                req["fill"] = cycle
    return requests


def collect_fault_windows(events: Iterable[Event]
                          ) -> Dict[int, List[Tuple[int, int]]]:
    """Per-section fault-recovery windows ``(s, e]``, keyed by sid.

    A ``section_redispatch`` opens the dead time between the fail-stop and
    the replay's first fetch; a ``msg_retry`` covers the backoff wait that
    ended at its (re-send) cycle.  The stall attributor charges blocked
    cycles inside these windows to ``fault_recovery`` ahead of every other
    cause — the section was not waiting on a dependency, it was waiting on
    the recovery machinery.
    """
    windows: Dict[int, List[Tuple[int, int]]] = {}
    for cycle, kind, f in events:
        if kind == "section_redispatch":
            windows.setdefault(f["sid"], []).append(
                (cycle, f["first_fetch"]))
        elif kind == "msg_retry":
            windows.setdefault(f["sid"], []).append(
                (cycle - f["wait"], cycle))
    return windows


def collect_reg_requests(events: Iterable[Event]
                         ) -> Dict[int, FrozenSet[str]]:
    """Per-section cross-section *register* requests: sid -> the register
    names the section requested through the renaming network
    (``request_issue`` events of kind ``"reg"``).

    This is the dynamic ground truth the static live-across-fork sets are
    validated against (:mod:`repro.analysis.validate`): every register
    here must be statically live at the section's start.
    """
    out: Dict[int, Set[str]] = {}
    for _cycle, kind, f in events:
        if kind == "request_issue" and f["kind"] == "reg":
            out.setdefault(f["sid"], set()).add(f["what"])
    return {sid: frozenset(regs) for sid, regs in out.items()}


def request_what_str(req: Dict[str, Any]) -> str:
    """Human-readable name of what a request fetches."""
    return (str(req["what"]) if req["kind"] == "reg"
            else "0x%x" % req["what"])
