"""Chrome trace-event / Perfetto export of a simulated run.

Open the produced JSON at https://ui.perfetto.dev (or chrome://tracing):

* every **core** renders as a process ("core N"), every **section** as a
  thread track inside its host core, with one slice from its first fetch
  to its completion (plus a short "spawn" slice covering the fork-to-first
  -fetch latency window);
* every **renaming request** renders as a flow arrow chain (``s``/``t``/
  ``f`` events) hopping backward across the section tracks it visits, so
  the characteristic backward walks of the paper are visible as arrows
  cutting across cores, plus an async span on the requester core for its
  issue-to-fill lifetime;
* **DMH reads** are instants on the requester track, and two counter
  tracks show running (non-stalled) cores and retirements per cycle;
* runs with :attr:`repro.sim.SimConfig.metrics_window` set additionally
  get **windowed counter tracks** (retired/window, per-link NoC message
  and drop counts) from the cycle-domain metrics dict.

Timestamps are simulated cycles (1 cycle = 1 "microsecond" in the viewer).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .events import collect_requests, collect_sections, request_what_str


def to_chrome_trace(result: Any,
                    title: str = "repro simulation") -> Dict[str, Any]:
    """Render ``result.events`` (a run with ``SimConfig.events=True``) as a
    Chrome trace-event JSON object (``{"traceEvents": [...], ...}``)."""
    if result.events is None:
        raise ValueError(
            "no event stream on this result: run the simulation with "
            "SimConfig(events=True) (CLI: repro trace / --chrome-trace)")
    events = result.events
    sections = collect_sections(events)
    requests = collect_requests(events)
    out: List[Dict[str, Any]] = []

    n_cores = len(result.per_core_instructions)
    for core in range(n_cores):
        out.append({"ph": "M", "pid": core, "tid": 0, "name": "process_name",
                    "args": {"name": "core %d" % core}})
        out.append({"ph": "M", "pid": core, "tid": 0,
                    "name": "process_sort_index",
                    "args": {"sort_index": core}})

    # -- sections as tracks -------------------------------------------------
    for sid, sec in sorted(sections.items()):
        pid = sec["core"]
        out.append({"ph": "M", "pid": pid, "tid": sid, "name": "thread_name",
                    "args": {"name": "section %d" % sid}})
        out.append({"ph": "M", "pid": pid, "tid": sid,
                    "name": "thread_sort_index", "args": {"sort_index": sid}})
        start = sec["start"] if sec["start"] is not None else sec["created"]
        end = (sec["complete"] if sec["complete"] is not None
               else result.cycles)
        if sec["created"] < start:
            out.append({"ph": "X", "pid": pid, "tid": sid, "cat": "spawn",
                        "ts": sec["created"], "dur": start - sec["created"],
                        "name": "s%d spawn" % sid,
                        "args": {"parent": sec["parent"],
                                 "first_fetch": sec["first_fetch"]}})
        out.append({"ph": "X", "pid": pid, "tid": sid, "cat": "section",
                    "ts": start, "dur": max(end - start, 1),
                    "name": "s%d" % sid,
                    "args": {"sid": sid, "parent": sec["parent"],
                             "created": sec["created"],
                             "completed": sec["complete"]}})

    # -- renaming requests as flow arrows ----------------------------------
    for rid, req in sorted(requests.items()):
        home = sections.get(req["sid"])
        if home is None:
            # truncated stream: the requester's fork event is missing
            continue
        pid, tid = home["core"], req["sid"]
        name = "r%d %s %s" % (rid, req["kind"], request_what_str(req))
        fill = req["fill"] if req["fill"] is not None else result.cycles
        out.append({"ph": "b", "cat": "rename", "id": rid, "name": name,
                    "pid": pid, "tid": tid, "ts": req["issue"],
                    "args": {"kind": req["kind"], "hops": req["hops"],
                             "producer": req["producer"],
                             "dmh": req["dmh"]}})
        out.append({"ph": "e", "cat": "rename", "id": rid, "name": name,
                    "pid": pid, "tid": tid, "ts": fill})
        out.append({"ph": "s", "cat": "renameflow", "id": rid, "name": name,
                    "pid": pid, "tid": tid, "ts": req["issue"]})
        for cycle, core, sid in req["path"]:
            out.append({"ph": "t", "cat": "renameflow", "id": rid,
                        "name": name, "pid": core, "tid": sid, "ts": cycle})
        out.append({"ph": "f", "bp": "e", "cat": "renameflow", "id": rid,
                    "name": name, "pid": pid, "tid": tid, "ts": fill})

    # -- instants and counters ---------------------------------------------
    retired_per_cycle: Dict[int, int] = {}
    running = n_cores
    for cycle, kind, f in events:
        if kind == "request_dmh":
            rid = f["rid"]
            req = requests.get(rid)
            if req is None:
                continue
            out.append({"ph": "i", "s": "p", "cat": "dmh",
                        "name": "DMH read r%d" % rid, "pid": f["core"],
                        "tid": req["sid"], "ts": cycle})
        elif kind == "core_dead":
            out.append({"ph": "i", "s": "p", "cat": "fault",
                        "name": "core %d dead" % f["core"],
                        "pid": f["core"], "tid": 0, "ts": cycle})
        elif kind == "section_redispatch":
            out.append({"ph": "i", "s": "p", "cat": "fault",
                        "name": "s%d redispatch -> core %d"
                        % (f["sid"], f["dst"]),
                        "pid": f["dst"], "tid": f["sid"], "ts": cycle,
                        "args": {"src": f["src"],
                                 "first_fetch": f["first_fetch"]}})
        elif kind == "retire":
            retired_per_cycle[cycle] = retired_per_cycle.get(cycle, 0) + 1
        elif kind == "core_park":
            running -= 1
            out.append({"ph": "C", "pid": 0, "name": "running cores",
                        "ts": cycle, "args": {"cores": running}})
        elif kind == "core_wake":
            running += 1
            out.append({"ph": "C", "pid": 0, "name": "running cores",
                        "ts": cycle, "args": {"cores": running}})
    for cycle in sorted(retired_per_cycle):
        out.append({"ph": "C", "pid": 0, "name": "retired/cycle",
                    "ts": cycle, "args": {"count": retired_per_cycle[cycle]}})

    # -- windowed cycle-domain metrics as counter tracks --------------------
    # (runs with SimConfig.metrics_window set): per-link NoC traffic next
    # to the per-cycle counters above, one sample per window at its
    # opening cycle; drop/retry tracks only where faults actually hit
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        window = metrics["window"]
        for w, value in enumerate(metrics["series"]["retired"]):
            out.append({"ph": "C", "pid": 0, "name": "retired/window",
                        "ts": w * window, "args": {"count": value}})
        for link in sorted(metrics["links"]):
            entry = metrics["links"][link]
            for w, value in enumerate(entry["messages"]):
                out.append({"ph": "C", "pid": 0, "name": "noc %s" % link,
                            "ts": w * window, "args": {"messages": value}})
            if sum(entry["drops"]):
                for w, value in enumerate(entry["drops"]):
                    out.append({"ph": "C", "pid": 0,
                                "name": "noc %s drops" % link,
                                "ts": w * window, "args": {"drops": value}})

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "title": title,
            "scheduler": result.scheduler,
            "cycles": result.cycles,
            "sections": result.sections,
            "instructions": result.instructions,
        },
    }
