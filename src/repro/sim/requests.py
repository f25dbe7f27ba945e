"""Backward renaming requests: the paper's RRRU/ARRU/RERU/MERU traffic.

A consumer section that cannot rename a source locally sends a request that
travels *backward* along the total section order until it finds the
producer ("The renaming request travels from section to section until a
producer is found").  A section can only answer soundly about its final
state, so a request parks at a section until that section is *final* for
the requested kind:

* registers: the section's fetch is done (``fregs`` is the end state);
* memory: fetch done *and* every store address renamed (``mem_final``).

On a hit the request then waits for the value to be produced and a reply
message carries it home; on a miss it hops to the predecessor.  Falling off
the oldest end of the order reads the architectural state (initial
registers / the data memory hierarchy), which the paper phrases as "the
oldest section dumps its renamings to the DMH".

The optional stack shortcut (Section 4.2, statement ii — "stack pointer
based variables with a positive offset benefit from a shortcut eliminating
instructions belonging to a call level deeper than the consumer") is
implemented as a walk of the *creator chain*: a request for a stack word at
or above the requester's frame queries each ancestor section directly, and
only against the portion of that ancestor *before* the fork that leads to
the requester (the *cut*).  Such a request is answerable as soon as the
ancestor has address-renamed its pre-cut stores — long before its fetch
completes — which is what lets sections fetch past frame-variable branches
without waiting for whole callee descents.  The shortcut assumes the
compiler's stack discipline (no callee writes the caller's frame), so it is
opt-in (:attr:`repro.sim.SimConfig.stack_shortcut`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cells import Cell
from .section import SectionState


@dataclass
class RenameRequest:
    """One in-flight backward request (register or memory)."""

    kind: str                     #: "reg" or "mem"
    requester: SectionState
    dest_cell: Cell               #: the requester's import cell to fill
    #: issue-order id (index into ``Processor.requests``) — keys the
    #: structured event stream's request_* records
    rid: int = -1
    reg: str = ""                 #: kind == "reg"
    addr: int = -1                #: kind == "mem"
    use_shortcut: bool = False

    #: the walk queries the predecessor of this section next
    before: Optional[SectionState] = None
    #: stack-shortcut walk: the child section whose creating fork defines
    #: the cut in the next queried ancestor
    cut_child: Optional[SectionState] = None
    #: index in ``at_section`` before which the producer must lie
    cut_index: int = -1
    #: section currently being queried; None = between hops
    at_section: Optional[SectionState] = None
    #: core the request currently sits on (hop-latency bookkeeping)
    cur_core: int = 0
    #: cycle the consumer issued the request
    issued_cycle: int = 0
    #: earliest cycle this request may make progress (models hop latency)
    wake_cycle: int = 0
    #: once a hit is found, the cell whose value we wait for
    hit_cell: Optional[Cell] = None
    producer_core: int = 0
    #: sid of the section that answered (observability; -1 = architectural)
    producer_sid: int = -1
    #: the answer, once known
    value: Optional[int] = None
    #: no visited section touched the requested address's line: the DMH
    #: may reply with the full line for the requester to cache
    line_clean: bool = True
    #: (addr, value) pairs of every word of the line, from a DMH reply
    line_values: Optional[list] = None
    #: sections visited by a clean-line walk — the "return path" that
    #: caches the line (paper footnote 5)
    visited: Optional[list] = None
    #: cycle at which the reply lands back in the requester's core
    reply_cycle: Optional[int] = None
    done: bool = False
    hops: int = 0
    #: event kernel's lazy scheduler: the last cycle this request was
    #: stepped (it steps at most once per cycle), and the cycle of its
    #: live time-heap entry (any other entry for it is stale)
    step_cycle: int = -1
    timed_cycle: int = -1

    def describe(self) -> str:  # pragma: no cover - debugging aid
        what = self.reg if self.kind == "reg" else hex(self.addr)
        where = ("s%d" % self.at_section.sid) if self.at_section else "DMH"
        return "req %s %s from s%d at %s" % (self.kind, what,
                                             self.requester.sid, where)
