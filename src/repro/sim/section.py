"""Per-section state: the unit of distribution in the paper's model.

A section owns

* its *fetch register file* ``fregs`` — the paper's Figure 8 RF with
  full/empty bits.  An entry maps a register to a plain int (value known at
  fetch time), to a :class:`~repro.sim.cells.Cell` (renamed destination not
  yet produced) or is absent (empty: never written in this section and not
  copied at the fork);
* its register import table (the paper's "destination d serves as a caching
  of the missing source");
* its MAAT — Memory Address Alias Table — mapping word addresses to renamed
  memory cells (stores and cached imports);
* its ROB (in-order retirement) and the per-section ARQ discipline.

At ``fetch_done`` (endfork fetched), ``fregs`` *is* the end-of-section
register state that successor sections' renaming requests resolve against.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

from ..isa.registers import ALL_REGS
from .cells import Cell, DynInstr

FetchValue = Union[int, Cell]


class SectionState:
    """One section, hosted on one core."""

    def __init__(self, sid: int, start_ip: int, core_id: int,
                 fregs: Dict[str, FetchValue], depth: int,
                 created_cycle: int, first_fetch_cycle: int,
                 parent_sid: int = 0, created_at_index: int = -1):
        self.sid = sid                      #: creation id (stable)
        self.order_index = 0                #: rank in the total order
        self.start_ip = start_ip
        self.core_id = core_id
        self.depth = depth                  #: call level at section start
        self.parent_sid = parent_sid
        #: index (in the parent) of the fork that created this section —
        #: the "cut": parent instructions before it are this section's
        #: logical past at the same call level
        self.created_at_index = created_at_index
        #: created by ``forkloop``: the parent's post-fork flow (the loop
        #: body) shares this section's stack frame, so renaming shortcuts
        #: may not cut it away
        self.created_by_loop = False
        self.created_cycle = created_cycle
        self.first_fetch_cycle = first_fetch_cycle

        self.ip: Optional[int] = start_ip   #: None = fetch stalled/finished
        self.fregs: Dict[str, FetchValue] = dict(fregs)
        #: the section-entry architectural snapshot (the fork-copied
        #: registers, by value or pending cell) — re-dispatch after a
        #: fail-stop restarts from exactly this state (repro.faults)
        self.entry_fregs: Dict[str, FetchValue] = dict(fregs)
        #: fork dedupe for replay: instruction index -> child sid already
        #: created by a previous incarnation of this section
        self.fork_children: Dict[int, int] = {}
        #: unfilled destination cells of a dead incarnation, keyed by
        #: ("r", index, reg) / ("m", index, addr); the replay re-uses them
        #: so consumers holding references are eventually filled
        self.replay_cells: Optional[Dict[tuple, Cell]] = None
        self.imports: Dict[str, Cell] = {}
        self.maat: Dict[int, Cell] = {}
        self.rob: Deque[DynInstr] = deque()
        self.instructions: List[DynInstr] = []
        self.renamed_count = 0
        self.arq: Deque[DynInstr] = deque()

        self.fetch_started = False
        self.fetch_done = False
        #: cycle at which ``complete`` first became true (observability;
        #: detected at the retirement that empties the ROB)
        self.completed_cycle: Optional[int] = None
        self.fetch_depth = depth            #: call level at the fetch point
        self.waiting_control: Optional[DynInstr] = None
        self.stores_pending = 0             #: stores fetched, not yet renamed
        self.outs: List[Tuple[int, int]] = []   #: (index, value) from out
        #: park tag -> rids of the renaming requests waiting for that
        #: final-state condition, registered only by the event kernel's
        #: lazy request scheduler (see :meth:`repro.sim.processor.
        #: Processor.section_event`); None keeps every notify site at a
        #: single attribute test.  Survives redispatch_reset: a waiter's
        #: condition simply re-arms when the replayed incarnation reaches
        #: it again.
        self.req_waiters: Optional[Dict[object, Set[int]]] = None

    # -- fetch-time register file access -----------------------------------

    def freg_value(self, reg: str) -> Optional[int]:
        """The register's value if available *right now* at the fetch
        stage, else None (pending cell or empty)."""
        entry = self.fregs.get(reg)
        if entry is None:
            return None
        if isinstance(entry, Cell):
            return entry.value          # None while pending
        return entry

    def freg_binding(self, reg: str) -> Optional[FetchValue]:
        """Raw fetch-RF entry: int, Cell, or None when empty."""
        return self.fregs.get(reg)

    # -- status -----------------------------------------------------------

    @property
    def complete(self) -> bool:
        return (self.fetch_done
                and self.renamed_count == len(self.instructions)
                and not self.rob)

    @property
    def mem_final(self) -> bool:
        """May this section answer "no store to that address"?  Only once
        every one of its stores has gone through address renaming."""
        return self.fetch_done and self.stores_pending == 0

    # -- fail-stop recovery (repro.faults) ---------------------------------

    def redispatch_reset(self, core_id: int, first_fetch_cycle: int) -> None:
        """Restart this section from its entry snapshot on *core_id*.

        Sound by single-assignment renaming: the section's execution is a
        pure function of ``entry_fregs`` and its renaming-request answers,
        so the replay reproduces the dead incarnation's values.  The dead
        incarnation's *unfilled* destination cells are stashed so the
        replay fills the very objects external consumers already
        reference; its filled cells stay valid forever (single
        assignment).  Identity (sid, order_index, parent links) and
        ``fork_children`` survive — the replay re-uses already-created
        children instead of forking duplicates.
        """
        # A second death mid-replay must keep the first stash's unconsumed
        # cells alive (consumed ones were popped at re-creation, so the
        # key sets are disjoint).
        replay: Dict[tuple, Cell] = (dict(self.replay_cells)
                                     if self.replay_cells is not None else {})
        for dyn in self.instructions:
            for reg, cell in dyn.dest_cells.items():
                if not cell.ready:
                    replay[("r", dyn.index, reg)] = cell
            mem = dyn.mem_dest_cell
            if mem is not None and not mem.ready:
                replay[("m", dyn.index, dyn.addr_value)] = mem
        self.replay_cells = replay
        self.core_id = core_id
        self.first_fetch_cycle = first_fetch_cycle
        self.ip = self.start_ip
        self.fregs = dict(self.entry_fregs)
        self.imports = {}
        self.maat = {}
        self.rob.clear()
        self.instructions = []
        self.renamed_count = 0
        self.arq.clear()
        self.fetch_started = False
        self.fetch_done = False
        self.fetch_depth = self.depth
        self.waiting_control = None
        self.stores_pending = 0
        self.outs = []

    def describe(self) -> str:
        return ("section %d (core %d, start=%d, depth=%d, %d instrs%s)"
                % (self.sid, self.core_id, self.start_ip, self.depth,
                   len(self.instructions),
                   ", done" if self.complete else ""))


def initial_root_fregs(regs: Dict[str, int]) -> Dict[str, FetchValue]:
    """The root section starts with every architectural register full."""
    return {name: regs.get(name, 0) for name in ALL_REGS}
