"""Value cells and dynamic instructions — the simulator's dataflow fabric.

A :class:`Cell` is one renamed destination: the pair *(section,
instruction)* of the paper's renaming scheme, reified as an object that is
*empty* until its producer runs and *full* afterwards.  Every architectural
write (register, flags, or memory word) allocates a fresh cell, which makes
the run single-assignment: "Memory renaming transforms the code at run time
into a single assignment form" (Section 4.2).

Cells are also the synchronization device: consumers (instructions in the
IQ/LSQ, stalled fetch stages, remote renaming requests) simply wait until
``cell.ready``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction


class Cell:
    """A renamed location: empty until produced, then immutable.

    Cells double as the event-driven scheduler's wake list: a parked core
    registers itself as a *waiter* on every cell it is blocked on, and
    :meth:`fill` wakes all registered waiters.  Waiter notification is free
    for the common cell that nobody parks on (``waiters`` stays ``None``).
    """

    __slots__ = ("value", "ready_cycle", "origin", "is_import", "waiters")

    def __init__(self, origin: str = "", is_import: bool = False) -> None:
        self.value: Optional[int] = None
        self.ready_cycle: Optional[int] = None
        self.origin = origin          #: debugging tag, e.g. "s3:i5:rax"
        self.is_import = is_import    #: caches a predecessor's value
        self.waiters: Optional[list] = None   #: parked cores to wake on fill

    @property
    def ready(self) -> bool:
        return self.value is not None

    def fill(self, value: int, cycle: int) -> None:
        if self.ready:
            raise AssertionError(
                "double write to renamed location %s" % self.origin)
        self.value = value
        self.ready_cycle = cycle
        if self.waiters is not None:
            for waiter in self.waiters:
                waiter.wake()
            self.waiters = None

    def add_waiter(self, waiter) -> None:
        """Register *waiter* (a parked core) to be woken when this cell
        fills.  Idempotent per waiter; a no-op once the cell is ready."""
        if self.ready:
            return
        if self.waiters is None:
            self.waiters = [waiter]
        elif waiter not in self.waiters:
            self.waiters.append(waiter)

    @staticmethod
    def full(value: int, cycle: int = 0, origin: str = "") -> "Cell":
        cell = Cell(origin=origin)
        cell.value = value
        cell.ready_cycle = cycle
        return cell

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "=%d@%s" % (self.value, self.ready_cycle) if self.ready else "(empty)"
        return "<Cell %s%s>" % (self.origin, state)


class DynInstr:
    """One dynamic instruction flowing through a core's pipeline.

    It names its section by ``sid`` (an index into ``Processor.sections``,
    offset by one), not by reference: a section holds its instructions, so
    a reference back would make every finished run a reference cycle that
    only the cyclic collector can free.  The six stage slots ``fd`` ..
    ``ret`` hold the cycle each stage of Figure 9 handled the instruction
    (None = the stage did not apply, e.g. no ``ar``/``ma`` for register
    ops).
    """

    __slots__ = (
        "instr", "sid", "index", "fd", "rr", "ew", "ar", "ma", "ret",
        "src_cells", "dest_cells", "computed_at_fetch",
        "is_load", "is_store", "addr_src_cells", "addr_value",
        "load_src_cell", "mem_dest_cell", "mem_done", "executed",
        "control_resolved", "missing_srcs", "addr_regs",
    )

    def __init__(self, instr: Instruction, sid: int, index: int,
                 fd: int) -> None:
        meta = instr.meta
        self.instr = instr
        self.sid = sid                          #: the section's creation id
        self.index = index                      #: 0-based ordinal in section
        self.fd = fd
        self.rr: Optional[int] = None
        self.ew: Optional[int] = None
        self.ar: Optional[int] = None
        self.ma: Optional[int] = None
        self.ret: Optional[int] = None
        #: register sources: name -> Cell (filled at rename)
        self.src_cells: Dict[str, Cell] = {}
        #: register destinations: name -> Cell
        self.dest_cells: Dict[str, Cell] = {}
        self.computed_at_fetch = False
        self.is_load = meta.reads_memory
        self.is_store = meta.writes_memory
        #: cells needed to form the effective address
        self.addr_src_cells: Dict[str, Cell] = {}
        self.addr_value: Optional[int] = None   #: set by ew
        self.load_src_cell: Optional[Cell] = None   #: renamed memory source
        self.mem_dest_cell: Optional[Cell] = None   #: renamed memory dest
        self.mem_done = not (self.is_load or self.is_store)
        self.executed = False
        self.control_resolved = not meta.is_control
        #: registers whose fetch binding was empty, to resolve at rename
        self.missing_srcs: List[str] = []
        #: registers needed to form the effective address
        self.addr_regs: Tuple[str, ...] = ()

    def stage_cycles(self) -> Tuple[Optional[int], ...]:
        """(fd, rr, ew, ar, ma, ret): one row of Figure 10."""
        return (self.fd, self.rr, self.ew, self.ar, self.ma, self.ret)

    @property
    def tag(self) -> str:
        return "%d-%d" % (self.sid, self.index + 1)

    # plain loops testing ``cell.value is None`` directly, not all(...)
    # genexprs over the ``ready`` property: these run once per queue entry
    # per busy core-cycle and the generator frame plus the property
    # descriptor dominate the check

    def sources_ready(self) -> bool:
        for cell in self.src_cells.values():
            if cell.value is None:
                return False
        return True

    def addr_sources_ready(self) -> bool:
        for cell in self.addr_src_cells.values():
            if cell.value is None:
                return False
        return True

    def terminated(self) -> bool:
        """Retirement condition: every effect of the instruction exists."""
        if not self.executed and not self.computed_at_fetch:
            return False
        if not self.mem_done:
            return False
        if not self.control_resolved:
            return False
        for cell in self.dest_cells.values():
            if cell.value is None:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DynInstr %s %s>" % (self.tag, self.instr)
