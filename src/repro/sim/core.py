"""One core of the many-core processor: the six-stage pipeline of Figure 9.

Stage order inside a cycle is reverse pipeline order (retire, memory,
address-rename, execute, rename, fetch) so values produced in cycle *c* are
consumed no earlier than *c + 1*, like hardware latches.

The fetch-decode stage implements Figure 8: it holds the section's register
file with full/empty bits, computes simple register instructions in order
(including most control flow — there is no branch predictor), and stalls
with an empty IP when a control instruction's sources are not yet full; the
execute or memory stage later resolves the target and restarts fetch.  As a
liveness extension over the paper (which assumes one section per core in
its example), a stalled fetch yields to another runnable hosted section.
"""

from __future__ import annotations

import heapq
import weakref
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .processor import Processor

from ..errors import SimulationError
from ..isa.registers import STACK_POINTER
from ..machine.base import HALT_SENTINEL
from ..machine.executor import MASK, fetch_stage_computable
from .cells import Cell, DynInstr
from .evaluate import effective_address, evaluate
from .section import SectionState
from .stats import BLOCKED, COMPUTING, FETCHING, PARKED


class Core:
    """One core: pipeline state + hosted sections.

    Under the event-driven scheduler a core *parks* when none of its
    pipeline structures can possibly make progress: every IQ/LSQ entry
    waits on an unready cell, every fetchable section is stalled on
    control or not yet created, and the rename queue is empty.  Parking
    registers the core as a waiter on exactly the cells it is blocked on
    (:meth:`repro.sim.cells.Cell.add_waiter`); the fill that unblocks it
    wakes it.  Time-driven wakes (a forked section's first fetch cycle)
    go through the processor's wake heap.  A parked core's skipped cycles
    are provably no-ops, which is what keeps the fast path bit-identical
    to the naive every-core-every-cycle loop.

    A core holds the run constants its stages read every cycle: the
    config, the program code, the event tracer, the fault engine, the
    processor's section list and its awake set.  It holds the processor
    itself only weakly, and reaches it just for cold callbacks (a fork,
    a request issue, a section event or completion, a time wake): the
    processor owns its cores, so a strong reference back would make every
    finished run one reference cycle that only the cyclic collector can
    free.
    """

    def __init__(self, core_id: int, proc: "Processor") -> None:
        self.id = core_id
        self._proc = weakref.ref(proc)
        self.cfg = proc.cfg
        self.code = proc.program.code
        self.tracer = proc.tracer
        self.fault_engine = proc.fault_engine
        #: every section of the run, by ``sid - 1`` (:attr:`DynInstr.sid`).
        #: Each fork that renumbers the total order appends one section,
        #: so its length doubles as the order epoch that invalidates the
        #: cached IQ/LSQ sort order.
        self._sections = proc.sections
        #: the processor's awake set: the event kernel's core agenda
        self._awake = proc._awake
        self.hosted: List[SectionState] = []
        #: hosted sections not yet complete — the working set every stage
        #: iterates (complete sections are no-ops in every stage)
        self.open_secs: List[SectionState] = []
        self.current_fetch: Optional[SectionState] = None
        self.rename_queue: List[DynInstr] = []   # fetch order, per-section FIFO
        self.iq: List[DynInstr] = []
        self.lsq: List[DynInstr] = []
        # queue-order caching: a queue is re-sorted only after an append
        # or when a fork renumbered the total order (a new section count)
        self._iq_dirty = False
        self._iq_epoch = 1
        self._lsq_dirty = False
        self._lsq_epoch = 1
        # statistics
        self.fetched = 0
        self.fetch_computed = 0
        #: fail-stopped by a fault plan: permanently skipped by both run
        #: loops and immune to wakes (repro.faults)
        self.dead = False
        # event-driven scheduling state
        self.parked = False
        self._span_start: Optional[int] = None   #: first skipped cycle
        self._span_has_work = False
        self._blocked_from: Optional[int] = None
        # observability
        self.did_work = False          #: any non-fetch stage progressed
        #: the core-state record, always kept: ``[state, cycles]`` runs
        #: (CORE_STATES indices) from cycle 1 to the run's end or the
        #: core's death, no two adjacent runs in the same state.
        #: Occupancy, the trace, core park/wake events, stall causes and
        #: the windowed state metrics are folds over it.
        self.timeline: List[List[int]] = []

    # ------------------------------------------------------------------
    # cycle driver
    # ------------------------------------------------------------------

    def cycle(self, now: int) -> None:
        if self._span_start is not None:
            self._close_span(now - 1)
        fetched_before = self.fetched
        self.did_work = False
        self._retire(now)
        self._memory(now)
        self._addr_rename(now)
        self._execute(now)
        self._rename(now)
        self._fetch(now)
        if self.fetched > fetched_before:
            state = FETCHING
        elif self.did_work:
            state = COMPUTING
        elif self._has_any_work():
            state = BLOCKED
        else:
            state = PARKED
        runs = self.timeline        # _record(state, 1), inlined: hot path
        if runs and runs[-1][0] == state:
            runs[-1][1] += 1
        else:
            runs.append([state, 1])

    # ------------------------------------------------------------------
    # event-driven scheduling: park / wake
    # ------------------------------------------------------------------

    def wake(self) -> None:
        """Make the core runnable again; the pending parked span is closed
        lazily at its next executed cycle.  A dead core stays down.  Woken
        by a lower-id core during the core sweep, it runs in this same
        sweep, exactly like the naive loop's in-order slot check."""
        if self.dead or not self.parked:
            return
        self.parked = False
        self._awake.add(self.id)
        proc = self._proc()
        if proc._core_slot is not None and self.id > proc._core_slot:
            heapq.heappush(proc._core_extra, self.id)

    def _has_any_work(self) -> bool:
        return bool(self.rename_queue or self.iq or self.lsq
                    or self.open_secs)

    def maybe_park(self, now: int) -> None:
        """After running cycle *now*: park if no pipeline structure can act
        before an external event, registering wake conditions."""
        ready, blockers, time_wake = self._park_state(now)
        if ready:
            return
        has_work = self._has_any_work()
        if has_work and not blockers and time_wake is None:
            # Defensive: a blocked core must have a registered wake source;
            # if the analysis finds none, spin like the naive loop rather
            # than risk a lost wake-up.
            return
        self.parked = True
        self._awake.discard(self.id)
        self._span_start = now + 1
        self._span_has_work = has_work
        self._blocked_from = None
        if blockers:
            for cell in blockers:
                cell.add_waiter(self)
        if time_wake is not None:
            self._proc().schedule_wake(time_wake, self)

    def _park_state(self, now: int) -> Tuple[
            bool, Optional[List[Cell]], Optional[int]]:
        """(ready, blockers, time_wake) after cycle *now* ran.

        ``ready`` means some structure can provably act at ``now + 1`` (or
        is merely width-limited), so the core must stay awake.  Otherwise
        ``blockers`` lists every unready cell whose fill could unblock the
        core and ``time_wake`` the earliest future first-fetch cycle.
        Conservative by construction: spurious wake-ups are no-op cycles
        (harmless), missed wake-ups would diverge from the naive loop.
        """
        if self.rename_queue:
            return True, None, None     # rename always drains
        blockers: List[Cell] = []
        for dyn in self.iq:
            cells = (dyn.addr_src_cells if (dyn.is_load or dyn.is_store)
                     else dyn.src_cells)
            ready = True
            for cell in cells.values():
                if cell.value is None:
                    blockers.append(cell)
                    ready = False
            if ready:
                return True, None, None
        for dyn in self.lsq:
            ready = True
            if dyn.is_load and dyn.load_src_cell.value is None:
                blockers.append(dyn.load_src_cell)
                ready = False
            for cell in dyn.src_cells.values():
                if cell.value is None:
                    blockers.append(cell)
                    ready = False
            if ready:
                return True, None, None
        time_wake: Optional[int] = None
        for sec in self.open_secs:
            if sec.arq and sec.arq[0].addr_value is not None:
                return True, None, None     # address-rename can proceed
            if sec.rob:
                head = sec.rob[0]
                if head.terminated():
                    return True, None, None     # retire can proceed
                for cell in head.dest_cells.values():
                    if not cell.ready:
                        blockers.append(cell)
            if (not sec.fetch_done and sec.waiting_control is None
                    and sec.ip is not None):
                if sec.first_fetch_cycle <= now + 1:
                    return True, None, None     # fetch can proceed
                if time_wake is None or sec.first_fetch_cycle < time_wake:
                    time_wake = sec.first_fetch_cycle
        return False, blockers, time_wake

    def _close_span(self, end: int) -> None:
        """Record the parked span [_span_start, end] on the timeline:
        ``blocked`` if the core had pending work when it parked (or from
        the cycle a newly hosted section became visible), ``parked``
        (idle) otherwise."""
        start = self._span_start
        self._span_start = None
        blocked_from = self._blocked_from
        self._blocked_from = None
        if end < start:
            return
        if self._span_has_work:
            self._record(BLOCKED, end - start + 1)
        elif blocked_from is None or blocked_from > end:
            self._record(PARKED, end - start + 1)
        else:
            split = max(blocked_from, start)
            self._record(PARKED, split - start)
            self._record(BLOCKED, end - split + 1)

    def _record(self, state: int, n: int) -> None:
        """Extend the timeline by *n* cycles in *state*."""
        runs = self.timeline
        if runs and runs[-1][0] == state:
            runs[-1][1] += n
        elif n > 0:
            runs.append([state, n])

    # ------------------------------------------------------------------
    # the span policy: hosting, fail-stop, end of run
    # ------------------------------------------------------------------

    def host(self, sec: SectionState, visible: int) -> None:
        """Take *sec* on: the root, a fork's new section or a fail-stop
        re-dispatch.  A parked core schedules its time wake for the
        section's first fetch, and its pending span turns ``blocked``
        from cycle *visible*, the first cycle at which the naive sweep
        sees the section at this core's slot."""
        self.hosted.append(sec)
        self.open_secs.append(sec)
        if self.parked:
            self._proc().schedule_wake(sec.first_fetch_cycle, self)
            if self._blocked_from is None or visible < self._blocked_from:
                self._blocked_from = visible

    def fail_stop(self, now: int) -> None:
        """Kill the core at cycle *now*: its timeline ends at ``now - 1``,
        the last cycle it was alive (the naive loop skips a dead core),
        both run loops skip it from now on and no wake revives it."""
        self.close_timeline(now - 1)
        self.dead = True
        self.parked = True

    def close_timeline(self, end: int) -> None:
        """End the timeline at cycle *end*: record a still-open parked
        span."""
        if self._span_start is not None:
            self._close_span(end)

    # ------------------------------------------------------------------
    # fetch-decode
    # ------------------------------------------------------------------

    def _runnable_sections(self, now: int) -> List[SectionState]:
        return [s for s in self.open_secs
                if not s.fetch_done and s.first_fetch_cycle <= now
                and s.waiting_control is None and s.ip is not None]

    def _fetch(self, now: int) -> None:
        engine = self.fault_engine
        if engine is not None and engine.fetch_blocked(self, now):
            return      # slow-core jitter: the fetch stage loses the cycle
        for _ in range(self.cfg.fetch_width):
            runnable = self._runnable_sections(now)
            if not runnable:
                return
            if self.current_fetch in runnable:
                sec = self.current_fetch
            else:
                sec = min(runnable, key=lambda s: s.order_index)
                self.current_fetch = sec
            self._fetch_one(sec, now)

    def _fetch_one(self, sec: SectionState, now: int) -> None:
        code = self.code
        if not 0 <= sec.ip < len(code):
            raise SimulationError(
                "section %d fetched past the code (ip=%d)" % (sec.sid, sec.ip))
        instr = code[sec.ip]
        dyn = DynInstr(instr, sec.sid, len(sec.instructions), now)
        sec.instructions.append(dyn)
        if not sec.fetch_started and self.tracer is not None:
            self.tracer.emit(now, "section_start", sid=sec.sid, core=self.id)
        sec.fetch_started = True
        self.fetched += 1

        # -- bind sources against the fetch register file ----------------
        meta = instr.meta
        for reg in meta.reg_reads:
            entry = sec.freg_binding(reg)
            if entry is None:
                dyn.missing_srcs.append(reg)
            elif isinstance(entry, Cell):
                dyn.src_cells[reg] = entry
            else:
                dyn.src_cells[reg] = Cell.full(entry, origin="k:%s" % reg)
        dyn.addr_regs = meta.addr_regs
        if dyn.is_store:
            sec.stores_pending += 1

        kind = meta.kind
        next_ip: Optional[int] = sec.ip + 1

        if kind == "fork":
            self._proc().fork_section(sec, dyn, now)
            sec.fetch_depth += 1
            dyn.computed_at_fetch = True
            dyn.control_resolved = True
            next_ip = instr.target
        elif kind == "endfork":
            sec.fetch_done = True
            dyn.computed_at_fetch = True
            dyn.control_resolved = True
            next_ip = None
            if sec.req_waiters is not None:
                self._proc().section_event(sec)
        elif kind == "hlt":
            sec.fetch_done = True
            dyn.computed_at_fetch = True
            dyn.control_resolved = True
            next_ip = None
            if sec.req_waiters is not None:
                self._proc().section_event(sec)
        elif kind == "call":
            self._fetch_rsp_update(dyn, sec, now, delta=-8)
            sec.fetch_depth += 1
            dyn.control_resolved = True
            next_ip = instr.target
        elif kind == "ret":
            self._fetch_rsp_update(dyn, sec, now, delta=+8)
            sec.fetch_depth -= 1
            next_ip = None                      # resolved by the memory stage
            sec.waiting_control = dyn
        elif kind in ("push", "pop"):
            self._fetch_rsp_update(dyn, sec, now,
                                   delta=-8 if kind == "push" else +8)
            if kind == "pop":
                self._make_pending_dests(dyn, sec, skip=(STACK_POINTER,))
        else:
            stage_ok = meta.fetch_computable
            if stage_ok is None:
                stage_ok = meta.fetch_computable = fetch_stage_computable(
                    kind, meta.has_mem)
            computable = (stage_ok
                          and not dyn.missing_srcs
                          and dyn.sources_ready())
            if computable:
                src = dyn.src_cells
                result = evaluate(instr, lambda r: src[r].value)
                for reg, value in result.reg_writes.items():
                    cell = self._dest_cell(sec, dyn, reg)
                    cell.fill(value, now)
                    dyn.dest_cells[reg] = cell
                    sec.fregs[reg] = value
                dyn.computed_at_fetch = True
                self.fetch_computed += 1
                if meta.is_branch:
                    dyn.control_resolved = True
                    if result.taken:
                        next_ip = result.next_ip
            else:
                self._make_pending_dests(dyn, sec)
                if meta.is_branch:
                    # IP is set to empty until the target is computed.
                    next_ip = None
                    sec.waiting_control = dyn

        sec.ip = next_ip
        self.rename_queue.append(dyn)

    def _dest_cell(self, sec: SectionState, dyn: DynInstr,
                   reg: str) -> Cell:
        """Destination cell for (*dyn*, *reg*): fresh in normal operation;
        during a fail-stop replay the dead incarnation's unfilled cell is
        re-used so consumers already holding it are eventually filled
        (repro.faults)."""
        if sec.replay_cells is not None:
            cell = sec.replay_cells.pop(("r", dyn.index, reg), None)
            if cell is not None:
                return cell
        return Cell(origin="s%d:%d:%s" % (sec.sid, dyn.index, reg))

    def _fetch_rsp_update(self, dyn: DynInstr, sec: SectionState, now: int,
                          delta: int) -> None:
        """push/pop/call/ret move rsp; the fetch ALU computes the new value
        when the old one is full, keeping address chains flowing."""
        cell = self._dest_cell(sec, dyn, STACK_POINTER)
        dyn.dest_cells[STACK_POINTER] = cell
        old = sec.freg_value(STACK_POINTER)
        if old is not None:
            new = (old + delta) & MASK
            cell.fill(new, now)
            sec.fregs[STACK_POINTER] = new
        else:
            sec.fregs[STACK_POINTER] = cell

    def _make_pending_dests(self, dyn: DynInstr, sec: SectionState,
                            skip=()) -> None:
        for reg in dyn.instr.reg_writes():
            if reg in skip or reg in dyn.dest_cells:
                continue
            cell = self._dest_cell(sec, dyn, reg)
            dyn.dest_cells[reg] = cell
            sec.fregs[reg] = cell

    # ------------------------------------------------------------------
    # register rename
    # ------------------------------------------------------------------

    def _rename(self, now: int) -> None:
        budget = self.cfg.rename_width
        while budget and self.rename_queue:
            dyn = self.rename_queue[0]
            if dyn.fd == now:
                return  # fetched this very cycle; rename next cycle
            self.rename_queue.pop(0)
            self._rename_one(dyn, now)
            budget -= 1

    def _rename_one(self, dyn: DynInstr, now: int) -> None:
        sec = self._sections[dyn.sid - 1]
        dyn.rr = now
        self.did_work = True
        for reg in dyn.missing_srcs:
            cell = sec.imports.get(reg)
            if cell is None:
                cell = Cell(origin="s%d:import:%s" % (sec.sid, reg),
                            is_import=True)
                sec.imports[reg] = cell
                if reg not in sec.fregs:
                    sec.fregs[reg] = cell
                self._proc().send_reg_request(sec, reg, cell, now)
            dyn.src_cells[reg] = cell
        dyn.addr_src_cells = {r: dyn.src_cells[r] for r in dyn.addr_regs}
        sec.rob.append(dyn)
        sec.renamed_count += 1
        if sec.req_waiters is not None:
            self._proc().section_event(sec)
        if dyn.is_load or dyn.is_store:
            sec.arq.append(dyn)
            self.iq.append(dyn)
            self._iq_dirty = True
        elif not dyn.computed_at_fetch:
            self.iq.append(dyn)
            self._iq_dirty = True

    # ------------------------------------------------------------------
    # execute / write back (and address computation for memory ops)
    # ------------------------------------------------------------------

    def _execute(self, now: int) -> None:
        budget = self.cfg.execute_width
        if not self.iq or not budget:
            return
        sections = self._sections
        epoch = len(sections)
        if self._iq_dirty or self._iq_epoch != epoch:
            # (order_index, index) is unique per dyn, removals preserve
            # order, so a re-sort is only due after an append or a fork
            # renumbering the total order (the epoch bump)
            self.iq.sort(key=lambda d: (sections[d.sid - 1].order_index,
                                        d.index))
            self._iq_dirty = False
            self._iq_epoch = epoch
        done: List[DynInstr] = []
        for dyn in self.iq:
            if not budget:
                break
            if dyn.rr is None or dyn.rr >= now:
                continue
            if dyn.is_load or dyn.is_store:
                if not dyn.addr_sources_ready():
                    continue
            elif not dyn.sources_ready():
                continue
            self._execute_one(dyn, now)
            done.append(dyn)
            budget -= 1
        for dyn in done:
            self.iq.remove(dyn)

    def _execute_one(self, dyn: DynInstr, now: int) -> None:
        instr = dyn.instr
        dyn.ew = now
        self.did_work = True
        if dyn.is_load or dyn.is_store:
            old_rsp = None
            if STACK_POINTER in dyn.addr_src_cells:
                old_rsp = dyn.addr_src_cells[STACK_POINTER].value
            kind = instr.kind
            if kind in ("push", "call"):
                dyn.addr_value = (old_rsp - 8) & MASK
                self._fill_rsp(dyn, now, dyn.addr_value)
            elif kind in ("pop", "ret"):
                dyn.addr_value = old_rsp
                self._fill_rsp(dyn, now, (old_rsp + 8) & MASK)
            else:
                addr_src = dyn.addr_src_cells
                dyn.addr_value = effective_address(
                    instr.mem_operand(), lambda r: addr_src[r].value)
            # data side continues in the ar/ma stages
            return
        src = dyn.src_cells
        result = evaluate(instr, lambda r: src[r].value)
        for reg, value in result.reg_writes.items():
            cell = dyn.dest_cells.get(reg)
            if cell is not None and not cell.ready:
                cell.fill(value, now)
        sec = self._sections[dyn.sid - 1]
        if result.out_value is not None:
            sec.outs.append((dyn.index, result.out_value))
        if instr.is_branch and not dyn.control_resolved:
            sec.ip = (result.next_ip if result.next_ip is not None
                      else instr.addr + 1)
            if sec.waiting_control is dyn:
                sec.waiting_control = None
            dyn.control_resolved = True
        dyn.executed = True

    def _fill_rsp(self, dyn: DynInstr, now: int, new_rsp: int) -> None:
        cell = dyn.dest_cells.get(STACK_POINTER)
        if cell is not None and not cell.ready:
            cell.fill(new_rsp, now)

    # ------------------------------------------------------------------
    # address rename
    # ------------------------------------------------------------------

    def _addr_rename(self, now: int) -> None:
        budget = self.cfg.addr_rename_width
        secs = self.open_secs
        if len(secs) > 1:
            secs = sorted(secs, key=lambda s: s.order_index)
        for sec in secs:
            while budget and sec.arq:
                dyn = sec.arq[0]
                if dyn.addr_value is None or dyn.ew == now:
                    break       # in-order: the head blocks the queue
                sec.arq.popleft()
                self._rename_addr_one(sec, dyn, now)
                budget -= 1
            if not budget:
                return

    def _rename_addr_one(self, sec: SectionState, dyn: DynInstr,
                         now: int) -> None:
        addr = dyn.addr_value
        dyn.ar = now
        self.did_work = True
        if dyn.is_load:
            cell = sec.maat.get(addr)
            if cell is None:
                cell = Cell(origin="s%d:mimport:%x" % (sec.sid, addr),
                            is_import=True)
                sec.maat[addr] = cell
                self._proc().send_mem_request(sec, addr, cell, now)
            dyn.load_src_cell = cell
        if dyn.is_store:
            new_cell = None
            if sec.replay_cells is not None:
                new_cell = sec.replay_cells.pop(("m", dyn.index, addr), None)
            if new_cell is None:
                new_cell = Cell(origin="s%d:%d:mem:%x"
                                % (sec.sid, dyn.index, addr))
            sec.maat[addr] = new_cell
            dyn.mem_dest_cell = new_cell
            sec.stores_pending -= 1
        self.lsq.append(dyn)
        self._lsq_dirty = True
        if sec.req_waiters is not None:
            # ARQ head advanced and/or stores_pending dropped: re-check
            # requests parked on this section's memory-final conditions.
            self._proc().section_event(sec)

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------

    def _memory(self, now: int) -> None:
        budget = self.cfg.memory_width
        if not self.lsq or not budget:
            return
        sections = self._sections
        epoch = len(sections)
        if self._lsq_dirty or self._lsq_epoch != epoch:
            self.lsq.sort(key=lambda d: (sections[d.sid - 1].order_index,
                                         d.index))
            self._lsq_dirty = False
            self._lsq_epoch = epoch
        done: List[DynInstr] = []
        for dyn in self.lsq:
            if not budget:
                break
            if dyn.ar is None or dyn.ar >= now:
                continue
            if dyn.is_load and dyn.load_src_cell.value is None:
                continue
            if not dyn.sources_ready():
                continue
            self._memory_one(dyn, now)
            done.append(dyn)
            budget -= 1
        for dyn in done:
            self.lsq.remove(dyn)

    def _memory_one(self, dyn: DynInstr, now: int) -> None:
        sec = self._sections[dyn.sid - 1]
        instr = dyn.instr
        dyn.ma = now
        self.did_work = True
        src = dyn.src_cells
        loaded = dyn.load_src_cell.value if dyn.is_load else None
        result = evaluate(instr, lambda r: src[r].value, loaded=loaded)
        for reg, value in result.reg_writes.items():
            cell = dyn.dest_cells.get(reg)
            if cell is not None and not cell.ready:
                cell.fill(value, now)
        if dyn.is_store:
            if result.mem_value is None:
                raise SimulationError("store %s produced no value" % dyn.tag)
            dyn.mem_dest_cell.fill(result.mem_value, now)
        if result.out_value is not None:
            sec.outs.append((dyn.index, result.out_value))
        if instr.opcode == "ret":
            target = result.next_ip
            if target == HALT_SENTINEL:
                sec.fetch_done = True
                if sec.req_waiters is not None:
                    self._proc().section_event(sec)
            elif not 0 <= target < len(self.code):
                raise SimulationError(
                    "section %d: ret to bad address %#x" % (sec.sid, target))
            else:
                sec.ip = target
            if sec.waiting_control is dyn:
                sec.waiting_control = None
            dyn.control_resolved = True
        dyn.executed = True
        dyn.mem_done = True

    # ------------------------------------------------------------------
    # retire
    # ------------------------------------------------------------------

    def _retire(self, now: int) -> None:
        budget = self.cfg.retire_width
        tracer = self.tracer
        secs = self.open_secs
        if len(secs) > 1:
            secs = sorted(secs, key=lambda s: s.order_index)
        for sec in secs:
            popped = False
            while budget and sec.rob and sec.rob[0].terminated():
                dyn = sec.rob.popleft()
                dyn.ret = now
                self.did_work = True
                popped = True
                budget -= 1
                if tracer is not None:
                    tracer.emit(now, "retire", sid=sec.sid, index=dyn.index)
            if popped and sec.complete:
                # `complete` only ever flips true at the retirement that
                # empties the ROB, so this is the single detection point.
                self._proc().section_completed(sec, self, now)
            if not budget:
                return
