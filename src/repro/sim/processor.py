"""The many-core processor: cores, section order, renaming traffic, DMH.

The processor owns the *total order of sections* (the paper: "the sections
are totally ordered.  New sections are inserted in place in the list of
existing sections, possibly in parallel, building the sequential trace of
the run").  A fork inserts the new section immediately after its creator,
which — because a resume point follows everything its callee descent will
ever produce — reconstructs exactly the sequential trace order.

Renaming requests walk this order backward (see :mod:`repro.sim.requests`);
walking off the oldest end reads the architectural state: initial register
values and the loader-installed data memory hierarchy.
"""

from __future__ import annotations

import gc
import heapq
import random
import weakref
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import SimulationError
from ..faults.recovery import FaultEngine
from ..isa.program import HALT_ADDR, Program, STACK_TOP, WORD
from ..isa.registers import ALL_REGS, FORK_COPIED_REGS, STACK_POINTER
from ..machine.executor import MASK
from ..obs.events import EventTrace, synthesize_core_events
from ..obs.stalls import attribute_stalls, stall_diagnostic
from .cells import Cell, DynInstr
from .config import SimConfig
from .core import Core
from .noc import make_noc
from .requests import RenameRequest
from .section import SectionState, initial_root_fregs
from .stats import (BLOCKED, CORE_STATES, PARKED, STATE_CODES, SimResult,
                    occupancy_counts)


#: park tag of a renaming request waiting on a section's state: "fetch_done"
#: or "mem_final", or ("cut", index) / ("line", addr)
Tag = Union[str, Tuple[str, int]]


class _RequestWaiter:
    """A renaming request's entry on a cell's wake list (cells wake
    anything with a ``wake()``; parked cores are the other kind).  One
    per request, so :meth:`Cell.add_waiter`'s identity dedupe holds
    across re-parks.  The processor keeps every waiter, so the waiter
    holds the processor weakly."""

    __slots__ = ("_proc", "req")

    def __init__(self, proc: "Processor", req: RenameRequest) -> None:
        self._proc = weakref.ref(proc)
        self.req = req

    def wake(self) -> None:
        self._proc()._wake_request(self.req)


class Processor:
    """Simulates a program on the distributed core design."""

    def __init__(self, program: Program, config: Optional[SimConfig] = None,
                 initial_regs: Optional[Dict[str, int]] = None,
                 copied_regs=FORK_COPIED_REGS):
        self.program = program
        self.cfg = config or SimConfig()
        self.copied_regs = frozenset(copied_regs)
        # Mirror BaseMachine's startup exactly: registers zero (plus caller
        # overrides), then the halt sentinel pushed below the stack top.
        self.initial_regs = {name: 0 for name in ALL_REGS}
        self.initial_regs[STACK_POINTER] = STACK_TOP
        if initial_regs:
            for name, value in initial_regs.items():
                self.initial_regs[name] = value & MASK
        sentinel_addr = (self.initial_regs[STACK_POINTER] - WORD) & MASK
        self.initial_regs[STACK_POINTER] = sentinel_addr
        #: the data memory hierarchy: loader image + the halt sentinel
        self.dmh: Dict[int, int] = dict(program.data)
        self.dmh[sentinel_addr] = HALT_ADDR & MASK

        self.noc = make_noc(self.cfg.topology, self.cfg.n_cores,
                            self.cfg.noc_latency)
        #: structured event stream (repro.obs), the kernel's one
        #: observation channel besides its always-on counters: recorded
        #: for SimResult.events and for the windowed metrics that
        #: _result() folds from it.  None keeps the hot paths at a single
        #: is-None test per instrumentation point.
        self.tracer = (EventTrace() if self.cfg.events
                       or self.cfg.metrics_window is not None else None)
        #: every section by creation order: ``sections[sid - 1]``
        self.sections: List[SectionState] = []
        #: the total order of sections (the sequential trace order)
        self.order: List[SectionState] = []
        self.requests: List[RenameRequest] = []
        self._open_sections = 0
        #: (cycle, core id) heap of parked cores' time wakes
        self._timewakes: List[Tuple[int, int]] = []
        # -- event kernel scheduling state; the naive loop never reads it --
        #: ids of the cores not parked: the core sweep's agenda
        self._awake: Set[int] = set(range(self.cfg.n_cores))
        #: cores woken mid-sweep by a lower-id core (they run this cycle)
        self._core_extra: List[int] = []
        #: id of the core the sweep is running; None outside the sweep
        self._core_slot: Optional[int] = None
        #: lazy request scheduler: rids to step at the next pass, rids
        #: woken mid-pass past the running one, the (cycle, rid) time
        #: heap, and the rids parked on a section's state, which a fork
        #: re-routes
        self._req_act: Set[int] = set()
        self._req_extra: List[int] = []
        self._req_timed: List[Tuple[int, int]] = []
        self._route_parked: Set[int] = set()
        #: rid the request pass is stepping; None outside the pass
        self._req_slot: Optional[int] = None
        self._cell_waiters: Dict[int, _RequestWaiter] = {}
        #: requests handed to the scheduler, and those not yet done
        self._admitted = 0
        self._live_requests = 0
        self.cycle = 0
        #: architectural register state of all folded (fully retired
        #: oldest) sections — "the oldest section dumps its renamings"
        self.arch_regs: Dict[str, int] = dict(self.initial_regs)
        #: sections order[0:folded_upto] have been dumped to arch_regs/dmh
        self.folded_upto = 0
        self._rng = random.Random(self.cfg.placement_seed)
        self._rr_next = 1 % self.cfg.n_cores
        #: fault injection + recovery (repro.faults); None — the default —
        #: keeps every hook at a single is-None test
        self.fault_engine: Optional[FaultEngine] = (
            FaultEngine(self, self.cfg.faults)
            if self.cfg.faults is not None else None)
        # last: a core copies the run constants above (see Core)
        self.cores = [Core(i, self) for i in range(self.cfg.n_cores)]

        root = SectionState(
            sid=1, start_ip=program.entry, core_id=0,
            fregs=initial_root_fregs(self.initial_regs), depth=0,
            created_cycle=0, first_fetch_cycle=1)
        self.sections.append(root)
        self.order.append(root)
        self.cores[0].host(root, 1)
        self._open_sections = 1

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate from cycle 0 until every section has retired and every
        renaming request is answered; raises :class:`SimulationError`
        when ``cfg.max_cycles`` runs out first.

        Ownership: the processor owns the run's graph, its cores, its
        sections (``sections`` by creation, ``order`` by total order),
        their dynamic instructions and renamed cells, the renaming
        requests and the fault engine.  No reference leads back up that
        graph: a :class:`DynInstr` names its section by ``sid``, and a
        core, the fault engine and a request's cell waiter hold the
        processor through a :func:`weakref.ref`.  Dropping a finished
        processor therefore frees the whole run by reference counting;
        the :class:`SimResult` holds none of it.

        The run makes no cyclic garbage either, so automatic garbage
        collection is suspended while it runs: a collection would only
        scan the growing live graph and free nothing.  That switch is
        process-global state.  The caller's ``gc.isenabled()`` is
        restored on exit, whether the run returns or raises, and a caller
        that disabled the collector finds it still disabled.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            if self.cfg.kernel == "event":
                self._run_event()
            else:
                self._run_naive()
            return self._result()
        finally:
            if enabled:
                gc.enable()

    def _run_naive(self) -> None:
        """Reference scheduler: tick every core every cycle.  Kept as the
        bit-exact baseline the event-driven fast path is tested against."""
        engine = self.fault_engine
        while not self._finished():
            self.cycle += 1
            if self.cycle > self.cfg.max_cycles:
                raise SimulationError(
                    "cycle budget exhausted at cycle %d: %s"
                    % (self.cycle, self._stall_diagnostic()))
            self._advance_fold()
            if engine is not None:
                engine.begin_cycle(self.cycle)
            self._process_requests(self.cycle)
            for core in self.cores:
                if not core.dead:
                    core.cycle(self.cycle)

    def _run_event(self) -> None:
        """Event-driven kernel: sweep only awake cores, step a renaming
        request only when something it waits on can have changed, and
        jump over cycles in which provably nothing happens.  Produces the
        same per-cycle state evolution as :meth:`_run_naive` — every
        skipped core-cycle, request step and whole cycle is one the naive
        loop executes as a no-op."""
        cores = self.cores
        awake = self._awake
        extra = self._core_extra
        engine = self.fault_engine
        while not self._finished_event():
            self.cycle += 1
            now = self.cycle
            if now > self.cfg.max_cycles:
                raise SimulationError(
                    "cycle budget exhausted at cycle %d: %s"
                    % (now, self._stall_diagnostic()))
            self._advance_fold()
            if engine is not None:
                engine.begin_cycle(now)
            self._process_pending(now)
            if self._timewakes:
                self._wake_due(now)
            # Awake cores in id order.  A core woken by a lower-id core
            # joins this sweep (Core.wake), exactly like the naive loop's
            # slot order; one woken by a higher-id core runs next cycle.
            agenda = sorted(awake)
            k, n = 0, len(agenda)
            while k < n or extra:
                if extra and (k >= n or extra[0] < agenda[k]):
                    cid = heapq.heappop(extra)
                else:
                    cid = agenda[k]
                    k += 1
                core = cores[cid]
                if core.parked:
                    # killed by the fault engine, which parks directly
                    awake.discard(cid)
                    continue
                self._core_slot = cid
                core.cycle(now)
                core.maybe_park(now)
            self._core_slot = None
            issued = len(self.requests)
            if issued > self._admitted:
                # requests issued by this sweep take their first step
                # next cycle (RenameRequest.wake_cycle = now + 1)
                self._req_act.update(range(self._admitted, issued))
                self._live_requests += issued - self._admitted
                self._admitted = issued
            if not awake and not self._finished_event():
                nxt = self._next_event_cycle(now)
                if nxt > now + 1:
                    self.cycle = min(nxt, self.cfg.max_cycles + 1) - 1

    def _advance_fold(self) -> None:
        """Dump completed oldest sections into the architectural state (the
        paper's footnote 6), bounding how far renaming requests walk."""
        while (self.folded_upto < len(self.order)
               and self.order[self.folded_upto].complete):
            section = self.order[self.folded_upto]
            if any(isinstance(e, Cell) and not e.ready
                   for e in section.fregs.values()):
                return      # an import still in flight; fold later
            for reg, entry in section.fregs.items():
                self.arch_regs[reg] = (entry.value if isinstance(entry, Cell)
                                       else entry)
            for addr, cell in section.maat.items():
                if not cell.is_import:
                    self.dmh[addr] = cell.value
            self.folded_upto += 1

    def _finished(self) -> bool:
        if not self.sections[0].fetch_started and self.cycle == 0:
            return False
        return (all(sec.complete for sec in self.sections)
                and all(req.done for req in self.requests))

    # ------------------------------------------------------------------
    # event-driven scheduler machinery
    # ------------------------------------------------------------------

    def _finished_event(self) -> bool:
        """O(1) termination test equivalent to :meth:`_finished`, using
        the open-section and live-request counters."""
        return (self.cycle != 0 and not self._open_sections
                and not self._live_requests)

    def section_completed(self, section: SectionState, core, now: int) -> None:
        """Called by the retire stage at the pop that completes *section*:
        record its completion cycle and leave the open-section working
        sets."""
        if section.completed_cycle is not None:
            return
        section.completed_cycle = now
        core.open_secs.remove(section)
        self._open_sections -= 1
        if self.tracer is not None:
            self.tracer.emit(now, "section_complete", sid=section.sid,
                             core=core.id)

    def schedule_wake(self, cycle: int, core) -> None:
        heapq.heappush(self._timewakes, (cycle, core.id))

    def _wake_due(self, now: int) -> None:
        while self._timewakes and self._timewakes[0][0] <= now:
            _, core_id = heapq.heappop(self._timewakes)
            self.cores[core_id].wake()

    def _next_event_cycle(self, now: int) -> int:
        """Earliest future cycle at which anything can happen, given that
        every core is parked.  A request parked on a cell or a section
        imposes no bound of its own: its condition only flips through
        core, request or fault activity, which the heaps below cover."""
        if self._req_act:
            return now + 1
        candidates = [heap[0][0] for heap in (self._timewakes,
                                              self._req_timed) if heap]
        if self.fault_engine is not None:
            # never jump over a scheduled fail-stop
            fault = self.fault_engine.next_scheduled(now)
            if fault is not None:
                candidates.append(fault)
        if not candidates:
            # Nothing can ever happen again: jump straight to the cycle
            # budget so the deadlock diagnostic fires exactly as in the
            # naive loop.
            return self.cfg.max_cycles + 1
        return max(min(candidates), now + 1)

    # ------------------------------------------------------------------
    # event kernel: the lazy request scheduler
    # ------------------------------------------------------------------

    def _process_pending(self, now: int) -> None:
        """Step the requests that can make progress this cycle, in rid
        order (the naive loop's full-history scan order): those whose
        time-heap entry fell due and those woken by a cell fill, a
        section state flip or a fork.  A request steps at most once per
        cycle.  A wake during the pass for a later rid joins the pass;
        one for an earlier rid waits for the next pass — when the naive
        scan would next reach it."""
        requests = self.requests
        timed = self._req_timed
        act = self._req_act
        while timed and timed[0][0] <= now:
            cycle, rid = heapq.heappop(timed)
            req = requests[rid]
            if not req.done and req.timed_cycle == cycle:
                act.add(rid)        # else superseded by a later entry
        if not act:
            return
        self._req_act = set()
        agenda = sorted(act)
        extra = self._req_extra
        k, n = 0, len(agenda)
        while k < n or extra:
            if extra and (k >= n or extra[0] < agenda[k]):
                rid = heapq.heappop(extra)
            else:
                rid = agenda[k]
                k += 1
            req = requests[rid]
            if req.done or req.step_cycle == now:
                continue
            req.step_cycle = now
            self._req_slot = rid
            self._park_request(req, self._step_request(req, now), now)
        self._req_slot = None

    def _park_request(self, req: RenameRequest,
                      desc: "Union[SectionState, Cell, None]",
                      now: int) -> None:
        """File *req*, just stepped, under whatever can next change its
        state (*desc* is :meth:`_step_request`'s park descriptor).  Every
        parked state has a registered wake, so the only steps skipped
        are ones the naive scan executes as no-op re-checks."""
        if req.done:
            self._live_requests -= 1
        elif req.reply_cycle is not None:
            self._time_request(req, req.reply_cycle)
        elif req.hit_cell is not None:
            if req.hit_cell.ready:
                self._time_request(req, now + 1)
            else:
                waiter = self._cell_waiters.get(req.rid)
                if waiter is None:
                    waiter = self._cell_waiters[req.rid] = \
                        _RequestWaiter(self, req)
                req.hit_cell.add_waiter(waiter)
        elif desc is None:
            self._time_request(req, max(req.wake_cycle, now + 1))
        else:
            tag: Tag
            if isinstance(desc, Cell):
                # coalescing behind an in-flight line import: re-check
                # when it fills or the word itself lands in the MAAT
                sec, tag = req.at_section, ("line", req.addr)
            elif req.use_shortcut and req.cut_index >= 0:
                sec, tag = desc, ("cut", req.cut_index)
            else:
                sec, tag = desc, ("fetch_done" if req.kind == "reg"
                                  else "mem_final")
            waiters = sec.req_waiters
            if waiters is None:
                sec.req_waiters = {tag: {req.rid}}
            elif tag in waiters:
                waiters[tag].add(req.rid)
            else:
                waiters[tag] = {req.rid}
            self._route_parked.add(req.rid)

    def _time_request(self, req: RenameRequest, cycle: int) -> None:
        req.timed_cycle = cycle
        heapq.heappush(self._req_timed, (cycle, req.rid))

    def _wake_request(self, req: RenameRequest) -> None:
        if req.done:
            return
        rid = req.rid
        self._route_parked.discard(rid)
        if self._req_slot is not None and rid > self._req_slot:
            heapq.heappush(self._req_extra, rid)
        else:
            self._req_act.add(rid)

    def section_event(self, sec: SectionState) -> None:
        """A request-visible state component of *sec* flipped
        (fetch_done, stores_pending, renamed_count, ARQ head, MAAT line
        install): wake every parked request whose condition now holds.
        Only the event kernel parks requests on sections, so every call
        site first tests ``sec.req_waiters``."""
        waiters = sec.req_waiters
        if not waiters:
            return
        for tag in [tag for tag in waiters if self._tag_holds(sec, tag)]:
            for rid in waiters.pop(tag):
                self._wake_request(self.requests[rid])
        if not waiters:
            sec.req_waiters = None

    def _tag_holds(self, sec: SectionState, tag: Tag) -> bool:
        if isinstance(tag, str):
            return sec.fetch_done if tag == "fetch_done" else sec.mem_final
        kind, arg = tag
        if kind == "cut":
            # Both halves together: a fail-stop redispatch can clear the
            # ARQ before the cut is renamed again.
            return (sec.renamed_count > arg
                    and (not sec.arq or sec.arq[0].index >= arg))
        # "line": the word itself landed, or the coalesced import filled
        return (sec.maat.get(arg) is not None
                or self._probe_line(sec, arg)[1] is None)

    # ------------------------------------------------------------------
    # section creation (fork)
    # ------------------------------------------------------------------

    def fork_section(self, parent: SectionState, dyn: DynInstr,
                     now: int) -> SectionState:
        existing = parent.fork_children.get(dyn.index)
        if existing is not None:
            # Fail-stop replay refetching a fork it already executed: the
            # child exists (and may long since have completed) — re-use it
            # instead of inserting a duplicate section.
            return self.sections[existing - 1]
        snapshot = {}
        for reg in self.copied_regs:
            entry = parent.fregs.get(reg)
            if entry is None:
                raise SimulationError(
                    "section %d forked with copied register %s empty"
                    % (parent.sid, reg))
            snapshot[reg] = entry
        core_id = self._place(parent)
        sec = SectionState(
            sid=len(self.sections) + 1,
            start_ip=dyn.instr.addr + 1,
            core_id=core_id,
            fregs=snapshot,
            depth=parent.fetch_depth,
            created_cycle=now,
            first_fetch_cycle=now + self.cfg.section_create_latency + 1,
            parent_sid=parent.sid,
            created_at_index=dyn.index,
        )
        sec.created_by_loop = dyn.instr.opcode == "forkloop"
        self.sections.append(sec)
        position = parent.order_index + 1
        self.order.insert(position, sec)
        for index in range(position, len(self.order)):
            self.order[index].order_index = index
        # the naive sweep sees the new section at the target's slot this
        # cycle if the forking core runs earlier in core order, else next
        self.cores[core_id].host(
            sec, now if parent.core_id < core_id else now + 1)
        self._open_sections += 1
        parent.fork_children[dyn.index] = sec.sid
        if self._route_parked:
            # The total order changed: a request parked on a section may
            # now walk through the new one.  Forks happen in the core
            # sweep, so the re-steps land next cycle, when the naive scan
            # re-routes them.
            self._req_act |= self._route_parked
            self._route_parked = set()
        if self.tracer is not None:
            self.tracer.emit(now, "section_fork", parent=parent.sid,
                             child=sec.sid, core=core_id,
                             first_fetch=sec.first_fetch_cycle)
        return sec

    def _place(self, parent: SectionState) -> int:
        policy = self.cfg.placement
        engine = self.fault_engine
        if policy == "same_core":
            core_id = parent.core_id
            if engine is not None and engine.any_dead:
                # a replayed section's "same core" may be the dead one
                core_id = engine.live_core_from(core_id)
            return core_id
        if policy == "random":
            core_id = self._rng.randrange(self.cfg.n_cores)
            if engine is not None and engine.any_dead:
                core_id = engine.live_core_from(core_id)
            return core_id
        if policy == "least_loaded":
            # open_secs tracks exactly the incomplete hosted sections
            if engine is not None and engine.any_dead:
                return engine.pick_live_core().id
            loads = [len(core.open_secs) for core in self.cores]
            return loads.index(min(loads))
        # round robin
        core_id = self._rr_next
        self._rr_next = (self._rr_next + 1) % self.cfg.n_cores
        if engine is not None and engine.any_dead:
            core_id = engine.live_core_from(core_id)
        return core_id

    # ------------------------------------------------------------------
    # renaming requests
    # ------------------------------------------------------------------

    def send_reg_request(self, sec: SectionState, reg: str, cell: Cell,
                         now: int) -> None:
        req = RenameRequest(
            kind="reg", requester=sec, dest_cell=cell, reg=reg,
            rid=len(self.requests),
            before=sec, cur_core=sec.core_id, issued_cycle=now,
            wake_cycle=now + 1)
        self.requests.append(req)
        if self.tracer is not None:
            self.tracer.emit(now, "request_issue", rid=req.rid, kind="reg",
                             sid=sec.sid, core=sec.core_id, what=reg)

    def send_mem_request(self, sec: SectionState, addr: int, cell: Cell,
                         now: int) -> None:
        use_shortcut = False
        if self.cfg.stack_shortcut:
            rsp = sec.freg_value(STACK_POINTER)
            if rsp is not None and addr >= rsp:
                use_shortcut = True
        req = RenameRequest(
            kind="mem", requester=sec, dest_cell=cell, addr=addr,
            rid=len(self.requests),
            use_shortcut=use_shortcut,
            before=sec, cut_child=sec, cur_core=sec.core_id,
            issued_cycle=now, wake_cycle=now + 1)
        self.requests.append(req)
        if self.tracer is not None:
            self.tracer.emit(now, "request_issue", rid=req.rid, kind="mem",
                             sid=sec.sid, core=sec.core_id, what=addr)

    def _hop(self, src_core: int, dst_core: int, now: int,
             req: Optional[RenameRequest] = None) -> int:
        if src_core == dst_core:
            return 0
        latency = self.noc.latency(src_core, dst_core)
        if self.fault_engine is not None:
            latency = self.fault_engine.perturb_hop(
                src_core, dst_core, now, latency,
                req.rid if req is not None else -1,
                req.requester.sid if req is not None else 0)
        self.noc.record_transfer(latency)
        if self.tracer is not None:
            self.tracer.emit(now, "noc_send", src=src_core, dst=dst_core,
                             latency=latency)
            self.tracer.emit(now + latency, "noc_deliver", src=src_core,
                             dst=dst_core)
        return latency

    def _walk_pred(self, req: RenameRequest,
                   before: SectionState) -> Optional[SectionState]:
        """Current total-order predecessor of *before*; None once the walk
        reaches folded (architecturally dumped) sections."""
        index = before.order_index - 1
        if index < self.folded_upto:
            return None
        return self.order[index]

    def _process_requests(self, now: int) -> None:
        for req in self.requests:
            if req.done:
                continue
            self._step_request(req, now)

    def _fill_dest(self, req: RenameRequest, now: int) -> None:
        """Deliver the answer into the requester's import cell, and a
        full-line DMH reply into the return path.  A memory fill changes
        the requester's MAAT-pending-import state, which requests parked
        on its line may be waiting on."""
        req.dest_cell.fill(req.value, now)
        req.done = True
        if req.line_values:
            self._install_line(req, now)
        elif req.kind == "mem" and req.requester.req_waiters is not None:
            self.section_event(req.requester)
        if self.tracer is not None:
            self.tracer.emit(now, "request_fill", rid=req.rid,
                             sid=req.requester.sid, value=req.value)

    def _step_request(self, req: RenameRequest, now: int
                      ) -> "Union[SectionState, Cell, None]":
        """Advance *req* one cycle.

        The return value is a *park descriptor* for the event kernel's
        lazy request scheduler (:meth:`_park_request`): the
        :class:`SectionState` whose final-state condition the request is
        waiting on, the pending line-import :class:`Cell` it is
        coalescing behind, or None (any other state — progressing, timed,
        waiting on ``hit_cell``, done).  The naive loop ignores it.
        """
        tracer = self.tracer
        # reply in flight
        if req.reply_cycle is not None:
            if now >= req.reply_cycle:
                self._fill_dest(req, now)
            return None
        # waiting for the producer's value
        if req.hit_cell is not None:
            if req.hit_cell.ready:
                req.value = req.hit_cell.value
                delay = self._hop(req.producer_core, req.requester.core_id,
                                  now, req)
                if delay == 0:
                    self._fill_dest(req, now)
                else:
                    req.reply_cycle = now + delay
                    if tracer is not None:
                        tracer.emit(now, "request_reply", rid=req.rid,
                                    src=req.producer_core,
                                    dst=req.requester.core_id,
                                    arrive=req.reply_cycle)
            return None
        if now < req.wake_cycle:
            return None
        if req.use_shortcut:
            return self._step_shortcut_request(req, now)
        # (re)route to the current predecessor of `before` — sections may
        # have been inserted between the parked position and the requester
        pred = self._walk_pred(req, req.before)
        if pred is None:
            self._answer_architectural(req, now)
            return None
        if pred is not req.at_section:
            src_core = req.cur_core
            hops = self._hop(src_core, pred.core_id, now, req)
            req.at_section = pred
            req.cur_core = pred.core_id
            req.hops += 1
            if tracer is not None:
                tracer.emit(now, "request_hop", rid=req.rid, src=src_core,
                            dst=pred.core_id, sid=pred.sid, wait=hops)
            if hops:
                req.wake_cycle = now + hops
                return None
            # same core: fall through, the lookup proceeds this cycle
        pred = req.at_section
        # parked at `pred`: answer only from final state
        if req.kind == "reg":
            if not pred.fetch_done:
                return pred
            entry = pred.fregs.get(req.reg)
        else:
            if not pred.mem_final:
                return pred
            entry = pred.maat.get(req.addr)
            if entry is None or req.line_clean:
                touched, pending = self._probe_line(pred, req.addr)
                if req.line_clean:
                    if touched:
                        req.line_clean = False
                    else:
                        if req.visited is None:
                            req.visited = []
                        req.visited.append(pred)
                if entry is None and pending is not None:
                    # A walk for the same memory line is already in flight
                    # through this section: coalesce (MSHR-style) — once
                    # that import fills, the line lands here and we hit
                    # locally.
                    req.wake_cycle = now + 1
                    return pending
        if entry is None:
            # miss: hop to the next predecessor right away (one cycle per
            # section visited — "the renaming request travels from section
            # to section until a producer is found")
            req.before = pred
            nxt = self._walk_pred(req, pred)
            if nxt is None:
                self._answer_architectural(req, now)
                return None
            req.at_section = nxt
            src_core = req.cur_core
            hop = self._hop(src_core, nxt.core_id, now, req)
            req.cur_core = nxt.core_id
            req.hops += 1
            wait = max(hop, 1)
            req.wake_cycle = now + wait
            if tracer is not None:
                tracer.emit(now, "request_hop", rid=req.rid, src=src_core,
                            dst=nxt.core_id, sid=nxt.sid, wait=wait)
            return None
        if isinstance(entry, Cell):
            req.hit_cell = entry
            req.producer_core = pred.core_id
            req.producer_sid = pred.sid
            if tracer is not None:
                tracer.emit(now, "request_hit", rid=req.rid, sid=pred.sid,
                            core=pred.core_id)
        else:
            req.value = entry
            req.producer_sid = pred.sid
            delay = self._hop(pred.core_id, req.requester.core_id, now, req)
            req.reply_cycle = now + max(delay, 1)
            if tracer is not None:
                tracer.emit(now, "request_hit", rid=req.rid, sid=pred.sid,
                            core=pred.core_id)
                tracer.emit(now, "request_reply", rid=req.rid,
                            src=pred.core_id, dst=req.requester.core_id,
                            arrive=req.reply_cycle)
        return None

    def _install_line(self, req: RenameRequest, now: int) -> None:
        """Cache the DMH line along the return path: the requester and
        every visited section map each word they do not already map to
        one shared, filled import cell, so later requests for
        neighbouring words hit close by.  Sharing is safe because a cell
        is written once, at its fill, and a MAAT store replaces the entry
        instead of writing the cell.  Sound because the clean-line walk
        proved no earlier section touched the line (and visited sections
        are fetch-complete, so no new forks can insert writers behind
        them)."""
        cells = []
        for word, value in req.line_values:
            cell = Cell(origin="dmh:line:%x" % word, is_import=True)
            cell.fill(value, now)
            cells.append((word, cell))
        for section in [req.requester] + (req.visited or []):
            for word, cell in cells:
                section.maat.setdefault(word, cell)
            if section.req_waiters is not None:
                self.section_event(section)

    def _probe_line(self, section: SectionState, addr: int
                    ) -> Tuple[bool, Optional[Cell]]:
        """One scan of *section*'s MAAT over addr's memory line, addr
        itself excluded: does it map any other word of the line, and its
        first not-yet-filled import among them, if any (a request for
        addr coalesces behind it)."""
        maat = section.maat
        if not maat:
            return False, None
        touched = False
        base = addr & ~(self.cfg.line_bytes - 1)
        for word in range(base, base + self.cfg.line_bytes, WORD):
            if word == addr:
                continue
            cell = maat.get(word)
            if cell is not None:
                if cell.is_import and cell.value is None:
                    return True, cell
                touched = True
        return touched, None

    def _step_shortcut_request(self, req: RenameRequest, now: int
                               ) -> Optional[SectionState]:
        """Stack-shortcut walk: query the creator chain against pre-fork
        cuts (see :mod:`repro.sim.requests`).  Returns the section the
        request parked on (a park descriptor, see :meth:`_step_request`),
        or None."""
        if req.at_section is None:
            child = req.cut_child
            if child.parent_sid == 0:
                self._answer_architectural(req, now)
                return None
            parent = self.sections[child.parent_sid - 1]
            # Loop links invalidate the cut (-1): see below.
            req.cut_index = -1 if child.created_by_loop else child.created_at_index
            req.at_section = parent
            req.hops += 1
            src_core = req.cur_core
            hops = self._hop(src_core, parent.core_id, now, req)
            req.cur_core = parent.core_id
            wait = max(hops, 1)
            req.wake_cycle = now + wait
            if self.tracer is not None:
                self.tracer.emit(now, "request_hop", rid=req.rid,
                                 src=src_core, dst=parent.core_id,
                                 sid=parent.sid, wait=wait)
            return None
        section = req.at_section
        if req.cut_index < 0:
            # The link crossed was a forkloop: the parent's post-fork flow
            # (the loop body) shares the requester's frame, so its stores
            # count — wait for the whole section to be memory-final.
            if not section.mem_final:
                return section
        else:
            # Call link: answerable once every pre-cut store has been
            # address-renamed.  All pre-cut instructions are fetched (the
            # fork ran), so renaming plus the in-order ARQ give the cut.
            if section.renamed_count <= req.cut_index:
                return section
            if section.arq and section.arq[0].index < req.cut_index:
                return section
        entry = section.maat.get(req.addr)
        if entry is None:
            req.cut_child = section
            req.at_section = None
            return None
        req.hit_cell = entry
        req.producer_core = section.core_id
        req.producer_sid = section.sid
        if self.tracer is not None:
            self.tracer.emit(now, "request_hit", rid=req.rid,
                             sid=section.sid, core=section.core_id)
        return None

    def _answer_architectural(self, req: RenameRequest, now: int) -> None:
        """The walk fell off the oldest live section: read the architectural
        state (initial values plus everything folded so far)."""
        port = self.noc.dmh_latency_from(req.requester.core_id)
        self.noc.dmh_reads += 1
        if req.kind == "reg":
            req.value = self.arch_regs.get(req.reg, 0)
            delay = port
        else:
            req.value = self.dmh.get(req.addr, 0)
            delay = self.cfg.dmh_latency + port
            # Full-line reply (paper: "the hardware can access full cache
            # lines instead of single words and cache the accessed lines
            # along the return path", footnote 5): when the walk proved no
            # earlier section touched the line, the requester caches the
            # neighbouring words, so neighbour sections reading t[i+1]
            # find them one hop away instead of walking back to the DMH.
            if req.line_clean and not req.use_shortcut:
                base = req.addr & ~(self.cfg.line_bytes - 1)
                req.line_values = [
                    (word, self.dmh.get(word, 0))
                    for word in range(base, base + self.cfg.line_bytes, WORD)]
        if self.fault_engine is not None:
            # the DMH port is link endpoint -1 for fault purposes
            delay = self.fault_engine.perturb_hop(
                -1, req.requester.core_id, now, delay, req.rid,
                req.requester.sid)
        req.reply_cycle = now + max(delay, 1)
        if self.tracer is not None:
            self.tracer.emit(now, "request_dmh", rid=req.rid,
                             core=req.requester.core_id,
                             arrive=req.reply_cycle)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def final_state(self) -> Tuple[Dict[str, int], Dict[int, int]]:
        """Architectural registers and memory after completion: fold every
        section's end state in total order (the paper's successive "oldest
        section dumps its renamings to the DMH")."""
        regs = dict(self.initial_regs)
        memory = dict(self.dmh)
        for sec in self.order:
            for reg, entry in sec.fregs.items():
                regs[reg] = entry.value if isinstance(entry, Cell) else entry
            for addr, cell in sec.maat.items():
                if not cell.is_import:
                    memory[addr] = cell.value
        return regs, memory

    def outputs(self) -> List[int]:
        out: List[Tuple[int, int, int]] = []
        for sec in self.order:
            for index, value in sec.outs:
                out.append((sec.order_index, index, value))
        out.sort()
        return [value for _, _, value in out]

    def all_instructions(self) -> List[DynInstr]:
        result: List[DynInstr] = []
        for sec in self.order:
            result.extend(sec.instructions)
        return result

    def _result(self) -> SimResult:
        self._advance_fold()      # the final sections complete on the last
        regs, memory = self.final_state()   # cycle, after the cycle's fold
        instrs = self.all_instructions()
        fetch_end = max((d.fd for d in instrs), default=0)
        retire_end = max((d.ret for d in instrs if d.ret is not None),
                         default=0)
        for core in self.cores:
            core.close_timeline(self.cycle)
        trace = None
        if self.cfg.trace:
            trace = ["".join(STATE_CODES[state] * n
                             for state, n in core.timeline)
                     for core in self.cores]
        events = None
        stall_causes = None
        tracer = self.tracer
        if tracer is not None and self.cfg.events:
            tracer.events.extend(synthesize_core_events(
                [core.timeline for core in self.cores],
                CORE_STATES, (BLOCKED, PARKED)))
            tracer.events.sort(key=lambda e: e[0])  # stable: keeps
            events = tracer.events                  # emission order
            stall_causes = attribute_stalls(self)
        metrics = None
        if self.cfg.metrics_window is not None:
            from ..obs.metrics import derive_cycle_metrics
            metrics = derive_cycle_metrics(self, self.cfg.metrics_window)
        return SimResult(
            cycles=self.cycle,
            instructions=len(instrs),
            sections=len(self.sections),
            outputs=self.outputs(),
            final_regs=regs,
            final_memory=memory,
            fetch_end=fetch_end,
            retire_end=retire_end,
            fetch_computed=sum(core.fetch_computed for core in self.cores),
            requests=len(self.requests),
            request_hops=sum(req.hops for req in self.requests),
            per_core_instructions=[core.fetched for core in self.cores],
            request_latencies=[
                req.dest_cell.ready_cycle - req.issued_cycle
                for req in self.requests
                if req.done and req.dest_cell.ready_cycle is not None],
            scheduler=self.cfg.kernel,
            core_occupancy=[occupancy_counts(core.timeline)
                            for core in self.cores],
            section_occupancy=self._section_occupancy(),
            noc_stats=self.noc.stats(),
            trace=trace,
            events=events,
            stall_causes=stall_causes,
            fault_stats=(self.fault_engine.stats.as_dict()
                         if self.fault_engine is not None else None),
            metrics=metrics,
        )

    def _section_occupancy(self) -> Dict[int, Dict[str, int]]:
        """Per-section lifetime histogram: cycles with a fetch (the
        distinct fetch cycles of its instructions, those of its last
        incarnation after a re-dispatch) vs cycles spent blocked between
        creation and completion."""
        histogram: Dict[int, Dict[str, int]] = {}
        for sec in self.sections:
            completed = (sec.completed_cycle if sec.completed_cycle
                         is not None else self.cycle)
            lifetime = max(completed - sec.created_cycle, 0)
            fetch_cycles = len({dyn.fd for dyn in sec.instructions})
            histogram[sec.sid] = {
                "core": sec.core_id,
                "created": sec.created_cycle,
                "completed": completed,
                "fetch_cycles": fetch_cycles,
                "blocked_cycles": max(lifetime - fetch_cycles, 0),
            }
        return histogram

    def _stall_diagnostic(self) -> str:
        return stall_diagnostic(self)

    # -- presentation -------------------------------------------------------

    def timing_table(self) -> str:
        """Figure 10: one block per core, stage cycles per instruction."""
        blocks: List[str] = []
        for core in self.cores:
            hosted = sorted(core.hosted, key=lambda s: s.order_index)
            if not any(sec.instructions for sec in hosted):
                continue
            lines = ["core %d pipeline" % (core.id + 1),
                     "%-8s %5s %5s %5s %5s %5s %5s" % (
                         "", "fd", "rr", "ew", "ar", "ma", "ret")]
            for sec in hosted:
                for dyn in sec.instructions:
                    cells = ["%5s" % ("" if v is None else v)
                             for v in dyn.stage_cycles()]
                    lines.append("%-8s %s  %s" % (
                        "%d-%d" % (sec.order_index + 1, dyn.index + 1),
                        " ".join(cells), dyn.instr))
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


def simulate(program: Program, config: Optional[SimConfig] = None,
             initial_regs: Optional[Dict[str, int]] = None
             ) -> Tuple[SimResult, Processor]:
    """Run *program* on the simulated many-core; returns (result, processor)
    so callers can inspect per-instruction timing.  ``config.kernel``
    selects the simulation kernel; both are bit-identical on every
    compared result field."""
    cfg = config or SimConfig()
    if cfg.optimize:
        # imported lazily: repro.analysis is a consumer of this package
        from ..analysis.opt import optimize_program
        program = optimize_program(program).program
    proc = Processor(program, config=cfg, initial_regs=initial_regs)
    result = proc.run()
    return result, proc
