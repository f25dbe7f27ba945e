"""Resilience mechanisms: retry/backoff, dedupe, section re-dispatch.

The :class:`FaultEngine` sits between a :class:`~repro.sim.processor.
Processor` and its :class:`~repro.faults.models.FaultPlan` and implements
the recovery protocols the plan's faults demand:

* **ack / timeout / re-send** — a dropped message is detected by the
  missing ack; the sender re-sends after a capped exponential backoff.
  Because every fault decision is a pure hash of its coordinates
  (:mod:`repro.faults.models`), the whole drop/retry ladder of one
  message is computable at send time, so it is modelled as *additive
  latency* on the hop: the sum of the backoff timeouts of the dropped
  attempts plus the final delivering flight.  Both schedulers therefore
  see identical delivery cycles without simulating per-attempt state.

* **idempotent re-send on ack loss** — a delivered message whose ack is
  lost is sent again; the receiver dedupes by request id.  The renaming
  protocol is idempotent by construction (filling a cell is a
  single-assignment event), so ack loss is pure accounting: a counted
  duplicate, no semantic effect.

* **fail-stop + section re-dispatch** — when a core dies, its open
  (incomplete) sections restart from their section-entry architectural
  snapshot on a live core.  This is sound *because renaming makes the
  run single-assignment* (the paper's §3 argument): a section's
  execution is a pure function of its entry register snapshot and the
  values its renaming requests return, so re-running it produces the
  same values.  The re-dispatched incarnation re-uses the unfilled
  destination cells of the dead incarnation (keyed by instruction index),
  so consumers that already hold references — forked children's
  snapshots, parked renaming requests — are eventually filled with the
  same single-assignment values.

The engine never imports :mod:`repro.sim` (the processor is duck-typed),
keeping the dependency one-way: sim -> faults.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional

from ..errors import SimulationError
from .models import FaultPlan


class FaultStats:
    """Counters of injected faults and recovery work, identical across
    scheduler modes (they are driven from mode-identical decision
    points)."""

    __slots__ = ("drops", "retries", "backoff_cycles", "spike_count",
                 "spike_cycles", "jitter_cycles", "ack_losses",
                 "dup_sends_deduped", "deaths", "redispatches",
                 "replayed_instructions")

    def __init__(self) -> None:
        self.drops = 0                  #: message send attempts dropped
        self.retries = 0                #: re-sends after a timeout
        self.backoff_cycles = 0         #: cycles spent waiting for timeouts
        self.spike_count = 0            #: messages hit by a latency spike
        self.spike_cycles = 0           #: extra cycles those spikes added
        self.jitter_cycles = 0          #: core-cycles lost to fetch jitter
        self.ack_losses = 0             #: delivered messages whose ack died
        self.dup_sends_deduped = 0      #: duplicates dropped by rid dedupe
        self.deaths = 0                 #: cores fail-stopped
        self.redispatches = 0           #: sections restarted elsewhere
        self.replayed_instructions = 0  #: instructions fetched before death
        #                                  and thrown away (lost work)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class FaultEngine:
    """Runtime side of a :class:`FaultPlan`, owned by one Processor.

    The processor and its cores hold the engine, so the engine holds the
    processor weakly (a strong reference back would make every finished
    run a reference cycle) and keeps the event tracer it emits to.  It
    reaches the processor only when a core dies or a placement must
    avoid a dead one.
    """

    def __init__(self, proc: Any, plan: FaultPlan) -> None:
        self._proc = weakref.ref(proc)
        self.tracer = proc.tracer
        self.plan = plan
        self.stats = FaultStats()
        #: scheduled deaths not yet applied, soonest first
        self._deaths = sorted(plan.deaths, key=lambda d: (d.cycle, d.core))
        self.any_dead = False

    # ------------------------------------------------------------------
    # per-cycle hook (both run loops, right after the fold)
    # ------------------------------------------------------------------

    def begin_cycle(self, now: int) -> None:
        """Apply every scheduled death whose cycle has arrived."""
        while self._deaths and self._deaths[0].cycle <= now:
            death = self._deaths.pop(0)
            self._kill_core(self._proc().cores[death.core], now)

    def next_scheduled(self, now: int) -> Optional[int]:
        """Earliest future scheduled-fault cycle: bounds the event
        scheduler's all-parked cycle skip so a death is never jumped
        over."""
        if self._deaths:
            return max(self._deaths[0].cycle, now + 1)
        return None

    # ------------------------------------------------------------------
    # message perturbation (hop / DMH reply latency)
    # ------------------------------------------------------------------

    def perturb_hop(self, src: int, dst: int, now: int, base: int,
                    rid: int, sid: int) -> int:
        """Effective latency of a message on link src->dst sent at *now*
        whose fault-free flight is *base* cycles.

        Folds the whole deterministic drop/retry ladder into the return
        value: each dropped attempt costs its backoff timeout, then the
        delivering attempt pays base plus any latency spike.  After
        ``max_resends`` drops the send is forced through (escalation
        path), so delivery — hence simulator progress — is guaranteed.
        """
        plan = self.plan
        stats = self.stats
        tracer = self.tracer
        delay = 0
        attempt = 0
        while (attempt < plan.max_resends
               and plan.dropped(src, dst, now + delay, attempt)):
            wait = plan.retry_wait(attempt)
            stats.drops += 1
            stats.retries += 1
            stats.backoff_cycles += wait
            if tracer is not None:
                tracer.emit(now + delay, "fault_injected", fault="drop",
                            rid=rid, src=src, dst=dst, attempt=attempt)
                tracer.emit(now + delay + wait, "msg_retry", rid=rid,
                            sid=sid, src=src, dst=dst,
                            attempt=attempt + 1, wait=wait)
            delay += wait
            attempt += 1
        extra = plan.spike_extra_at(src, dst, now + delay)
        if extra:
            stats.spike_count += 1
            stats.spike_cycles += extra
            if tracer is not None:
                tracer.emit(now + delay, "fault_injected", fault="spike",
                            rid=rid, src=src, dst=dst, extra=extra)
        total = delay + base + extra
        if plan.ack_lost(src, dst, now + total):
            # The message arrived but its ack did not: the sender re-sends
            # and the receiver drops the duplicate by request id.  The
            # renaming protocol is idempotent, so this is accounting only.
            stats.ack_losses += 1
            stats.dup_sends_deduped += 1
            if tracer is not None:
                tracer.emit(now + total, "fault_injected", fault="ack_loss",
                            rid=rid, src=src, dst=dst)
        return total

    def fetch_blocked(self, core: Any, now: int) -> bool:
        """Slow-core jitter: does *core*'s fetch stage lose cycle *now*?

        Only counted when the core actually has fetchable work — a parked
        core's skipped cycles must stay no-ops for the event scheduler to
        remain bit-identical to the naive loop.
        """
        if not self.plan.jittered(core.id, now):
            return False
        if not core._runnable_sections(now):
            return False
        self.stats.jitter_cycles += 1
        if self.tracer is not None:
            self.tracer.emit(now, "fault_injected", fault="jitter",
                             core=core.id)
        return True

    # ------------------------------------------------------------------
    # fail-stop + re-dispatch
    # ------------------------------------------------------------------

    def _kill_core(self, core: Any, now: int) -> None:
        if core.dead:
            return
        core.fail_stop(now)
        self.any_dead = True
        self.stats.deaths += 1
        if self.tracer is not None:
            self.tracer.emit(now, "core_dead", core=core.id)
        victims = sorted(core.open_secs, key=lambda s: s.order_index)
        if self.plan.redispatch:
            for sec in victims:
                self._redispatch(sec, core, now)
        # Without redispatch the victims stay marooned: the run either
        # completes (the dead core hosted nothing live) or exhausts the
        # cycle budget with a diagnostic naming the dead core.

    def _redispatch(self, sec: Any, dead_core: Any, now: int) -> None:
        target = self.pick_live_core()
        self.stats.replayed_instructions += len(sec.instructions)
        first_fetch = now + self.plan.redispatch_latency + 1
        dead_core.open_secs.remove(sec)
        dead_core.hosted.remove(sec)
        sec.redispatch_reset(target.id, first_fetch)
        # fail-stops apply before the core sweep: visible this cycle
        target.host(sec, now)
        self.stats.redispatches += 1
        if self.tracer is not None:
            self.tracer.emit(now, "section_redispatch", sid=sec.sid,
                             src=dead_core.id, dst=target.id,
                             first_fetch=first_fetch)

    def pick_live_core(self) -> Any:
        """Least-loaded live core (ties to the lowest id) — the failover
        placement."""
        live = [c for c in self._proc().cores if not c.dead]
        if not live:
            raise SimulationError("every core has fail-stopped — nothing "
                                  "left to run on")
        return min(live, key=lambda c: (len(c.open_secs), c.id))

    def live_core_from(self, core_id: int) -> int:
        """First live core at or after *core_id* (wrapping): keeps the
        round-robin and random placement policies off dead cores."""
        cores = self._proc().cores
        n = len(cores)
        for step in range(n):
            candidate = (core_id + step) % n
            if not cores[candidate].dead:
                return candidate
        raise SimulationError("every core has fail-stopped — nothing "
                              "left to run on")
