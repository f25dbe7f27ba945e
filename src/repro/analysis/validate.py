"""Differential validation: static live-across sets vs. dynamic traces.

The soundness theorem behind the linter is:

    If a section reads register *r* before writing it, then *r* is in the
    ``flow``-view live-in set at the section's first instruction.

A section's dynamic execution follows exactly the edges of the ``flow``
view (fall/branch, ``call -> target``, ``ret -> return site``,
``fork -> target``), so any read-before-write the dynamics perform lies
on some static path — and may-liveness covers every static path.

This module checks that theorem against the two dynamic oracles:

* :func:`validate_machine` replays the functional :class:`ForkedMachine`
  trace and accumulates each section's read-before-write set directly
  from the architectural reads.
* :func:`validate_sim` runs the distributed cycle simulator with event
  tracing on and takes the ``request_issue`` events of kind ``"reg"`` —
  the registers a section *actually requested* through the renaming
  network (PR 2's event stream).  The simulator seeds each new section
  with its fork-copied registers, so requests only ever cover non-copied
  registers; the precision report compares against the matching slice of
  the prediction.

Soundness violations (a dynamic read the static set missed) are hard
failures; precision (how much of the prediction the dynamics exercised)
is reported but never fails — may-liveness is allowed to over-approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set,
                    Tuple)

from ..isa.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import SimConfig
from ..isa.registers import FORK_COPIED_REGS
from .cfg import CFG
from .dataflow import Liveness, liveness


@dataclass(frozen=True)
class SectionCheck:
    """One section's observed reads against the static prediction."""

    sid: int
    start_ip: int
    observed: FrozenSet[str]     #: registers dynamically read before write
    predicted: FrozenSet[str]    #: static flow live-in at ``start_ip``
    missed: FrozenSet[str]       #: observed - predicted (soundness holes)

    @property
    def sound(self) -> bool:
        return not self.missed


@dataclass
class ValidationReport:
    """All per-section checks for one program plus the shared analyses."""

    program: Program
    cfg: CFG
    flow: Liveness
    source: str                  #: "machine" or "sim"
    checks: List[SectionCheck]

    @property
    def sound(self) -> bool:
        return all(c.sound for c in self.checks)

    @property
    def missed(self) -> List[Tuple[int, str]]:
        """Every soundness hole as ``(sid, reg)``, in section order."""
        return [(c.sid, reg) for c in self.checks for reg in sorted(c.missed)]

    def precision(self) -> Tuple[int, int]:
        """(dynamically exercised, statically predicted) register counts,
        summed over sections.  Ratio 1.0 means the prediction is exact."""
        observed = sum(len(c.observed & c.predicted) for c in self.checks)
        predicted = sum(len(c.predicted) for c in self.checks)
        return observed, predicted

    def format(self) -> List[str]:
        lines = []
        for c in self.checks:
            status = "ok" if c.sound else "UNSOUND missing %s" % sorted(c.missed)
            lines.append(
                "section %d @%d: observed %d / predicted %d — %s"
                % (c.sid, c.start_ip, len(c.observed), len(c.predicted),
                   status))
        hit, total = self.precision()
        ratio = hit / total if total else 1.0
        lines.append(
            "%s: %s, precision %d/%d (%.0f%%) over %d section(s)"
            % (self.source, "sound" if self.sound else "UNSOUND",
               hit, total, 100.0 * ratio, len(self.checks)))
        return lines


def _build(program: Program) -> Tuple[CFG, Liveness]:
    cfg = CFG(program)
    return cfg, liveness(cfg, "flow")


def _check(sid: int, start_ip: int, observed: FrozenSet[str],
           predicted: FrozenSet[str]) -> SectionCheck:
    return SectionCheck(sid=sid, start_ip=start_ip, observed=observed,
                        predicted=predicted,
                        missed=observed - predicted)


def validate_machine(program: Program,
                     max_steps: Optional[int] = None) -> ValidationReport:
    """Replay the functional section machine and check every section's
    read-before-write set against the static flow live-in."""
    from ..machine.forked import ForkedMachine
    cfg, flow = _build(program)
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    machine = ForkedMachine(program, **kwargs)
    observed: Dict[int, Set[str]] = {}
    written: Dict[int, Set[str]] = {}
    for entry in machine.step_entries():
        sid = entry.section
        seen = written.setdefault(sid, set())
        first = observed.setdefault(sid, set())
        for reg in entry.reg_reads:
            if reg not in seen:
                first.add(reg)
        seen.update(entry.reg_writes)
    checks = [
        _check(info.sid, info.start_ip,
               frozenset(observed.get(info.sid, ())),
               flow.regs_in(info.start_ip))
        for info in machine.section_table()
    ]
    return ValidationReport(program=program, cfg=cfg, flow=flow,
                            source="machine", checks=checks)


def validate_sim(program: Program,
                 config: "Optional[SimConfig]" = None,
                 kernel: Optional[str] = None) -> ValidationReport:
    """Run the cycle simulator with event tracing and check the renaming
    requests each section issued (PR 2's event stream) against the static
    flow live-in.

    ``kernel`` selects the simulation kernel (``"event"`` or
    ``"naive"``) so the theorem is provable against both kernels, not
    just the default one; it overrides the kernel of an explicit
    *config*.

    The simulator satisfies fork-copied registers from the fork-time
    snapshot, so requests only cover non-copied registers; ``predicted``
    is restricted to that slice (for the root section, which is seeded
    with the whole architectural file, the predicted request set is
    empty).
    """
    import dataclasses
    from ..obs.events import collect_reg_requests
    from ..sim import SimConfig, simulate
    cfg, flow = _build(program)
    if config is None:
        config = SimConfig(events=True, kernel=kernel or "event")
    else:
        if kernel is not None and config.kernel != kernel:
            config = dataclasses.replace(config, kernel=kernel)
        if not config.events:
            config = dataclasses.replace(config, events=True)
    result, proc = simulate(program, config)
    requested = collect_reg_requests(result.events or ())
    checks: List[SectionCheck] = []
    for sec in proc.sections:
        observed = requested.get(sec.sid, frozenset())
        if sec.sid == 1:
            predicted: FrozenSet[str] = frozenset()
        else:
            predicted = flow.regs_in(sec.start_ip) - FORK_COPIED_REGS
        checks.append(_check(sec.sid, sec.start_ip, observed, predicted))
    source = ("sim" if config.kernel == "event"
              else "sim[%s]" % config.kernel)
    return ValidationReport(program=program, cfg=cfg, flow=flow,
                            source=source, checks=checks)
