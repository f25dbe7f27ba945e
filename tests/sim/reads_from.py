"""Reads-from oracle: every simulated read must see the value the
sequential order gives it, instruction by instruction.

The paper's claim (Section 1, item 3) is that renaming makes distributed
memory sequentially consistent without a coherence protocol: every read
gets the closest preceding write in the sections' total order.  The other
proofs cannot see a wrong read directly.  Naive/event identity compares two
kernels that share one protocol, the goldens pin cycles, and
``check_against_oracle`` (test_processor.py) compares only outputs, final
registers and final memory, so a stale value that is later overwritten, or
that feeds only dead code, passes all three.

The oracle checks every read.  :class:`ReadRecorder` runs the functional
section machine and logs, per dynamic instruction, the value of each
register source and the ``(address, value)`` of each word it loads.  The
simulator's sections are matched to the machine's by total-order position
and their instructions by ``index``; every simulated
:class:`~repro.sim.cells.DynInstr` must have read the same values.  Its
source cells are single-assignment, so after the run they still hold what
it read.  A fail-stop throws a section's incarnation away at re-dispatch:
:class:`Recorder` keeps the dead incarnations, and every value one of them
read must be the machine's as well, so a replay re-reads the values the
dead incarnation read.
"""

from repro.analysis.opt import optimize_program
from repro.faults.recovery import FaultEngine
from repro.machine import ForkedMachine, Memory
from repro.sim import Processor


class _LoadLog(Memory):
    """Data memory that logs ``(address, value)`` of every load."""

    def __init__(self, image):
        super().__init__(image)
        self.loads = []

    def load(self, addr):
        value = super().load(addr)
        self.loads.append((addr, value))
        return value


class ReadRecorder(ForkedMachine):
    """The functional section machine, logging the source values of each
    dynamic instruction under its ``(section, index)`` label: the value of
    every register it reads and the ``(address, value)`` of every word it
    loads."""

    def __init__(self, program, initial_regs=None):
        super().__init__(program, initial_regs=initial_regs)
        # the halt sentinel is already pushed: carry the image over
        self.mem = _LoadLog(self.mem.written_words())
        self.reads = {}

    def step(self):
        regs = {}
        if self.halted is None and 0 <= self.ip < len(self.program.code):
            instr = self.program.code[self.ip]
            regs = {reg: self.regs[reg] for reg in instr.reg_reads()}
        self.mem.loads = []
        entry = super().step()
        self.reads[entry.section, entry.section_index] = (
            regs, tuple(self.mem.loads))
        return entry


class _KeepDeadIncarnations(FaultEngine):
    """Appends each section's incarnation to *dead* before a re-dispatch
    discards it."""

    def __init__(self, proc, plan, dead):
        super().__init__(proc, plan)
        self.dead = dead

    def _redispatch(self, sec, dead_core, now):
        self.dead.append((sec, list(sec.instructions)))
        super()._redispatch(sec, dead_core, now)


class Recorder(Processor):
    """A processor that keeps the section incarnations fail-stops kill."""

    def __init__(self, program, config, initial_regs=None):
        super().__init__(program, config, initial_regs=initial_regs)
        self.dead_incarnations = []
        if config.faults is not None:
            # the cores hold the engine too (a run constant of theirs)
            engine = _KeepDeadIncarnations(self, config.faults,
                                           self.dead_incarnations)
            self.fault_engine = engine
            for core in self.cores:
                core.fault_engine = engine


def run(program, config, initial_regs=None, processor=Recorder):
    """What :func:`repro.sim.simulate` does, on a :class:`Recorder`."""
    if config.optimize:
        program = optimize_program(program).program
    proc = processor(program, config, initial_regs=initial_regs)
    result = proc.run()
    return result, proc


def simulated_reads(dyn):
    """The values *dyn* read, in :class:`ReadRecorder`'s form.  Unfilled
    source cells are left out: only a dead incarnation has them, and it
    never read them."""
    regs = {reg: cell.value for reg, cell in dyn.src_cells.items()
            if cell.value is not None}
    loads = ()
    cell = dyn.load_src_cell
    if cell is not None and cell.value is not None:
        loads = ((dyn.addr_value, cell.value),)
    return regs, loads


def _read_what_the_machine_read(got, want, complete):
    if complete:
        return got == want
    regs, loads = got
    return (all(want[0].get(reg) == value for reg, value in regs.items())
            and (not loads or loads == want[1]))


def read_mismatches(proc, initial_regs=None):
    """Each read of the finished run *proc* (a :class:`Recorder`) that
    differs from the functional machine's, as one line; empty when every
    simulated instruction, dead incarnations included, read what
    sequential execution gives it."""
    machine = ReadRecorder(proc.program, initial_regs=initial_regs)
    machine.run()
    problems = []
    if len(proc.order) != len(machine.sections):
        problems.append("%d sections simulated, the machine ran %d"
                        % (len(proc.order), len(machine.sections)))
    position = {sec.sid: k for k, sec in enumerate(proc.order, 1)}
    runs = [(sec, sec.instructions, True) for sec in proc.order]
    runs += [(sec, instrs, False) for sec, instrs in proc.dead_incarnations]
    for sec, instructions, complete in runs:
        k = position[sec.sid]
        if (complete and k <= len(machine.sections)
                and len(instructions) != machine.sections[k - 1].length):
            problems.append(
                "section %d: %d instructions simulated, the machine ran %d"
                % (k, len(instructions), machine.sections[k - 1].length))
        for dyn in instructions:
            got = simulated_reads(dyn)
            want = machine.reads.get((k, dyn.index))
            if want is None or not _read_what_the_machine_read(
                    got, want, complete):
                problems.append(
                    "section %d (sid %d%s) #%d `%s`: read %r, machine %r"
                    % (k, sec.sid, "" if complete else ", dead incarnation",
                       dyn.index, dyn.instr, got, want))
    return problems


def assert_no_wrong_reads(problems):
    assert not problems, "%d wrong reads, first ones:\n%s" % (
        len(problems), "\n".join(problems[:8]))
