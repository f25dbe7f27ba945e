"""Tests of the reads-from oracle (:mod:`tests.sim.reads_from`) and its
runs: the Table 1 workloads on both kernels, fault-free and under chaos;
fail-stop replays; protocol variants; the fixed corpus, the paper's sum
reduction and random programs; and a planted bug whose stale read leaves
the end state unchanged."""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import CoreDeath, FaultPlan
from repro.isa import assemble
from repro.machine import ForkedMachine
from repro.minic import compile_source
from repro.sim import SimConfig

from .reads_from import (
    ReadRecorder, Recorder, assert_no_wrong_reads, read_mismatches, run)
from .test_differential import (
    ALL_SHORTS, CHAOS, FORK_LOOP, LOOPY, N_CORES, RECURSIVE_SUM,
    STORE_HEAVY, _fault_free, _program, _recorded, _reduce_program)
from .test_line_walks import sum_config, sum_reduction

KERNELS = ["naive", "event"]


class TestRecorder:
    def test_logs_register_sources_and_loads(self):
        prog = assemble("""
        main:
            movq $tab, %rdi
            movq 8(%rdi), %rax
            addq (%rdi), %rax
            call f
            hlt
        f:
            pushq %rax
            popq %rbx
            ret
        .data
        tab: .quad 5, 11
        """)
        machine = ReadRecorder(prog)
        machine.run()
        tab = prog.data_symbols["tab"]
        reads = [machine.reads[1, i] for i in range(len(machine.reads))]
        assert reads[1] == ({"rdi": tab}, ((tab + 8, 11),))
        assert reads[2] == ({"rax": 11, "rdi": tab}, ((tab, 5),))
        call_rsp = reads[3][0]["rsp"]
        # the pop loads what the push stored; ret loads the return address
        assert reads[5] == ({"rsp": call_rsp - 16},
                            ((call_rsp - 16, 16),))
        assert reads[6] == ({"rsp": call_rsp - 8}, ((call_rsp - 8, 4),))

    def test_wrong_load_value_is_named(self):
        prog = compile_source(STORE_HEAVY, fork_mode=True)
        _, proc = run(prog, SimConfig(n_cores=4))
        assert read_mismatches(proc) == []
        dyn = next(d for d in proc.all_instructions() if d.is_load)
        dyn.load_src_cell.value += 1
        problems = read_mismatches(proc)
        k = proc.order.index(proc.sections[dyn.sid - 1]) + 1
        assert problems[0].startswith("section %d (sid %d) #%d `%s`"
                                      % (k, dyn.sid, dyn.index,
                                         dyn.instr))

    def test_missing_instruction_is_named(self):
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        _, proc = run(prog, SimConfig(n_cores=4))
        sec = proc.order[-1]
        sec.instructions.pop()
        assert read_mismatches(proc) == [
            "section %d: %d instructions simulated, the machine ran %d"
            % (len(proc.order), len(sec.instructions),
               len(sec.instructions) + 1)]


class TestTable1:
    """The Table 1 runs of test_differential.py, read by read: fault-free
    with the core-state trace, and under its chaos plan."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_fault_free(self, short, kernel):
        assert_no_wrong_reads(_recorded(short, kernel, False)[2])

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_chaos(self, short, kernel):
        result, _, wrong_reads = _recorded(short, kernel, True)
        assert result.fault_stats["deaths"] == 2
        assert_no_wrong_reads(wrong_reads)


@functools.lru_cache(maxsize=None)
def _victim(short):
    """(sid, core, first fetch, completion) of the fault-free event run's
    longest-lived section."""
    start, core, end = {}, {}, {}
    for cycle, kind, fields in _fault_free(short, "event").events:
        if kind == "section_start":
            start[fields["sid"]] = cycle
            core[fields["sid"]] = fields["core"]
        elif kind == "section_complete":
            end[fields["sid"]] = cycle
    sid = max(start, key=lambda s: (end[s] - start[s], -s))
    return sid, core[sid], start[sid], end[sid]


#: when the victim's core dies: one cycle into its fetch, halfway through
#: its life, or on the cycle its last instruction would retire
PHASES = {
    "first_fetch": lambda start, end: start + 1,
    "midway": lambda start, end: (start + end) // 2,
    "last_retire": lambda start, end: end,
}


class TestReplays:
    """A fail-stop kills the core of the fault-free run's longest-lived
    section while that section is open, so its first incarnation is thrown
    away with instructions in flight; both incarnations must read only
    sequential values."""

    @pytest.mark.parametrize("phase", sorted(PHASES))
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_replay_rereads_the_same_values(self, short, phase):
        sid, core, start, end = _victim(short)
        plan = FaultPlan(deaths=(
            CoreDeath(core=core, cycle=PHASES[phase](start, end)),))
        result, proc = run(_program(short),
                           SimConfig(n_cores=N_CORES, faults=plan))
        assert result.fault_stats["redispatches"] >= 1
        assert any(sec.sid == sid and instrs
                   for sec, instrs in proc.dead_incarnations)
        assert_no_wrong_reads(read_mismatches(proc))


#: protocol knobs each change which path answers a read
VARIANTS = {
    "one_core": dict(n_cores=1),
    "three_cores": dict(n_cores=3),
    "32_cores": dict(n_cores=32),
    "mesh": dict(topology="mesh", noc_latency=2),
    "least_loaded": dict(placement="least_loaded"),
    "same_core": dict(placement="same_core"),
    "random": dict(placement="random"),
    "word_lines": dict(line_bytes=8),
    "stack_shortcut": dict(stack_shortcut=True),
    "wide": dict(fetch_width=4, rename_width=4, execute_width=4,
                 addr_rename_width=4, memory_width=4, retire_width=4),
    "optimized": dict(optimize=True),
}


class TestProtocolVariants:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("short", ["quicksort", "mis"])
    def test_variant(self, short, variant):
        knobs = {"n_cores": N_CORES, **VARIANTS[variant]}
        _, proc = run(_program(short), SimConfig(**knobs))
        assert_no_wrong_reads(read_mismatches(proc))


CORPUS = {
    "recursive_sum": (RECURSIVE_SUM, {}),
    "store_heavy": (STORE_HEAVY, {}),
    "loopy": (LOOPY, {}),
    "fork_loop": (FORK_LOOP, dict(fork_loops=True)),
}


class TestCorpus:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus(self, name, kernel):
        source, flags = CORPUS[name]
        prog = compile_source(source, fork_mode=True, **flags)
        _, proc = run(prog, SimConfig(n_cores=N_CORES, kernel=kernel))
        assert_no_wrong_reads(read_mismatches(proc))

    @pytest.mark.parametrize("n", range(7))
    def test_paper_sum_reduction(self, n):
        prog, regs, total = sum_reduction(n)
        result, proc = run(prog, sum_config(n, stack_shortcut=True),
                           initial_regs=regs)
        assert result.final_regs["rax"] == total
        assert_no_wrong_reads(read_mismatches(proc, initial_regs=regs))


_values = st.lists(st.integers(min_value=-40, max_value=40),
                   min_size=4, max_size=10)


class TestRandomized:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=_values, op=st.sampled_from(["+", "^", "min"]),
           fanout=st.integers(min_value=2, max_value=3),
           n_cores=st.sampled_from([1, 3, 8]),
           shortcut=st.booleans(), kernel=st.sampled_from(KERNELS))
    def test_random_reductions(self, values, op, fanout, n_cores,
                               shortcut, kernel):
        prog = compile_source(_reduce_program(values, op, fanout),
                              fork_mode=True)
        _, proc = run(prog, SimConfig(n_cores=n_cores, kernel=kernel,
                                      stack_shortcut=shortcut))
        assert_no_wrong_reads(read_mismatches(proc))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=_values, op=st.sampled_from(["+", "^", "min"]),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           n_cores=st.sampled_from([2, 3]),
           cycles=st.lists(st.integers(min_value=1, max_value=300),
                           min_size=2, max_size=2),
           kernel=st.sampled_from(KERNELS))
    def test_random_reductions_under_faults(self, values, op, seed, n_cores,
                                            cycles, kernel):
        # every core but core 0 fail-stops, most often while it hosts
        # open sections, so most draws replay some
        prog = compile_source(_reduce_program(values, op, 2),
                              fork_mode=True)
        deaths = tuple(CoreDeath(core=core, cycle=cycle)
                       for core, cycle in zip(range(1, n_cores), cycles))
        plan = FaultPlan(deaths=deaths, **dict(CHAOS, seed=seed))
        _, proc = run(prog, SimConfig(n_cores=n_cores, kernel=kernel,
                                      faults=plan))
        assert_no_wrong_reads(read_mismatches(proc))


#: Section 3 reads rax through a renaming request.  Section 2 (`h`) wrote
#: it last (9); section 1 wrote 5 before.  The read feeds only `xorq`, so
#: a stale answer leaves outputs, registers and memory unchanged.  The
#: chained loads keep section 2 live, unfolded, while the request walks.
DEAD_READ = """
main:
    movq $5, %rax
    fork f
    fork h
    xorq %rax, %rax
    out %rax
    endfork
f:
    endfork
h:
    movq $9, %rax
    movq $tab, %rdi
    movq (%rdi), %rbx
    movq (%rdi,%rbx,8), %rbx
    movq (%rdi,%rbx,8), %rbx
    endfork
.data
tab: .quad 1, 2, 0
"""


class _SkipsTheProducer(Recorder):
    """Planted bug: a register request walks past the nearest section that
    holds its register, the producer, and is answered by the producer's
    predecessor."""

    def _walk_pred(self, req, before):
        pred = super()._walk_pred(req, before)
        if (pred is not None and req.kind == "reg" and pred.fetch_done
                and req.reg in pred.fregs):
            return super()._walk_pred(req, pred)
        return pred


class TestPlantedBug:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stale_read_that_end_state_cannot_see(self, kernel):
        prog = assemble(DEAD_READ)
        oracle = ForkedMachine(prog).run()
        config = SimConfig(n_cores=3, kernel=kernel)
        _, sound = run(prog, config)
        assert read_mismatches(sound) == []
        result, buggy = run(prog, config, processor=_SkipsTheProducer)
        # every end-state check passes on the buggy run ...
        assert result.outputs == oracle.output == [0]
        assert result.instructions == oracle.steps
        for reg, value in oracle.regs.items():
            assert result.final_regs[reg] == value, reg
        assert ({a: v for a, v in result.final_memory.items() if v}
                == oracle.memory.nonzero_words())
        # ... and the oracle names the one stale read
        xor = buggy.order[2].instructions[0]
        assert read_mismatches(buggy) == [
            "section 3 (sid %d) #0 `%s`: read ({'rax': 5}, ()), "
            "machine ({'rax': 9}, ())" % (buggy.order[2].sid, xor.instr)]
