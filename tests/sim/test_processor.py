"""Integration tests of the distributed simulator against the functional
machines: same outputs, same final registers, same final memory."""

import pytest

from repro.isa import assemble
from repro.machine import ForkedMachine, run_forked, run_sequential
from repro.minic import compile_source
from repro.paper import paper_array, sum_forked_program
from repro.sim import Processor, SimConfig, simulate


def check_against_oracle(prog, config=None, initial_regs=None):
    """Run prog on both engines and compare every architectural outcome."""
    machine = ForkedMachine(prog, initial_regs=initial_regs)
    oracle = machine.run()
    result, proc = simulate(prog, config or SimConfig(n_cores=4),
                            initial_regs=initial_regs)
    assert result.outputs == oracle.output
    assert result.instructions == oracle.steps
    for reg, value in oracle.regs.items():
        assert result.final_regs[reg] == value, "register %s" % reg
    oracle_mem = oracle.memory.nonzero_words()
    sim_mem = {a: v for a, v in result.final_memory.items() if v}
    assert sim_mem == oracle_mem
    assert result.sections == len(machine.section_table())
    return result, proc


class TestBasicPrograms:
    def test_straight_line(self):
        prog = assemble("""
        main:
            movq $6, %rax
            addq $7, %rax
            out %rax
            hlt
        """)
        result, _ = simulate(prog, SimConfig(n_cores=1))
        assert result.outputs == [13]

    def test_single_section_loop(self):
        prog = assemble("""
        main:
            movq $0, %rax
            movq $10, %rcx
        loop:
            addq %rcx, %rax
            dec %rcx
            jne loop
            out %rax
            hlt
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [55]

    def test_memory_round_trip(self):
        prog = assemble("""
        main:
            movq $42, %rax
            movq %rax, buf
            movq buf, %rbx
            out %rbx
            hlt
        .data
        buf: .quad 0
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [42]

    def test_push_pop(self):
        prog = assemble("""
        main:
            movq $9, %rax
            pushq %rax
            movq $0, %rax
            popq %rbx
            out %rbx
            hlt
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [9]

    def test_call_ret_within_section(self):
        prog = assemble("""
        main:
            movq $4, %rdi
            call double
            out %rax
            hlt
        double:
            movq %rdi, %rax
            addq %rax, %rax
            ret
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [8]

    def test_ret_to_sentinel_halts(self):
        prog = assemble("main: movq $5, %rax\nret")
        result, _ = simulate(prog, SimConfig(n_cores=1))
        assert result.return_value == 5

    def test_division_pipeline(self):
        prog = assemble("""
        main:
            movq $17, %rax
            cqo
            movq $5, %rcx
            idivq %rcx
            out %rax
            out %rdx
            hlt
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [3, 2]


class TestForkedPrograms:
    def test_minimal_fork(self):
        prog = assemble("""
        main:
            movq $1, %rbx
            fork f
            out %rbx
            endfork
        f:
            movq $99, %rbx
            endfork
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [1]          # rbx copied at fork

    def test_rax_synchronizes_sections(self):
        prog = assemble("""
        main:
            fork f
            out %rax
            endfork
        f:
            movq $77, %rax
            endfork
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [77]         # import from the callee

    def test_memory_renaming_across_sections(self):
        prog = assemble("""
        main:
            subq $8, %rsp
            fork f
            movq (%rsp), %rbx
            out %rbx
            endfork
        f:
            movq $13, %rax
            movq %rax, (%rsp)
            endfork
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [13]

    def test_store_before_fork_read_after(self):
        prog = assemble("""
        main:
            subq $8, %rsp
            movq $55, %rax
            movq %rax, (%rsp)
            fork f
            movq (%rsp), %rbx
            out %rbx
            endfork
        f:
            endfork
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [55]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_paper_sum(self, n):
        values = [(i * 31 + 7) % 50 for i in range(n)]
        prog = sum_forked_program(values)
        result, _ = check_against_oracle(prog, SimConfig(n_cores=8))
        assert result.signed_outputs == [sum(values)]

    def test_section_count_matches_oracle(self):
        prog = sum_forked_program(paper_array(5))
        result, _ = check_against_oracle(prog, SimConfig(n_cores=5))
        assert result.sections == 6

    def test_single_core_still_correct(self):
        prog = sum_forked_program(paper_array(8))
        result, _ = check_against_oracle(prog, SimConfig(n_cores=1))
        assert result.signed_outputs == [36]

    def test_global_variable_through_dmh(self):
        prog = assemble("""
        main:
            fork f
            movq g, %rbx    # g was renamed by f, not yet in the DMH
            out %rbx
            endfork
        f:
            movq g, %rax    # reaches the loader image through the DMH
            addq $1, %rax
            movq %rax, g
            endfork
        .data
        g: .quad 41
        """)
        result, _ = check_against_oracle(prog)
        assert result.outputs == [42]


class TestPlacementPolicies:
    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded",
                                        "same_core", "random"])
    def test_all_policies_correct(self, policy):
        prog = sum_forked_program(paper_array(10))
        config = SimConfig(n_cores=4, placement=policy)
        result, _ = check_against_oracle(prog, config)
        assert result.signed_outputs == [55]

    def test_same_core_uses_one_core(self):
        prog = sum_forked_program(paper_array(10))
        _, proc = simulate(prog, SimConfig(n_cores=4, placement="same_core"))
        used = [core.id for core in proc.cores if core.fetched]
        assert used == [0]


class TestMiniCOnSimulator:
    SRC = """
    long A[10] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
    long sum(long* t, long k) {
        if (k == 1) return t[0];
        return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
    }
    long main() { out(sum(A, 10)); return 0; }
    """

    def test_fork_mode_program(self):
        prog = compile_source(self.SRC, fork_mode=True)
        result, _ = check_against_oracle(prog, SimConfig(n_cores=8))
        assert result.signed_outputs == [39]

    def test_fork_loops_program(self):
        src = """
        long A[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        long B[8];
        long main() {
            long i;
            for (i = 0; i < 8; i = i + 1) { B[i] = A[i] * A[i]; }
            long s = 0;
            for (i = 0; i < 8; i = i + 1) { s = s + B[i]; }
            out(s);
            return 0;
        }
        """
        prog = compile_source(src, fork_mode=True, fork_loops=True)
        result, _ = check_against_oracle(prog, SimConfig(n_cores=8))
        assert result.signed_outputs == [204]


class TestTimingProperties:
    def test_stage_order_monotonic(self):
        prog = sum_forked_program(paper_array(5))
        _, proc = simulate(prog, SimConfig(n_cores=5))
        for dyn in proc.all_instructions():
            stamps = [v for v in dyn.stage_cycles() if v is not None]
            assert stamps == sorted(stamps)
            assert dyn.fd is not None
            assert dyn.ret is not None

    def test_fetch_one_per_cycle_per_core(self):
        prog = sum_forked_program(paper_array(10))
        _, proc = simulate(prog, SimConfig(n_cores=4))
        for core in proc.cores:
            fetches = [d.fd for sec in core.hosted
                       for d in sec.instructions]
            assert len(fetches) == len(set(fetches))

    def test_retire_in_order_per_section(self):
        prog = sum_forked_program(paper_array(10))
        _, proc = simulate(prog, SimConfig(n_cores=4))
        for sec in proc.sections:
            rets = [d.ret for d in sec.instructions]
            assert rets == sorted(rets)

    def test_single_assignment_invariant(self):
        # Every renamed destination was written exactly once: Cell.fill
        # raises on double writes, so completing the run proves it; here we
        # additionally check all cells ended up full.
        prog = sum_forked_program(paper_array(8))
        _, proc = simulate(prog, SimConfig(n_cores=4))
        for sec in proc.sections:
            for dyn in sec.instructions:
                for cell in dyn.dest_cells.values():
                    assert cell.ready
            for cell in sec.maat.values():
                assert cell.ready

    def test_more_cores_not_slower(self):
        prog = sum_forked_program(paper_array(20))
        slow, _ = simulate(prog, SimConfig(n_cores=1))
        fast, _ = simulate(prog, SimConfig(n_cores=16))
        assert fast.fetch_end <= slow.fetch_end

    def test_parallel_fetch_beats_single_core(self):
        prog = sum_forked_program(paper_array(40))
        one, _ = simulate(prog, SimConfig(n_cores=1))
        many, _ = simulate(prog, SimConfig(n_cores=32))
        assert many.fetch_ipc > 1.5 * one.fetch_ipc


class TestFigure10:
    @pytest.fixture
    def fig10(self):
        from repro.paper import SUM_FORKED_ASM
        src = SUM_FORKED_ASM + "\n.data\nn: .quad 5\ntab: .quad 1,2,3,4,5\n"
        prog = assemble(src, entry="sum")
        init = {"rdi": prog.data_symbols["tab"], "rsi": 5}
        return simulate(prog, SimConfig(n_cores=5), initial_regs=init)

    def test_45_instructions_5_sections(self, fig10):
        result, _ = fig10
        assert result.instructions == 45       # paper: N(0) = 45
        assert result.sections == 5
        assert result.return_value == 15

    def test_core1_fetches_cycles_1_to_11(self, fig10):
        _, proc = fig10
        root = proc.order[0]
        assert [d.fd for d in root.instructions] == list(range(1, 12))

    def test_paper_worked_example_instruction_1_8(self, fig10):
        # Paper Section 5: "instruction 1-8 (load) is handled by core 1,
        # fetched at cycle 8, register renamed at cycle 9, load address is
        # computed at 10 and renamed at cycle 11, renamed memory is
        # accessed at cycle 14 ... and retired at 15".
        _, proc = fig10
        root = proc.order[0]
        dyn = root.instructions[7]
        assert str(dyn.instr) == "movq (%rdi), %rax"
        assert dyn.stage_cycles() == (8, 9, 10, 11, 14, 15)

    def test_section2_starts_fetch_at_cycle_8(self, fig10):
        # Paper: fork fetched at 5 + 2-cycle creation => first fetch at 8.
        _, proc = fig10
        section2 = proc.order[1]
        assert section2.instructions[0].fd == 8

    def test_fetch_time_close_to_paper(self, fig10):
        # Paper: 30 cycles; our creation-latency accounting gives 32.
        result, _ = fig10
        assert 30 <= result.fetch_end <= 34

    def test_timing_table_renders(self, fig10):
        _, proc = fig10
        table = proc.timing_table()
        assert "core 1 pipeline" in table
        assert "1-1" in table and "fork sum" in table
