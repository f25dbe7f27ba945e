"""Simulator-internal behaviours: progressive folding, determinism,
mixed call/fork programs, line-grained DMH replies."""

import collections

import pytest

from repro.fork import fork_transform
from repro.isa import WORD, assemble
from repro.machine import run_forked
from repro.minic import compile_source
from repro.paper import paper_array, sum_forked_program
from repro.sim import Processor, SimConfig, simulate


class TestProgressiveFold:
    def test_oldest_sections_fold_during_the_run(self):
        prog = sum_forked_program(paper_array(40))
        _, proc = simulate(prog, SimConfig(n_cores=8))
        # everything eventually folds
        assert proc.folded_upto == len(proc.order)

    def test_arch_regs_match_final_state(self):
        prog = sum_forked_program(paper_array(12))
        result, proc = simulate(prog, SimConfig(n_cores=4))
        regs, _ = proc.final_state()
        assert proc.arch_regs == regs

    def test_dmh_accumulates_stores(self):
        prog = assemble("""
        main:
            movq $9, %rax
            movq %rax, cell
            fork f
            movq cell, %rbx
            out %rbx
            endfork
        f:
            endfork
        .data
        cell: .quad 0
        """)
        result, proc = simulate(prog, SimConfig(n_cores=2))
        assert result.outputs == [9]
        assert proc.dmh[prog.symbol_addr("cell")] == 9


class TestDeterminism:
    def test_same_config_same_timing(self):
        prog = sum_forked_program(paper_array(20))
        a, _ = simulate(prog, SimConfig(n_cores=4))
        b, _ = simulate(prog, SimConfig(n_cores=4))
        assert a.cycles == b.cycles
        assert a.fetch_end == b.fetch_end
        assert a.outputs == b.outputs

    def test_random_placement_deterministic_by_seed(self):
        prog = sum_forked_program(paper_array(20))
        a, _ = simulate(prog, SimConfig(n_cores=4, placement="random",
                                        placement_seed=3))
        b, _ = simulate(prog, SimConfig(n_cores=4, placement="random",
                                        placement_seed=3))
        c, _ = simulate(prog, SimConfig(n_cores=4, placement="random",
                                        placement_seed=4))
        assert a.cycles == b.cycles
        assert a.outputs == c.outputs      # correctness seed-independent


class TestMixedCallFork:
    def test_partially_transformed_program(self):
        src = """
        long helper(long x) { return x * 3; }
        long spine(long n) {
            if (n == 0) return 0;
            return helper(n) + spine(n - 1);
        }
        long main() { out(spine(6)); return 0; }
        """
        prog = compile_source(src)
        # fork only the spine; helper stays a plain call inside sections
        mixed = fork_transform(prog, fork_functions=["spine"])
        oracle, _ = run_forked(mixed)
        result, _ = simulate(mixed, SimConfig(n_cores=4))
        assert result.outputs == oracle.output == [63]

    def test_call_inside_forked_section(self):
        prog = assemble("""
        main:
            fork f
            out %rax
            endfork
        f:
            movq $4, %rdi
            call double
            endfork
        double:
            movq %rdi, %rax
            addq %rax, %rax
            ret
        """)
        oracle, _ = run_forked(prog)
        result, _ = simulate(prog, SimConfig(n_cores=2))
        assert result.outputs == oracle.output == [8]


class _LineRecorder(Processor):
    """Logs every renaming-request step with its park descriptor, and
    each line install as (rid, cycle, the ``("line", word)`` waiters
    parked on the requester just before it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = collections.defaultdict(list)
        self.installs = []

    def _step_request(self, req, now):
        desc = super()._step_request(req, now)
        self.steps[req.rid].append((now, desc))
        return desc

    def _install_line(self, req, now):
        waiters = req.requester.req_waiters or {}
        self.installs.append((req.rid, now, {
            tag: set(rids) for tag, rids in waiters.items()
            if isinstance(tag, tuple) and tag[0] == "line"}))
        super()._install_line(req, now)


class TestLineReplies:
    def _array_reader(self):
        return assemble("""
        main:
            movq $tab, %rdi
            fork f
            movq 16(%rdi), %rbx   # t[2]: should hit a cached line nearby
            out %rbx
            endfork
        f:
            movq (%rdi), %rax     # t[0]: walks to the DMH, fetches the line
            out %rax
            endfork
        .data
        tab: .quad 10, 20, 30, 40, 50, 60, 70, 80
        """)

    def test_values_correct_any_line_size(self):
        for line_bytes in (8, 64, 128):
            result, _ = simulate(self._array_reader(),
                                 SimConfig(n_cores=2,
                                           line_bytes=line_bytes))
            assert result.outputs == [10, 30]

    def test_line_cached_at_requester(self):
        _, proc = simulate(self._array_reader(), SimConfig(n_cores=2))
        base = proc.program.symbol_addr("tab")
        cacher = proc.order[0]        # section that loaded t[0]
        cached = [base + i * WORD in cacher.maat for i in range(8)]
        assert all(cached)

    def _return_path(self, kernel):
        # Sections 1 and 2 spin (subq, not dec: dec reads the flags a
        # predecessor writes) so that both are still live when section 3's
        # load of t[0] misses in them; section 3 stores t[1] first.
        prog = assemble("""
        main:
            movq $tab, %rdi
            fork f
            fork g
            movq $99, %rax
            movq %rax, 8(%rdi)
            movq (%rdi), %rbx     # t[0]: walks sections 2 and 1 to the DMH
            movq 8(%rdi), %rcx    # t[1]: the section's own store
            out %rbx
            out %rcx
            endfork
        f:
            movq $80, %rcx
        spin1:
            subq $1, %rcx
            jne spin1
            endfork
        g:
            movq $20, %rcx
        spin2:
            subq $1, %rcx
            jne spin2
            endfork
        .data
        tab: .quad 10, 20, 30, 40, 50, 60, 70, 80
        """)
        result, proc = simulate(prog, SimConfig(n_cores=3, kernel=kernel))
        assert result.outputs == [10, 99]
        (req,) = [r for r in proc.requests if r.line_values]
        assert [sec.sid for sec in req.visited] == [2, 1]
        return req

    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_return_path_shares_one_cell_per_word(self, kernel):
        req = self._return_path(kernel)
        own = (req.addr, req.addr + WORD)       # the requester's entries
        for word, value in req.line_values:
            cell = req.visited[0].maat[word]
            assert cell.is_import and cell.value == value
            assert req.visited[1].maat[word] is cell
            if word not in own:
                assert req.requester.maat[word] is cell

    def test_holder_keeps_its_own_entry(self):
        req = self._return_path("event")
        mine = req.requester.maat
        assert mine[req.addr] is req.dest_cell
        store = mine[req.addr + WORD]
        assert not store.is_import and store.value == 99
        # the older sections read the DMH's t[1], not the younger store
        assert req.visited[0].maat[req.addr + WORD].value == 20

    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_neighbour_coalesces_behind_inflight_line(self, kernel):
        # A slow DMH keeps section 1's line import for t[0] in flight
        # while section 2's request for t[2] reaches section 1.
        proc = _LineRecorder(self._array_reader(),
                             SimConfig(n_cores=2, kernel=kernel,
                                       dmh_latency=20))
        assert proc.run().outputs == [10, 30]
        first, second = proc.requests
        word = second.addr
        (install,) = proc.installs
        assert install[0] == first.rid
        steps = proc.steps[second.rid]
        coalesced = [now for now, desc in steps if desc is first.dest_cell]
        assert coalesced and coalesced[-1] < install[1]
        if kernel == "event":
            # parked once on the line tag; the install is what woke it
            assert len(coalesced) == 1
            assert install[2] == {("line", word): {second.rid}}
            assert first.requester.req_waiters is None
        # its next step, in the install's cycle, hits the line cell there
        assert [now for now, _ in steps if now > coalesced[-1]][0] == \
            install[1]
        assert second.producer_sid == first.requester.sid
        assert second.hit_cell is first.requester.maat[word]
        assert second.hit_cell.is_import and second.value == 30

    def test_word_grain_disables_neighbour_caching(self):
        _, proc = simulate(self._array_reader(),
                           SimConfig(n_cores=2, line_bytes=8))
        base = proc.program.symbol_addr("tab")
        cacher = proc.order[0]
        assert base in cacher.maat
        assert base + WORD not in cacher.maat

    def test_dirty_line_not_cached(self):
        # The first section stores t[1]; the resume section's request for
        # t[0] walks past that dirty line, so the DMH must answer with the
        # single word only (caching t[2] from the loader image would be
        # unsound in general).
        prog = assemble("""
        main:
            movq $tab, %rdi
            movq $99, %rax
            movq %rax, 8(%rdi)
            fork f
            movq (%rdi), %rbx     # resume section: request walks past main
            out %rbx
            endfork
        f:
            movq $40, %rcx        # keep section 1 alive so the request
        spin:                     # must visit it (not the folded DMH)
            dec %rcx
            jne spin
            endfork
        .data
        tab: .quad 1, 2, 3, 4
        """)
        result, proc = simulate(prog, SimConfig(n_cores=3))
        assert result.outputs == [1]
        base = proc.program.symbol_addr("tab")
        for sec in proc.order:
            cell = sec.maat.get(base + 2 * WORD)
            assert cell is None or not cell.is_import


class TestStatsAndDisplay:
    def test_describe(self):
        result, _ = simulate(sum_forked_program(paper_array(5)),
                             SimConfig(n_cores=5))
        text = result.describe()
        assert "sections" in text and "IPC" in text

    def test_per_core_instruction_counts(self):
        result, proc = simulate(sum_forked_program(paper_array(5)),
                                SimConfig(n_cores=5))
        assert sum(result.per_core_instructions) == result.instructions

    def test_section_describe(self):
        _, proc = simulate(sum_forked_program(paper_array(5)),
                           SimConfig(n_cores=5))
        text = proc.order[0].describe()
        assert "section 1" in text and "done" in text

    def test_cycle_budget_guard(self):
        from repro.errors import SimulationError
        prog = assemble("main: jmp main")
        with pytest.raises(SimulationError):
            simulate(prog, SimConfig(n_cores=1, max_cycles=500))
