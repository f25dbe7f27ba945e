"""E5 — Figure 10: execution timing of the sum(t,5) run on five cores.

Simulates the paper's exact scenario — the Figure 5 code entered at
``sum`` with rdi=&t, rsi=5, five cores, one section each, unit-width
stages — and regenerates the per-instruction stage-timing tables.

Fidelity anchors from the paper's prose:

* instruction 1-8: fd 8, rr 9, ew 10, ar 11, ma 14, ret 15  (exact);
* core 1 fetches 1-1..1-11 at cycles 1..11                  (exact);
* the forked section starts fetching 2 cycles + 1 after the fork (cycle 8);
* total fetch 30 cycles, total retire 43 (ours differ by a small constant
  per nesting level; see EXPERIMENTS.md).
"""

from _common import emit, table

from repro.analytic import fetch_cycles, instructions, retire_cycles
from repro.isa import assemble
from repro.paper import SUM_FORKED_ASM
from repro.sim import SimConfig, simulate


def _run():
    src = SUM_FORKED_ASM + "\n.data\nn: .quad 5\ntab: .quad 1,2,3,4,5\n"
    prog = assemble(src, entry="sum")
    init = {"rdi": prog.data_symbols["tab"], "rsi": 5}
    return simulate(prog, SimConfig(n_cores=5), initial_regs=init)


def bench_figure10_timing(benchmark):
    result, proc = benchmark.pedantic(_run, rounds=1, iterations=1)
    root = proc.order[0]
    i18 = root.instructions[7]
    rows = [
        ["instructions", instructions(0), result.instructions],
        ["sections", 5, result.sections],
        ["result (rax)", 15, result.return_value],
        ["1-8 stage cycles (fd rr ew ar ma ret)",
         "(8, 9, 10, 11, 14, 15)", str(i18.stage_cycles())],
        ["core 1 fetch cycles", "1..11",
         "%d..%d" % (root.instructions[0].fd,
                     root.instructions[-1].fd)],
        ["section 2 first fetch", 8,
         proc.order[1].instructions[0].fd],
        ["total fetch cycles", fetch_cycles(0), result.fetch_end],
        ["total retire cycles", retire_cycles(0), result.retire_end],
    ]
    text = table("Figure 10 — execution timing of the sum(t,5) run",
                 ["quantity", "paper", "measured"], rows)
    text += "\n\n" + proc.timing_table()
    emit("fig10_timing", text)
    assert i18.stage_cycles() == (8, 9, 10, 11, 14, 15)
    assert result.sections == 5
    assert abs(result.fetch_end - fetch_cycles(0)) <= 4
    assert abs(result.retire_end - retire_cycles(0)) <= 8
