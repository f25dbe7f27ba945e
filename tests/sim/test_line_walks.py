"""Long clean walks to the DMH and the line cached along their return path.

The paper's sum reduction (``repro.paper.SUM_FORKED_ASM`` over 5·2ⁿ
values, started at ``sum`` with one core per section, the shape of
perfbench's ``sum_reduction``) makes every leaf's first load walk back
through up to hundreds of clean sections to the DMH, and the full-line
reply is then cached in every section the walk visited (paper footnote
5).  The Table 1 corpus averages about two holders per line reply, so
this is where the long return path runs.

``PINNED`` fixes each run's timing and traffic: a change to the walk or
to the line install must reproduce every figure exactly.  The
differential legs run both kernels with the event stream, the core-state
trace and windowed metrics on, fault-free and under the mixed chaos plan
of :mod:`tests.sim.test_differential`.
"""

import functools

import pytest

from repro import analytic
from repro.faults import CoreDeath, FaultPlan
from repro.isa import assemble
from repro.paper import SUM_FORKED_ASM, paper_array
from repro.sim import SimConfig, simulate

from .test_differential import CHAOS, METRICS_WINDOW, _assert_fields_equal

NS = range(7)

#: (n, stack_shortcut) -> (cycles, fetch_end, retire_end, requests,
#: request_hops, noc messages, noc hop_cycles, noc dmh_reads)
PINNED = {
    (0, False): (44, 32, 44, 11, 12, 17, 17, 6),
    (0, True): (44, 32, 44, 11, 12, 17, 17, 6),
    (1, False): (64, 45, 64, 25, 49, 67, 67, 7),
    (1, True): (64, 45, 64, 25, 49, 67, 67, 7),
    (2, False): (95, 58, 95, 53, 158, 200, 200, 11),
    (2, True): (95, 58, 95, 53, 158, 200, 200, 11),
    (3, False): (124, 71, 124, 109, 446, 539, 539, 16),
    (3, True): (124, 71, 124, 109, 446, 539, 539, 16),
    (4, False): (172, 84, 172, 221, 1209, 1404, 1404, 26),
    (4, True): (172, 84, 172, 221, 1209, 1404, 1404, 26),
    (5, False): (239, 97, 239, 445, 3397, 3796, 3796, 46),
    (5, True): (239, 97, 239, 445, 3397, 3796, 3796, 46),
    (6, False): (335, 110, 335, 893, 10006, 10814, 10814, 85),
    (6, True): (335, 110, 335, 893, 10006, 10814, 10814, 85),
}


@functools.lru_cache(maxsize=None)
def sum_reduction(n):
    """``sum(t, 5·2ⁿ)`` entered at ``sum`` over t = 1..5·2ⁿ: the program,
    its entry registers and the expected rax."""
    values = paper_array(analytic.sum_sizes(n))
    source = SUM_FORKED_ASM + "\n.data\nn: .quad %d\ntab: .quad %s\n" % (
        len(values), ", ".join(map(str, values)))
    prog = assemble(source, entry="sum")
    regs = {"rdi": prog.data_symbols["tab"], "rsi": len(values)}
    return prog, regs, sum(values)


def sum_config(n, **kwargs):
    return SimConfig(n_cores=analytic.sections(n), **kwargs)


@functools.lru_cache(maxsize=None)
def _observed(n, shortcut, kernel):
    prog, regs, _ = sum_reduction(n)
    config = sum_config(n, stack_shortcut=shortcut, kernel=kernel,
                        events=True, trace=True,
                        metrics_window=METRICS_WINDOW)
    return simulate(prog, config, initial_regs=regs)[0]


CASES = [(n, shortcut) for n in NS for shortcut in (False, True)]


class TestPinned:
    @pytest.mark.parametrize("n,shortcut", CASES)
    def test_timing_and_traffic(self, n, shortcut):
        result = _observed(n, shortcut, "event")
        noc = result.noc_stats
        assert (result.cycles, result.fetch_end, result.retire_end,
                result.requests, result.request_hops, noc["messages"],
                noc["hop_cycles"], noc["dmh_reads"]) == PINNED[n, shortcut]
        assert result.final_regs["rax"] == sum_reduction(n)[2]


class TestKernels:
    @pytest.mark.parametrize("n,shortcut", CASES)
    def test_identical(self, n, shortcut):
        _assert_fields_equal(_observed(n, shortcut, "event"),
                             _observed(n, shortcut, "naive"),
                             "n=%d shortcut=%s" % (n, shortcut))

    def test_identical_under_chaos(self):
        n = 5
        prog, regs, total = sum_reduction(n)
        cores = analytic.sections(n)
        base = PINNED[n, False][0]
        plan = FaultPlan(deaths=(CoreDeath(core=cores - 1, cycle=base // 4),
                                 CoreDeath(core=cores - 2, cycle=base // 2)),
                         **CHAOS)
        runs = {}
        for kernel in ("event", "naive"):
            config = sum_config(n, kernel=kernel, events=True, trace=True,
                                metrics_window=METRICS_WINDOW, faults=plan)
            runs[kernel] = simulate(prog, config, initial_regs=regs)[0]
        event = runs["event"]
        _assert_fields_equal(event, runs["naive"], "n=%d under chaos" % n)
        assert event.final_regs["rax"] == total
        assert event.fault_stats["deaths"] == 2
        assert event.fault_stats["redispatches"] >= 1
        assert event.cycles > base
