"""Unit tests for repro.obs.stalls: interval algebra, the per-cycle
classifier and the end-to-end attribution invariants."""

from repro.minic import compile_source
from repro.obs import STALL_CAUSES, summarize_causes
from repro.obs.stalls import _IntervalSet, _subtract
from repro.sim import SimConfig, simulate

PROGRAM = """
long A[6] = {4, 1, 6, 2, 9, 5};
long sum(long* t, long k) {
    if (k == 1) return t[0];
    return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
}
long main() { out(sum(A, 6)); return 0; }
"""


def _run(**cfg):
    prog = compile_source(PROGRAM, fork_mode=True)
    return simulate(prog, SimConfig(events=True, **cfg))[0]


class TestIntervalSet:
    def test_empty(self):
        s = _IntervalSet([])
        assert not s.covers(0) and not s.covers(100)

    def test_half_open_left(self):
        s = _IntervalSet([(3, 6)])
        assert not s.covers(3)          # (3, 6] excludes the left edge
        assert s.covers(4) and s.covers(6)
        assert not s.covers(7)

    def test_merges_overlaps_and_touching(self):
        s = _IntervalSet([(1, 4), (3, 7), (7, 9)])
        assert all(s.covers(c) for c in range(2, 10))
        assert not s.covers(1) and not s.covers(10)
        assert len(s.starts) == 1

    def test_drops_empty_windows(self):
        s = _IntervalSet([(5, 5), (9, 4)])
        assert s.starts == []

    def test_disjoint_lookup(self):
        s = _IntervalSet([(0, 2), (10, 12)])
        assert s.covers(1) and s.covers(11)
        assert not s.covers(5)


class TestSubtract:
    def test_no_cuts(self):
        assert _subtract((2, 9), []) == [(2, 9)]

    def test_middle_cut(self):
        assert _subtract((0, 10), [(3, 6)]) == [(0, 3), (6, 10)]

    def test_cut_swallows_window(self):
        assert _subtract((4, 6), [(0, 10)]) == []

    def test_multiple_cuts_sorted_or_not(self):
        assert _subtract((0, 10), [(7, 8), (2, 3)]) == [(0, 2), (3, 7),
                                                        (8, 10)]

    def test_edge_touching_cuts(self):
        assert _subtract((2, 8), [(0, 2), (8, 12)]) == [(2, 8)]


class TestAttribution:
    def test_all_blocked_cycles_get_a_cause(self):
        result = _run(n_cores=4)
        causes = result.stall_causes
        assert causes["causes"] == list(STALL_CAUSES)
        for counts, histogram in zip(causes["per_core"],
                                     result.core_occupancy):
            assert sum(counts.values()) == (histogram["blocked"]
                                            + histogram["parked"])

    def test_per_section_sums_match_occupancy(self):
        result = _run(n_cores=4)
        for sid, counts in result.stall_causes["per_section"].items():
            occ = result.section_occupancy[sid]
            assert sum(counts.values()) == occ["blocked_cycles"], sid

    def test_idle_dominates_on_overprovisioned_machine(self):
        # far more cores than sections: most stalled cycles have no live
        # section to blame
        result = _run(n_cores=32)
        totals = result.stall_causes["totals"]
        assert totals["idle"] > totals["wait_register"]
        assert totals["idle"] > totals["wait_memory"]

    def test_single_core_never_idle_while_sections_live(self):
        result = _run(n_cores=1)
        per_section = result.stall_causes["per_section"]
        # every section lives on core 0; its non-fetch cycles are
        # attributed to real causes, not idle
        assert all("idle" not in {c for c, n in counts.items() if n}
                   or counts["idle"] == 0
                   for counts in per_section.values())

    def test_fork_latency_visible(self):
        result = _run(n_cores=8)
        totals = result.stall_causes["totals"]
        # every forked section waits section_create_latency cycles
        assert totals["fork_latency"] > 0

    def test_noc_latency_shifts_attribution(self):
        near = _run(n_cores=8)
        far = _run(n_cores=8, noc_latency=6)
        assert (far.stall_causes["totals"]["noc_transit"]
                > near.stall_causes["totals"]["noc_transit"])


class TestSummarize:
    def test_stable_order_and_defaults(self):
        line = summarize_causes({"wait_memory": 3})
        assert line.startswith("wait_register=0  wait_memory=3")
        assert line.index("noc_transit") < line.index("idle")


class TestDeadlockDiagnostic:
    def test_diagnostic_tags_live_causes(self):
        import pytest
        # Tiny budget forces the budget-exhausted diagnostic path.
        prog = compile_source(PROGRAM, fork_mode=True)
        with pytest.raises(Exception) as info:
            simulate(prog, SimConfig(n_cores=4, max_cycles=40))
        message = str(info.value)
        assert "stuck sections" in message
        assert "[wait_" in message or "[noc_transit]" in message

    def test_diagnostic_identical_across_schedulers(self):
        import pytest
        prog = compile_source(PROGRAM, fork_mode=True)
        messages = {}
        for kernel in ("naive", "event"):
            with pytest.raises(Exception) as info:
                simulate(prog, SimConfig(n_cores=4, max_cycles=40,
                                         kernel=kernel))
            messages[kernel] = str(info.value)
        assert messages["naive"] == messages["event"]
