"""Unit tests for repro.obs.stalls: the window sweep, interval
subtraction and the end-to-end attribution invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults import CoreDeath, FaultPlan
from repro.minic import compile_source
from repro.obs import STALL_CAUSES, collect_sections, summarize_causes
from repro.obs.stalls import (_FAULT, _FORK, _LIVE, _RANK_CAUSE,
                              _WAIT_MEMORY, _count, _cut, _subtract)
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


def _per_cycle(windows, spans):
    """The rule the sweep implements, one cycle at a time: the most
    urgent rank among the windows covering the cycle, else idle."""
    counts = dict.fromkeys(STALL_CAUSES, 0)
    for start, end in spans:
        for cycle in range(start + 1, end + 1):
            ranks = [rank for s, e, rank in windows if s < cycle <= e]
            counts[_RANK_CAUSE[min(ranks)] if ranks else "idle"] += 1
    return counts


def _cause_at(windows, cycle):
    """The one cause :func:`_count` gives *cycle*."""
    [cause] = [c for c, n in _count(windows, [(cycle - 1, cycle)]).items()
               if n]
    return cause


def _in_order(steps):
    """Disjoint ``(s, e]`` spans from ``(gap, length)`` steps: a zero gap
    makes two spans touch, a zero length makes one empty."""
    spans, end = [], 0
    for gap, length in steps:
        spans.append((end + gap, end + gap + length))
        end += gap + length
    return spans


#: ``(s, e, rank)`` with ``s <= e``, empty windows included
_WINDOWS = st.lists(
    st.builds(lambda s, n, rank: (s, s + n, rank), st.integers(0, 40),
              st.integers(0, 8), st.integers(0, len(_RANK_CAUSE) - 1)),
    max_size=12)
_SPANS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)),
                  max_size=6).map(_in_order)


class TestSweep:
    @settings(max_examples=300, deadline=None)
    @given(windows=_WINDOWS, spans=_SPANS)
    # half-open-left: (3, 6] covers 4..6, neither 3 nor 7
    @example(windows=[(3, 6, 2)], spans=[(0, 10)])
    # overlapping and touching windows of one rank act as their union
    @example(windows=[(1, 4, 5), (3, 7, 5), (7, 9, 5)], spans=[(0, 10)])
    # empty windows cover nothing, empty spans count nothing
    @example(windows=[(5, 5, 0), (2, 8, 7)], spans=[(4, 4), (4, 6)])
    # a nested, more urgent window wins inside it and only there
    @example(windows=[(0, 12, 6), (4, 6, 1), (10, 12, 3)],
             spans=[(0, 2), (2, 11)])
    def test_matches_the_per_cycle_rule(self, windows, spans):
        assert _count(windows, spans) == _per_cycle(windows, spans)

    def test_counts_in_report_order(self):
        counts = _count([(0, 4, 0)], [(2, 6)])
        assert list(counts) == list(STALL_CAUSES)
        assert counts["fault_recovery"] == 2 and counts["idle"] == 2

    def test_no_windows_is_idle_and_no_spans_count_nothing(self):
        assert _count([], [(0, 100)])["idle"] == 100
        assert sum(_count([(0, 9, _FAULT)], []).values()) == 0

    def test_half_open_left(self):
        windows = [(3, 6, _WAIT_MEMORY)]
        assert [_cause_at(windows, c) for c in range(3, 8)] == [
            "idle", "wait_memory", "wait_memory", "wait_memory", "idle"]

    def test_overlapping_and_touching_windows_count_once(self):
        counts = _count([(1, 4, _FORK), (3, 7, _FORK), (7, 9, _FORK)],
                        [(0, 10)])
        # cycles 2..9 are covered, 1 and 10 are not
        assert counts["fork_latency"] == 8 and counts["idle"] == 2

    def test_disjoint_windows_leave_the_gap_idle(self):
        windows = [(0, 2, _FORK), (10, 12, _LIVE)]
        assert _cause_at(windows, 1) == "fork_latency"
        assert _cause_at(windows, 5) == "idle"
        assert _cause_at(windows, 11) == "wait_register"


class TestCut:
    def test_clips_to_life(self):
        assert _cut([(0, 10, _FORK), (4, 20, _LIVE)], (2, 8)) == [
            (2, 8, _FORK), (4, 8, _LIVE)]

    def test_drops_empty_and_inverted_windows(self):
        # (5, 5] is empty, (9, 4] inverted, (20, 30] outside the life
        windows = [(5, 5, _FAULT), (9, 4, _FAULT), (20, 30, _FAULT)]
        assert _cut(windows, (0, 10)) == []
        # an empty life (a host that died the cycle it took the section
        # over) keeps nothing
        assert _cut([(0, 10, _LIVE)], (6, 6)) == []


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

    @pytest.mark.parametrize("deaths", [(), (CoreDeath(core=2, cycle=25),)],
                             ids=["fault_free", "fail_stop"])
    def test_core_idle_only_while_it_hosts_no_live_section(self, deaths):
        # the fail-stop kills core 2 while section 3 lives on it, and the
        # section moves to core 1 at cycle 25
        result = _run(n_cores=4, trace=True,
                      faults=FaultPlan(deaths=deaths) if deaths else None)
        # (first cycle, core) of each section's stays, from the stream
        stays = {sid: [(0, sec["core"])]
                 for sid, sec in collect_sections(result.events).items()}
        for cycle, kind, fields in result.events:
            if kind == "section_redispatch":
                stays[fields["sid"]].append((cycle, fields["dst"]))
        assert any(len(s) > 1 for s in stays.values()) == bool(deaths)

        def host(sid, cycle):
            return [core for first, core in stays[sid] if first <= cycle][-1]

        lives = {sid: (occ["created"], occ["completed"])
                 for sid, occ in result.section_occupancy.items()}
        for core, (counts, states) in enumerate(
                zip(result.stall_causes["per_core"], result.trace)):
            stalled = [cycle for cycle, state in enumerate(states, 1)
                       if state in "BP"]
            idle = [cycle for cycle in stalled
                    if not any(lo < cycle <= hi and host(sid, cycle) == core
                               for sid, (lo, hi) in lives.items())]
            assert stalled and sum(counts.values()) == len(stalled), core
            assert counts["idle"] == len(idle), core

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
        # Tiny budget forces the budget-exhausted diagnostic path.
        prog = compile_source(PROGRAM, fork_mode=True)
        with pytest.raises(Exception) as info:
            simulate(prog, SimConfig(n_cores=4, max_cycles=40))
        message = str(info.value)
        assert "stuck sections" in message
        assert "[wait_" in message or "[noc_transit]" in message

    def test_diagnostic_identical_across_schedulers(self):
        prog = compile_source(PROGRAM, fork_mode=True)
        messages = {}
        for kernel in ("naive", "event"):
            with pytest.raises(Exception) as info:
                simulate(prog, SimConfig(n_cores=4, max_cycles=40,
                                         kernel=kernel))
            messages[kernel] = str(info.value)
        assert messages["naive"] == messages["event"]
