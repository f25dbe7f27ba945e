"""Unit tests for sim/stats.py: request-latency summaries, occupancy
histograms and the JSON export surface."""

import json

from repro.minic import compile_source
from repro.sim import SimConfig, simulate
from repro.sim.stats import (BLOCKED, COMPUTING, CORE_STATES, FETCHING,
                             PARKED, SimResult, occupancy_counts,
                             request_latency_stats)


class TestRequestLatencyStats:
    def test_empty(self):
        stats = request_latency_stats([])
        assert stats == {"count": 0, "min": 0, "mean": 0.0, "p50": 0,
                         "p90": 0, "p99": 0, "max": 0}

    def test_single_element(self):
        stats = request_latency_stats([7])
        assert stats["count"] == 1
        assert (stats["min"] == stats["p50"] == stats["p90"]
                == stats["p99"] == stats["max"] == 7)
        assert stats["mean"] == 7.0

    def test_all_equal(self):
        stats = request_latency_stats([4] * 9)
        assert stats["count"] == 9
        assert (stats["min"] == stats["p50"] == stats["p90"]
                == stats["p99"] == stats["max"] == 4)
        assert stats["mean"] == 4.0

    def test_mixed_percentiles(self):
        stats = request_latency_stats(list(range(1, 11)))   # 1..10
        assert stats["min"] == 1 and stats["max"] == 10
        assert stats["p50"] == 5     # nearest rank: ceil(10 * 0.50) = 5th
        assert stats["p90"] == 9     # 9th value, NOT the max
        assert stats["p99"] == 10
        assert stats["mean"] == 5.5

    def test_p90_distinct_from_max(self):
        # The old float-indexed convention returned the max for p90 of 10
        # samples; nearest rank must return the 9th.
        lat = [1] * 9 + [1000]
        stats = request_latency_stats(lat)
        assert stats["p90"] == 1
        assert stats["p99"] == 1000
        assert stats["max"] == 1000

    def test_nearest_rank_integer_exact(self):
        # 100 samples: p99 is exactly the 99th value (float ceil of
        # 0.99 * 100 overshoots to 100 under IEEE rounding).
        stats = request_latency_stats(list(range(100)))
        assert stats["p99"] == 98
        assert stats["p50"] == 49
        assert stats["p90"] == 89

    def test_unsorted_input(self):
        assert request_latency_stats([9, 1, 5])["p50"] == 5

    def test_method_delegates_to_module_function(self):
        result = _tiny_result(request_latencies=[3, 3, 9])
        assert result.request_latency_stats() == request_latency_stats([3, 3, 9])


def _tiny_result(**overrides):
    base = dict(cycles=10, instructions=5, sections=1, outputs=[],
                final_regs={}, final_memory={}, fetch_end=5, retire_end=9,
                fetch_computed=3, requests=2, request_hops=4)
    base.update(overrides)
    return SimResult(**base)


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
    return simulate(prog, SimConfig(**cfg))[0]


class TestOccupancyHistograms:
    def test_counts_roundtrip(self):
        runs = [[FETCHING, 1], [COMPUTING, 2], [BLOCKED, 3], [PARKED, 4]]
        assert occupancy_counts(runs) == {
            "fetching": 1, "computing": 2, "blocked": 3, "parked": 4}

    def test_core_histograms_sum_to_cycles(self):
        result = _run(n_cores=4)
        assert len(result.core_occupancy) == 4
        for histogram in result.core_occupancy:
            assert set(histogram) == set(CORE_STATES)
            assert sum(histogram.values()) == result.cycles

    def test_single_core_never_parks_while_working(self):
        result = _run(n_cores=1)
        histogram = result.core_occupancy[0]
        assert histogram["fetching"] > 0
        assert sum(histogram.values()) == result.cycles

    def test_idle_cores_park(self):
        # With far more cores than sections, most cores never host work
        # and must be accounted as parked for the whole run.
        result = _run(n_cores=64)
        untouched = [h for h, fetched in zip(result.core_occupancy,
                                             result.per_core_instructions)
                     if fetched == 0]
        assert untouched, "expected idle cores at 64 cores"
        assert all(h["parked"] == result.cycles and h["fetching"] == 0
                   for h in untouched)

    def test_section_occupancy_covers_every_section(self):
        result = _run(n_cores=4)
        assert set(result.section_occupancy) == set(
            range(1, result.sections + 1))
        for entry in result.section_occupancy.values():
            assert entry["completed"] >= entry["created"]
            assert entry["fetch_cycles"] > 0
            assert entry["blocked_cycles"] >= 0

    def test_occupancy_summary_fractions(self):
        summary = _run(n_cores=4).occupancy_summary()
        assert set(summary) == set(CORE_STATES)
        assert abs(sum(summary.values()) - 1.0) < 1e-9

    def test_trace_opt_in(self):
        assert _run(n_cores=2).trace is None
        traced = _run(n_cores=2, trace=True)
        assert len(traced.trace) == 2
        assert all(len(row) == traced.cycles for row in traced.trace)
        assert set("".join(traced.trace)) <= set("FCBP")


class TestNocStats:
    def test_counters_present_and_consistent(self):
        result = _run(n_cores=8)
        stats = result.noc_stats
        assert stats["messages"] > 0
        assert stats["hop_cycles"] >= stats["messages"]
        assert stats["dmh_reads"] > 0

    def test_single_core_sends_no_messages(self):
        assert _run(n_cores=1).noc_stats["messages"] == 0


class TestResultEdgeCases:
    def test_zero_cycle_result_summary_and_json(self):
        # A synthetic zero-cycle run: no occupancy, no IPC, no crash.
        result = _tiny_result(cycles=0, instructions=0, fetch_end=0,
                              retire_end=0)
        assert result.occupancy_summary() == {s: 0.0 for s in CORE_STATES}
        assert result.fetch_ipc == 0.0 and result.retire_ipc == 0.0
        payload = result.to_json_dict()
        assert payload["cycles"] == 0
        assert payload["occupancy_summary"] == {s: 0.0 for s in CORE_STATES}
        json.dumps(payload)

    def test_occupancy_summary_all_zero_histograms(self):
        result = _tiny_result(
            core_occupancy=[{s: 0 for s in CORE_STATES}] * 3)
        assert result.occupancy_summary() == {s: 0.0 for s in CORE_STATES}

    def test_json_without_observability_layers(self):
        # no trace, no events: the optional keys stay out and nothing
        # dereferences the absent layers.
        result = _run(n_cores=2)
        assert result.trace is None and result.events is None
        assert result.stall_causes is None
        payload = result.to_json_dict(include_trace=True,
                                      include_events=True)
        assert "trace" not in payload
        assert "events" not in payload
        assert "stall_causes" not in payload
        assert len(payload["core_occupancy"]) == 2
        json.dumps(payload)

    def test_events_config_forces_occupancy(self):
        result = _run(n_cores=2, events=True)
        assert result.core_occupancy
        assert result.events is not None
        assert result.stall_causes is not None
        # trace stays opt-in even though events collected the timeline
        assert result.trace is None

    def test_json_with_events(self):
        result = _run(n_cores=2, events=True)
        payload = result.to_json_dict(include_events=True)
        assert payload["stall_causes"]["totals"]
        assert len(payload["events"]) == len(result.events)
        assert payload["events"][0]["kind"]
        parsed = json.loads(json.dumps(payload))
        assert parsed["stall_causes"]["causes"] == list(
            result.stall_causes["causes"])

    def test_events_excluded_by_default(self):
        payload = _run(n_cores=2, events=True).to_json_dict()
        assert "events" not in payload
        assert "stall_causes" in payload


class TestJsonExport:
    def test_to_json_dict_is_json_serializable(self):
        result = _run(n_cores=4, trace=True)
        payload = result.to_json_dict(include_memory=True, include_trace=True)
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["cycles"] == result.cycles
        assert parsed["scheduler"] == "event"
        assert parsed["request_latency"]["count"] == len(
            result.request_latencies)
        assert parsed["trace"] == result.trace
        assert len(parsed["section_occupancy"]) == result.sections

    def test_memory_and_trace_excluded_by_default(self):
        payload = _run(n_cores=2).to_json_dict()
        assert "final_memory" not in payload
        assert "trace" not in payload
        assert payload["final_memory_words"] > 0
