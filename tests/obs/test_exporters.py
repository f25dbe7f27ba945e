"""Unit tests for the Chrome-trace exporter and the critical-path report."""

import json

import pytest

from repro.minic import compile_source
from repro.obs import critical_path, render_critical_path, to_chrome_trace
from repro.sim import SimConfig, simulate

PROGRAM = """
long A[8] = {4, 1, 6, 2, 9, 5, 7, 3};
long sum(long* t, long k) {
    if (k == 1) return t[0];
    return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
}
long main() { out(sum(A, 8)); return 0; }
"""


@pytest.fixture(scope="module")
def result():
    prog = compile_source(PROGRAM, fork_mode=True)
    return simulate(prog, SimConfig(n_cores=6, events=True))[0]


class TestChromeTrace:
    def test_requires_events(self):
        prog = compile_source(PROGRAM, fork_mode=True)
        plain, _ = simulate(prog, SimConfig(n_cores=2))
        with pytest.raises(ValueError, match="events=True"):
            to_chrome_trace(plain)

    def test_document_shape(self, result):
        doc = to_chrome_trace(result, title="t")
        json.dumps(doc)                       # fully serializable
        assert doc["otherData"]["title"] == "t"
        assert doc["otherData"]["cycles"] == result.cycles
        assert doc["traceEvents"]

    def test_every_section_has_a_slice(self, result):
        doc = to_chrome_trace(result)
        slices = [e for e in doc["traceEvents"]
                  if e.get("ph") == "X" and e.get("cat") == "section"]
        assert len(slices) == result.sections
        names = {e["name"] for e in slices}
        assert "s1" in names

    def test_process_metadata_per_core(self, result):
        doc = to_chrome_trace(result)
        procs = {e["pid"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert procs == set(range(len(result.per_core_instructions)))

    def test_flow_arrows_start_and_finish(self, result):
        doc = to_chrome_trace(result)
        starts = [e for e in doc["traceEvents"] if e.get("ph") == "s"]
        ends = [e for e in doc["traceEvents"] if e.get("ph") == "f"]
        assert len(starts) == result.requests
        assert len(ends) == result.requests
        # flow ids pair up start/finish
        assert {e["id"] for e in starts} == {e["id"] for e in ends}

    def test_counter_tracks_present(self, result):
        doc = to_chrome_trace(result)
        counters = {e["name"] for e in doc["traceEvents"]
                    if e.get("ph") == "C"}
        assert "running cores" in counters
        assert "retired/cycle" in counters

    def test_timestamps_within_run(self, result):
        doc = to_chrome_trace(result)
        for entry in doc["traceEvents"]:
            if "ts" in entry:
                assert 0 <= entry["ts"] <= result.cycles


class _Truncated:
    """A SimResult stand-in carrying a sliced event stream, as a consumer
    that cut the stream mid-run (or a crashed run) would hand over."""

    def __init__(self, result, keep):
        self.events = result.events[:keep]
        self.cycles = result.cycles
        self.sections = result.sections
        self.instructions = result.instructions
        self.scheduler = result.scheduler
        self.per_core_instructions = result.per_core_instructions
        self.section_occupancy = result.section_occupancy


class TestTruncatedStreams:
    """Exporters must degrade gracefully on empty / cut-short streams
    instead of raising KeyError on half-recorded requests or sections."""

    def test_chrome_trace_every_prefix(self, result):
        for keep in (0, 1, len(result.events) // 3,
                     len(result.events) // 2):
            doc = to_chrome_trace(_Truncated(result, keep))
            json.dumps(doc)
            assert doc["otherData"]["cycles"] == result.cycles

    def test_critical_path_every_prefix(self, result):
        for keep in (0, 1, len(result.events) // 3,
                     len(result.events) // 2):
            steps = critical_path(_Truncated(result, keep))
            text = render_critical_path(steps, result.cycles)
            assert text.startswith("critical path")

    def test_empty_stream_yields_empty_walk(self, result):
        assert critical_path(_Truncated(result, 0)) == []


class TestCriticalPath:
    def test_requires_events(self):
        prog = compile_source(PROGRAM, fork_mode=True)
        plain, _ = simulate(prog, SimConfig(n_cores=2))
        with pytest.raises(ValueError, match="events=True"):
            critical_path(plain)

    def test_walk_shape(self, result):
        steps = critical_path(result)
        assert steps[0]["kind"] == "section"
        # the walk starts at the last-completing section
        last = max(result.section_occupancy.values(),
                   key=lambda s: s["completed"])
        assert steps[0]["complete"] == last["completed"]
        kinds = {s["kind"] for s in steps}
        assert kinds <= {"section", "request", "fork"}
        # sections never repeat (the seen-set guard)
        sids = [s["sid"] for s in steps if s["kind"] == "section"]
        assert len(sids) == len(set(sids))

    def test_request_links_gate_their_section(self, result):
        # a request step always sits between its consumer section and the
        # producer: it filled after the consumer's first fetch (else it
        # would not gate it) and before the consumer completed
        steps = critical_path(result)
        for prev, step in zip(steps, steps[1:]):
            if step["kind"] != "request" or prev["kind"] != "section":
                continue
            assert prev["start"] < step["cycle"] <= prev["complete"]
            assert step["issue"] <= step["cycle"]

    def test_render(self, result):
        text = render_critical_path(critical_path(result), result.cycles)
        assert text.startswith("critical path")
        assert "chain:" in text
        assert "s1" in text

    def test_render_empty(self):
        assert "no completed sections" in render_critical_path([], 0)

    def test_identical_across_schedulers(self):
        prog = compile_source(PROGRAM, fork_mode=True)
        walks = []
        for kernel in ("naive", "event"):
            res, _ = simulate(prog, SimConfig(n_cores=6, events=True,
                                              kernel=kernel))
            walks.append(critical_path(res))
        assert walks[0] == walks[1]
