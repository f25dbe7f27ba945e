"""Unit tests for repro.obs.events: the trace container, the park/wake
synthesizer and the section/request timeline reconstructions."""

from repro.obs.events import (EVENT_KINDS, EventTrace,
                              collect_fault_windows, collect_requests,
                              collect_sections, events_to_json,
                              request_what_str, synthesize_core_events)
from repro.sim.stats import BLOCKED, COMPUTING, CORE_STATES, FETCHING, PARKED


class TestEventTrace:
    def test_emit_appends_tuples(self):
        trace = EventTrace()
        trace.emit(3, "retire", sid=1, index=0)
        trace.emit(4, "retire", sid=1, index=1)
        assert trace.events == [(3, "retire", {"sid": 1, "index": 0}),
                                (4, "retire", {"sid": 1, "index": 1})]

    def test_kind_field_does_not_collide(self):
        # request_issue carries a field literally named "kind"
        trace = EventTrace()
        trace.emit(1, "request_issue", rid=0, kind="mem", sid=1, core=0,
                   what=64)
        assert trace.events[0][2]["kind"] == "mem"

    def test_streams_compare_by_equality(self):
        a, b = EventTrace(), EventTrace()
        for t in (a, b):
            t.emit(1, "section_start", sid=1, core=0)
        assert a.events == b.events


class TestSynthesizeCoreEvents:
    """Each core's timeline is a list of ``[state, cycles]`` runs."""

    def _run(self, *timelines):
        return synthesize_core_events(list(timelines), CORE_STATES,
                                      (BLOCKED, PARKED))

    def test_empty_timeline(self):
        assert self._run([]) == []
        assert self._run() == []

    def test_never_stalled(self):
        assert self._run([[FETCHING, 1], [COMPUTING, 1],
                          [FETCHING, 1]]) == []

    def test_single_stall_run(self):
        events = self._run([[FETCHING, 1], [BLOCKED, 2], [FETCHING, 1]])
        assert events == [(2, "core_park", {"core": 0, "state": "blocked"}),
                          (4, "core_wake", {"core": 0})]

    def test_stall_to_end_has_no_wake(self):
        events = self._run([[FETCHING, 1], [PARKED, 2]])
        assert events == [(2, "core_park", {"core": 0, "state": "parked"})]

    def test_park_state_is_the_runs_first(self):
        # a blocked->parked transition within one stall keeps one park event
        events = self._run([[BLOCKED, 1], [PARKED, 1], [FETCHING, 1]])
        assert events == [(1, "core_park", {"core": 0, "state": "blocked"}),
                          (3, "core_wake", {"core": 0})]

    def test_multiple_cores_tagged(self):
        events = self._run([[BLOCKED, 1], [FETCHING, 1]],
                           [[FETCHING, 1], [PARKED, 1]])
        cores = sorted(f["core"] for _, kind, f in events
                       if kind == "core_park")
        assert cores == [0, 1]


class TestReconstruction:
    EVENTS = [
        (5, "section_fork", {"parent": 1, "child": 2, "core": 1,
                             "first_fetch": 7}),
        (7, "section_start", {"sid": 2, "core": 1}),
        (8, "request_issue", {"rid": 0, "kind": "reg", "sid": 2, "core": 1,
                              "what": "rbx"}),
        (8, "request_hop", {"rid": 0, "src": 1, "dst": 0, "sid": 1,
                            "wait": 2}),
        (12, "request_hit", {"rid": 0, "sid": 1, "core": 0}),
        (20, "request_reply", {"rid": 0, "src": 0, "dst": 1, "arrive": 22}),
        (22, "request_fill", {"rid": 0, "sid": 2, "value": 9}),
        (30, "section_complete", {"sid": 2, "core": 1}),
    ]

    def test_collect_sections_seeds_root(self):
        sections = collect_sections([])
        assert sections == {1: {"sid": 1, "core": 0, "created": 0,
                                "first_fetch": 1, "start": None,
                                "complete": None, "parent": None}}

    def test_collect_sections(self):
        sections = collect_sections(self.EVENTS)
        sec = sections[2]
        assert sec["created"] == 5 and sec["first_fetch"] == 7
        assert sec["start"] == 7 and sec["complete"] == 30
        assert sec["parent"] == 1
        assert sections[1]["complete"] is None

    def test_collect_requests(self):
        req = collect_requests(self.EVENTS)[0]
        assert req["sid"] == 2 and req["kind"] == "reg"
        assert req["issue"] == 8 and req["fill"] == 22
        assert req["producer"] == 1 and not req["dmh"]
        assert req["hops"] == 1
        assert req["path"] == [(8, 0, 1)]
        assert (8, 10) in req["transit"]      # the hop flight
        assert (20, 22) in req["transit"]     # the reply flight

    def test_dmh_transit_only_for_register_reads(self):
        issue = {"rid": 1, "kind": "mem", "sid": 1, "core": 0, "what": 64}
        events = [(3, "request_issue", issue),
                  (4, "request_dmh", {"rid": 1, "core": 0, "arrive": 6})]
        req = collect_requests(events)[1]
        assert req["dmh"] and req["transit"] == []
        events[0] = (3, "request_issue", dict(issue, kind="reg", what="rax"))
        req = collect_requests(events)[1]
        assert req["transit"] == [(4, 6)]

    def test_what_str(self):
        assert request_what_str({"kind": "reg", "what": "rax"}) == "rax"
        assert request_what_str({"kind": "mem", "what": 0x40}) == "0x40"

    def test_events_to_json(self):
        flat = events_to_json(self.EVENTS)
        assert flat[0] == {"cycle": 5, "kind": "section_fork", "parent": 1,
                           "child": 2, "core": 1, "first_fetch": 7}
        assert len(flat) == len(self.EVENTS)

    def test_fixture_kinds_are_declared(self):
        assert {kind for _, kind, _ in self.EVENTS} <= set(EVENT_KINDS)

    def test_truncated_stream_skips_unknown_sids(self):
        # a stream cut after the fork events were dropped must not KeyError
        truncated = [e for e in self.EVENTS if e[1] != "section_fork"]
        sections = collect_sections(truncated)
        assert 2 not in sections            # silently skipped, root remains
        assert 1 in sections

    def test_truncated_stream_skips_unknown_rids(self):
        truncated = [e for e in self.EVENTS if e[1] != "request_issue"]
        assert collect_requests(truncated) == {}

    def test_empty_stream(self):
        assert collect_requests([]) == {}
        assert collect_fault_windows([]) == {}


class TestCollectFaultWindows:
    def test_redispatch_window(self):
        events = [(50, "section_redispatch",
                   {"sid": 3, "src": 1, "dst": 0, "first_fetch": 59})]
        assert collect_fault_windows(events) == {3: [(50, 59)]}

    def test_retry_window_ends_at_resend(self):
        events = [(30, "msg_retry", {"rid": 7, "sid": 2, "src": 0,
                                     "dst": 1, "attempt": 1, "wait": 4})]
        assert collect_fault_windows(events) == {2: [(26, 30)]}

    def test_windows_accumulate_per_sid(self):
        events = [
            (30, "msg_retry", {"rid": 7, "sid": 2, "src": 0, "dst": 1,
                               "attempt": 1, "wait": 4}),
            (50, "section_redispatch", {"sid": 2, "src": 1, "dst": 0,
                                        "first_fetch": 59}),
        ]
        assert collect_fault_windows(events) == {2: [(26, 30), (50, 59)]}
