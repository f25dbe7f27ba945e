"""Differential harness: the event kernel must be bit-identical to the
naive every-core-every-cycle reference loop.

Every program here is driven through ``SimConfig(kernel="naive")`` and
``SimConfig(kernel="event")`` and the two runs must agree on *every*
architectural and micro-architectural outcome: cycle count, outputs,
final registers, final memory, request counts/hops/latencies, per-core
instruction counts, occupancy histograms, NoC counters — and, where
enabled, the per-cycle core-state trace, the structured event stream,
the stall causes, the windowed metrics and the fault counters.

The matrix: a fixed corpus under core counts, placements, topologies
and shortcut settings; every Table 1 workload fault-free and under a
mixed chaos plan (drops, spikes, jitter, lost acks, two mid-run
fail-stops); and randomized programs, some under randomized configs
shipped through the wire format.  Any scheduling bug in the event
kernel (a missed core or request wake-up, an over-eager cycle skip, a
stale heap entry, a request stepped twice or out of order) shows up as
a field mismatch naming the workload.  The Table 1 runs also log every
renaming-request step, so the lazy request scheduler is checked step
by step as well: it must advance each request at exactly the cycles the
naive loop does, and skip only steps the naive loop spends re-checking.
The same runs are checked read by read in test_reads_from.py.
"""

import collections
import functools
import operator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import CoreDeath, FaultPlan
from repro.fork import fork_transform
from repro.minic import compile_source
from repro.sim import SimConfig, simulate
from repro.workloads import WORKLOADS, get_workload

from .reads_from import Recorder, read_mismatches

ALL_SHORTS = [w.short for w in WORKLOADS]

#: SimResult fields that must match bit-for-bit between the kernels
COMPARED_FIELDS = (
    "cycles", "instructions", "sections", "outputs", "final_regs",
    "final_memory", "fetch_end", "retire_end", "fetch_computed",
    "requests", "request_hops", "per_core_instructions",
    "request_latencies", "core_occupancy", "section_occupancy",
    "noc_stats", "trace", "events", "stall_causes", "fault_stats",
    "metrics",
)


def run_both(prog, **cfg_kwargs):
    naive, _ = simulate(prog, SimConfig(kernel="naive", **cfg_kwargs))
    event, _ = simulate(prog, SimConfig(kernel="event", **cfg_kwargs))
    return naive, event


def _assert_fields_equal(event, naive, what):
    for name in COMPARED_FIELDS:
        assert getattr(event, name) == getattr(naive, name), (
            "field %r differs between the event and naive kernels on %s"
            % (name, what))


def assert_identical(prog, **cfg_kwargs):
    naive, event = run_both(prog, **cfg_kwargs)
    assert naive.scheduler == "naive" and event.scheduler == "event"
    _assert_fields_equal(event, naive, repr(cfg_kwargs))
    return naive, event


# -- fixed corpus -------------------------------------------------------------

RECURSIVE_SUM = """
long A[9] = {3, -1, 4, 1, -5, 9, 2, 6, -5};
long sum(long* t, long k) {
    if (k == 1) return t[0];
    return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
}
long main() { out(sum(A, 9)); return 0; }
"""

STORE_HEAVY = """
long A[8] = {7, 3, 9, 1, 8, 2, 6, 4};
long B[8];
long copy(long* dst, long* src, long k) {
    if (k == 1) { dst[0] = src[0] * 2; return 0; }
    copy(dst, src, k / 2);
    copy(dst + k / 2, src + k / 2, k - k / 2);
    return 0;
}
long main() {
    copy(B, A, 8);
    long i;
    for (i = 0; i < 8; i = i + 1) out(B[i]);
    return 0;
}
"""

LOOPY = """
long main() {
    long i;
    long s = 0;
    for (i = 1; i <= 12; i = i + 1) {
        long x = i;
        while (x > 1) {
            x = x % 2 == 0 ? x / 2 : x * 3 + 1;
            s = s + 1;
        }
        out(s);
    }
    return s;
}
"""

#: compiled with ``fork_loops=True``, which puts each loop iteration's
#: body in its own section
FORK_LOOP = """
long A[10] = {5, 2, 8, 1, 9, 3, 7, 4, 6, 0};
long main() {
    long i;
    long s = 0;
    for (i = 0; i < 10; i = i + 1) {
        s = s + A[i] * (i + 1);
        out(s);
    }
    return s;
}
"""


class TestFixedCorpus:
    @pytest.mark.parametrize("n_cores", [1, 2, 5, 64])
    def test_recursive_sum(self, n_cores):
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        naive, event = assert_identical(prog, n_cores=n_cores)
        assert naive.outputs == [3 - 1 + 4 + 1 - 5 + 9 + 2 + 6 - 5]

    @pytest.mark.parametrize("placement", ["round_robin", "least_loaded",
                                           "random", "same_core"])
    def test_store_heavy_placements(self, placement):
        prog = compile_source(STORE_HEAVY, fork_mode=True)
        naive, _ = assert_identical(prog, n_cores=6, placement=placement)
        assert naive.outputs == [14, 6, 18, 2, 16, 4, 12, 8]

    @pytest.mark.parametrize("topology", ["uniform", "mesh"])
    def test_topologies(self, topology):
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        assert_identical(prog, n_cores=9, topology=topology, noc_latency=2)

    def test_stack_shortcut(self):
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        assert_identical(prog, n_cores=8, stack_shortcut=True)

    def test_sequential_control_flow(self):
        # A single section exercises the fetch/stall/resume machinery
        # without any cross-core traffic.
        prog = compile_source(LOOPY, fork_mode=True)
        assert_identical(prog, n_cores=4)

    def test_fork_loops(self):
        prog = compile_source(FORK_LOOP, fork_mode=True, fork_loops=True)
        assert_identical(prog, n_cores=8)

    def test_traces_match_cycle_for_cycle(self):
        prog = compile_source(STORE_HEAVY, fork_mode=True)
        naive, event = assert_identical(prog, n_cores=8, trace=True)
        assert naive.trace is not None
        # one state code per core per cycle, in both modes
        assert all(len(t) == naive.cycles for t in naive.trace)
        assert naive.trace == event.trace

    def test_deadlock_diagnostic_identical(self):
        # An unproducible import deadlocks the run; both kernels must
        # hit the cycle budget with the same error at the same cycle.
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        errors = {}
        for kernel in ("naive", "event"):
            cfg = SimConfig(n_cores=4, max_cycles=200, kernel=kernel)
            with pytest.raises(Exception) as info:
                simulate(prog, cfg)
            errors[kernel] = str(info.value)
        assert errors["naive"] == errors["event"]
        assert "cycle budget exhausted at cycle 201" in errors["naive"]


class TestWorkloadDifferential:
    @pytest.mark.parametrize("short,n", [("quicksort", 10),
                                         ("dictionary", 10), ("bfs", 6)])
    def test_workload_identical_across_schedulers(self, short, n):
        inst = get_workload(short).instance(n=n, seed=7)
        prog = fork_transform(inst.program)
        for cfg in ({"n_cores": 4}, {"n_cores": 16, "stack_shortcut": True},
                    {"n_cores": 64, "placement": "least_loaded"}):
            naive, _ = assert_identical(prog, **cfg)
            assert naive.signed_outputs == inst.expected_output


# -- the Table 1 suite, fault-free and under chaos ----------------------------

N_CORES = 8

#: the mixed chaos plan (mirrors tests/faults/test_differential.py):
#: drops with a tight retry ladder, random spikes, slow-core jitter,
#: lost acks — deaths are added per workload from the fault-free length
CHAOS = dict(seed=2015, drop_rate=0.08, spike_rate=0.05, jitter_rate=0.03,
             ack_loss_rate=0.08, retry_timeout=2, backoff_cap=16)

#: window small enough that every workload spans many windows, odd so
#: window boundaries don't align with round timing artifacts
METRICS_WINDOW = 37


@functools.lru_cache(maxsize=None)
def _program(short):
    inst = get_workload(short).instance(scale=0, seed=1)
    return fork_transform(inst.program)


#: RenameRequest fields a step can advance, besides the two _walk_state
#: adds itself; the lazy scheduler's own bookkeeping (step_cycle,
#: timed_cycle) is left out
_walk_fields = operator.attrgetter(
    "before", "cut_child", "cut_index", "at_section", "cur_core",
    "hit_cell", "producer_core", "producer_sid", "value", "line_clean",
    "line_values", "reply_cycle", "done", "hops")


def _walk_state(req, now):
    """Comparable image of a request's walk around a step at cycle *now*
    (sections and cells compare by identity).  The return-path list
    grows in place, so it counts by length; ``wake_cycle`` counts as the
    earliest cycle the request may step next — a coalescing re-check
    rewrites it to ``now + 1``, which bounds nothing."""
    return _walk_fields(req) + (len(req.visited or ()),
                                max(req.wake_cycle, now + 1))


class _StepRecorder(Recorder):
    """A processor that logs its renaming-request steps.  Both kernels
    step requests only through ``_step_request``; this wraps it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = 0          #: _step_request calls
        self.repeats = 0        #: steps of a request stepped this cycle
        self.moves = set()      #: (rid, cycle) of steps that changed the walk
        self.span = {}          #: rid -> [first, last] cycle it was stepped

    def _step_request(self, req, now):
        before = _walk_state(req, now)
        desc = super()._step_request(req, now)
        self.steps += 1
        span = self.span.get(req.rid)
        if span is None:
            self.span[req.rid] = [now, now]
        else:
            self.repeats += span[1] == now
            span[1] = now
        if _walk_state(req, now) != before:
            self.moves.add((req.rid, now))
        return desc


StepLog = collections.namedtuple("StepLog",
                                 "steps repeats moves span requests")


@functools.lru_cache(maxsize=None)
def _recorded(short, kernel, chaos):
    """One Table 1 run with its :class:`StepLog` and its wrong reads
    (:func:`~tests.sim.reads_from.read_mismatches`): fault-free or under
    the workload's chaos plan, with the core-state trace either way (a
    fail-stopped core's trace ends at its death)."""
    config = SimConfig(
        n_cores=N_CORES, kernel=kernel, events=True, trace=True,
        metrics_window=METRICS_WINDOW,
        faults=_chaos_plan(short) if chaos else None)
    proc = _StepRecorder(_program(short), config)
    result = proc.run()
    return (result, StepLog(proc.steps, proc.repeats, proc.moves, proc.span,
                            len(proc.requests)),
            read_mismatches(proc))


def _fault_free(short, kernel):
    return _recorded(short, kernel, False)[0]


@functools.lru_cache(maxsize=None)
def _chaos_plan(short):
    base = _fault_free(short, "naive")
    deaths = (CoreDeath(core=N_CORES - 1, cycle=max(1, base.cycles // 4)),
              CoreDeath(core=N_CORES - 2, cycle=max(2, base.cycles // 2)))
    return FaultPlan(deaths=deaths, **CHAOS)


def _chaotic(short, kernel):
    return _recorded(short, kernel, True)[0]


class TestTable1FaultFree:
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_kernels_identical(self, short):
        res = _fault_free(short, "event")
        assert res.scheduler == "event"
        _assert_fields_equal(res, _fault_free(short, "naive"), short)

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_reference_is_the_workload_answer(self, short):
        inst = get_workload(short).instance(scale=0, seed=1)
        assert _fault_free(short, "naive").signed_outputs == \
            inst.expected_output


class TestTable1Chaos:
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_kernels_identical_under_faults(self, short):
        _assert_fields_equal(_chaotic(short, "event"),
                             _chaotic(short, "naive"), short)

    @pytest.mark.parametrize("kernel", ["event", "naive"])
    @pytest.mark.parametrize("short", ["quicksort", "mis"])
    def test_metrics_only_run_folds_the_same_metrics(self, short, kernel):
        # metrics_window alone records the event stream for the fold but
        # hands out neither the stream nor the stall attribution
        result, _ = simulate(_program(short), SimConfig(
            n_cores=N_CORES, kernel=kernel, metrics_window=METRICS_WINDOW,
            faults=_chaos_plan(short)))
        assert result.events is None and result.stall_causes is None
        assert result.metrics == _chaotic(short, kernel).metrics
        totals = result.metrics["totals"]
        assert totals["drops"] and totals["retries"]
        assert totals["redispatches"]

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_chaos_perturbs_timing_never_values(self, short):
        base = _fault_free(short, "naive")
        faulted = _chaotic(short, "event")
        assert faulted.outputs == base.outputs
        assert faulted.final_memory == base.final_memory
        assert faulted.cycles >= base.cycles
        assert faulted.fault_stats["deaths"] == 2


class TestTimeline:
    """Each core's state timeline (``Core.timeline``) is the kernel's one
    core-state record: ``trace``, ``events`` and ``metrics_window`` only
    choose what a result hands out, never what the kernel records."""

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["fault_free", "chaos"])
    def test_switches_leave_the_timeline_alone(self, chaos):
        faults = _chaos_plan("quicksort") if chaos else None
        recorded = {}
        for kernel in ("event", "naive"):
            for trace in (False, True):
                for events in (False, True):
                    for window in (None, METRICS_WINDOW):
                        result, proc = simulate(
                            _program("quicksort"),
                            SimConfig(n_cores=N_CORES, kernel=kernel,
                                      trace=trace, events=events,
                                      metrics_window=window,
                                      faults=faults))
                        recorded[kernel, trace, events, window] = (
                            result.cycles,
                            [core.timeline for core in proc.cores])
        first, (cycles, timelines) = next(iter(recorded.items()))
        for combo, other in recorded.items():
            assert other == (cycles, timelines), (first, combo)
        deaths = ({death.core: death.cycle for death in faults.deaths}
                  if chaos else {})
        assert len(deaths) == (2 if chaos else 0)
        for core, runs in enumerate(timelines):
            # a core is alive until the cycle before its fail-stop
            alive = deaths[core] - 1 if core in deaths else cycles
            assert sum(n for _, n in runs) == alive, core
            assert all(n > 0 for _, n in runs), core
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:])), core


class TestLazyRequestScheduler:
    """Step-level view of the event kernel's lazy request scheduler on
    the Table 1 runs above.  The naive loop steps every live request
    every cycle; the event kernel steps a request only when its time
    came due or something it waits on (a cell, a section's state, a
    fork) changed.  The steps it skips must be exactly the naive loop's
    no-op re-checks."""

    @staticmethod
    def _logs(short, chaos):
        return (_recorded(short, "naive", chaos)[1],
                _recorded(short, "event", chaos)[1])

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_requests_advance_at_the_naive_cycles(self, short):
        naive, event = self._logs(short, chaos=False)
        assert naive.moves, "a Table 1 run must advance requests"
        assert event.moves == naive.moves, (
            "%s: the event kernel advanced requests at other cycles "
            "than the naive loop (missing %s, extra %s)" % (
                short, sorted(naive.moves - event.moves)[:5],
                sorted(event.moves - naive.moves)[:5]))

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_requests_advance_at_the_naive_cycles_under_faults(self, short):
        naive, event = self._logs(short, chaos=True)
        assert event.moves == naive.moves, (
            "%s under chaos: missing %s, extra %s" % (
                short, sorted(naive.moves - event.moves)[:5],
                sorted(event.moves - naive.moves)[:5]))

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_each_request_steps_at_most_once_per_cycle(self, short):
        for chaos in (False, True):
            naive, event = self._logs(short, chaos)
            assert event.repeats == 0, (short, chaos)
            # ... and every request issued is stepped at least once
            assert event.requests == naive.requests
            assert sorted(event.span) == list(range(event.requests))

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_steps_are_a_strict_subset_of_the_naive_scan(self, short):
        for chaos in (False, True):
            naive, event = self._logs(short, chaos)
            for rid, (first, last) in event.span.items():
                lo, hi = naive.span[rid]
                assert lo <= first and last <= hi, (
                    "%s (chaos=%s): request %d stepped at cycles %d..%d, "
                    "outside its live range %d..%d"
                    % (short, chaos, rid, first, last, lo, hi))
            assert event.steps < naive.steps, (short, chaos)


class TestEventStreamDifferential:
    """The structured event stream and the stall-cause attribution must be
    equal between the kernels — the core contract of the observability
    layer (park/wake events are synthesized from the kernel-identical
    state timeline, everything else from state transitions the harness
    above proves equal)."""

    @pytest.mark.parametrize("short,n", [("quicksort", 10),
                                         ("dictionary", 10), ("bfs", 6)])
    def test_workload_event_streams_identical(self, short, n):
        inst = get_workload(short).instance(n=n, seed=7)
        prog = fork_transform(inst.program)
        naive, event = assert_identical(prog, n_cores=8, events=True)
        assert naive.events is not None and naive.events == event.events
        assert naive.stall_causes == event.stall_causes

    @pytest.mark.parametrize("cfg", [
        {"n_cores": 5}, {"n_cores": 9, "topology": "mesh", "noc_latency": 2},
        {"n_cores": 8, "stack_shortcut": True},
    ])
    def test_fixed_corpus_event_streams_identical(self, cfg):
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        naive, event = assert_identical(prog, events=True, **cfg)
        assert naive.events == event.events

    def test_stream_is_well_formed(self):
        from repro.obs import EVENT_KINDS
        prog = compile_source(STORE_HEAVY, fork_mode=True)
        _, event = run_both(prog, n_cores=6, events=True)
        assert event.events, "a forked run must emit events"
        cycles = [c for c, _, _ in event.events]
        assert cycles == sorted(cycles), "stream must be cycle-ordered"
        assert {k for _, k, _ in event.events} <= set(EVENT_KINDS)

    def test_stall_attribution_consistent_with_occupancy(self):
        prog = compile_source(STORE_HEAVY, fork_mode=True)
        _, event = run_both(prog, n_cores=6, events=True)
        causes = event.stall_causes
        for core_counts, histogram in zip(causes["per_core"],
                                          event.core_occupancy):
            assert sum(core_counts.values()) == (histogram["blocked"]
                                                 + histogram["parked"])
        for sid, counts in causes["per_section"].items():
            occ = event.section_occupancy[sid]
            assert sum(counts.values()) == occ["blocked_cycles"]
        for cause in causes["totals"]:
            assert causes["totals"][cause] == sum(
                c[cause] for c in causes["per_core"])

    def test_events_off_leaves_result_clean(self):
        prog = compile_source(RECURSIVE_SUM, fork_mode=True)
        naive, event = run_both(prog, n_cores=4)
        assert naive.events is None and event.events is None
        assert naive.stall_causes is None and event.stall_causes is None


# -- randomized MiniC programs ------------------------------------------------

_values = st.lists(st.integers(min_value=-40, max_value=40),
                   min_size=4, max_size=10)


def _reduce_program(values, op, fanout):
    body = {"+": "a + b", "^": "a ^ b", "min": "a < b ? a : b"}[op]
    return """
    long A[%d] = {%s};
    long combine(long a, long b) { return %s; }
    long red(long* t, long k) {
        if (k == 1) return t[0];
        long cut = k / %d == 0 ? 1 : k / %d;
        return combine(red(t, cut), red(t + cut, k - cut));
    }
    long main() { out(red(A, %d)); return 0; }
    """ % (len(values), ", ".join(str(v) for v in values), body,
           fanout, fanout, len(values))


class TestRandomizedDifferential:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=_values, op=st.sampled_from(["+", "^", "min"]),
           fanout=st.integers(min_value=2, max_value=3),
           n_cores=st.sampled_from([1, 3, 8]),
           shortcut=st.booleans())
    def test_random_reductions(self, values, op, fanout, n_cores, shortcut):
        prog = compile_source(_reduce_program(values, op, fanout),
                              fork_mode=True)
        assert_identical(prog, n_cores=n_cores, stack_shortcut=shortcut)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=_values,
           mul=st.integers(min_value=-3, max_value=3),
           n_cores=st.sampled_from([2, 6]))
    def test_random_store_streams(self, values, mul, n_cores):
        src = """
        long A[%d] = {%s};
        long B[%d];
        long f(long* dst, long* src, long k) {
            if (k == 1) { dst[0] = src[0] * %d + k; return 0; }
            f(dst, src, k / 2);
            f(dst + k / 2, src + k / 2, k - k / 2);
            return 0;
        }
        long main() {
            f(B, A, %d);
            long i;
            long s = 0;
            for (i = 0; i < %d; i = i + 1) s = s + B[i];
            out(s);
            return s;
        }
        """ % (len(values), ", ".join(str(v) for v in values), len(values),
               mul, len(values), len(values))
        prog = compile_source(src, fork_mode=True)
        naive, _ = assert_identical(prog, n_cores=n_cores)
        assert naive.signed_outputs == [sum(v * mul + 1 for v in values)]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.integers(min_value=-40, max_value=40),
                           min_size=4, max_size=8),
           op=st.sampled_from(["+", "^", "min"]),
           fanout=st.integers(min_value=2, max_value=3),
           n_cores=st.sampled_from([1, 4, 9]),
           topology=st.sampled_from(["uniform", "mesh"]),
           fetch_width=st.integers(min_value=1, max_value=3),
           shortcut=st.booleans(),
           metrics_window=st.sampled_from([None, 1, 17, 100]))
    def test_random_configs_through_the_wire_format(
            self, values, op, fanout, n_cores, topology, fetch_width,
            shortcut, metrics_window):
        """Random configuration draws: the kernels must agree after the
        config has been through its canonical wire format (the batch
        runner always ships configs as dicts, so the agreement must hold
        for the deserialized config, not just the constructed one)."""
        prog = compile_source(_reduce_program(values, op, fanout),
                              fork_mode=True)
        knobs = dict(n_cores=n_cores, topology=topology,
                     fetch_width=fetch_width, stack_shortcut=shortcut,
                     events=True, metrics_window=metrics_window)
        results = {}
        for kernel in ("naive", "event"):
            config = SimConfig.from_dict(
                SimConfig(kernel=kernel, **knobs).to_dict())
            assert config.kernel == kernel
            results[kernel], _ = simulate(prog, config)
        _assert_fields_equal(results["event"], results["naive"],
                             "random program under %r" % (knobs,))
