"""Typed metrics layer: instruments, merge algebra, derivation invariants.

Three concerns:

* **merge algebra** (hypothesis) — merging per-core windowed series must
  be order-independent (commutative + associative element-wise sums),
  because the cycle-domain derivation folds cores in whatever order the
  processor stores them and bit-identity across kernels depends on the
  fold being order-blind;
* **cross-layer accounting** — the windowed core-state breakdown must
  sum to the PR 1 occupancy histograms, and its blocked+parked totals
  must equal the PR 2 stall-attribution per-core sums: three independent
  derivations of the same cycles must agree exactly;
* **exporters** — registry JSON shape and Prometheus text exposition.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fork import fork_transform
from repro.isa import assemble
from repro.obs.metrics import (CYCLE_DOMAIN, HOST_DOMAIN, Counter, Gauge,
                               Histogram, MetricsRegistry,
                               cycle_metrics_to_registry, merge_series,
                               render_prometheus, state_series,
                               window_count, window_lengths)
from repro.sim import SimConfig, simulate
from repro.workloads import get_workload

WINDOW = 37


def _run(short="quicksort", **overrides):
    inst = get_workload(short).instance(scale=0, seed=1)
    knobs = dict(n_cores=8, metrics_window=WINDOW, events=True,
                 stack_shortcut=True)
    knobs.update(overrides)
    result, _ = simulate(fork_transform(inst.program), SimConfig(**knobs))
    return result


@pytest.fixture(scope="module")
def run():
    return _run()


#: the continuation reads rdx, which no section writes and no fork
#: copies, after its parent section has folded: the register request
#: walks off the live sections and reads the architectural state
_REG_FROM_DMH = """
main:
    fork f
    movq $40, %rcx
loop:
    subq $1, %rcx
    jne loop
    out %rdx
    endfork
f:
    movq $1, %rax
    endfork
"""


# -- merge algebra (the order-independence property) -------------------------

_series_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=50), min_size=6,
             max_size=6),
    min_size=1, max_size=8)


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(series=_series_lists, seed=st.randoms(use_true_random=False))
    def test_merge_is_order_independent(self, series, seed):
        shuffled = list(series)
        seed.shuffle(shuffled)
        assert merge_series(shuffled) == merge_series(series)

    @settings(max_examples=40, deadline=None)
    @given(series=_series_lists,
           split=st.integers(min_value=0, max_value=8))
    def test_merge_is_associative(self, series, split):
        split = min(split, len(series))
        left, right = series[:split], series[split:]
        parts = [p for p in (merge_series(left), merge_series(right)) if p]
        assert merge_series(parts) == merge_series(series)

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            merge_series([[1, 2], [1, 2, 3]])
        assert merge_series([]) == []

    @settings(max_examples=40, deadline=None)
    @given(states=st.lists(st.integers(min_value=0, max_value=3),
                           max_size=40),
           window=st.integers(min_value=1, max_value=9))
    def test_state_series_partitions_every_cycle(self, states, window):
        n = window_count(len(states), window)
        runs = [[state, len(list(cycles))]
                for state, cycles in itertools.groupby(states)]
        rows = state_series(runs, window, n)
        # every traced cycle lands in exactly one (state, window) cell
        assert sum(sum(row) for row in rows) == len(states)
        assert merge_series(rows) == [
            min(window, len(states) - w * window) for w in range(n)]


# -- windows -----------------------------------------------------------------

class TestWindows:
    @settings(max_examples=60, deadline=None)
    @given(cycles=st.integers(min_value=0, max_value=10_000),
           window=st.integers(min_value=1, max_value=500))
    def test_window_lengths_cover_the_run(self, cycles, window):
        lengths = window_lengths(cycles, window)
        assert sum(lengths) == cycles
        assert len(lengths) == window_count(cycles, window)
        assert all(1 <= length <= window for length in lengths)


# -- the cycle-domain derivation against independent layers ------------------

class TestDerivationInvariants:
    def test_totals_match_result_counters(self, run):
        totals = run.metrics["totals"]
        assert totals["fetched"] == run.instructions
        assert totals["retired"] == run.instructions
        assert totals["forks"] + 1 == run.sections
        assert totals["completions"] == run.sections
        assert totals["requests_issued"] == run.requests
        assert totals["noc_messages"] == run.noc_stats["messages"]
        assert totals["noc_busy_cycles"] == run.noc_stats["hop_cycles"]
        assert totals["dmh_reads"] == run.noc_stats["dmh_reads"]

    def test_state_cycles_match_occupancy_histograms(self, run):
        # chip-wide windowed state breakdown vs the PR 1 occupancy layer:
        # both fold the same core timelines, via different code paths
        states = run.metrics["series"]["core_state_cycles"]
        for name in ("fetching", "computing", "blocked", "parked"):
            occupancy_total = sum(h.get(name, 0)
                                  for h in run.core_occupancy)
            assert sum(states[name]) == occupancy_total, name

    def test_blocked_parked_match_stall_attribution(self, run):
        # the PR 2 stall attribution classifies exactly the blocked +
        # parked cycles; its per-core sums must equal our state totals
        states = run.metrics["series"]["core_state_cycles"]
        attributed = sum(sum(c.values())
                         for c in run.stall_causes["per_core"])
        assert sum(states["blocked"]) + sum(states["parked"]) == attributed

    def test_every_window_conserves_core_cycles(self, run):
        metrics = run.metrics
        states = metrics["series"]["core_state_cycles"]
        n_cores = len(run.per_core_instructions)
        for w, length in enumerate(window_lengths(metrics["cycles"],
                                                  metrics["window"])):
            in_window = sum(states[name][w] for name in states)
            assert in_window == n_cores * length

    def test_link_series_sum_to_chip_series(self, run):
        metrics = run.metrics
        noc_links = [e for name, e in metrics["links"].items()
                     if not name.startswith("dmh")]
        assert merge_series(e["messages"] for e in noc_links) == \
            metrics["series"]["noc_messages"]
        assert merge_series(e["busy_cycles"] for e in noc_links) == \
            metrics["series"]["noc_busy_cycles"]

    def test_retire_rate_is_retired_over_window_length(self, run):
        metrics = run.metrics
        lengths = window_lengths(metrics["cycles"], metrics["window"])
        for w, rate in enumerate(metrics["series"]["retire_rate"]):
            assert math.isclose(
                rate, metrics["series"]["retired"][w] / lengths[w])

    def test_queue_depth_never_negative_and_drains(self, run):
        depth = run.metrics["series"]["request_queue_depth"]
        assert all(d >= 0 for d in depth)
        # fault-free: every request resolves, so the queue ends empty
        assert depth[-1] == 0

    def test_window_one_degenerates_to_per_cycle(self):
        run = _run(metrics_window=1)
        metrics = run.metrics
        assert metrics["windows"] == metrics["cycles"]
        assert sum(metrics["series"]["retired"]) == run.instructions

    @pytest.mark.parametrize("read", ["memory", "register"])
    def test_zero_latency_dmh_reply_is_busy_one_cycle(self, read):
        # a reply lands at least a cycle after its read (reply_cycle =
        # now + max(delay, 1)): one busy cycle even at zero delay.  A
        # memory read's delay is zero with no NoC or DMH latency; a
        # register read's is the port delay alone, zero with no NoC
        # latency at the default dmh_latency
        if read == "memory":
            result = _run(noc_latency=0, dmh_latency=0, events=False)
        else:
            result, _ = simulate(assemble(_REG_FROM_DMH),
                                 SimConfig(n_cores=4, noc_latency=0,
                                           metrics_window=WINDOW),
                                 initial_regs={"rdx": 5})
            assert result.outputs == [5]
        dmh = [e for name, e in result.metrics["links"].items()
               if name.startswith("dmh")]
        messages = sum(sum(e["messages"]) for e in dmh)
        assert messages == result.noc_stats["dmh_reads"] > 0
        assert sum(sum(e["busy_cycles"]) for e in dmh) == messages

    def test_default_config_has_no_metrics(self):
        assert _run(metrics_window=None).metrics is None

    def test_metrics_absent_from_json_export_when_off(self):
        off = _run(metrics_window=None).to_json_dict()
        on = _run().to_json_dict()
        assert "metrics" not in off
        assert on["metrics"]["schema_version"] == 1
        assert on["metrics"]["domain"] == CYCLE_DOMAIN


# -- instruments and registry ------------------------------------------------

class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("jobs")
        c.inc(); c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(5.0); g.add(-2)
        assert g.value == 3.0

    def test_histogram_buckets(self):
        h = Histogram("wall", bounds=(1.0, 5.0))
        for v in (0.5, 2.0, 99.0):
            h.observe(v)
        assert h.counts == [1, 1, 1] and h.count == 3
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_registry_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry(HOST_DOMAIN)
        a = reg.counter("jobs", status="ok")
        b = reg.counter("jobs", status="ok")
        c = reg.counter("jobs", status="failed")
        assert a is b and a is not c
        with pytest.raises(ValueError):
            reg.gauge("jobs", status="ok")   # name/kind collision
        with pytest.raises(ValueError):
            MetricsRegistry("weather")


# -- exporters ---------------------------------------------------------------

class TestExporters:
    def test_registry_json_shape(self):
        reg = MetricsRegistry(HOST_DOMAIN)
        reg.counter("jobs", "jobs seen", status="ok").inc(2)
        payload = reg.to_json_dict()
        assert payload["schema_version"] == 1
        assert payload["domain"] == HOST_DOMAIN
        assert payload["metrics"] == [
            {"type": "counter", "name": "jobs", "help": "jobs seen",
             "labels": {"status": "ok"}, "value": 2}]

    def test_prometheus_exposition(self):
        reg = MetricsRegistry(HOST_DOMAIN)
        reg.counter("jobs", "jobs seen", status="ok").inc(2)
        reg.gauge("pool_size").set(4)
        h = reg.histogram("wall_seconds", bounds=(0.1, 1.0))
        h.observe(0.05); h.observe(0.5); h.observe(10.0)
        text = reg.render_prometheus()
        assert '# TYPE repro_jobs counter' in text
        assert 'repro_jobs{domain="host",status="ok"} 2' in text
        assert 'repro_pool_size{domain="host"} 4' in text
        # cumulative buckets + +Inf (Prometheus convention)
        assert 'repro_wall_seconds_bucket{domain="host",le="0.1"} 1' in text
        assert 'repro_wall_seconds_bucket{domain="host",le="1.0"} 2' in text
        assert 'repro_wall_seconds_bucket{domain="host",le="+Inf"} 3' in text
        assert 'repro_wall_seconds_count{domain="host"} 3' in text

    def test_prometheus_series_flatten_to_total_and_last(self):
        reg = MetricsRegistry(CYCLE_DOMAIN)
        inst = reg.series("retired", window=10, n_windows=3)
        inst.values = [5, 0, 2]
        text = reg.render_prometheus()
        assert 'repro_retired_total{domain="cycle"} 7' in text
        assert 'repro_retired_last{domain="cycle"} 2' in text

    def test_prometheus_rejects_unknown_instrument(self):
        with pytest.raises(ValueError):
            render_prometheus({"domain": "cycle",
                               "metrics": [{"type": "sparkline",
                                            "name": "x"}]})

    def test_cycle_metrics_round_trip_to_registry(self, run):
        reg = cycle_metrics_to_registry(run.metrics)
        text = reg.render_prometheus()
        assert ('repro_sim_retired_total{domain="cycle"} %d'
                % run.instructions) in text
        assert 'repro_sim_cycles{domain="cycle"} %d' % run.cycles in text
        # one labelled series per link per track
        assert 'link="dmh' in text
