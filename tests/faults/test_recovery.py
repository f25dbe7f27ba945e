"""Fault-engine mechanics: the retry ladder, jitter, failover placement,
and the zero-plan ≡ no-plan equivalence."""

import pytest

from repro.errors import SimulationError
from repro.faults import CoreDeath, FaultPlan, FaultStats, LinkSpike
from repro.faults.recovery import FaultEngine
from repro.minic import compile_source
from repro.sim import SimConfig, simulate

PROGRAM = """
long A[8] = {4, 1, 6, 2, 9, 5, 7, 3};
long sum(long* t, long k) {
    if (k == 1) return t[0];
    return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
}
long main() { out(sum(A, 8)); return 0; }
"""


def _prog():
    return compile_source(PROGRAM, fork_mode=True)


class _StubCore:
    def __init__(self, core_id, dead=False, n_open=0, runnable=True):
        self.id = core_id
        self.dead = dead
        self.open_secs = [object()] * n_open
        self._runnable = runnable

    def _runnable_sections(self, now):
        return [object()] if self._runnable else []


class _StubProc:
    def __init__(self, cores=()):
        self.tracer = None
        self.cores = list(cores)


class TestFaultStats:
    def test_starts_at_zero(self):
        stats = FaultStats()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_as_dict_covers_every_counter(self):
        assert set(FaultStats().as_dict()) == set(FaultStats.__slots__)


class TestPerturbHop:
    def test_no_faults_is_identity(self):
        engine = FaultEngine(_StubProc(), FaultPlan())
        for base in (0, 1, 3):
            assert engine.perturb_hop(0, 1, 10, base, 1, 1) == base
        assert all(v == 0 for v in engine.stats.as_dict().values())

    def test_scheduled_spike_adds_exactly_extra(self):
        plan = FaultPlan(spikes=(LinkSpike(src=0, dst=1, start=0,
                                           end=1000, extra=5),))
        engine = FaultEngine(_StubProc(), plan)
        assert engine.perturb_hop(0, 1, 10, 3, 1, 1) == 8
        assert engine.perturb_hop(1, 0, 10, 3, 1, 1) == 3   # other direction
        assert engine.stats.spike_count == 1
        assert engine.stats.spike_cycles == 5

    def test_drop_ladder_charges_backoff(self):
        plan = FaultPlan(seed=5, drop_rate=0.6, retry_timeout=2,
                         backoff_cap=8, max_resends=4)
        engine = FaultEngine(_StubProc(), plan)
        charged = 0
        for now in range(200):
            # independently walk the deterministic ladder the engine folds
            delay, attempt = 0, 0
            while (attempt < plan.max_resends
                   and plan.dropped(0, 1, now + delay, attempt)):
                delay += plan.retry_wait(attempt)
                attempt += 1
            assert engine.perturb_hop(0, 1, now, 3, 1, 1) == delay + 3
            charged += delay
        assert engine.stats.drops == engine.stats.retries > 0
        assert engine.stats.backoff_cycles == charged

    def test_forced_delivery_after_max_resends(self):
        plan = FaultPlan(seed=0, drop_rate=0.99, retry_timeout=2,
                         backoff_cap=8, max_resends=3)
        engine = FaultEngine(_StubProc(), plan)
        ceiling = sum(plan.retry_wait(a) for a in range(3))
        for now in range(100):
            total = engine.perturb_hop(0, 1, now, 1, 1, 1)
            assert total <= ceiling + 1                 # progress guaranteed
        assert engine.stats.drops > 0

    def test_ack_loss_is_accounting_only(self):
        plan = FaultPlan(seed=2, ack_loss_rate=0.9)
        engine = FaultEngine(_StubProc(), plan)
        for now in range(50):
            assert engine.perturb_hop(0, 1, now, 3, 1, 1) == 3
        assert engine.stats.ack_losses > 0
        assert engine.stats.ack_losses == engine.stats.dup_sends_deduped


class TestJitter:
    def test_counts_only_with_runnable_work(self):
        plan = FaultPlan(seed=4, jitter_rate=0.9)
        busy = FaultEngine(_StubProc(), plan)
        idle = FaultEngine(_StubProc(), plan)
        busy_core = _StubCore(0, runnable=True)
        idle_core = _StubCore(0, runnable=False)
        blocked = sum(busy.fetch_blocked(busy_core, now)
                      for now in range(100))
        assert blocked > 0
        assert busy.stats.jitter_cycles == blocked
        assert not any(idle.fetch_blocked(idle_core, now)
                       for now in range(100))
        assert idle.stats.jitter_cycles == 0


class TestFailoverPlacement:
    def test_pick_live_core_least_loaded(self):
        proc = _StubProc([_StubCore(0, n_open=2), _StubCore(1, dead=True),
                          _StubCore(2, n_open=1), _StubCore(3, n_open=1)])
        engine = FaultEngine(proc, FaultPlan())
        assert engine.pick_live_core().id == 2      # tie -> lowest id

    def test_live_core_from_wraps_past_dead(self):
        proc = _StubProc([_StubCore(0), _StubCore(1, dead=True),
                          _StubCore(2, dead=True), _StubCore(3)])
        engine = FaultEngine(proc, FaultPlan())
        assert engine.live_core_from(0) == 0
        assert engine.live_core_from(1) == 3
        assert engine.live_core_from(3) == 3

    def test_all_dead_raises(self):
        proc = _StubProc([_StubCore(0, dead=True), _StubCore(1, dead=True)])
        engine = FaultEngine(proc, FaultPlan())
        with pytest.raises(SimulationError, match="fail-stopped"):
            engine.pick_live_core()
        with pytest.raises(SimulationError, match="fail-stopped"):
            engine.live_core_from(0)


class TestZeroPlanEquivalence:
    #: every SimResult field a zero-rate plan must leave untouched
    FIELDS = ("cycles", "instructions", "sections", "outputs", "final_regs",
              "final_memory", "fetch_end", "retire_end", "fetch_computed",
              "requests", "request_hops", "per_core_instructions",
              "request_latencies", "core_occupancy", "section_occupancy",
              "noc_stats", "events", "stall_causes")

    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_zero_plan_is_the_perfect_machine(self, kernel):
        prog = _prog()
        plain, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, events=True,
            kernel=kernel))
        zeroed, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, events=True,
            kernel=kernel, faults=FaultPlan(seed=99)))
        for name in self.FIELDS:
            assert getattr(plain, name) == getattr(zeroed, name), name
        assert plain.fault_stats is None
        assert zeroed.fault_stats is not None
        assert all(v == 0 for v in zeroed.fault_stats.values())


class TestDeathAndRedispatch:
    def test_redispatch_completes_and_matches(self):
        prog = _prog()
        base, _ = simulate(prog, SimConfig(n_cores=4, stack_shortcut=True))
        plan = FaultPlan(deaths=(CoreDeath(core=1, cycle=100),))
        result, proc = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, events=True, faults=plan))
        assert proc.cores[1].dead
        assert result.outputs == base.outputs
        assert result.final_memory == base.final_memory
        assert result.fault_stats["deaths"] == 1
        assert result.fault_stats["redispatches"] >= 1
        kinds = [kind for _, kind, _ in result.events]
        assert "core_dead" in kinds
        assert "section_redispatch" in kinds

    def test_redispatch_lands_on_a_live_core(self):
        prog = _prog()
        plan = FaultPlan(deaths=(CoreDeath(core=1, cycle=100),))
        result, proc = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, events=True, faults=plan))
        for _, kind, f in result.events:
            if kind == "section_redispatch":
                assert f["src"] == 1
                assert not proc.cores[f["dst"]].dead
        # completed sections keep their historical core_id (even a dead
        # core's), but nothing incomplete may be stranded on a dead core
        for sec in proc.sections:
            if not sec.complete:
                assert not proc.cores[sec.core_id].dead

    def test_double_death_still_correct(self):
        prog = _prog()
        base, _ = simulate(prog, SimConfig(n_cores=4, stack_shortcut=True))
        plan = FaultPlan(deaths=(CoreDeath(core=1, cycle=80),
                                 CoreDeath(core=2, cycle=120)),
                         redispatch_latency=4)
        result, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, faults=plan))
        assert result.outputs == base.outputs
        assert result.final_memory == base.final_memory
        assert result.fault_stats["deaths"] == 2

    def test_stats_json_exports_fault_stats(self):
        prog = _prog()
        plan = FaultPlan(seed=1, drop_rate=0.2)
        result, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, faults=plan))
        payload = result.to_json_dict()
        assert payload["fault_stats"]["retries"] > 0
        plain, _ = simulate(prog, SimConfig(n_cores=4, stack_shortcut=True))
        assert "fault_stats" not in plain.to_json_dict()
