"""Differential harness for the fault subsystem.

The contract under test is the tentpole's acceptance bar: a faulted run
that *completes* must produce **bit-identical architectural results**
(outputs, final registers, final memory) to the fault-free run — faults
perturb timing, never values — and the naive and event-driven schedulers
must agree on *everything* about a faulted run, fault counters and event
stream included.
"""

import functools

import pytest

from repro.errors import SimulationError
from repro.faults import CoreDeath, FaultPlan
from repro.fork import fork_transform
from repro.minic import compile_source
from repro.sim import SimConfig, simulate
from repro.workloads import WORKLOADS, get_workload

ALL_SHORTS = [w.short for w in WORKLOADS]

#: the chaos plan the whole suite is driven through: drops with a tight
#: retry ladder, random + scheduled-free spikes, slow-core jitter, lost
#: acks, and two mid-run fail-stops
CHAOS = dict(seed=2015, drop_rate=0.08, spike_rate=0.05, jitter_rate=0.03,
             ack_loss_rate=0.08, retry_timeout=2, backoff_cap=16)


N_CORES = 4


@functools.lru_cache(maxsize=None)
def _workload_program(short):
    inst = get_workload(short).instance(scale=0)
    return fork_transform(inst.program)


@functools.lru_cache(maxsize=None)
def _fault_free_base(short):
    """The fault-free reference, computed once per workload with the fast
    scheduler — the existing differential harness (tests/sim) already
    proves it bit-identical to the naive one."""
    result, _ = simulate(_workload_program(short),
                         SimConfig(n_cores=N_CORES, stack_shortcut=True))
    return result


def _chaos_plan(base_cycles, n_cores):
    deaths = (CoreDeath(core=n_cores - 1, cycle=max(1, base_cycles // 4)),
              CoreDeath(core=n_cores - 2, cycle=max(2, base_cycles // 2)))
    return FaultPlan(deaths=deaths, **CHAOS)


@functools.lru_cache(maxsize=None)
def _faulted(short, kernel):
    """The workload under the chaos plan, with the event stream on so
    the kernels can be compared on it too."""
    plan = _chaos_plan(_fault_free_base(short).cycles, N_CORES)
    result, _ = simulate(_workload_program(short), SimConfig(
        n_cores=N_CORES, stack_shortcut=True, events=True,
        kernel=kernel, faults=plan))
    return result


class TestWorkloadsBitIdentical:
    @pytest.mark.parametrize("short", ALL_SHORTS)
    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_faulted_run_matches_fault_free(self, short, kernel):
        base = _fault_free_base(short)
        faulted = _faulted(short, kernel)
        assert faulted.outputs == base.outputs
        assert faulted.final_regs == base.final_regs
        assert faulted.final_memory == base.final_memory
        assert faulted.cycles >= base.cycles
        assert faulted.fault_stats["deaths"] == 2


class TestSchedulersAgreeUnderFaults:
    #: under faults the two schedulers must still agree bit-for-bit on
    #: every field — including the fault counters and the event stream
    FIELDS = ("cycles", "instructions", "sections", "outputs", "final_regs",
              "final_memory", "fetch_end", "retire_end", "fetch_computed",
              "requests", "request_hops", "per_core_instructions",
              "request_latencies", "core_occupancy", "section_occupancy",
              "noc_stats", "events", "stall_causes", "fault_stats")

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_modes_identical(self, short):
        naive, event = _faulted(short, "naive"), _faulted(short, "event")
        for name in self.FIELDS:
            assert getattr(naive, name) == getattr(event, name), name

    def test_fault_recovery_attributed(self):
        prog = _workload_program("quicksort")
        plan = _chaos_plan(_fault_free_base("quicksort").cycles, N_CORES)
        result, _ = simulate(prog, SimConfig(
            n_cores=N_CORES, stack_shortcut=True, events=True,
            faults=plan))
        assert "fault_recovery" in result.stall_causes["causes"]
        per_section = result.stall_causes["per_section"]
        assert sum(c["fault_recovery"] for c in per_section.values()) > 0


PROGRAM = """
long A[8] = {4, 1, 6, 2, 9, 5, 7, 3};
long sum(long* t, long k) {
    if (k == 1) return t[0];
    return sum(t, k / 2) + sum(t + k / 2, k - k / 2);
}
long main() { out(sum(A, 8)); return 0; }
"""


class TestFailStopSemantics:
    def test_non_root_death_completes_with_redispatch(self):
        prog = compile_source(PROGRAM, fork_mode=True)
        base, _ = simulate(prog, SimConfig(n_cores=4, stack_shortcut=True))
        plan = FaultPlan(deaths=(CoreDeath(core=1, cycle=100),))
        result, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, faults=plan))
        assert result.fault_stats["redispatches"] >= 1
        assert result.outputs == base.outputs

    def test_without_redispatch_the_run_maroons(self):
        prog = compile_source(PROGRAM, fork_mode=True)
        plan = FaultPlan(deaths=(CoreDeath(core=1, cycle=100),),
                         redispatch=False)
        with pytest.raises(SimulationError,
                           match="dead cores: \\[1\\]") as excinfo:
            simulate(prog, SimConfig(n_cores=4, stack_shortcut=True,
                                     faults=plan, max_cycles=3000))
        assert "cycle budget exhausted" in str(excinfo.value)

    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_death_on_idle_core_is_harmless(self, kernel):
        prog = compile_source(PROGRAM, fork_mode=True)
        base, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, kernel=kernel))
        # long after completion-side activity on core 3 has drained
        plan = FaultPlan(deaths=(CoreDeath(core=3, cycle=base.cycles - 1),))
        result, _ = simulate(prog, SimConfig(
            n_cores=4, stack_shortcut=True, kernel=kernel,
            faults=plan))
        assert result.outputs == base.outputs
        assert result.fault_stats["deaths"] == 1
