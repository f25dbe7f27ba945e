"""A finished run is freed by reference counting, and ``Processor.run``
keeps the cyclic garbage collector out of the run.

The processor graph holds no reference back up to the processor or from
an instruction to its section (see ``Processor.run``), so dropping a
finished run leaves ``gc.collect()`` nothing to find.  A run makes no
cyclic garbage while it runs either, so ``Processor.run`` suspends
automatic collection and restores the caller's ``gc.isenabled()`` on the
way out.  Every assertion is an exact count or state, not a timing.
"""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Processor, SimConfig, simulate
from repro.workloads import get_workload

from .test_differential import METRICS_WINDOW, N_CORES, _chaos_plan, _program

KERNELS = ["naive", "event"]


@pytest.fixture
def collector():
    """Enable the collector with nothing pending; restore the state the
    test found afterwards."""
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    yield
    if not was_enabled:
        gc.disable()


def _expected(short):
    return get_workload(short).instance(scale=0, seed=1).expected_output


def _unreachable_after_drop(short, config):
    """Run *short* under *config*, drop the result and the processor, and
    return (the run's signed outputs, what ``gc.collect()`` then finds)."""
    gc.collect()
    result, proc = simulate(_program(short), config)
    outputs = result.signed_outputs
    del result, proc
    return outputs, gc.collect()


class TestDroppedRunIsFreedByRefcount:
    @pytest.mark.parametrize("short", ["matching", "dictionary"])
    def test_table1_at_256_cores(self, collector, short):
        outputs, unreachable = _unreachable_after_drop(
            short, SimConfig(n_cores=256))
        assert outputs == _expected(short)
        assert unreachable == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_chaos_plan_with_two_deaths(self, collector, kernel):
        plan = _chaos_plan("matching")
        assert len(plan.deaths) == 2
        outputs, unreachable = _unreachable_after_drop(
            "matching", SimConfig(n_cores=N_CORES, kernel=kernel,
                                  events=True,
                                  metrics_window=METRICS_WINDOW,
                                  faults=plan))
        assert outputs == _expected("matching")
        assert unreachable == 0

    def test_events_trace_and_metrics_on(self, collector):
        outputs, unreachable = _unreachable_after_drop(
            "dictionary", SimConfig(n_cores=16, stack_shortcut=True,
                                    events=True, trace=True,
                                    metrics_window=METRICS_WINDOW))
        assert outputs == _expected("dictionary")
        assert unreachable == 0


def test_no_automatic_collection_inside_run(collector):
    proc = Processor(_program("dictionary"), SimConfig(n_cores=256))
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(record)
    try:
        result = proc.run()
    finally:
        gc.callbacks.remove(record)
    assert result.signed_outputs == _expected("dictionary")
    assert generations == []


class _Probe(Processor):
    """Records whether the collector was enabled once the run began."""

    enabled_inside = None

    def _run_event(self):
        self.enabled_inside = gc.isenabled()
        super()._run_event()


class TestCallerStateIsRestored:
    def _run(self, config):
        proc = _Probe(_program("matching"), config)
        try:
            proc.run()
        finally:
            assert proc.enabled_inside is False
        return proc

    def test_after_a_normal_run(self, collector):
        self._run(SimConfig(n_cores=8))
        assert gc.isenabled()

    def test_after_a_run_out_of_cycle_budget(self, collector):
        with pytest.raises(SimulationError, match="cycle budget"):
            self._run(SimConfig(n_cores=8, max_cycles=50))
        assert gc.isenabled()

    def test_after_a_run_with_the_collector_disabled(self, collector):
        gc.disable()
        self._run(SimConfig(n_cores=8))
        assert not gc.isenabled()
