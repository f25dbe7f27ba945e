"""Resume-at-k differential: snapshot resume is bit-identical to cold.

The tentpole proof of the snapshot subsystem, mirroring the two-way
kernel harness: every Table 1 workload × both kernels × fault-free and
chaos, checkpointed mid-run (for chaos: between the two scheduled core
deaths, so the fault engine's cursor is itself mid-state), resumed, and
compared on **every** result field — events, metrics and fault counters
included.  The event kernel is also resumed from three points of each
chaos run, so its lazy-scheduler state is restored mid-flight at
different depths.  Plus the warm-fork path used by the chaos grid:
attaching a ``start_cycle``-gated fault plan to a fault-free snapshot
must be bit-identical to the cold run with the same gated plan attached
from cycle 0.
"""

import functools

import pytest

from repro.faults import CoreDeath, FaultPlan
from repro.sim import SimConfig, simulate
from repro.snapshot import Snapshot, SnapshotError, resume

from .test_differential import (
    ALL_SHORTS, COMPARED_FIELDS, METRICS_WINDOW, N_CORES, _chaos_plan,
    _program)

KERNELS = ("naive", "event")


def _config(short, kernel, chaos, **extra):
    return SimConfig(
        n_cores=N_CORES, kernel=kernel, events=True,
        metrics_window=METRICS_WINDOW,
        faults=_chaos_plan(short) if chaos else None, **extra)


@functools.lru_cache(maxsize=None)
def _fault_free_cycles(short):
    result, _ = simulate(_program(short), SimConfig(n_cores=N_CORES))
    return result.cycles


@functools.lru_cache(maxsize=None)
def _cold_with_checkpoint(short, kernel, chaos):
    """One checkpointed cold run; returns ``(result, snapshot)``.

    The label sits at a third of the fault-free length — for chaos runs
    that is between the two deaths (cycles//4 and cycles//2), so the
    restored fault engine carries one applied death and live retry
    state."""
    label = max(2, _fault_free_cycles(short) // 3)
    result, proc = simulate(
        _program(short),
        _config(short, kernel, chaos, checkpoint_cycles=(label,)))
    (snap,) = proc.checkpoints
    return result, snap


class TestResumeDifferential:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_fault_free_resume_identical(self, short, kernel):
        cold, snap = _cold_with_checkpoint(short, kernel, chaos=False)
        warm, _ = resume(Snapshot.from_bytes(snap.to_bytes()))
        for name in COMPARED_FIELDS:
            assert getattr(warm, name) == getattr(cold, name), (
                "field %r differs after resume (%s, %s, fault-free)"
                % (name, short, kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_chaos_resume_identical(self, short, kernel):
        cold, snap = _cold_with_checkpoint(short, kernel, chaos=True)
        warm, _ = resume(Snapshot.from_bytes(snap.to_bytes()))
        for name in COMPARED_FIELDS:
            assert getattr(warm, name) == getattr(cold, name), (
                "field %r differs after resume (%s, %s, chaos)"
                % (name, short, kernel))


class TestResumeAnywhere:
    """The event kernel pickles its lazy-scheduler state (awake set, time
    heaps, cell and section waiters, fork-routed set) into every
    snapshot, so one mid-run point is not enough: under chaos,
    checkpoint before the first death, at the second and after both,
    and resume each one."""

    @pytest.mark.parametrize("short", ALL_SHORTS)
    def test_chaos_resume_before_at_and_after_deaths(self, short):
        cycles = _fault_free_cycles(short)
        labels = (max(2, cycles // 6), cycles // 2, cycles * 5 // 6)
        cold, proc = simulate(_program(short), SimConfig(
            n_cores=N_CORES, faults=_chaos_plan(short),
            checkpoint_cycles=labels))
        assert tuple(snap.cycle for snap in proc.checkpoints) == labels
        for snap in proc.checkpoints:
            warm, _ = resume(Snapshot.from_bytes(snap.to_bytes()))
            for name in COMPARED_FIELDS:
                assert getattr(warm, name) == getattr(cold, name), (
                    "field %r differs after resume at cycle %d (%s, chaos)"
                    % (name, snap.cycle, short))


class TestWarmFork:
    """The chaos grid's trick: one fault-free snapshot, many fault
    plans — sound because every plan is gated past the snapshot."""

    SHORT = "quicksort"

    def _gated_plan(self, start):
        base = _fault_free_cycles(self.SHORT)
        return FaultPlan(
            seed=77, drop_rate=0.1, ack_loss_rate=0.05,
            start_cycle=start + 1,
            deaths=(CoreDeath(core=N_CORES - 1,
                              cycle=max(start + 2, (start + base) // 2)),))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forked_cell_equals_cold_gated_run(self, kernel):
        start = max(2, _fault_free_cycles(self.SHORT) * 3 // 5)
        plan = self._gated_plan(start)
        _, proc = simulate(_program(self.SHORT),
                           SimConfig(n_cores=N_CORES, kernel=kernel,
                                     events=True,
                                     metrics_window=METRICS_WINDOW,
                                     checkpoint_cycles=(start,)))
        (snap,) = proc.checkpoints
        warm, _ = resume(snap, faults=plan)
        cold, _ = simulate(_program(self.SHORT),
                           SimConfig(n_cores=N_CORES, kernel=kernel,
                                     events=True,
                                     metrics_window=METRICS_WINDOW,
                                     faults=FaultPlan.from_dict(
                                         plan.to_dict())))
        for name in COMPARED_FIELDS:
            assert getattr(warm, name) == getattr(cold, name), (
                "field %r differs between warm fork and cold gated run "
                "(%s)" % (name, kernel))

    def test_ungated_plan_rejected(self):
        _, snap = _cold_with_checkpoint(self.SHORT, "event", chaos=False)
        with pytest.raises(SnapshotError, match="takes effect at cycle"):
            resume(snap, faults=FaultPlan(seed=1, drop_rate=0.5))

    def test_refaulting_a_faulted_snapshot_rejected(self):
        _, snap = _cold_with_checkpoint(self.SHORT, "event", chaos=True)
        other = FaultPlan(seed=9, drop_rate=0.2,
                          start_cycle=snap.cycle + 1)
        with pytest.raises(SnapshotError, match="cannot be re-faulted"):
            resume(snap, faults=other)

    def test_same_plan_keeps_the_engine_cursor(self):
        cold, snap = _cold_with_checkpoint(self.SHORT, "event", chaos=True)
        warm, _ = resume(snap, faults=_chaos_plan(self.SHORT))
        assert warm.fault_stats == cold.fault_stats
