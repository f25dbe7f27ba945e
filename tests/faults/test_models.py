"""Fault-plan models: pure-hash decisions, validation, spec parsing."""

import pytest

from repro.errors import ReproError
from repro.faults import CoreDeath, FaultPlan, LinkSpike
from repro.faults.models import _mix


class TestMix:
    def test_deterministic(self):
        assert _mix(1, 2, 3) == _mix(1, 2, 3)

    def test_range(self):
        for args in [(0,), (1, 2), (7, 1, 4, 5, 900, 3)]:
            value = _mix(*args)
            assert 0.0 <= value < 1.0

    def test_sensitive_to_every_part(self):
        base = _mix(7, 1, 4, 5, 900, 0)
        assert base != _mix(8, 1, 4, 5, 900, 0)      # seed
        assert base != _mix(7, 2, 4, 5, 900, 0)      # tag
        assert base != _mix(7, 1, 4, 5, 901, 0)      # cycle
        assert base != _mix(7, 1, 4, 5, 900, 1)      # attempt

    def test_negative_parts_ok(self):
        # the DMH port is link endpoint -1
        assert 0.0 <= _mix(7, 1, -1, 3, 50) < 1.0


class TestDecisions:
    def test_drop_pure_function(self):
        plan = FaultPlan(seed=3, drop_rate=0.5)
        draws = [plan.dropped(0, 1, c, 0) for c in range(200)]
        assert draws == [plan.dropped(0, 1, c, 0) for c in range(200)]
        assert any(draws) and not all(draws)

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=3)
        assert not any(plan.dropped(0, 1, c, 0) for c in range(100))
        assert not any(plan.jittered(0, c) for c in range(100))
        assert not any(plan.ack_lost(0, 1, c) for c in range(100))
        assert all(plan.spike_extra_at(0, 1, c) == 0 for c in range(100))

    def test_seed_changes_the_stream(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        assert ([a.dropped(0, 1, c, 0) for c in range(200)]
                != [b.dropped(0, 1, c, 0) for c in range(200)])

    def test_scheduled_spike_window(self):
        plan = FaultPlan(spikes=(LinkSpike(src=0, dst=1, start=10, end=20,
                                           extra=5),))
        assert plan.spike_extra_at(0, 1, 9) == 0
        assert plan.spike_extra_at(0, 1, 10) == 5
        assert plan.spike_extra_at(0, 1, 19) == 5
        assert plan.spike_extra_at(0, 1, 20) == 0
        assert plan.spike_extra_at(1, 0, 15) == 0    # directed link

    def test_scheduled_spikes_stack(self):
        plan = FaultPlan(spikes=(LinkSpike(0, 1, 0, 100, 3),
                                 LinkSpike(0, 1, 50, 100, 4)))
        assert plan.spike_extra_at(0, 1, 10) == 3
        assert plan.spike_extra_at(0, 1, 60) == 7

    def test_jitter_core_filter(self):
        plan = FaultPlan(seed=9, jitter_rate=0.8, jitter_cores=(2,))
        assert not any(plan.jittered(0, c) for c in range(100))
        assert any(plan.jittered(2, c) for c in range(100))

    def test_retry_wait_capped_exponential(self):
        plan = FaultPlan(retry_timeout=4, backoff_cap=32)
        assert [plan.retry_wait(a) for a in range(6)] == [4, 8, 16, 32,
                                                          32, 32]

    def test_active(self):
        assert not FaultPlan().active
        assert not FaultPlan(seed=99, retry_timeout=2).active
        assert FaultPlan(drop_rate=0.1).active
        assert FaultPlan(deaths=(CoreDeath(0, 5),)).active
        assert FaultPlan(spikes=(LinkSpike(0, 1, 0, 9, 1),)).active


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ReproError, match="drop_rate"):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ReproError, match="jitter_rate"):
            FaultPlan(jitter_rate=-0.1)

    def test_retry_knobs(self):
        with pytest.raises(ReproError, match="retry_timeout"):
            FaultPlan(retry_timeout=0)
        with pytest.raises(ReproError, match="backoff_cap"):
            FaultPlan(retry_timeout=8, backoff_cap=4)
        with pytest.raises(ReproError, match="max_resends"):
            FaultPlan(max_resends=0)

    def test_death_cycle_positive(self):
        with pytest.raises(ReproError, match="death cycle"):
            FaultPlan(deaths=(CoreDeath(core=0, cycle=0),))

    def test_validate_death_core_in_range(self):
        plan = FaultPlan(deaths=(CoreDeath(core=7, cycle=10),))
        plan.validate(8)
        with pytest.raises(ReproError, match="core 7"):
            plan.validate(4)

    def test_validate_rejects_total_annihilation(self):
        plan = FaultPlan(deaths=(CoreDeath(0, 10), CoreDeath(1, 20)))
        plan.validate(4)
        with pytest.raises(ReproError, match="every core"):
            plan.validate(2)

    def test_validate_jitter_cores_in_range(self):
        plan = FaultPlan(jitter_rate=0.1, jitter_cores=(5,))
        plan.validate(8)
        with pytest.raises(ReproError, match="core 5"):
            plan.validate(4)


class TestFromSpec:
    def test_full_spec(self):
        plan = FaultPlan.from_spec(
            "seed=7, drop=0.1, spike=0.2, spike_extra=6, jitter=0.05, "
            "ackloss=0.3, die=3@500, die=2@600, timeout=2, cap=16, "
            "resends=4, redispatch=0, redispatch_latency=5")
        assert plan.seed == 7
        assert plan.drop_rate == 0.1
        assert plan.spike_rate == 0.2
        assert plan.spike_extra == 6
        assert plan.jitter_rate == 0.05
        assert plan.ack_loss_rate == 0.3
        assert plan.deaths == (CoreDeath(3, 500), CoreDeath(2, 600))
        assert plan.retry_timeout == 2
        assert plan.backoff_cap == 16
        assert plan.max_resends == 4
        assert plan.redispatch is False
        assert plan.redispatch_latency == 5

    def test_empty_tokens_skipped(self):
        assert FaultPlan.from_spec("seed=1,,").seed == 1

    # start= named a retired knob: it fails like any unknown key
    @pytest.mark.parametrize("spec, key", [("warp=0.5", "warp"),
                                           ("start=5", "start")],
                             ids=["warp", "start"])
    def test_unknown_key(self, spec, key):
        with pytest.raises(ReproError, match="unknown --faults key %r" % key):
            FaultPlan.from_spec(spec)

    def test_missing_equals(self):
        with pytest.raises(ReproError, match="key=value"):
            FaultPlan.from_spec("chaos")

    def test_bad_number(self):
        with pytest.raises(ReproError, match="seed"):
            FaultPlan.from_spec("seed=lots")

    def test_bad_die_format(self):
        with pytest.raises(ReproError, match="CORE@CYCLE"):
            FaultPlan.from_spec("die=3")

    def test_out_of_range_rate_still_validated(self):
        with pytest.raises(ReproError, match="drop_rate"):
            FaultPlan.from_spec("drop=1.5")
