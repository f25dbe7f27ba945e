"""Canonical SimConfig/FaultPlan serialization: property-based round-trip.

The dict form is the batch runner's wire + digest format, so round-trips
must be exact (``from_dict(to_dict(c)) == c``) and unknown keys must be
rejected — a silently-dropped key would change what a cache key means.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, SimulationError
from repro.faults import CoreDeath, FaultPlan, LinkSpike
from repro.sim import SimConfig

_N_CORES = 8

_rates = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)

_deaths = st.lists(
    st.builds(CoreDeath,
              core=st.integers(min_value=0, max_value=_N_CORES - 1),
              cycle=st.integers(min_value=1, max_value=10_000)),
    max_size=3, unique_by=lambda d: d.core).map(tuple)

_spikes = st.lists(
    st.builds(LinkSpike,
              src=st.integers(min_value=-1, max_value=_N_CORES - 1),
              dst=st.integers(min_value=0, max_value=_N_CORES - 1),
              start=st.integers(min_value=1, max_value=1000),
              end=st.integers(min_value=1001, max_value=2000),
              extra=st.integers(min_value=0, max_value=16)),
    max_size=2).map(tuple)

_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    drop_rate=_rates, spike_rate=_rates, jitter_rate=_rates,
    ack_loss_rate=_rates,
    spike_extra=st.integers(min_value=0, max_value=16),
    jitter_cores=st.one_of(
        st.none(),
        st.lists(st.integers(min_value=0, max_value=_N_CORES - 1),
                 max_size=4, unique=True).map(tuple)),
    deaths=_deaths, spikes=_spikes,
    retry_timeout=st.integers(min_value=1, max_value=8),
    backoff_cap=st.integers(min_value=8, max_value=64),
    max_resends=st.integers(min_value=1, max_value=8),
    redispatch=st.booleans(),
    redispatch_latency=st.integers(min_value=0, max_value=32),
    start_cycle=st.integers(min_value=0, max_value=5000))

_configs = st.builds(
    SimConfig,
    n_cores=st.just(_N_CORES),
    section_create_latency=st.integers(min_value=0, max_value=8),
    noc_latency=st.integers(min_value=1, max_value=8),
    topology=st.sampled_from(["uniform", "mesh"]),
    dmh_latency=st.integers(min_value=0, max_value=8),
    fetch_width=st.integers(min_value=1, max_value=4),
    retire_width=st.integers(min_value=1, max_value=4),
    placement=st.sampled_from(["round_robin", "least_loaded",
                               "same_core", "random"]),
    placement_seed=st.integers(min_value=0, max_value=2**31),
    stack_shortcut=st.booleans(),
    line_bytes=st.sampled_from([8, 16, 64, 128]),
    kernel=st.sampled_from(["naive", "event"]),
    trace=st.booleans(),
    events=st.booleans(),
    max_cycles=st.integers(min_value=1000, max_value=2_000_000),
    metrics_window=st.sampled_from([None, 1, 64, 1000]),
    checkpoint_cycles=st.sampled_from([None, (5,), (3, 9, 100)]),
    faults=st.one_of(st.none(), _plans))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config=_configs)
    def test_simconfig_roundtrips(self, config):
        clone = SimConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.to_dict() == config.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(plan=_plans)
    def test_faultplan_roundtrips(self, plan):
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    def test_dict_is_json_ready(self):
        import json
        config = SimConfig(faults=FaultPlan(
            seed=3, deaths=(CoreDeath(core=1, cycle=5),),
            jitter_cores=(0, 1)))
        wire = json.loads(json.dumps(config.to_dict()))
        assert SimConfig.from_dict(wire) == config

    def test_every_field_emitted(self):
        # metrics_window, optimize and checkpoint_cycles are the three
        # deliberate elisions: their defaults (None/False/None) are
        # omitted from the wire dict so pre-existing cache keys stay
        # byte-identical (see SimConfig.to_dict); collect_occupancy is
        # no field but rides the wire as a constant for the same reason
        from dataclasses import fields
        payload = SimConfig().to_dict()
        expected = ({f.name for f in fields(SimConfig)}
                    - {"metrics_window", "optimize", "checkpoint_cycles"}
                    | {"collect_occupancy"})
        assert set(payload) == expected

    def test_metrics_window_elided_only_when_none(self):
        assert "metrics_window" not in SimConfig().to_dict()
        payload = SimConfig(metrics_window=64).to_dict()
        assert payload["metrics_window"] == 64
        clone = SimConfig.from_dict(payload)
        assert clone.metrics_window == 64
        # a set window must fork the cache key; a default one must not
        assert payload != SimConfig().to_dict()

    def test_metrics_window_validated(self):
        with pytest.raises(ValueError, match="metrics_window"):
            SimConfig(metrics_window=0)

    def test_checkpoint_cycles_elided_only_when_none(self):
        assert "checkpoint_cycles" not in SimConfig().to_dict()
        payload = SimConfig(checkpoint_cycles=(9, 3, 3)).to_dict()
        # normalized on construction: deduped, sorted, a JSON-ready list
        assert payload["checkpoint_cycles"] == [3, 9]
        clone = SimConfig.from_dict(payload)
        assert clone.checkpoint_cycles == (3, 9)

    def test_checkpoint_cycles_validated(self):
        with pytest.raises(ValueError, match="checkpoint_cycles"):
            SimConfig(checkpoint_cycles=())
        with pytest.raises(ValueError, match="checkpoint_cycles"):
            SimConfig(checkpoint_cycles=(0,))

    def test_start_cycle_elided_only_when_zero(self):
        assert "start_cycle" not in FaultPlan(drop_rate=0.1).to_dict()
        payload = FaultPlan(drop_rate=0.1, start_cycle=500).to_dict()
        assert payload["start_cycle"] == 500
        assert FaultPlan.from_dict(payload).start_cycle == 500


class TestRejection:
    def test_unknown_simconfig_key(self):
        with pytest.raises(SimulationError, match="flux_capacitor"):
            SimConfig.from_dict({"flux_capacitor": 1})

    def test_unknown_faultplan_key(self):
        with pytest.raises(ReproError, match="gremlins"):
            FaultPlan.from_dict({"gremlins": True})

    def test_unknown_nested_death_key(self):
        plan = FaultPlan(deaths=(CoreDeath(core=0, cycle=5),)).to_dict()
        plan["deaths"][0]["mood"] = "bad"
        with pytest.raises(ReproError):
            FaultPlan.from_dict(plan)

    @pytest.mark.parametrize("payload, fragment", [
        ([1], "faults must be an object"),
        ("drop", "faults must be an object"),
        ({"deaths": [1]}, "faults deaths entries must be objects"),
        ({"spikes": ["a"]}, "faults spikes entries must be objects"),
        ({"deaths": 5}, "faults deaths must be a list"),
    ], ids=["list", "string", "death", "spike", "deaths_scalar"])
    def test_non_object_faultplan_rejected(self, payload, fragment):
        with pytest.raises(ReproError, match=fragment):
            FaultPlan.from_dict(payload)

    def test_collect_occupancy_false_rejected(self):
        # occupancy is always collected: the key rides the wire as true
        # only so that pre-existing cache keys stay byte-identical
        payload = SimConfig().to_dict()
        assert payload["collect_occupancy"] is True
        assert SimConfig.from_dict(payload) == SimConfig()
        payload["collect_occupancy"] = False
        with pytest.raises(SimulationError, match="collect_occupancy"):
            SimConfig.from_dict(payload)
        with pytest.raises(TypeError):
            SimConfig(collect_occupancy=False)

    def test_validation_reruns_on_load(self):
        payload = SimConfig().to_dict()
        payload["placement"] = "astrology"
        with pytest.raises(ValueError):
            SimConfig.from_dict(payload)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="turbo"):
            SimConfig(kernel="turbo")


class TestKernelCoherence:
    """``event_driven`` is derived from ``kernel`` and rides the wire
    format only so that pre-existing cache keys stay byte-identical."""

    @pytest.mark.parametrize("kernel", ["naive", "event"])
    def test_pair_is_coherent_and_roundtrips(self, kernel):
        config = SimConfig(kernel=kernel)
        assert config.event_driven == (kernel != "naive")
        clone = SimConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.kernel == config.kernel
