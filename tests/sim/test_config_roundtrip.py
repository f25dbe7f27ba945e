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
    redispatch_latency=st.integers(min_value=0, max_value=32))

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
        # metrics_window and optimize are the two deliberate elisions:
        # their defaults (None/False) are omitted from the wire dict so
        # pre-existing cache keys stay byte-identical (see
        # SimConfig.to_dict); collect_occupancy is no field but rides
        # the wire as a constant for the same reason
        from dataclasses import fields
        payload = SimConfig().to_dict()
        expected = ({f.name for f in fields(SimConfig)}
                    - {"metrics_window", "optimize"}
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


class TestRejection:
    # checkpoint_cycles and start_cycle are retired knobs: a payload
    # that sets one must fail by name, not run as if it were absent
    @pytest.mark.parametrize("key, value", [
        ("flux_capacitor", 1),
        ("checkpoint_cycles", [5]),
    ], ids=["flux_capacitor", "checkpoint_cycles"])
    def test_unknown_simconfig_key(self, key, value):
        with pytest.raises(SimulationError, match=key):
            SimConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("gremlins", True),
        ("start_cycle", 5),
    ], ids=["gremlins", "start_cycle"])
    def test_unknown_faultplan_key(self, key, value):
        with pytest.raises(ReproError, match=key):
            FaultPlan.from_dict({key: value})

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
