"""Deterministic fault models for the distributed simulator.

A :class:`FaultPlan` describes *what goes wrong* during a run: transient
NoC message drops (detected by the receiver's corruption check, so a drop
costs a timeout + re-send rather than silent data loss), per-link latency
spikes, slow-core jitter (fetch throughput derating), and fail-stop core
death at a scheduled cycle.

Every randomized decision is a **pure hash** of the plan seed and the
decision's coordinates (link, cycle, attempt number) rather than a draw
from a sequential RNG.  This is the property the whole subsystem leans
on: the naive and event-driven schedulers evaluate the decision points in
different orders (and the event scheduler skips provably-idle cycles
entirely), yet both must inject *exactly* the same faults.  A pure
function of the call context cannot diverge; a shared RNG stream would.

The recovery side (ack/timeout/backoff, re-send, section re-dispatch)
lives in :mod:`repro.faults.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> float:
    """splitmix64-style avalanche of the parts into a float in [0, 1).

    Independent of PYTHONHASHSEED and of evaluation order: the same
    coordinates always yield the same number, on any platform.
    """
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = (x ^ (part & _MASK64)) & _MASK64
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return (x >> 11) / float(1 << 53)


# tags keep the per-fault hash streams independent of each other
_TAG_DROP, _TAG_SPIKE, _TAG_JITTER, _TAG_ACK = 1, 2, 3, 4


@dataclass(frozen=True)
class LinkSpike:
    """Scheduled latency spike on the directed link *src* -> *dst* during
    the half-open cycle window ``[start, end)``; ``src == -1`` matches the
    DMH port."""

    src: int
    dst: int
    start: int
    end: int
    extra: int


@dataclass(frozen=True)
class CoreDeath:
    """Fail-stop: *core* permanently stops at the start of *cycle*."""

    core: int
    cycle: int


@dataclass
class FaultPlan:
    """What goes wrong, when — and how hard recovery tries.

    Rates are probabilities per decision point: ``drop_rate`` per message
    send attempt, ``spike_rate`` per message, ``jitter_rate`` per
    core-cycle with fetchable work, ``ack_loss_rate`` per delivered
    message (the ack is lost, forcing a duplicate send the receiver
    dedupes by request id — accounting only, by construction of the
    idempotent renaming protocol).
    """

    seed: int = 0
    #: probability a message send attempt is dropped (receiver detects
    #: corruption / loss and the sender re-sends after a timeout)
    drop_rate: float = 0.0
    #: probability a message suffers a random latency spike
    spike_rate: float = 0.0
    #: extra cycles added by a random spike
    spike_extra: int = 4
    #: probability a core's fetch stage stalls for one cycle (slow core)
    jitter_rate: float = 0.0
    #: cores subject to jitter; None = all cores
    jitter_cores: Optional[Tuple[int, ...]] = None
    #: probability the delivery ack is lost (sender re-sends; receiver
    #: dedupes by request id)
    ack_loss_rate: float = 0.0
    #: scheduled fail-stop core deaths
    deaths: Tuple[CoreDeath, ...] = ()
    #: scheduled per-link latency spikes
    spikes: Tuple[LinkSpike, ...] = ()
    #: base re-send timeout after a drop, in cycles
    retry_timeout: int = 4
    #: cap of the exponential backoff (timeout << attempt, clamped here)
    backoff_cap: int = 32
    #: forced-delivery bound: after this many drops of one message the
    #: send goes through (models an escalation path; guarantees progress)
    max_resends: int = 6
    #: re-dispatch the sections of a dead core onto live cores (off =
    #: measure the bare failure: the run deadlocks into the cycle budget)
    redispatch: bool = True
    #: cycles between a death and the first fetch of a re-dispatched
    #: section on its new core (failure detection + state shipping)
    redispatch_latency: int = 8

    def __post_init__(self) -> None:
        for name in ("drop_rate", "spike_rate", "jitter_rate",
                     "ack_loss_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ReproError("%s must be in [0, 1), got %r"
                                 % (name, rate))
        if self.retry_timeout < 1:
            raise ReproError("retry_timeout must be >= 1")
        if self.backoff_cap < self.retry_timeout:
            raise ReproError("backoff_cap must be >= retry_timeout")
        if self.max_resends < 1:
            raise ReproError("max_resends must be >= 1")
        if self.spike_extra < 0 or self.redispatch_latency < 0:
            raise ReproError("spike_extra/redispatch_latency must be >= 0")
        for death in self.deaths:
            if death.cycle < 1:
                raise ReproError("core death cycle must be >= 1 (core %d)"
                                 % death.core)

    # -- validation against a concrete machine --------------------------

    def validate(self, n_cores: int) -> None:
        """Check the plan fits an *n_cores* machine (SimConfig calls this)."""
        for death in self.deaths:
            if not 0 <= death.core < n_cores:
                raise ReproError("core death targets core %d outside the "
                                 "%d-core machine" % (death.core, n_cores))
        if len({d.core for d in self.deaths}) >= n_cores:
            raise ReproError("fault plan kills every core — nothing left "
                             "to run on")
        if self.jitter_cores is not None:
            for core in self.jitter_cores:
                if not 0 <= core < n_cores:
                    raise ReproError("jitter_cores lists core %d outside "
                                     "the %d-core machine"
                                     % (core, n_cores))

    # -- canonical serialization (cache keys + cross-process wire) -------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form; :meth:`from_dict` round-trips it.

        Nested ``deaths``/``spikes`` become lists of plain dicts and
        ``jitter_cores`` a list (or None), so the payload survives
        ``json.dumps``/``loads`` unchanged — this is the representation
        the batch runner digests for cache keys and ships to workers.
        """
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "spike_rate": self.spike_rate,
            "spike_extra": self.spike_extra,
            "jitter_rate": self.jitter_rate,
            "jitter_cores": (None if self.jitter_cores is None
                             else list(self.jitter_cores)),
            "ack_loss_rate": self.ack_loss_rate,
            "deaths": [{"core": d.core, "cycle": d.cycle}
                       for d in self.deaths],
            "spikes": [{"src": s.src, "dst": s.dst, "start": s.start,
                        "end": s.end, "extra": s.extra}
                       for s in self.spikes],
            "retry_timeout": self.retry_timeout,
            "backoff_cap": self.backoff_cap,
            "max_resends": self.max_resends,
            "redispatch": self.redispatch,
            "redispatch_latency": self.redispatch_latency,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; rejects unknown keys so a stale or
        hand-edited payload fails loudly instead of silently dropping a
        fault axis, and a payload (or a ``deaths``/``spikes`` entry) that
        is not an object, naming the field."""
        if not isinstance(data, dict):
            raise ReproError("faults must be an object, got %r" % (data,))
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ReproError("unknown FaultPlan keys: %s"
                             % ", ".join(unknown))
        kwargs: Dict[str, Any] = dict(data)
        if kwargs.get("jitter_cores") is not None:
            kwargs["jitter_cores"] = tuple(
                int(c) for c in kwargs["jitter_cores"])
        for name, build in (("deaths", CoreDeath), ("spikes", LinkSpike)):
            if name in kwargs:
                if not isinstance(kwargs[name], (list, tuple)):
                    raise ReproError("faults %s must be a list, got %r"
                                     % (name, kwargs[name]))
                entries = []
                for entry in kwargs[name]:
                    if not isinstance(entry, dict):
                        raise ReproError(
                            "faults %s entries must be objects, got %r"
                            % (name, entry))
                    field_names = {f.name for f in fields(build)}
                    bad = sorted(set(entry) - field_names)
                    if bad:
                        raise ReproError("unknown %s keys: %s"
                                         % (build.__name__,
                                            ", ".join(bad)))
                    entries.append(build(**entry))
                kwargs[name] = tuple(entries)
        return cls(**kwargs)

    # -- decision points (pure functions of the coordinates) -------------

    def dropped(self, src: int, dst: int, cycle: int, attempt: int) -> bool:
        """Is send *attempt* of the message on link src->dst at *cycle*
        dropped?"""
        if not self.drop_rate:
            return False
        return _mix(self.seed, _TAG_DROP, src + 2, dst + 2,
                    cycle, attempt) < self.drop_rate

    def spike_extra_at(self, src: int, dst: int, cycle: int) -> int:
        """Extra latency on link src->dst for a message sent at *cycle*:
        scheduled spikes plus the random spike draw."""
        extra = 0
        for spike in self.spikes:
            if (spike.src == src and spike.dst == dst
                    and spike.start <= cycle < spike.end):
                extra += spike.extra
        if self.spike_rate and _mix(self.seed, _TAG_SPIKE, src + 2,
                                    dst + 2, cycle) < self.spike_rate:
            extra += self.spike_extra
        return extra

    def jittered(self, core: int, cycle: int) -> bool:
        """Does *core*'s fetch stage stall at *cycle* (slow-core jitter)?"""
        if not self.jitter_rate:
            return False
        if self.jitter_cores is not None and core not in self.jitter_cores:
            return False
        return _mix(self.seed, _TAG_JITTER, core, cycle) < self.jitter_rate

    def ack_lost(self, src: int, dst: int, cycle: int) -> bool:
        """Is the delivery ack of a message arriving at *cycle* lost?"""
        if not self.ack_loss_rate:
            return False
        return _mix(self.seed, _TAG_ACK, src + 2, dst + 2,
                    cycle) < self.ack_loss_rate

    def retry_wait(self, attempt: int) -> int:
        """Re-send timeout after drop number *attempt* (0-based): capped
        exponential backoff."""
        return min(self.retry_timeout << attempt, self.backoff_cap)

    @property
    def active(self) -> bool:
        """Does the plan inject anything at all?  A fully-zero plan must
        behave exactly like ``faults=None``."""
        return bool(self.drop_rate or self.spike_rate or self.jitter_rate
                    or self.ack_loss_rate or self.deaths or self.spikes)

    # -- CLI spec parsing ------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Build a plan from the CLI mini-language, e.g.
        ``seed=7,drop=0.02,die=3@500``.

        Keys: ``seed=N``, ``drop=P``, ``spike=P``, ``spike_extra=N``,
        ``jitter=P``, ``ackloss=P``, ``die=CORE@CYCLE`` (repeatable),
        ``timeout=N``, ``cap=N``, ``resends=N``, ``redispatch=0|1``,
        ``redispatch_latency=N``.
        """
        kwargs: Dict[str, Any] = {}
        deaths: List[CoreDeath] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ReproError("bad --faults token %r (want key=value)"
                                 % token)
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "die":
                    core_s, _, cycle_s = value.partition("@")
                    if not cycle_s:
                        raise ValueError("want CORE@CYCLE")
                    deaths.append(CoreDeath(core=int(core_s),
                                            cycle=int(cycle_s)))
                elif key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "drop":
                    kwargs["drop_rate"] = float(value)
                elif key == "spike":
                    kwargs["spike_rate"] = float(value)
                elif key == "spike_extra":
                    kwargs["spike_extra"] = int(value)
                elif key == "jitter":
                    kwargs["jitter_rate"] = float(value)
                elif key == "ackloss":
                    kwargs["ack_loss_rate"] = float(value)
                elif key == "timeout":
                    kwargs["retry_timeout"] = int(value)
                elif key == "cap":
                    kwargs["backoff_cap"] = int(value)
                elif key == "resends":
                    kwargs["max_resends"] = int(value)
                elif key == "redispatch":
                    kwargs["redispatch"] = bool(int(value))
                elif key == "redispatch_latency":
                    kwargs["redispatch_latency"] = int(value)
                else:
                    raise ReproError("unknown --faults key %r" % key)
            except ValueError as exc:
                raise ReproError("bad --faults value %r for %s: %s"
                                 % (value, key, exc)) from None
        if deaths:
            kwargs["deaths"] = tuple(deaths)
        return cls(**kwargs)
