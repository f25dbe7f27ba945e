"""Configuration of the distributed many-core simulator.

Latency defaults follow the paper's Figure 10 narration: a forked section
starts fetching 2 cycles after the fork ("the creation time of the forked
section (2 cycles)"), and a renaming round trip to a neighbour core costs a
request hop, a lookup and a reply hop ("counting 3 cycles to reach the
producer and return the t[0] value").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from ..errors import SimulationError
from ..faults.models import FaultPlan


@dataclass
class SimConfig:
    """Knobs of the simulated processor.

    Stage widths are per core per cycle; the paper's analytical model uses
    width 1 everywhere ("we assume each pipeline stage manipulates a single
    instruction").
    """

    n_cores: int = 8
    #: cycles between a fork's fetch and the new section's first fetch
    section_create_latency: int = 2
    #: one-way message latency between two different cores (per hop for
    #: the mesh topology)
    noc_latency: int = 1
    #: NoC topology: "uniform" (flat core-to-core latency, the paper's
    #: accounting) or "mesh" (2D mesh, XY routing, DMH port at a corner)
    topology: str = "uniform"
    #: extra cycles to read a line from the data memory hierarchy (the
    #: loader-installed image) when a renaming request walks off the oldest
    #: section
    dmh_latency: int = 1
    #: per-stage throughput (instructions per cycle per core)
    fetch_width: int = 1
    rename_width: int = 1
    execute_width: int = 1
    addr_rename_width: int = 1
    memory_width: int = 1
    retire_width: int = 1
    #: section placement policy: "round_robin", "least_loaded", "same_core"
    #: or "random"
    placement: str = "round_robin"
    placement_seed: int = 12345
    #: enable the paper's stack shortcut (statement ii in Section 4.2):
    #: memory renaming requests for addresses at or above the requester's
    #: stack pointer skip sections at a deeper call level.  Safe only for
    #: programs that never pass addresses of stack locals down the call
    #: tree (the paper's compiler-controlled stack discipline).
    stack_shortcut: bool = False
    #: memory line size in bytes for DMH replies (paper footnote 5: full
    #: lines are fetched and cached along the return path)
    line_bytes: int = 64
    #: wire-format echo of ``kernel != "naive"``, derived on construction
    #: and never a constructor argument: :meth:`to_dict` keeps emitting
    #: it so every pre-existing cache key stays byte-identical
    event_driven: bool = field(init=False, default=True)
    #: hand the core-state timelines (fetching / computing / blocked /
    #: parked), which every run records as run-length ``Core.timeline``,
    #: out as ``SimResult.trace`` strings; opt-in because the strings of
    #: a run of C cycles on N cores hold C*N state codes
    trace: bool = False
    #: structured event tracing (:mod:`repro.obs`): hand the typed event
    #: stream (section fork/start/complete, renaming request
    #: issue/hop/fill, NoC send/deliver, DMH reads, faults, retirement,
    #: core park/wake) out as ``SimResult.events`` and fold the
    #: stall-cause attribution into ``SimResult.stall_causes``.  A run
    #: with ``metrics_window`` set records the stream too, for the
    #: metrics only: without ``events`` both result fields stay None.
    #: Near-zero overhead when neither is set (every instrumentation
    #: point is one ``tracer is None`` test).  Both scheduler modes emit
    #: identical streams.
    events: bool = False
    #: simulation budget; exceeding it raises (deadlock guard)
    max_cycles: int = 2_000_000
    #: deterministic fault-injection plan (:mod:`repro.faults`); None —
    #: the default — runs the perfect machine, bit-identical to every
    #: pinned golden result
    faults: Optional[FaultPlan] = None
    #: simulation kernel: "event" (park/wake fast path with the lazy
    #: renaming-request scheduler) or "naive" (the reference
    #: every-core-every-cycle loop).  Both are bit-identical on every
    #: compared SimResult field (tests/sim/test_differential.py).
    kernel: str = "event"
    #: run the analysis-driven assembly optimizer
    #: (:func:`repro.analysis.opt.optimize_program` — fork-mask-aware
    #: dead-store elimination + copy propagation) over the program at
    #: load time.  Architectural results (outputs, return value, final
    #: memory) are proven bit-identical across both kernels,
    #: fault-free and under chaos plans; committed cycles drop.  Off by
    #: default so every pinned golden cycle count stays exact.
    optimize: bool = False
    #: cycle-domain metrics (:mod:`repro.obs.metrics`): fold windowed
    #: time-series (retire rate, running/parked cores, fork/redispatch
    #: rates, request-queue depth, per-link NoC traffic and drop/retry
    #: counts) into ``SimResult.metrics``, one sample window every this
    #: many cycles.  Derived post-hoc from bit-identical run artifacts
    #: (the event stream among them, recorded for the purpose), so both
    #: kernels emit identical series.  None — the default —
    #: disables collection and keeps every existing output (goldens,
    #: cache keys, BENCH cycles) byte-identical.
    metrics_window: Optional[int] = None

    def __post_init__(self) -> None:
        check_kernel(self.kernel)
        self.event_driven = self.kernel != "naive"
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        if self.placement not in ("round_robin", "least_loaded", "same_core",
                                  "random"):
            raise ValueError("unknown placement %r" % (self.placement,))
        for name in ("fetch_width", "rename_width", "execute_width",
                     "addr_rename_width", "memory_width", "retire_width"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.line_bytes < 8 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two >= 8")
        if self.topology not in ("uniform", "mesh"):
            raise ValueError("unknown topology %r" % (self.topology,))
        if self.metrics_window is not None and self.metrics_window < 1:
            raise ValueError("metrics_window must be >= 1 (got %r)"
                             % (self.metrics_window,))
        if self.faults is not None:
            self.faults.validate(self.n_cores)

    # -- canonical serialization -----------------------------------------
    #
    # The dict form is the config's *wire format*: the batch runner
    # (:mod:`repro.runner`) digests it for content-addressed cache keys
    # and ships it to pool workers, and ``repro batch`` job specs embed
    # it verbatim.  Round-tripping must therefore be exact and unknown
    # keys must be rejected, not ignored — a key the receiver does not
    # understand would otherwise silently change what a cache key means.

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form; :meth:`from_dict` round-trips it.

        Every field is emitted (no default elision) so the digest of the
        serialized form changes whenever any knob changes, including a
        knob newly added with a default — with two deliberate
        exceptions: ``metrics_window`` is elided when None and
        ``optimize`` when False.  These knobs postdate deployed
        content-addressed caches, and their disabled defaults must keep
        every pre-existing cache key (a sha256 over this dict)
        byte-identical.  A *set* value is emitted, and should be:
        metrics ride inside payloads, and an optimized run commits
        different cycle counts, so the key must fork.
        ``collect_occupancy`` is no field but is always emitted as true,
        for the same keys: it names a retired knob.
        """
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "metrics_window" and value is None:
                continue
            if spec.name == "optimize" and not value:
                continue
            payload[spec.name] = (value.to_dict()
                                  if isinstance(value, FaultPlan) else value)
            if spec.name == "trace":
                # a retired knob: occupancy is always collected, and the
                # constant keeps every pre-existing cache key identical
                payload["collect_occupancy"] = True
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimConfig":
        """Inverse of :meth:`to_dict`: rejects unknown keys, rebuilds the
        nested :class:`~repro.faults.models.FaultPlan`, and re-runs full
        validation via ``__init__``.  ``event_driven`` is derived, so it
        is accepted only when it agrees with ``kernel``;
        ``collect_occupancy`` is a constant, accepted only as true."""
        known = {spec.name for spec in fields(cls)} | {"collect_occupancy"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SimulationError("unknown SimConfig keys: %s"
                                  % ", ".join(unknown))
        kwargs: Dict[str, Any] = dict(data)
        event_driven = kwargs.pop("event_driven", None)
        if kwargs.pop("collect_occupancy", True) is not True:
            raise SimulationError(
                "collect_occupancy must be true: occupancy is always "
                "collected")
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
        config = cls(**kwargs)
        if event_driven is not None and event_driven != config.event_driven:
            raise SimulationError(
                "event_driven=%r contradicts kernel=%r (event_driven is "
                "kernel != 'naive')" % (event_driven, config.kernel))
        return config


#: the simulation kernels ``SimConfig.kernel`` accepts
KERNELS = ("event", "naive")


def check_kernel(kernel: Any) -> str:
    """*kernel* if it names a simulation kernel, else ValueError."""
    if kernel == "vector":
        raise ValueError(
            "kernel 'vector' was removed: it was bit-identical to "
            "'event', which now carries its lazy request scheduler; use "
            "kernel='event'")
    if kernel not in KERNELS:
        raise ValueError("unknown kernel %r (expected event or naive)"
                         % (kernel,))
    return kernel


#: Configuration of the paper's Figure 10 experiment: five cores, one
#: section each, unit-width stages.
def figure10_config(n_cores: int = 5) -> SimConfig:
    return SimConfig(n_cores=n_cores, placement="round_robin",
                     stack_shortcut=False)
