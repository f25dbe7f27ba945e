"""Observability for the distributed simulator (``repro.obs``).

Four layers, built on one structured event stream (host-domain
telemetry aside):

* **event tracing** (:mod:`repro.obs.events`) — typed records (section
  fork/start/complete, renaming request issue/hop/hit/fill, NoC
  send/deliver, DMH reads, faults, core park/wake, retirement)
  collected by the simulator when :attr:`repro.sim.SimConfig.events` is
  on, and for the metrics fold alone when ``metrics_window`` is set.
  Near-zero
  overhead when off: every instrumentation point is a single
  ``tracer is None`` test.  Both scheduler modes emit bit-identical
  streams (tests/sim/test_differential.py).
* **stall-cause attribution** (:mod:`repro.obs.stalls`) — splits every
  blocked/parked core cycle and every blocked section cycle into causes
  (``wait_register`` / ``wait_memory`` / ``noc_transit`` /
  ``fork_latency`` / ``no_free_core`` / ``fault_recovery`` / ``idle``),
  folded into :class:`repro.sim.SimResult` as ``stall_causes``.
* **exporters** — a Chrome trace-event / Perfetto JSON renderer
  (:mod:`repro.obs.chrome_trace`; sections as tracks, renaming requests
  as flow arrows) and a terminal critical-path report
  (:mod:`repro.obs.critical`), wired into the CLI as ``repro trace`` and
  ``repro analyze``.
* **typed metrics** (:mod:`repro.obs.metrics`) — counters, gauges,
  fixed-bucket histograms and windowed time-series in two strictly
  separated domains: deterministic *cycle-domain* series derived
  post-hoc from a finished run (bit-identical across both kernels;
  :attr:`repro.sim.SimConfig.metrics_window`) and wall-clock
  *host-domain* telemetry of the batch engine.  Exported as JSON
  (``repro metrics``) and Prometheus text exposition.

Design rule: nothing in this package imports :mod:`repro.sim` at module
level (the simulator imports us), so every module here works on duck-typed
results/processors and resolves simulator constants at call time.
"""

from .chrome_trace import to_chrome_trace
from .critical import critical_path, render_critical_path
from .events import (EVENT_KINDS, EventTrace, collect_requests,
                     collect_sections, events_to_json, request_what_str,
                     synthesize_core_events)
from .metrics import (CYCLE_DOMAIN, HOST_DOMAIN, METRICS_SCHEMA_VERSION,
                      Counter, Gauge, Histogram, MetricsRegistry,
                      TimeSeries, cycle_metrics_to_registry,
                      derive_cycle_metrics, merge_series,
                      render_prometheus, state_series)
from .stalls import (STALL_CAUSES, attribute_stalls, live_request_cause,
                     stall_diagnostic, summarize_causes)

__all__ = [
    "CYCLE_DOMAIN", "Counter", "EVENT_KINDS", "EventTrace", "Gauge",
    "HOST_DOMAIN", "Histogram", "METRICS_SCHEMA_VERSION",
    "MetricsRegistry", "STALL_CAUSES", "TimeSeries", "attribute_stalls",
    "collect_requests", "collect_sections", "critical_path",
    "cycle_metrics_to_registry", "derive_cycle_metrics", "events_to_json",
    "live_request_cause", "merge_series", "render_critical_path",
    "render_prometheus", "request_what_str", "stall_diagnostic",
    "state_series", "summarize_causes", "synthesize_core_events",
    "to_chrome_trace",
]
