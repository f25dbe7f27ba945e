"""Typed metrics: instruments, a two-domain registry, and exporters.

Two strictly separated metric domains share the instrument vocabulary
(counters, gauges, fixed-bucket histograms, windowed time-series) but
never mix in one export:

* **cycle domain** (``domain="cycle"``) — derived *deterministically*
  from a finished simulation.  :func:`derive_cycle_metrics` folds the
  run's bit-identical artifacts (per-instruction stage timings, the
  cores' run-length state timelines, section/request lifecycles, and the
  event stream's NoC, DMH and fault events) into windowed series
  sampled every ``SimConfig.metrics_window`` cycles.
  Because every input is proven identical across the naive and event
  kernels (``tests/sim/test_differential.py``), the derived series are
  bit-identical too — metrics are *post-hoc accounting*, never live
  sampling, which the cycle-skipping event kernel could not reproduce.
* **host domain** (``domain="host"``) — wall-clock telemetry of the
  batch engine (:mod:`repro.runner`): per-job phase timings, cache
  hit/miss/heal counters, worker-pool concurrency.  Host metrics are
  non-deterministic by nature and therefore **never enter
  content-addressed cached payloads** or timing-free differential
  reports.

Exporters: :meth:`MetricsRegistry.to_json_dict` (stable JSON under
:data:`METRICS_SCHEMA_VERSION`), :func:`render_prometheus` (text
exposition, ``repro metrics --prom``), and the Chrome-trace counter
tracks merged in :mod:`repro.obs.chrome_trace`.

Design rule (package-wide): nothing here imports :mod:`repro.sim` at
module level — the processor handed to :func:`derive_cycle_metrics` is
duck-typed.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

#: version stamped into every metrics export and trajectory row, bumped
#: whenever the JSON shape changes so downstream dashboards can gate
METRICS_SCHEMA_VERSION = 1

#: the two domains; a registry belongs to exactly one
CYCLE_DOMAIN = "cycle"
HOST_DOMAIN = "host"

#: label sets are carried as sorted (key, value) pairs so instruments
#: hash/compare stably and the JSON export is canonical
Labels = Tuple[Tuple[str, str], ...]


def _labels(labels: Mapping[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_str(labels: Labels) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in labels)


def _num(value: float) -> Union[int, float]:
    """Render integral floats as ints so JSON stays clean."""
    return int(value) if float(value).is_integer() else value


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "",
                 labels: Labels = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        self.value += amount

    def to_json_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name, "help": self.help,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Point-in-time value (may go up or down)."""

    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "",
                 labels: Labels = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def to_json_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name, "help": self.help,
                "labels": dict(self.labels), "value": _num(self.value)}


class Histogram:
    """Fixed-bucket histogram (cumulative buckets on export, Prometheus
    convention): ``bounds`` are inclusive upper edges, with an implicit
    ``+Inf`` overflow bucket."""

    __slots__ = ("name", "help", "labels", "bounds", "counts", "sum",
                 "count")

    def __init__(self, name: str, bounds: Sequence[float], help: str = "",
                 labels: Labels = ()) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be sorted and unique")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)   # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def to_json_dict(self) -> Dict[str, Any]:
        return {"type": "histogram", "name": self.name, "help": self.help,
                "labels": dict(self.labels), "bounds": list(self.bounds),
                "counts": list(self.counts), "sum": _num(self.sum),
                "count": self.count}


class TimeSeries:
    """Windowed integer series: ``values[w]`` holds the count of window
    ``w`` (cycle ``c >= 1`` belongs to window ``(c - 1) // window``).
    The fixed length keeps exports shape-stable regardless of which
    windows saw events."""

    __slots__ = ("name", "help", "labels", "window", "values")

    def __init__(self, name: str, window: int, n_windows: int,
                 help: str = "", labels: Labels = ()) -> None:
        if window < 1:
            raise ValueError("window must be >= 1 (got %r)" % (window,))
        if n_windows < 0:
            raise ValueError("n_windows must be >= 0")
        self.name = name
        self.help = help
        self.labels = labels
        self.window = window
        self.values = [0] * n_windows

    def to_json_dict(self) -> Dict[str, Any]:
        return {"type": "series", "name": self.name, "help": self.help,
                "labels": dict(self.labels), "window": self.window,
                "values": list(self.values)}


Instrument = Union[Counter, Gauge, Histogram, TimeSeries]


class MetricsRegistry:
    """Named, labelled instruments of one domain, in registration order.

    ``counter``/``gauge``/``histogram``/``series`` are get-or-create (the
    same name + label set returns the same instrument), so callers
    instrument code paths without pre-declaring anything.
    """

    def __init__(self, domain: str) -> None:
        if domain not in (CYCLE_DOMAIN, HOST_DOMAIN):
            raise ValueError("unknown metrics domain %r" % (domain,))
        self.domain = domain
        self._instruments: Dict[Tuple[str, Labels], Instrument] = {}

    def _get(self, name: str, labels: Mapping[str, str],
             kind: type) -> Optional[Instrument]:
        found = self._instruments.get((name, _labels(labels)))
        if found is None:
            return None
        if not isinstance(found, kind):
            raise ValueError("metric %r already registered as %s"
                             % (name, type(found).__name__))
        return found

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        existing = self._get(name, labels, Counter)
        if existing is None:
            existing = Counter(name, help, _labels(labels))
            self._instruments[(name, existing.labels)] = existing
        assert isinstance(existing, Counter)
        return existing

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        existing = self._get(name, labels, Gauge)
        if existing is None:
            existing = Gauge(name, help, _labels(labels))
            self._instruments[(name, existing.labels)] = existing
        assert isinstance(existing, Gauge)
        return existing

    def histogram(self, name: str, bounds: Sequence[float],
                  help: str = "", **labels: str) -> Histogram:
        existing = self._get(name, labels, Histogram)
        if existing is None:
            existing = Histogram(name, bounds, help, _labels(labels))
            self._instruments[(name, existing.labels)] = existing
        assert isinstance(existing, Histogram)
        return existing

    def series(self, name: str, window: int, n_windows: int,
               help: str = "", **labels: str) -> TimeSeries:
        existing = self._get(name, labels, TimeSeries)
        if existing is None:
            existing = TimeSeries(name, window, n_windows, help,
                                  _labels(labels))
            self._instruments[(name, existing.labels)] = existing
        assert isinstance(existing, TimeSeries)
        return existing

    def instruments(self) -> List[Instrument]:
        return list(self._instruments.values())

    def to_json_dict(self) -> Dict[str, Any]:
        return {"schema_version": METRICS_SCHEMA_VERSION,
                "domain": self.domain,
                "metrics": [inst.to_json_dict()
                            for inst in self._instruments.values()]}

    def render_prometheus(self, prefix: str = "repro") -> str:
        return render_prometheus(self.to_json_dict(), prefix=prefix)


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4 format)
# ---------------------------------------------------------------------------

def render_prometheus(payload: Mapping[str, Any],
                      prefix: str = "repro") -> str:
    """Render a registry JSON export as Prometheus text exposition.

    Operating on the JSON form (not live instruments) means anything that
    can ship a metrics payload — a finished ``SimResult`` or a batch
    report — can expose it without holding registry objects.  Series
    flatten to ``<name>_total`` plus a ``<name>_last`` gauge of the
    final window (a scrape is a snapshot; the full series belongs to the
    JSON export).
    """
    domain = str(payload.get("domain", ""))
    lines: List[str] = []
    seen_headers = set()

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, kind))

    for inst in payload.get("metrics", ()):
        labels = dict(inst.get("labels", {}))
        labels["domain"] = domain
        rendered = _label_str(_labels(labels))
        name = "%s_%s" % (prefix, inst["name"])
        kind = inst["type"]
        help_text = str(inst.get("help", ""))
        if kind == "counter":
            header(name, "counter", help_text)
            lines.append("%s%s %s" % (name, rendered, inst["value"]))
        elif kind == "gauge":
            header(name, "gauge", help_text)
            lines.append("%s%s %s" % (name, rendered, inst["value"]))
        elif kind == "histogram":
            header(name, "histogram", help_text)
            cumulative = 0
            for bound, count in zip(inst["bounds"], inst["counts"]):
                cumulative += count
                bucket = dict(labels, le=repr(float(bound)))
                lines.append("%s_bucket%s %d"
                             % (name, _label_str(_labels(bucket)),
                                cumulative))
            bucket = dict(labels, le="+Inf")
            lines.append("%s_bucket%s %d"
                         % (name, _label_str(_labels(bucket)),
                            inst["count"]))
            lines.append("%s_sum%s %s" % (name, rendered, inst["sum"]))
            lines.append("%s_count%s %d" % (name, rendered, inst["count"]))
        elif kind == "series":
            values = list(inst["values"])
            header(name + "_total", "counter", help_text)
            lines.append("%s_total%s %d" % (name, rendered, sum(values)))
            header(name + "_last", "gauge",
                   "last %d-cycle window of %s"
                   % (inst["window"], inst["name"]))
            lines.append("%s_last%s %s"
                         % (name, rendered, values[-1] if values else 0))
        else:
            raise ValueError("unknown instrument type %r" % (kind,))
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# cycle-domain derivation — post-hoc, from bit-identical run artifacts
# ---------------------------------------------------------------------------

def window_count(cycles: int, window: int) -> int:
    """Number of windows covering cycles ``1..cycles`` (last may be
    partial); 0 for an empty run."""
    return (cycles + window - 1) // window


def window_lengths(cycles: int, window: int) -> List[int]:
    """Cycle count of each window (all ``window`` except a partial tail)."""
    n = window_count(cycles, window)
    return [min(window, cycles - w * window) for w in range(n)]


def state_series(runs: Iterable[Sequence[int]], window: int,
                 n_windows: int, n_states: int = 4) -> List[List[int]]:
    """Per-state windowed core-cycle counts of one core's timeline of
    ``(state, cycles)`` runs, the first starting at cycle 1.  Returns
    one series per state index — the per-core building block whose
    order-independent merge is the chip-wide breakdown."""
    out = [[0] * n_windows for _ in range(n_states)]
    done = 0                # cycles already counted
    for state, n in runs:
        row = out[state]
        end = done + n
        while done < end:
            w = done // window
            if w >= n_windows:
                return out
            step = min(end, (w + 1) * window) - done
            row[w] += step
            done += step
    return out


def merge_series(series: Iterable[Sequence[int]]) -> List[int]:
    """Element-wise sum of equally-shaped series.  Commutative and
    associative, so merge order can never matter — the property the
    hypothesis suite pins down."""
    merged: Optional[List[int]] = None
    for one in series:
        if merged is None:
            merged = list(one)
        else:
            if len(one) != len(merged):
                raise ValueError("cannot merge series of lengths %d and %d"
                                 % (len(one), len(merged)))
            merged = [a + b for a, b in zip(merged, one)]
    return merged if merged is not None else []


def _link_name(src: int, dst: int) -> str:
    """Stable per-link key; the DMH port is endpoint ``-1`` (matching the
    fault engine's convention)."""
    return "%s->%d" % ("dmh" if src < 0 else str(src), dst)


def derive_cycle_metrics(proc: Any, window: int) -> Dict[str, Any]:
    """Fold a finished processor's artifacts into the windowed
    cycle-domain metrics dict carried in ``SimResult.metrics``.

    Every input is part of the two-kernel bit-identity contract:
    instruction stage timings, section/request lifecycles, each core's
    run-length state timeline (``Core.timeline``) and the processor's
    event stream (``proc.tracer.events``, recorded whenever ``metrics_window``
    is set): link traffic from ``noc_send`` and ``request_dmh``, drops
    from ``fault_injected(fault="drop")``, retries from ``msg_retry``
    and redispatches from ``section_redispatch``.  A DMH reply is busy
    from the read to its ``arrive`` cycle, at least one cycle.  All
    series are integer counts per window (floats appear only in
    ``retire_rate``, computed from those integers), so "bit-identical"
    is exact.
    """
    cycles = int(proc.cycle)
    n = window_count(cycles, window)
    lengths = window_lengths(cycles, window)

    def bucket(cycle: int) -> int:
        if cycle < 1:
            return 0
        return min(n - 1, (cycle - 1) // window)

    def counted(cycles_iter: Iterable[int]) -> List[int]:
        values = [0] * n
        for cycle in cycles_iter:
            if n:
                values[bucket(cycle)] += 1
        return values

    instrs = proc.all_instructions()
    fetched = counted(d.fd for d in instrs)
    retired = counted(d.ret for d in instrs if d.ret is not None)
    forks = counted(sec.created_cycle for sec in proc.sections
                    if sec.created_cycle >= 1)
    completions = counted(sec.completed_cycle for sec in proc.sections
                          if sec.completed_cycle is not None)
    issued = counted(req.issued_cycle for req in proc.requests)
    filled = counted(req.dest_cell.ready_cycle for req in proc.requests
                     if req.done and req.dest_cell.ready_cycle is not None)

    # request-queue depth, sampled at each window's closing cycle: a
    # request is in the queue from its issue until its fill (never, for
    # a marooned request).  Difference-array accumulation keeps this
    # O(requests + windows).
    depth_delta = [0] * (n + 1)
    for req in proc.requests:
        fill = (req.dest_cell.ready_cycle
                if req.done and req.dest_cell.ready_cycle is not None
                else None)
        first = bucket(req.issued_cycle)
        last = bucket(fill) - 1 if fill is not None else n - 1
        if n and last >= first:
            depth_delta[first] += 1
            depth_delta[last + 1] -= 1
    queue_depth: List[int] = []
    running_total = 0
    for w in range(n):
        running_total += depth_delta[w]
        queue_depth.append(running_total)

    # per-core state timelines -> chip-wide windowed breakdown.  The
    # merge across cores is order-independent (merge_series), which the
    # hypothesis suite cross-checks against occupancy and stall totals.
    per_core = [state_series(core.timeline, window, n)
                for core in proc.cores]
    core_state_cycles = [merge_series(core_rows[state]
                                      for core_rows in per_core)
                         or [0] * n
                         for state in range(4)]

    # per-link NoC utilization: one message per noc_send, plus the DMH
    # port replies (request_dmh, busy until the reply arrives: at least
    # one cycle, since even a zero-delay reply lands the next cycle)
    links: Dict[str, Dict[str, List[int]]] = {}

    def link_entry(src: int, dst: int) -> Dict[str, List[int]]:
        name = _link_name(src, dst)
        entry = links.get(name)
        if entry is None:
            entry = {"messages": [0] * n, "busy_cycles": [0] * n,
                     "drops": [0] * n, "retries": [0] * n}
            links[name] = entry
        return entry

    noc_messages = [0] * n
    noc_busy = [0] * n
    dmh_reads = [0] * n
    drops = [0] * n
    retries = [0] * n
    redispatches = [0] * n
    for cycle, kind, f in proc.tracer.events:
        if kind == "noc_send":
            w = bucket(cycle)
            entry = link_entry(f["src"], f["dst"])
            entry["messages"][w] += 1
            entry["busy_cycles"][w] += f["latency"]
            noc_messages[w] += 1
            noc_busy[w] += f["latency"]
        elif kind == "request_dmh":
            w = bucket(cycle)
            entry = link_entry(-1, f["core"])
            entry["messages"][w] += 1
            entry["busy_cycles"][w] += f["arrive"] - cycle
            dmh_reads[w] += 1
        elif kind == "fault_injected" and f["fault"] == "drop":
            w = bucket(cycle)
            drops[w] += 1
            link_entry(f["src"], f["dst"])["drops"][w] += 1
        elif kind == "msg_retry":
            w = bucket(cycle)
            retries[w] += 1
            link_entry(f["src"], f["dst"])["retries"][w] += 1
        elif kind == "section_redispatch":
            redispatches[bucket(cycle)] += 1

    retire_rate = [retired[w] / lengths[w] if lengths[w] else 0.0
                   for w in range(n)]
    running = merge_series(core_state_cycles[:2]) or [0] * n

    series: Dict[str, Any] = {
        "fetched": fetched,
        "retired": retired,
        "retire_rate": retire_rate,
        "forks": forks,
        "completions": completions,
        "requests_issued": issued,
        "requests_filled": filled,
        "request_queue_depth": queue_depth,
        "running_core_cycles": running,
        "parked_core_cycles": core_state_cycles[3],
        "core_state_cycles": {
            "fetching": core_state_cycles[0],
            "computing": core_state_cycles[1],
            "blocked": core_state_cycles[2],
            "parked": core_state_cycles[3],
        },
        "noc_messages": noc_messages,
        "noc_busy_cycles": noc_busy,
        "dmh_reads": dmh_reads,
        "drops": drops,
        "retries": retries,
        "redispatches": redispatches,
    }
    totals = {
        "fetched": sum(fetched),
        "retired": sum(retired),
        "forks": sum(forks),
        "completions": sum(completions),
        "requests_issued": sum(issued),
        "requests_filled": sum(filled),
        "noc_messages": sum(noc_messages),
        "noc_busy_cycles": sum(noc_busy),
        "dmh_reads": sum(dmh_reads),
        "drops": sum(drops),
        "retries": sum(retries),
        "redispatches": sum(redispatches),
    }
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "domain": CYCLE_DOMAIN,
        "window": window,
        "cycles": cycles,
        "windows": n,
        "series": series,
        "links": {name: links[name] for name in sorted(links)},
        "totals": totals,
    }


def cycle_metrics_to_registry(metrics: Mapping[str, Any]) -> MetricsRegistry:
    """Lift a ``SimResult.metrics`` dict into a registry (for Prometheus
    exposition): integer series become :class:`TimeSeries`, per-link
    traffic becomes labelled series, scalars become gauges."""
    reg = MetricsRegistry(CYCLE_DOMAIN)
    window = int(metrics["window"])
    n = int(metrics["windows"])
    reg.gauge("sim_cycles", "total simulated cycles").set(
        int(metrics["cycles"]))
    reg.gauge("sim_metrics_window", "sampling window, cycles").set(window)
    series = metrics["series"]
    for name in ("fetched", "retired", "forks", "completions",
                 "requests_issued", "requests_filled",
                 "request_queue_depth", "running_core_cycles",
                 "parked_core_cycles", "noc_messages", "noc_busy_cycles",
                 "dmh_reads", "drops", "retries", "redispatches"):
        inst = reg.series("sim_" + name, window, n)
        inst.values = [int(v) for v in series[name]]
    for state, values in series["core_state_cycles"].items():
        inst = reg.series("sim_core_state_cycles", window, n, state=state)
        inst.values = [int(v) for v in values]
    for link, entry in metrics["links"].items():
        for key in ("messages", "busy_cycles", "drops", "retries"):
            inst = reg.series("sim_noc_link_" + key, window, n, link=link)
            inst.values = [int(v) for v in entry[key]]
    return reg
