"""The traced run: per-layer metrics and the tracing overhead.

One untraced pass of the workload's body comes first (spans only, to
time each ``simulate`` call; ``chaos_grid`` on its worker pool), then one
traced pass: spans around every call the benchmark makes, cProfile
inside ``simulate`` and ``chaos_sweep``.  The traced pass sends
``chaos_grid`` down ``run_batch``'s serial path so the worker-side
layers (``sim``, ``faults``) land in the profiled process; its untraced
reference for the overhead ratio is then a serial pass too.

Host seconds come from the traced pass: under the profiler inside
``simulate`` and ``chaos_sweep``, unprofiled for the span-timed calls
around them.  Counts come from the untraced pass's results (they are
exact and repeat bit for bit) or from the profile's call counts.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

import layers
from tracing import NULL, Tracer, fold_profile

#: span names whose self time adds to a layer's profiled seconds
SPAN_LAYERS = {
    "minic.compile_s": "minic.compile",
    "isa.assemble_s": "isa.assemble",
    "fork.transform_s": "fork.transform",
    "obs.chrome_trace_s": "obs.chrome_trace",
    "obs.critical_path_s": "obs.critical_path",
    "obs.prometheus_s": "obs.prometheus",
    "obs.export_s": "obs.export",
}

FAULT_COUNTS = ("drops", "retries", "backoff_cycles", "redispatches",
                "replayed_instructions")


def _weighted_latency(sims, pct: str) -> float:
    """Request-weighted mean of the simulations' latency percentiles."""
    counts = sum(s["latency"]["count"] for s in sims)
    if not counts:
        return 0.0
    return sum(s["latency"][pct] * s["latency"]["count"]
               for s in sims) / counts


def _model_counts(sims) -> Dict[str, float]:
    total = {key: sum(s[key] for s in sims) for key in (
        "instructions", "sections", "fetch_end", "retire_end",
        "fetch_computed", "requests", "request_hops", "noc_messages",
        "dmh_reads")}
    out = {"sim.%s" % key: value for key, value in total.items()}
    for state in ("fetching", "computing", "blocked", "parked"):
        out["sim.occ_%s" % state] = sum(s["occupancy"][state] for s in sims)
    out["sim.req_latency_p50"] = _weighted_latency(sims, "p50")
    out["sim.req_latency_p90"] = _weighted_latency(sims, "p90")
    return out


def _runner_metrics(done) -> Dict[str, float]:
    """The engine's own accounting of a chaos_grid pass."""
    reports = done.extra["cold"] + done.extra["warm"]
    outcomes = [o for r in reports for o in r.outcomes]
    warm_jobs = sum(len(r.outcomes) for r in done.extra["warm"])
    warm_hits = sum(r.cache_hits for r in done.extra["warm"])
    out = {"runner.jobs": len(outcomes),
           "runner.executed": sum(r.executed for r in reports),
           "runner.warm_hit_rate": warm_hits / warm_jobs if warm_jobs else 0.0,
           "runner.pool_util": (
               sum(o.wall_s for o in outcomes)
               / sum(r.pool_size * r.wall_s for r in reports))}
    for phase in ("assemble_s", "simulate_s", "export_s"):
        out["runner.%s" % phase] = sum((o.phases or {}).get(phase, 0.0)
                                       for o in outcomes)
    return out


def _fault_metrics(done) -> Dict[str, float]:
    out = {"faults.%s" % key: sum(s["fault_stats"].get(key, 0)
                                  for s in done.sims)
           for key in FAULT_COUNTS}
    records = done.extra.get("records", [])
    out["faults.slowdown"] = (sum(r["slowdown"] for r in records)
                              / len(records) if records else 0.0)
    return out


def _obs_metrics(done) -> Dict[str, float]:
    out: Dict[str, float] = {
        "obs.events": sum(s["events"] for s in done.sims),
        "obs.export_bytes": sum(s["export_bytes"] for s in done.sims)}
    for cause in ("wait_register", "wait_memory", "noc_transit",
                  "fork_latency", "no_free_core", "idle"):
        out["obs.stall.%s" % cause] = sum(s["stalls"][cause]
                                          for s in done.sims)
    return out


def run(bench, seed: int, import_span: Tuple[float, float],
        out_dir: Path, declared: List[Dict[str, str]]) -> Dict[str, Any]:
    """The traced run, reporting the *declared* per-layer metrics; a
    metric computed here but not declared is an error."""
    chaos = bench.name == "chaos_grid"
    inputs = bench.inputs(seed)
    prepared = bench.setup(inputs, NULL)
    oracle = bench.oracle(inputs, prepared)

    timer = Tracer(profile=False)
    gc.collect()
    plain = bench.run(prepared, oracle, timer)
    passes = [plain]
    reference = plain
    if chaos:
        gc.collect()
        reference = bench.run(prepared, oracle, NULL, pool_size=None)
        passes.append(reference)

    tracer = Tracer()
    tracer.record("repro.import", *import_span)
    traced_prepared = bench.setup(inputs, tracer)
    gc.collect()
    done = bench.run(traced_prepared, oracle, tracer, pool_size=None)
    passes.append(done)

    seconds, calls = fold_profile(tracer.profile, layers.LAYERS,
                                  layers.COUNTERS, layers.OTHER)
    # a layer the workload does not run reads 0
    metrics: Dict[str, float] = {m["name"]: 0.0 for m in declared}
    for layer, value in seconds.items():
        metrics[layer + "_s"] = value
    for name, span in SPAN_LAYERS.items():
        metrics[name] += tracer.self_seconds(span)
    metrics["repro.import_s"] = import_span[1] - import_span[0]

    sims = plain.sims
    metrics.update(_model_counts(sims))
    metrics.update(calls)
    metrics["sim.steps_per_request"] = (
        calls["sim.request_steps"] / metrics["sim.requests"]
        if metrics["sim.requests"] else 0.0)
    core_slots = sum(s["n_cores"] * s["cycles"] for s in sims)
    metrics["sim.awake_ratio"] = (calls["sim.core_cycles"] / core_slots
                                  if core_slots else 0.0)
    if chaos:
        metrics.update(_runner_metrics(plain))
        metrics.update(_fault_metrics(plain))
        simulate_s = metrics["runner.simulate_s"]
    else:
        simulate_s = timer.self_seconds("sim.simulate")
    metrics["sim.kips"] = (metrics["sim.instructions"] / simulate_s / 1e3
                           if simulate_s else 0.0)
    if bench.name == "observe":
        metrics.update(_obs_metrics(plain))
    metrics["trace.overhead"] = (sum(done.units.values())
                                 / sum(reference.units.values()))

    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        raise LookupError("per-layer metrics BENCHMARK.json does not "
                          "declare: %s" % ", ".join(sorted(unknown)))
    (out_dir / ("trace-%s-%d.json" % (bench.name, seed))).write_text(
        json.dumps({"spans": tracer.spans, "layer_seconds": seconds,
                    "calls": calls}, indent=1))
    return {"attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared}}
