"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_256 --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's timed body for ``--seconds`` and
reports the end-to-end metrics; host seconds are scaled to the reference
host speed (see hostspeed.py).  ``--trace 1`` is the separate traced
run: one untraced pass of the body, then one traced pass (spans around
the benchmark's calls, cProfile inside ``simulate`` and ``chaos_sweep``,
and ``chaos_grid`` on the batch engine's serial path), reporting the
per-layer metrics and the traced/untraced wall ratio.  The workload and
metric names and units are read from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and the folded layer seconds of a
traced run are also written to ``.perfbench_out/``.

The exit code is 0 when every simulation matched its oracle, 1 when one
did not, and 2 when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: cold set-ups per run; setup_s is their median
SETUP_SAMPLES = 7


def load_spec() -> Dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], cwd=str(ROOT), capture_output=True, text=True,
            timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0                       # ru_maxrss is KiB on Linux


def end_to_end(bench, seed: int, seconds: float,
               declared: List[Dict]) -> Dict:
    """Repeat the timed body for *seconds* and report the *declared*
    metrics.  ``wall_s`` sums the median host seconds of each unit of
    work across the repetitions, each at the reference host speed."""
    import hostspeed
    import workloads
    from tracing import NULL, Scaled

    setup_s = _median_setup(bench.name, seed)
    inputs = bench.inputs(seed)
    prepared = bench.setup(inputs, NULL)
    oracle = bench.oracle(inputs, prepared)
    timer = Scaled(hostspeed.Probe())
    walls: Dict[str, List[float]] = {}
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        done = bench.run(prepared, oracle, timer)
        attempted, failed = attempted + done.attempted, failed + done.failed
        for unit, wall in done.units.items():
            walls.setdefault(unit, []).append(wall)
        first = first or done
        if time.perf_counter() - start >= seconds:
            break
    peak = _peak_rss_mb(with_children=bench.name == "chaos_grid")

    # the paper's closed forms are the only reference: every workload
    # states the model's error against them, measured after the timings
    if bench.name == "sum_reduction":
        sums, checked = first, bench.check_counts(prepared)
    else:
        reference = workloads.SumReduction()
        ref_inputs = reference.inputs(seed)
        ref_prepared = reference.setup(ref_inputs, NULL)
        sums = checked = reference.run(
            ref_prepared, reference.oracle(ref_inputs, ref_prepared), NULL)
    attempted, failed = attempted + checked.attempted, failed + checked.failed
    fetch_err, retire_err = workloads.accuracy(sums)
    values = {"setup_s": setup_s,
              "wall_s": sum(statistics.median(v) for v in walls.values()),
              "peak_rss_mb": peak,
              "sim_cycles": sum(sim["cycles"] for sim in first.sims),
              "fetch_err_pct": fetch_err, "retire_err_pct": retire_err}
    return {"attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no repro sources at %s\n" % SRC)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import_start = time.perf_counter()
    import repro
    import_end = time.perf_counter()
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write("perfbench: imported repro from %s, not %s\n"
                         % (repro.__file__, SRC))
        return 2
    import traced
    import workloads

    OUT.mkdir(exist_ok=True)
    bench = workloads.all_workloads(OUT)[args.workload]
    if args.trace:
        report = traced.run(bench, args.seed, (import_start, import_end),
                            OUT, spec["per_layer"])
    else:
        report = end_to_end(bench, args.seed, args.seconds,
                            spec["end_to_end"])
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
