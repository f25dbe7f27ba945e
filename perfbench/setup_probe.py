"""One cold set-up, in a fresh interpreter: ``import repro`` plus the
workload's compile, fork-transform and assemble calls.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``; prints
``{"setup_s": ...}``, the set-up's host seconds at the reference host
speed (see hostspeed.py, the only module loaded before ``repro``).
Dataset and oracle generation run between the two timed parts and are
not counted.  run.py starts this several times per run and reports the
median.
"""

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import hostspeed
    probe = hostspeed.Probe()
    _, import_s = probe.time(importlib.import_module, "repro")

    import workloads
    from tracing import NULL
    bench = workloads.all_workloads(HERE.parent / ".perfbench_out")[workload]
    inputs = bench.inputs(seed)
    _, setup_s = probe.time(bench.setup, inputs, NULL)
    print(json.dumps({"setup_s": import_s + setup_s}))


if __name__ == "__main__":
    main()
