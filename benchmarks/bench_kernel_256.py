"""Event kernel vs the naive reference loop — wall clock at 256 cores.

The naive reference loop steps all 256 cores every cycle and re-walks
the full renaming-request history each cycle.  The event kernel sweeps
only awake cores, steps a renaming request only when something it waits
on can have changed (a time heap for hops and replies, cell waiters for
producer values, section waiters for final-state parks), and jumps over
cycles in which every core is parked.  Both produce bit-identical
results (asserted per workload) under the paper's default protocol
configuration; the event kernel must beat the naive loop by at least
10x aggregated over the full Table 1 suite.

Timing discipline: every workload is run under both kernels
back-to-back per round (a load spike inflates both alike), and the
recorded walls are per-kernel minima over the rounds — the noise-free
cost estimate on a shared machine.
"""

import gc
import time

from _common import BENCH_SCALE, emit, emit_json, table

from repro.fork import fork_transform
from repro.sim import SimConfig, simulate
from repro.workloads import WORKLOADS

#: kernels timed per workload, in run order (naive first: the reference)
_KERNELS = ("naive", "event")

#: chip size for the sweep — wide enough that per-core per-cycle costs
#: dominate the naive loop
_N_CORES = 256

#: timing rounds; walls are per-kernel minima across rounds
_ROUNDS = 2


def _time_kernels():
    records = []
    for workload in WORKLOADS:
        inst = workload.instance(scale=BENCH_SCALE, seed=1)
        prog = fork_transform(inst.program)
        entry = {"benchmark": workload.short, "n": inst.n}
        walls = {kernel: [] for kernel in _KERNELS}
        results = {}
        for _ in range(_ROUNDS):
            for kernel in _KERNELS:
                config = SimConfig(n_cores=_N_CORES, kernel=kernel)
                # start each timed run with empty collector generations,
                # so no collection of earlier allocations lands in its
                # set-up (Processor.run suspends the collector itself)
                gc.collect()
                start = time.perf_counter()
                result, proc = simulate(prog, config)
                walls[kernel].append(time.perf_counter() - start)
                # a dropped run is freed by refcount: release its
                # chip-sized graph after the timer stops, not inside the
                # next run's timer
                del proc
                results[kernel] = result
        # the kernel buys wall time, never simulated behaviour
        ref, res = results["naive"], results["event"]
        assert (res.cycles, res.outputs, res.requests,
                res.final_memory) == (ref.cycles, ref.outputs,
                                      ref.requests, ref.final_memory), (
            "event kernel diverged on %s" % workload.short)
        entry["cycles"] = ref.cycles
        for kernel in _KERNELS:
            entry["wall_%s_s" % kernel] = min(walls[kernel])
        entry["speedup"] = entry["wall_naive_s"] / entry["wall_event_s"]
        records.append(entry)
    totals = {kernel: sum(r["wall_%s_s" % kernel] for r in records)
              for kernel in _KERNELS}
    return totals, records


def bench_kernel_256(benchmark):
    """Wall-clock cost of the naive vs event kernels at 256 cores.

    Runs every Table 1 workload under both kernels back-to-back and
    asserts bit-identical architectural results before trusting any
    timing.  The headline number is the aggregate naive/event ratio
    over the whole suite."""
    totals, records = benchmark.pedantic(_time_kernels, rounds=1,
                                         iterations=1)
    aggregate = totals["naive"] / totals["event"]
    rows = [[r["benchmark"], r["n"], r["cycles"],
             "%.3f" % r["wall_naive_s"], "%.3f" % r["wall_event_s"],
             "%.2fx" % r["speedup"]] for r in records]
    rows.append(["TOTAL", "", "", "%.3f" % totals["naive"],
                 "%.3f" % totals["event"], "%.2fx" % aggregate])
    emit("kernel_256", table(
        "Event kernel vs naive loop — wall clock at 256 cores "
        "(Table 1 suite)",
        ["benchmark", "n", "cycles", "naive (s)", "event (s)", "speedup"],
        rows))
    emit_json("kernel_256", {
        "n_cores": _N_CORES, "scale": BENCH_SCALE, "rounds": _ROUNDS,
        "workloads": records,
        "wall_naive_s": totals["naive"], "wall_event_s": totals["event"],
        "aggregate_speedup": aggregate,
    })
    assert aggregate >= 10.0, (
        "event kernel speedup %.2fx below the 10x floor" % aggregate)
