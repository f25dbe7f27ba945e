"""E8 — extension: the Table 1 suite on the simulated many-core.

The paper's Section 5 closes with two in-progress simulators meant to
"quantify the IPC performance of a many-core processor" on real programs;
this benchmark runs that experiment on our simulator: each PBBS workload
is compiled sequentially, fork-transformed automatically (no source
changes), and executed on 1 vs 32 cores.

Expected shape: divide-and-conquer-rich workloads (the data-parallel six)
gain fetch parallelism from distribution; the greedy-sequential ones
(matching, MST's union-find phase) gain little — mirroring Figure 7's
split dynamically.
"""

from _common import BENCH_SCALE, emit, emit_json, run_sim_batch, table

from repro.fork import fork_transform
from repro.machine import run_forked
from repro.runner import Job
from repro.sim import SimConfig
from repro.workloads import WORKLOADS


def _sweep():
    # oracle + job construction per workload; the 1-core/32-core pairs
    # then fan through the batch engine (REPRO_BENCH_JOBS worker
    # processes, REPRO_BENCH_CACHE result cache) in one batch.
    jobs, insts, oracles = [], {}, {}
    for workload in WORKLOADS:
        inst = workload.instance(scale=BENCH_SCALE, seed=1)
        prog = fork_transform(inst.program)
        oracle, _ = run_forked(prog)
        assert oracle.signed_output == inst.expected_output
        insts[workload.short], oracles[workload.short] = inst, oracle
        for cores in (1, 32):
            jobs.append(Job.from_program(
                prog, config=SimConfig(n_cores=cores, stack_shortcut=True),
                job_id="e8:%s:%d" % (workload.short, cores)))
    payloads, _ = run_sim_batch(jobs)
    by_id = {job.job_id: payload
             for job, payload in zip(jobs, payloads)}

    rows = []
    speedups = {}
    records = []
    for workload in WORKLOADS:
        inst, oracle = insts[workload.short], oracles[workload.short]
        one = by_id["e8:%s:1" % workload.short]
        many = by_id["e8:%s:32" % workload.short]
        assert one["outputs"] == oracle.output == many["outputs"]
        speedup = one["fetch_end"] / many["fetch_end"]
        speedups[workload.short] = speedup
        rows.append([
            workload.key, workload.short, inst.n, many["instructions"],
            many["sections"], one["fetch_end"], many["fetch_end"],
            "%.2f" % many["fetch_ipc"], "%.2fx" % speedup,
            "yes" if workload.data_parallel else "no",
        ])
        records.append({
            "id": workload.key, "benchmark": workload.short, "n": inst.n,
            "instructions": many["instructions"],
            "sections": many["sections"],
            "fetch_end_1": one["fetch_end"],
            "fetch_end_32": many["fetch_end"],
            "fetch_ipc_32": many["fetch_ipc"], "speedup": speedup,
            "data_parallel": workload.data_parallel,
            "occupancy_32": many["occupancy_summary"],
        })
    return rows, speedups, records


def bench_workloads_on_sim(benchmark):
    rows, speedups, records = benchmark.pedantic(_sweep, rounds=1,
                                                 iterations=1)
    text = table(
        "Extension E8 — fork-transformed Table 1 workloads on the "
        "simulated many-core (1 vs 32 cores)",
        ["id", "benchmark", "n", "instrs", "sections", "fetch@1",
         "fetch@32", "IPC@32", "speedup", "data-par"],
        rows)
    emit("workloads_on_sim", text)
    emit_json("workloads_on_sim",
              {"scale": BENCH_SCALE, "workloads": records})
    # distribution must help somewhere, and never hurt
    assert all(s >= 0.95 for s in speedups.values())
    assert sum(1 for s in speedups.values() if s > 1.3) >= 4

