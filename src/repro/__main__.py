"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE``        — run an assembly (.s) or MiniC (.c) program on the
                        sequential machine and print its output.
* ``runfork FILE``    — run a fork/endfork program (or MiniC with --fork)
                        on the section machine; print output + sections.
* ``simulate FILE``   — cycle-simulate on the distributed many-core.
* ``stats FILE``      — cycle-simulate and print the observability
                        report (occupancy, stall causes, request
                        latencies, NoC counters), optionally as JSON.
* ``trace FILE``      — simulate with event tracing and write a Chrome
                        trace-event / Perfetto JSON (ui.perfetto.dev).
* ``analyze FILE``    — simulate with event tracing and print the
                        stall-cause breakdown + critical-path report.
* ``metrics FILE``    — simulate with windowed cycle-domain metrics
                        (:mod:`repro.obs.metrics`) and print the series
                        as JSON, or as Prometheus text with ``--prom``.
                        ``--metrics W`` on simulate/stats folds the same
                        series into their runs.
* ``compile FILE``    — compile MiniC to assembly text (stdout).
* ``transform FILE``  — apply the call→fork transformation; print the
                        rewritten listing.
* ``ilp FILE``        — trace the program and report ILP under the
                        paper's sequential and parallel models.
* ``lint [FILE...]``  — static fork-hazard linter (``repro.analysis``):
                        CFG + liveness + reaching definitions over the
                        program, findings as ``file:line``; with
                        ``--workloads`` lints the whole Table 1 suite and
                        with ``--validate`` cross-checks the static
                        live-across-fork sets against both dynamic
                        oracles.  Exits 1 on error/warning findings.
* ``deps [FILE...]``  — whole-program section dependence graph
                        (``repro.analysis.deps``): static critical path,
                        core-pressure profile and the analytic speedup
                        bound; ``--validate`` proves every dynamically
                        observed dependence is a graph edge on every
                        simulation kernel, ``--measure`` compares the
                        bound against measured speedup, ``--dot`` /
                        ``--json`` emit machine-readable forms (``--dot``
                        alone: not with ``--json`` or ``--measure``).
* ``workloads``       — list the Table 1 benchmark suite.
* ``batch``           — run a JSON job spec through the parallel batch
                        engine (``repro.runner``): ``--jobs N`` worker
                        processes, ``--cache-dir`` content-addressed
                        result cache, per-job failure isolation.  Exits
                        1 if any job failed.
* ``chaos``           — sweep a (drop-rate x core-deaths) fault grid over
                        the workload suite (``repro.faults``); verifies
                        every faulted run still produces bit-identical
                        architectural results and reports the slowdown.
                        Runs on the batch engine (``--jobs``,
                        ``--cache-dir``); ``--emit-jobs`` writes the grid
                        as a ``repro batch`` spec instead.  Exits 1 on
                        any divergence.

The simulator commands accept ``--faults SPEC`` (e.g.
``--faults seed=7,drop=0.1,die=3@500``) to inject a deterministic fault
plan into a single run.

File type is chosen by suffix: ``.c`` compiles as MiniC, anything else
assembles as toy x86.

Every subcommand goes through the stable facade (:mod:`repro.api`);
the one place subpackages are reached directly is for specialist tooling
(lint, ILP models) the facade does not cover.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__, api
from .errors import ReproError
from .faults import FaultPlan
from .workloads import WORKLOADS

#: version of the CLI's machine-readable envelopes (``stats --json`` and
#: ``repro metrics`` carry it as ``schema_version``) so dashboards and
#: trajectory rows can gate on format changes.  Distinct from the batch
#: engine's cache SCHEMA_VERSION — bumping this must never invalidate
#: cached results.
CLI_SCHEMA_VERSION = 1


def _read_text(path: str) -> str:
    """The text of input file *path*.  Bytes that are not UTF-8 are a
    ReproError naming the file; a missing file or a directory raises
    OSError, which :func:`main` reports as one line too."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        error = ReproError("not a UTF-8 text file (%s)" % exc)
        error.path = path
        raise error from None


def _load_program(path: str, fork: bool, fork_loops: bool):
    """Load by suffix, as :func:`repro.api.load_program` does: ``.c``
    compiles as MiniC, anything else assembles."""
    source = _read_text(path)
    try:
        if path.endswith(".c"):
            return api.compile_c(source, fork=fork, fork_loops=fork_loops)
        return api.assemble(source)
    except ReproError as exc:
        # compile/assembly diagnostics already carry line[:col]; prefix
        # the file so messages read file:line like any compiler's
        exc.path = path
        raise


def _print_result(result) -> None:
    for value in result.signed_output:
        print(value)
    print("# %d instructions, rax=%d, halted=%s"
          % (result.steps, result.return_value, result.halted))


def cmd_run(args) -> int:
    result = api.run_sequential(_load_program(args.file, False, False))
    _print_result(result)
    return 0


def cmd_runfork(args) -> int:
    from .fork import render_section_tree
    prog = _load_program(args.file, args.file.endswith(".c"),
                         args.fork_loops)
    run = api.run_forked(prog, sanitize=args.sanitize)
    _print_result(run.result)
    print("# %d sections" % run.sections)
    if args.tree:
        print(render_section_tree(run.machine))
    return 0


def _kernel_arg(value: str) -> str:
    """argparse type of ``--kernel``; naming a removed kernel says why."""
    from .sim.config import check_kernel
    try:
        return check_kernel(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_kernel_argument(cmd) -> None:
    cmd.add_argument("--kernel", default="event", type=_kernel_arg,
                     metavar="{event,naive}",
                     help="simulation kernel: the event-driven fast path "
                          "(default) or the naive reference loop "
                          "(bit-identical results)")


@dataclass
class SimOptions:
    """The one shared CLI surface of every simulator subcommand.

    ``simulate``/``stats``/``trace``/``analyze``/``metrics`` all declare
    their flags through :meth:`add_arguments`, parse them through
    :meth:`from_args` and execute through :meth:`run` — no subcommand
    re-plumbs flags by hand, and a new shared flag is added in exactly
    one place.  Flags only ``stats`` defines (``--events``/``--trace``)
    default off.
    """

    file: str
    cores: int = 8
    shortcut: bool = False
    placement: str = "round_robin"
    topology: str = "uniform"
    kernel: str = "event"
    fork_loops: bool = False
    optimize: bool = False
    faults: Optional[str] = None
    chrome_trace: Optional[str] = None
    metrics: Optional[int] = None
    trace: bool = False
    events: bool = False

    @staticmethod
    def add_arguments(cmd) -> None:
        """Declare the shared simulator flags on subparser *cmd*."""
        cmd.add_argument("file")
        cmd.add_argument("--cores", type=int, default=8)
        cmd.add_argument("--shortcut", action="store_true",
                         help="enable the stack shortcut")
        cmd.add_argument("--placement", default="round_robin",
                         choices=["round_robin", "least_loaded", "same_core",
                                  "random"])
        cmd.add_argument("--topology", default="uniform",
                         choices=["uniform", "mesh"],
                         help="NoC topology: flat latency or 2D mesh")
        _add_kernel_argument(cmd)
        cmd.add_argument("--fork-loops", action="store_true")
        cmd.add_argument("--optimize", action="store_true",
                         help="run the analysis-driven assembly optimizer "
                              "(dead-store elimination + copy propagation) "
                              "over the program before simulating; "
                              "architectural results are unchanged, "
                              "committed cycles drop")
        cmd.add_argument(
            "--faults", metavar="SPEC",
            help="deterministic fault-injection plan, e.g. "
                 "'seed=7,drop=0.1,die=3@500' (keys: seed, drop, spike, "
                 "spike_extra, jitter, ackloss, die=CORE@CYCLE "
                 "(repeatable), timeout, cap, resends, redispatch, "
                 "redispatch_latency)")
        cmd.add_argument("--chrome-trace", metavar="OUT.json",
                         help="also write a Chrome trace-event JSON")
        cmd.add_argument("--metrics", type=int, default=None, metavar="W",
                         help="collect windowed cycle-domain metrics, one "
                              "sample window every W cycles (carried in "
                              "the result; exported by stats --json)")

    @classmethod
    def from_args(cls, args) -> "SimOptions":
        return cls(
            file=args.file, cores=args.cores, shortcut=args.shortcut,
            placement=args.placement, topology=args.topology,
            kernel=args.kernel, fork_loops=args.fork_loops,
            optimize=args.optimize, faults=args.faults,
            chrome_trace=args.chrome_trace, metrics=args.metrics,
            trace=bool(getattr(args, "trace", False)),
            events=bool(getattr(args, "events", False)))

    def config(self, **extra):
        """Build the SimConfig; ``extra`` force-overrides — e.g.
        ``trace``/``analyze`` force events on."""
        from .sim import SimConfig
        faults = FaultPlan.from_spec(self.faults) if self.faults else None
        options = dict(
            n_cores=self.cores, stack_shortcut=self.shortcut,
            placement=self.placement, topology=self.topology,
            kernel=self.kernel,
            optimize=self.optimize, trace=self.trace,
            events=self.events or bool(self.chrome_trace),
            metrics_window=self.metrics, faults=faults)
        options.update(extra)
        return SimConfig(**options)

    def run(self, **extra):
        """Load + configure + simulate — the whole shared path of a sim
        subcommand."""
        prog = _load_program(self.file, self.file.endswith(".c"),
                             self.fork_loops)
        return api.simulate(prog, self.config(**extra))


def _simulate_cmd(args, **extra):
    """Shared load + configure + simulate path of every sim subcommand."""
    return SimOptions.from_args(args).run(**extra)


def _write_chrome_trace(result, path: str) -> None:
    from .obs import to_chrome_trace
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(result), handle)
    print("# chrome trace written to %s (open at https://ui.perfetto.dev)"
          % path)


def _finish_sim(args, result) -> None:
    """Shared post-run plumbing: the optional Chrome-trace export."""
    if args.chrome_trace:
        _write_chrome_trace(result, args.chrome_trace)


def _metrics_summary(metrics) -> str:
    """One-line digest of a cycle-domain metrics dict."""
    totals = metrics["totals"]
    return ("metrics: %d windows of %d cycles  retired=%d forks=%d "
            "noc_messages=%d drops=%d retries=%d redispatches=%d"
            % (metrics["windows"], metrics["window"], totals["retired"],
               totals["forks"], totals["noc_messages"], totals["drops"],
               totals["retries"], totals["redispatches"]))


def cmd_simulate(args) -> int:
    run = _simulate_cmd(args)
    result = run.result
    for value in result.signed_outputs:
        print(value)
    print("# " + result.describe())
    if result.metrics is not None:
        print("# " + _metrics_summary(result.metrics))
    if args.timing:
        print(run.processor.timing_table())
    _finish_sim(args, result)
    return 0


def cmd_stats(args) -> int:
    from .obs import summarize_causes
    result = _simulate_cmd(args).result
    _finish_sim(args, result)
    if args.json:
        payload = result.to_json_dict(include_memory=args.memory,
                                      include_trace=args.trace,
                                      include_events=args.events)
        payload["schema_version"] = CLI_SCHEMA_VERSION
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(result.describe())
    print("scheduler: %s" % result.scheduler)
    summary = result.occupancy_summary()
    print("occupancy: " + "  ".join(
        "%s=%.1f%%" % (state, 100.0 * summary[state])
        for state in sorted(summary)))
    if result.stall_causes is not None:
        print("stall causes: "
              + summarize_causes(result.stall_causes["totals"]))
    latency = result.request_latency_stats()
    print("request latency: count=%d min=%d p50=%d p90=%d p99=%d max=%d "
          "mean=%.2f"
          % (latency["count"], latency["min"], latency["p50"],
             latency["p90"], latency["p99"], latency["max"],
             latency["mean"]))
    print("noc: " + "  ".join(
        "%s=%d" % kv for kv in sorted(result.noc_stats.items())))
    if result.fault_stats is not None:
        print("faults: " + "  ".join(
            "%s=%d" % kv for kv in sorted(result.fault_stats.items())))
    if result.metrics is not None:
        print(_metrics_summary(result.metrics))
    if args.trace and result.trace is not None:
        for core_id, row in enumerate(result.trace):
            print("core %2d: %s" % (core_id, row))
    return 0


def cmd_metrics(args) -> int:
    """Simulate with cycle-domain metrics on and export the series."""
    window = args.metrics or args.window
    result = _simulate_cmd(args, metrics_window=window).result
    _finish_sim(args, result)
    metrics = result.metrics or {}
    if args.prom:
        from .obs import cycle_metrics_to_registry
        sys.stdout.write(cycle_metrics_to_registry(metrics)
                         .render_prometheus())
        return 0
    # the metrics dict carries its own schema_version (METRICS_SCHEMA_VERSION)
    json.dump(metrics, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_trace(args) -> int:
    result = _simulate_cmd(args, events=True).result
    _write_chrome_trace(result, args.output)
    print("# " + result.describe())
    return 0


def cmd_analyze(args) -> int:
    from .obs import critical_path, render_critical_path, summarize_causes
    result = _simulate_cmd(args, events=True).result
    print(result.describe())
    causes = result.stall_causes
    print("stall causes (blocked/parked core cycles): "
          + summarize_causes(causes["totals"]))
    if args.per_core:
        for core_id, counts in enumerate(causes["per_core"]):
            if sum(counts.values()):
                print("  core %2d: %s" % (core_id, summarize_causes(counts)))
    print(render_critical_path(critical_path(result), result.cycles))
    _finish_sim(args, result)
    return 0


def cmd_compile(args) -> int:
    from .minic import compile_to_asm
    source = _read_text(args.file)
    sys.stdout.write(compile_to_asm(source, fork_mode=args.fork,
                                    fork_loops=args.fork_loops))
    return 0


def cmd_transform(args) -> int:
    prog = _load_program(args.file, False, False)
    sys.stdout.write(api.transform(prog).listing())
    return 0


def cmd_ilp(args) -> int:
    from .ilp import PARALLEL_MODEL, SEQUENTIAL_MODEL
    from .ilp.analyzer import analyze_stream_multi
    from .machine import SequentialMachine
    prog = _load_program(args.file, False, False)
    seq, par = analyze_stream_multi(
        SequentialMachine(prog).step_entries(),
        [SEQUENTIAL_MODEL, PARALLEL_MODEL])
    print(seq.describe())
    print(par.describe())
    return 0


def _analysis_targets(args):
    """Shared target list of the analysis subcommands (lint, deps):
    ``--workloads`` compiles the Table 1 suite fork-mode, positional
    files load by suffix."""
    targets = []
    if args.workloads:
        for workload in WORKLOADS:
            inst = workload.instance(scale=0)
            prog = api.compile_c(inst.source, fork=True,
                                 fork_loops=args.fork_loops)
            targets.append(("workload:%s" % workload.short, prog))
    for path in args.files:
        targets.append((path, _load_program(path, True, args.fork_loops)))
    return targets


def cmd_lint(args) -> int:
    from .analysis import lint_program, validate_machine, validate_sim
    targets = _analysis_targets(args)
    if not targets:
        print("error: nothing to lint (give files or --workloads)",
              file=sys.stderr)
        return 2
    failed = False
    payload = {"schema_version": CLI_SCHEMA_VERSION, "targets": []}
    for name, prog in targets:
        report = lint_program(prog)
        entry = {
            "name": name,
            "findings": [
                {"rule": f.rule, "severity": f.severity, "addr": f.addr,
                 "line": f.line, "function": f.function,
                 "message": f.message}
                for f in report.findings
                if not args.no_info or f.severity != "info"],
            "counts": {"error": len(report.errors),
                       "warning": len(report.warnings),
                       "info": len(report.infos)},
            "fork_sites": len(report.cfg.fork_sites),
            "failed": report.failed,
            "validations": [],
        }
        if not args.json:
            for line in report.format(name, show_info=not args.no_info):
                print(line)
        failed = failed or report.failed
        if args.validate:
            # the functional machine and the default kernel: the
            # soundness theorem holds on every oracle
            checks = (validate_machine(prog), validate_sim(prog))
            for check in checks:
                hit, total = check.precision()
                entry["validations"].append(
                    {"source": check.source, "sound": check.sound,
                     "precision": [hit, total],
                     "sections": len(check.checks)})
                if not args.json:
                    print("%s: %s" % (name, check.format()[-1]))
                failed = failed or not check.sound
        payload["targets"].append(entry)
    if args.json:
        payload["failed"] = failed
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 1 if failed else 0


#: kernels ``repro deps --validate`` proves the graph against
_DEPS_VALIDATE_KERNELS = ("event", "naive")


def cmd_deps(args) -> int:
    """Section dependence graph, static speedup bound and validation."""
    from .analysis import analyze_program, validate_deps
    from .sim import SimConfig
    targets = _analysis_targets(args)
    if not targets:
        print("error: nothing to analyze (give files or --workloads)",
              file=sys.stderr)
        return 2
    failed = False
    payload = {"schema_version": CLI_SCHEMA_VERSION, "targets": []}
    for name, prog in targets:
        graph, bound = analyze_program(prog)
        entry = graph.to_json_dict(bound, core_counts=args.cores)
        entry["name"] = name
        if args.measure:
            entry["measured"] = {}
            for n in args.cores:
                result = api.simulate(prog, SimConfig(n_cores=n)).result
                entry["measured"][str(n)] = (result.instructions
                                             / result.cycles)
        if args.dot:
            print(graph.to_dot())
        elif not args.json:
            print("%s: %s" % (name, graph.describe()))
            print("%s: %s" % (name, bound.describe()))
            for n in args.cores:
                line = "%s:   N=%-4d bound=%6.2fx" % (name, n,
                                                      bound.bound(n))
                if args.measure:
                    measured = entry["measured"][str(n)]
                    line += ("  measured=%6.2fx  %s"
                             % (measured,
                                "sound" if bound.bound(n) >= measured
                                else "VIOLATED"))
                print(line)
        if args.validate:
            entry["validations"] = []
            for kernel in _DEPS_VALIDATE_KERNELS:
                report = validate_deps(
                    prog, SimConfig(events=True, kernel=kernel),
                    graph=graph)
                hit, total = report.precision()
                entry["validations"].append(
                    {"kernel": kernel, "sound": report.sound,
                     "observed": total, "precise": hit,
                     "coverage": report.coverage()})
                if not args.json and not args.dot:
                    print("%s: %s" % (name, report.format()[-1]))
                failed = failed or not report.sound
        payload["targets"].append(entry)
    if args.json:
        payload["failed"] = failed
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 1 if failed else 0


def cmd_workloads(args) -> int:
    for workload in WORKLOADS:
        print("%s  %-36s %s" % (workload.key, workload.name,
                                workload.description))
    return 0


def _batch_cache(args):
    """``--cache-dir``/``--no-cache`` → a ResultCache or None."""
    if getattr(args, "no_cache", False) or not getattr(args, "cache_dir",
                                                       None):
        return None
    from .runner import ResultCache
    return ResultCache(args.cache_dir)


def cmd_batch(args) -> int:
    from .runner import jobs_from_spec, run_batch
    import os
    with open(args.spec) as handle:
        try:
            spec = json.load(handle)
        except ValueError as exc:
            raise ReproError("%s: invalid JSON: %s" % (args.spec, exc)) \
                from None
    jobs = jobs_from_spec(spec, base_dir=os.path.dirname(
        os.path.abspath(args.spec)))

    def progress(outcome) -> None:
        if not args.json and not args.quiet:
            print("  [%s] %s  (%.3fs)"
                  % (outcome.status, outcome.job_id, outcome.wall_s))

    report = run_batch(jobs, pool_size=args.jobs,
                       cache=_batch_cache(args), on_outcome=progress)
    if args.json:
        json.dump(report.to_json_dict(), sys.stdout, indent=2,
                  sort_keys=True)
        sys.stdout.write("\n")
    else:
        print("# " + report.summary())
        if args.metrics and report.host_metrics is not None:
            json.dump(report.host_metrics, sys.stdout, indent=2,
                      sort_keys=True)
            sys.stdout.write("\n")
        for outcome in report.failures:
            print("error: job %s failed: %s"
                  % (outcome.job_id, outcome.error), file=sys.stderr)
    return 0 if report.ok else 1


#: fast default subset for ``repro chaos`` without ``--workloads``
_CHAOS_DEFAULT = ("quicksort", "dictionary", "bfs")


def cmd_chaos(args) -> int:
    from .faults import chaos_spec, chaos_sweep
    shorts = ([w.short for w in WORKLOADS] if args.workloads
              else list(_CHAOS_DEFAULT))
    cache = _batch_cache(args)
    if args.emit_jobs:
        spec = chaos_spec(shorts, args.drops, args.deaths,
                          n_cores=args.cores, seed=args.seed,
                          scheduler=args.kernel,
                          pool_size=args.jobs, cache=cache)
        with open(args.emit_jobs, "w") as handle:
            json.dump(spec, handle, indent=2, sort_keys=True)
        print("# wrote %d-job chaos spec to %s (run with: "
              "python -m repro batch %s)"
              % (len(spec["jobs"]), args.emit_jobs, args.emit_jobs))
        return 0
    payload = chaos_sweep(shorts, args.drops, args.deaths,
                          n_cores=args.cores, seed=args.seed,
                          scheduler=args.kernel,
                          pool_size=args.jobs, cache=cache)
    records = payload["records"]
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print("%-12s %5s %6s %8s %8s %8s %7s %7s %s"
              % ("benchmark", "drop", "deaths", "cycles", "base",
                 "slowdn", "retries", "redisp", "identical"))
        for rec in records:
            print("%-12s %5.2f %6d %8d %8d %7.2fx %7d %7d %s"
                  % (rec["benchmark"], rec["drop_rate"], rec["deaths"],
                     rec["cycles"], rec["base_cycles"], rec["slowdown"],
                     rec["retries"], rec["redispatches"],
                     "yes" if rec["identical"] else "NO"))
        engine = payload["batch"]
        print("# engine: executed=%d cache_hits=%d pool=%s wall=%.2fs"
              % (engine["executed"], engine["cache_hits"],
                 engine["pool_size"] or "serial", engine["wall_s"]))
    broken = [r for r in records if not r["identical"]]
    if broken:
        print("error: %d/%d faulted runs diverged from the fault-free "
              "architectural results" % (len(broken), len(records)),
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Toward a Core Design to Distribute "
                    "an Execution on a Many-Core Processor' (PaCT 2015).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run sequentially")
    run.add_argument("file")
    run.set_defaults(func=cmd_run)

    runfork = sub.add_parser("runfork", help="run under section semantics")
    runfork.add_argument("file")
    runfork.add_argument("--fork-loops", action="store_true")
    runfork.add_argument("--tree", action="store_true",
                         help="print the section tree")
    runfork.add_argument("--sanitize", action="store_true",
                         help="assert the renaming invariants at runtime "
                              "(fails on the offending instruction)")
    runfork.set_defaults(func=cmd_runfork)

    add_sim_options = SimOptions.add_arguments

    sim = sub.add_parser("simulate", help="cycle-simulate on the many-core")
    add_sim_options(sim)
    sim.add_argument("--timing", action="store_true",
                     help="print the Figure 10 stage table")
    sim.set_defaults(func=cmd_simulate)

    stats = sub.add_parser("stats",
                           help="simulate and report cycle-level stats")
    add_sim_options(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit the machine-readable SimResult export")
    stats.add_argument("--trace", action="store_true",
                       help="include the per-cycle core-state trace")
    stats.add_argument("--events", action="store_true",
                       help="collect the structured event stream (adds the "
                            "stall-cause breakdown; with --json, exports "
                            "the raw events too)")
    stats.add_argument("--memory", action="store_true",
                       help="include final memory contents in --json output")
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace", help="simulate and export a Chrome/Perfetto trace")
    add_sim_options(trace)
    trace.add_argument("-o", "--output", default="trace.json",
                       help="output path (default: trace.json)")
    trace.set_defaults(func=cmd_trace)

    analyze = sub.add_parser(
        "analyze",
        help="simulate and report stall causes + the critical path")
    add_sim_options(analyze)
    analyze.add_argument("--per-core", action="store_true",
                         help="print the per-core stall-cause breakdown")
    analyze.set_defaults(func=cmd_analyze)

    metrics = sub.add_parser(
        "metrics",
        help="simulate and export windowed cycle-domain metrics")
    add_sim_options(metrics)
    metrics.add_argument("--window", type=int, default=100, metavar="W",
                         help="sampling window in cycles (default: 100; "
                              "--metrics overrides)")
    metrics.add_argument("--prom", action="store_true",
                         help="Prometheus text exposition instead of JSON")
    metrics.set_defaults(func=cmd_metrics)

    comp = sub.add_parser("compile", help="compile MiniC to assembly")
    comp.add_argument("file")
    comp.add_argument("--fork", action="store_true")
    comp.add_argument("--fork-loops", action="store_true")
    comp.set_defaults(func=cmd_compile)

    trans = sub.add_parser("transform", help="call→fork transformation")
    trans.add_argument("file")
    trans.set_defaults(func=cmd_transform)

    ilp = sub.add_parser("ilp", help="Figure 7 ILP models on one program")
    ilp.add_argument("file")
    ilp.set_defaults(func=cmd_ilp)

    lint = sub.add_parser(
        "lint", help="static fork-hazard linter (repro.analysis)")
    lint.add_argument("files", nargs="*",
                      help=".s or MiniC sources (MiniC compiles fork-mode)")
    lint.add_argument("--workloads", action="store_true",
                      help="lint all ten Table 1 workloads")
    lint.add_argument("--fork-loops", action="store_true")
    lint.add_argument("--no-info", action="store_true",
                      help="hide advisory info findings")
    lint.add_argument("--validate", action="store_true",
                      help="also cross-check static live-across sets "
                           "against the section machine and the cycle "
                           "simulator's renaming requests")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings payload")
    lint.set_defaults(func=cmd_lint)

    deps = sub.add_parser(
        "deps",
        help="whole-program section dependence graph + static speedup "
             "bound (repro.analysis.deps)")
    deps.add_argument("files", nargs="*",
                      help=".s or MiniC sources (MiniC compiles fork-mode)")
    deps.add_argument("--workloads", action="store_true",
                      help="analyze all ten Table 1 workloads")
    deps.add_argument("--fork-loops", action="store_true")
    deps.add_argument("--cores", type=int, nargs="+", default=[64, 256],
                      metavar="N", help="core counts for the bound table "
                                        "(default: 64 256)")
    deps.add_argument("--measure", action="store_true",
                      help="also cycle-simulate at each --cores point and "
                           "print predicted vs. measured speedup")
    deps.add_argument("--validate", action="store_true",
                      help="differentially validate the graph against the "
                           "simulator's renaming-request event stream on "
                           "every kernel; exit 1 on any uncovered "
                           "dependence")
    deps.add_argument("--dot", action="store_true",
                      help="emit the graph in Graphviz dot form (not with "
                           "--json or --measure)")
    deps.add_argument("--json", action="store_true",
                      help="machine-readable graph + bound payload")
    deps.set_defaults(func=cmd_deps)

    wl = sub.add_parser("workloads", help="list the Table 1 suite")
    wl.set_defaults(func=cmd_workloads)

    def add_batch_options(cmd):
        cmd.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default: serial in-process)")
        cmd.add_argument("--cache-dir", metavar="DIR",
                         help="content-addressed result cache directory")
        cmd.add_argument("--no-cache", action="store_true",
                         help="ignore --cache-dir (always execute)")

    batch = sub.add_parser(
        "batch",
        help="run a JSON job spec through the parallel batch engine")
    batch.add_argument("spec", help="job-spec JSON (a list of job entries "
                                    "or {defaults, jobs})")
    add_batch_options(batch)
    batch.add_argument("--json", action="store_true",
                       help="emit the full batch report as JSON")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    batch.add_argument("--metrics", action="store_true",
                       help="print host-domain engine telemetry (phase "
                            "timings, cache counters, pool utilization) "
                            "after the summary")
    batch.set_defaults(func=cmd_batch)

    chaos = sub.add_parser(
        "chaos",
        help="sweep a fault grid over the workload suite and check that "
             "every faulted run stays bit-identical to the fault-free one")
    chaos.add_argument("--workloads", action="store_true",
                       help="sweep all ten Table 1 workloads (default: %s)"
                            % ", ".join(_CHAOS_DEFAULT))
    chaos.add_argument("--cores", type=int, default=16)
    chaos.add_argument("--drops", type=float, nargs="+",
                       default=[0.0, 0.1],
                       help="NoC drop rates to sweep (default: 0.0 0.1)")
    chaos.add_argument("--deaths", type=int, nargs="+", default=[0, 1],
                       help="fail-stop core counts to sweep (default: 0 1)")
    chaos.add_argument("--seed", type=int, default=1234)
    _add_kernel_argument(chaos)
    add_batch_options(chaos)
    chaos.add_argument("--emit-jobs", metavar="SPEC.json",
                       help="write the grid as a 'repro batch' job spec "
                            "instead of sweeping it here")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full sweep payload as JSON")
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "deps" and args.dot and (args.json or args.measure):
        # the dot text is the whole output: no JSON payload beside it,
        # no measured speedups to print
        parser.error("deps: --dot cannot be combined with --json or "
                     "--measure")
    try:
        return args.func(args)
    except ReproError as exc:
        path = getattr(exc, "path", None)
        line = getattr(exc, "line", 0) or getattr(exc, "src_line", 0)
        if path and line:
            col = getattr(exc, "src_col", 0)
            where = "%s:%d" % (path, line) + (":%d" % col if col else "")
            print("error: %s: %s" % (where, exc.raw_message),
                  file=sys.stderr)
        elif path:
            print("error: %s: %s" % (path, exc), file=sys.stderr)
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        # a missing file, a directory, an unreadable path: the message
        # names it
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
