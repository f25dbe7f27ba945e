"""Static function -> layer table for folding a cProfile pass into layers.

Keys are ``module:qualname`` (a function, a method, or a class meaning
every function defined in its body).  Values are layer names; the traced
run reports ``<layer>_s`` for each.  Only entry points are listed: a
function the table does not name inherits the layer of its callers (see
:func:`tracing.fold_profile`), so helpers such as ``Cell.fill`` count
toward whichever stage called them.

Every entry must resolve.  When a refactor renames, moves or deletes a
function named here, the traced run stops with an error instead of
silently moving its time into ``sim.other``; update the table in the same
change.
"""

LAYERS = {
    # front end, reached inside chaos_sweep (elsewhere the benchmark
    # calls these itself and times them with spans)
    "repro.minic.compiler:compile_to_asm": "minic.compile",
    "repro.fork.transform:fork_transform": "fork.transform",
    "repro.isa.assembler:assemble": "isa.assemble",
    "repro.workloads.base:Workload.instance": "workloads.build",

    # kernel pipeline stages, called once per awake core-cycle
    "repro.sim.core:Core._fetch": "sim.fetch",
    "repro.sim.core:Core._rename": "sim.rename",
    "repro.sim.core:Core._execute": "sim.execute",
    "repro.sim.core:Core._addr_rename": "sim.addr_rename",
    "repro.sim.core:Core._memory": "sim.memory",
    "repro.sim.core:Core._retire": "sim.retire",

    # renaming requests: issue from the stages, stepping from the loop
    "repro.sim.processor:Processor.send_reg_request": "sim.requests",
    "repro.sim.processor:Processor.send_mem_request": "sim.requests",
    "repro.sim.processor:Processor._process_pending": "sim.requests",
    "repro.sim.processor:Processor._process_requests": "sim.requests",
    "repro.sim.processor:Processor._hop": "sim.noc",

    # scheduler: run loops, all-parked scan, park/wake, cycle jump
    "repro.sim.processor:Processor.run": "sim.sched",
    "repro.sim.processor:Processor._run_event": "sim.sched",
    "repro.sim.processor:Processor._run_naive": "sim.sched",
    "repro.sim.processor:Processor._finished_event": "sim.sched",
    "repro.sim.processor:Processor._finished": "sim.sched",
    "repro.sim.processor:Processor._wake_due": "sim.sched",
    "repro.sim.processor:Processor._next_event_cycle": "sim.sched",
    "repro.sim.core:Core.cycle": "sim.sched",
    "repro.sim.core:Core.maybe_park": "sim.sched",
    "repro.sim.core:Core.wake": "sim.sched",

    "repro.sim.processor:Processor._advance_fold": "sim.fold",
    "repro.sim.processor:Processor._result": "sim.result",
    # construction and anything below simulate no entry above claims
    "repro.sim.processor:simulate": "sim.other",

    # observability derived inside simulate when events/metrics are on
    "repro.obs.events:EventTrace.emit": "obs.emit",
    "repro.obs.events:synthesize_core_events": "obs.emit",
    "repro.obs.stalls:attribute_stalls": "obs.stalls",
    "repro.obs.metrics:derive_cycle_metrics": "obs.metrics",

    "repro.faults.recovery:FaultEngine": "faults.engine",
    "repro.faults.sweep:chaos_sweep": "faults.sweep",

    "repro.runner.job:Job.key": "runner.key",
    "repro.runner.cache:ResultCache.get": "runner.cache_get",
    "repro.runner.cache:ResultCache.put": "runner.cache_put",
    "repro.runner.engine:run_batch": "runner.engine",
    "repro.runner.engine:execute_job_timed": "runner.engine",
}

#: exact call counts read from the same profile
COUNTERS = {
    "sim.request_steps": "repro.sim.processor:Processor._step_request",
    "sim.core_cycles": "repro.sim.core:Core.cycle",
}

#: where profiled self time no entry claims is reported
OTHER = "sim.other"
