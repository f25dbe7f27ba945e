"""Golden-trace regression tests.

``golden_results.json`` snapshots the complete ``SimResult`` surface
(cycles, sections, outputs, request traffic, per-core instruction counts,
final registers, a digest of final memory) for three small fixed
workloads — one each from ``workloads/{sorting,hashing,graphs}.py`` —
captured from the pre-event-scheduler seed simulator.  Both kernels
must keep reproducing these numbers exactly: any drift in cycle
counts, section structure or request traffic is a semantic change to the
simulated machine and must be deliberate (regeneration recipe: DESIGN.md,
"Golden traces").
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fork import fork_transform
from repro.sim import CORE_STATES, STATE_CODES, SimConfig, simulate
from repro.workloads import get_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_results.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: golden fields compared verbatim against the SimResult attribute
EXACT_FIELDS = ("cycles", "instructions", "sections", "outputs", "requests",
                "request_hops", "fetch_end", "retire_end", "fetch_computed",
                "per_core_instructions", "final_regs")


def memory_digest(memory):
    return hashlib.sha256(repr(sorted(memory.items())).encode()).hexdigest()


def _program_for(entry):
    inst = get_workload(entry["workload"]).instance(n=entry["n"],
                                                    seed=entry["seed"])
    return fork_transform(inst.program), inst


def _state_name(code):
    return (CORE_STATES[STATE_CODES.index(code)]
            if code is not None else "finished")


def first_trace_divergence(prog, config_a, config_b):
    """Locate the first (cycle, core) where two configurations' per-cycle
    state timelines differ, as ``(cycle, core, state_a, state_b)`` with
    human-readable state names — or None when the timelines are equal.

    This is the locator attached to golden failures under the event
    kernel: "cycles drifted" alone is unactionable, "core 3 parked at
    cycle 214 where the naive kernel kept it blocked" points at the
    scheduling decision that went wrong."""
    res_a, _ = simulate(prog, replace(config_a, trace=True))
    res_b, _ = simulate(prog, replace(config_b, trace=True))
    for cycle in range(max(res_a.cycles, res_b.cycles)):
        for core in range(len(res_a.trace)):
            code_a = (res_a.trace[core][cycle]
                      if cycle < len(res_a.trace[core]) else None)
            code_b = (res_b.trace[core][cycle]
                      if cycle < len(res_b.trace[core]) else None)
            if code_a != code_b:
                return (cycle, core, _state_name(code_a),
                        _state_name(code_b))
    return None


def _divergence_note(prog, config):
    where = first_trace_divergence(prog, replace(config, kernel="naive"),
                                   config)
    if where is None:
        return ("no per-cycle divergence from the naive kernel; "
                "the drift is in result accounting")
    cycle, core, naive_state, kernel_state = where
    return ("first divergence from the naive kernel at cycle %d core %d: "
            "naive=%s %s=%s"
            % (cycle, core, naive_state, config.kernel, kernel_state))


@pytest.mark.parametrize("key", sorted(GOLDEN))
@pytest.mark.parametrize("kernel", ["naive", "event"])
def test_golden_workload(key, kernel):
    entry = GOLDEN[key]
    prog, inst = _program_for(entry)
    config = SimConfig(n_cores=entry["n_cores"],
                       stack_shortcut=entry["stack_shortcut"],
                       kernel=kernel)
    result, _ = simulate(prog, config)
    assert result.signed_outputs == inst.expected_output
    for field in EXACT_FIELDS:
        if getattr(result, field) != entry[field]:
            note = ("" if kernel == "naive"
                    else "; " + _divergence_note(prog, config))
            pytest.fail("%s drifted on %s (%s kernel): got %r, golden %r%s"
                        % (field, key, kernel, getattr(result, field),
                           entry[field], note))
    assert memory_digest(result.final_memory) == entry["final_memory_sha256"]


class TestDivergenceLocator:
    """The locator itself must work when a real divergence exists — a
    golden failure that cannot name its first divergent cycle/core is a
    regression in the harness, not just in the kernel."""

    def test_names_first_divergent_cycle_and_core(self):
        entry = GOLDEN[sorted(GOLDEN)[0]]
        prog, _ = _program_for(entry)
        base = SimConfig(n_cores=entry["n_cores"],
                         stack_shortcut=entry["stack_shortcut"],
                         kernel="event")
        # a slower NoC legitimately changes the timeline: the locator
        # must pinpoint where, with readable state names
        slower = replace(base, noc_latency=base.noc_latency + 2)
        where = first_trace_divergence(prog, base, slower)
        assert where is not None
        cycle, core, state_a, state_b = where
        assert cycle >= 0 and 0 <= core < entry["n_cores"]
        assert {state_a, state_b} <= set(CORE_STATES) | {"finished"}
        assert state_a != state_b

    def test_silent_on_identical_kernels(self):
        entry = GOLDEN[sorted(GOLDEN)[0]]
        prog, _ = _program_for(entry)
        base = SimConfig(n_cores=entry["n_cores"],
                         stack_shortcut=entry["stack_shortcut"],
                         kernel="naive")
        assert first_trace_divergence(
            prog, base, replace(base, kernel="event")) is None


def test_golden_file_covers_three_workload_families():
    families = {entry["workload"] for entry in GOLDEN.values()}
    assert families == {"quicksort", "dictionary", "bfs"}
