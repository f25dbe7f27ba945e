"""Differential validation: static live-across sets vs. dynamic traces.

The soundness half is the property the whole linter rests on: every
register a section dynamically reads before writing (machine trace) or
requests through the renaming network (simulator event stream) must be
in the static flow-view live-in set at the section's start.
"""

import pytest

from repro.analysis import validate_machine, validate_sim
from repro.minic import compile_source
from repro.paper import paper_array, sum_forked_program
from repro.workloads import WORKLOADS, get_workload

SIM_WORKLOADS = ("bfs", "quicksort", "dictionary")


def forked_workload(workload):
    inst = workload.instance(scale=0)
    return compile_source(inst.source, fork_mode=True)


class TestFigure5:
    def test_machine_sound_and_exact(self):
        report = validate_machine(sum_forked_program(paper_array(5)))
        assert report.sound
        assert report.missed == []
        hit, total = report.precision()
        assert (hit, total) == (15, 15)

    def test_sim_sound_and_exact(self):
        report = validate_sim(sum_forked_program(paper_array(5)))
        assert report.sound
        hit, total = report.precision()
        assert (hit, total) == (5, 5)

    def test_sim_root_section_requests_nothing(self):
        report = validate_sim(sum_forked_program(paper_array(5)))
        root = report.checks[0]
        assert root.sid == 1
        assert root.predicted == frozenset()
        assert root.observed == frozenset()

    def test_format_mentions_soundness(self):
        report = validate_machine(sum_forked_program(paper_array(5)))
        assert report.format()[-1].startswith("machine: sound, precision")


@pytest.mark.parametrize("workload", WORKLOADS,
                         ids=[w.short for w in WORKLOADS])
def test_machine_sound_on_all_workloads(workload):
    """Property (satellite c): every dynamically-read register in every
    workload trace is statically live at that section's entry."""
    report = validate_machine(forked_workload(workload))
    assert report.sound, "\n".join(report.format())
    assert len(report.checks) > 1           # the run actually forked


@pytest.mark.parametrize("short", SIM_WORKLOADS)
def test_sim_sound_on_workloads(short):
    """Cross-check against PR 2's event stream: every register request a
    section issued is in the static live-across set minus the fork
    copies (the simulator satisfies those from the fork-time snapshot)."""
    report = validate_sim(forked_workload(get_workload(short)))
    assert report.sound, "\n".join(report.format())
    hit, total = report.precision()
    assert hit <= total


@pytest.mark.parametrize("short", SIM_WORKLOADS)
def test_sim_sound_on_event_kernel(short):
    """The theorem holds against an explicitly requested kernel: asking
    for the event kernel by name reports as the default ``sim`` oracle
    and lands the same renaming requests in the same static sets as the
    default run (the naive leg is pinned by the override test below)."""
    report = validate_sim(forked_workload(get_workload(short)),
                          kernel="event")
    assert report.source == "sim"
    assert report.sound, "\n".join(report.format())
    baseline = validate_sim(forked_workload(get_workload(short)))
    assert ([(c.sid, c.observed, c.predicted) for c in report.checks]
            == [(c.sid, c.observed, c.predicted) for c in baseline.checks])


def test_sim_kernel_overrides_explicit_config():
    from repro.sim import SimConfig
    report = validate_sim(sum_forked_program(paper_array(5)),
                          config=SimConfig(events=False, kernel="event"),
                          kernel="naive")
    assert report.source == "sim[naive]"
    assert report.sound
