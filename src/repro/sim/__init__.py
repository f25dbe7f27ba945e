"""Cycle-level simulator of the paper's distributed core design (Section 4).

Quick use::

    from repro.sim import SimConfig, simulate
    from repro.paper import sum_forked_program, paper_array

    result, proc = simulate(sum_forked_program(paper_array(5)),
                            SimConfig(n_cores=5))
    print(result.describe())
    print(proc.timing_table())      # the paper's Figure 10
"""

from .cells import Cell, DynInstr
from .config import SimConfig, figure10_config
from .core import Core
from .noc import MeshNoc, UniformNoc, make_noc
from .processor import Processor, simulate
from .requests import RenameRequest
from .section import SectionState
from .stats import CORE_STATES, STATE_CODES, SimResult, request_latency_stats

__all__ = [
    "CORE_STATES", "Cell", "Core", "DynInstr", "MeshNoc", "Processor",
    "RenameRequest", "STATE_CODES", "SectionState", "SimConfig", "SimResult",
    "UniformNoc", "figure10_config", "make_noc",
    "request_latency_stats", "simulate",
]
