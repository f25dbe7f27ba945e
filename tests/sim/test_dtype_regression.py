"""64-bit wraparound regression: edge values through both kernels.

The simulator's values are Python ints masked to ``[0, 2**64)`` at every
write.  These programs push hostile values through the register files,
renaming requests and memory: negatives, values at and above ``2**31``
(the classic int32 cliff) and both 64-bit wraparound edges, checked on
the naive and event kernels and against the repro.machine oracles.
"""

import pytest

from repro.machine import run_forked, run_sequential
from repro.minic import compile_source
from repro.sim import SimConfig, simulate

WRAP = 1 << 64
MASK = WRAP - 1

KERNELS = ("naive", "event")


def c_wrap(value):
    """Wrap a Python int to C long (two's complement signed 64-bit)."""
    value &= MASK
    return value - WRAP if value >= (1 << 63) else value


#: every value class the register file must carry exactly: negatives,
#: the int32 cliff, both signed-64 extremes, and wraparound products
EDGE_SOURCE = """
long big(long k) {
    if (k == 0) return 1;
    return big(k - 1) * 2;
}
long main() {
    long p62 = big(62);
    out(0 - 1);
    out(big(31));
    out(0 - big(31) - 1);
    out(p62 * 2 - 1);
    out(0 - p62 - p62);
    out(p62 * 2);
    return 0;
}
"""

EDGE_EXPECTED = [-1, 2**31, -(2**31) - 1, 2**63 - 1, -(2**63),
                 c_wrap(2**63)]


class TestEdgeValuePrograms:
    @pytest.fixture(scope="class")
    def runs(self):
        prog = compile_source(EDGE_SOURCE, fork_mode=True)
        return {kernel: simulate(prog, SimConfig(n_cores=4,
                                                 kernel=kernel))[0]
                for kernel in KERNELS}

    def test_signed_outputs_are_the_edge_values(self, runs):
        for kernel in KERNELS:
            assert runs[kernel].signed_outputs == EDGE_EXPECTED, kernel

    def test_kernels_identical_on_edge_values(self, runs):
        ref = runs["naive"]
        res = runs["event"]
        assert res.outputs == ref.outputs
        assert res.final_regs == ref.final_regs
        assert res.final_memory == ref.final_memory
        assert res.cycles == ref.cycles

    def test_matches_machine_oracles(self, runs):
        seq = run_sequential(compile_source(EDGE_SOURCE))
        forked, _ = run_forked(compile_source(EDGE_SOURCE, fork_mode=True))
        assert forked.output == seq.output
        for kernel in KERNELS:
            assert runs[kernel].outputs == seq.output

    def test_edge_values_cross_section_boundaries(self, runs):
        # the recursion forks sections, so the 2**62 partial products
        # travel through renaming requests — a single-section run would
        # not exercise the remote path
        assert runs["event"].sections > 1
        assert runs["event"].requests > 0


class TestEdgeValuesInMemory:
    SOURCE = """
    long A[3];
    long big(long k) {
        if (k == 0) return 1;
        return big(k - 1) * 2;
    }
    long main() {
        A[0] = 0 - big(31);
        A[1] = big(62) * 2 - 1;
        A[2] = 0 - big(62) - big(62);
        out(A[0] + A[1] + A[2]);
        out(A[1]);
        return 0;
    }
    """

    def test_store_load_of_wide_values(self):
        prog = compile_source(self.SOURCE, fork_mode=True)
        expected = [c_wrap(-(2**31) + (2**63 - 1) + -(2**63)), 2**63 - 1]
        results = [simulate(prog, SimConfig(n_cores=4, kernel=k))[0]
                   for k in KERNELS]
        for res in results:
            assert res.signed_outputs == expected
            assert res.final_memory == results[0].final_memory
