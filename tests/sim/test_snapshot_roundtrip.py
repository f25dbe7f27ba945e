"""Snapshot round-trip: capture -> serialize -> restore -> run == cold.

Property-based core of the snapshot contract: for random small programs,
random checkpoint cycles and every kernel, a run resumed from a snapshot
that went through the full binary wire format (``to_bytes`` ->
``from_bytes``) must be bit-identical to the cold run on every compared
result field.  Plus deterministic unit coverage of the envelope itself:
versioning, magic, digest integrity, save/load, content addressing.
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.minic import compile_source
from repro.sim import SimConfig, simulate
from repro.snapshot import (SNAPSHOT_SCHEMA_VERSION, Snapshot,
                            SnapshotError, capture_prefix, program_digest,
                            resume)

from .test_differential import COMPARED_FIELDS, _reduce_program

_values = st.lists(st.integers(min_value=-40, max_value=40),
                   min_size=4, max_size=8)


def _assert_identical(warm, cold, label):
    for name in COMPARED_FIELDS:
        assert getattr(warm, name) == getattr(cold, name), (
            "field %r differs between resumed and cold runs (%s)"
            % (name, label))


class TestRandomizedRoundTrip:
    """serialize -> restore -> run equals cold, for random programs ×
    random checkpoint fractions × every kernel."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=_values, op=st.sampled_from(["+", "^", "min"]),
           kernel=st.sampled_from(["naive", "event"]),
           n_cores=st.sampled_from([1, 4, 9]),
           frac_pct=st.integers(min_value=5, max_value=95))
    def test_resume_equals_cold(self, values, op, kernel, n_cores,
                                frac_pct):
        prog = compile_source(_reduce_program(values, op, 2),
                              fork_mode=True)
        cfg = SimConfig(n_cores=n_cores, kernel=kernel, events=True,
                        metrics_window=17)
        cold, _ = simulate(prog, cfg)
        cycle = max(1, cold.cycles * frac_pct // 100)
        snap = capture_prefix(prog, cycle, cfg)
        assert snap.kernel == kernel
        # the full wire round trip, not just the in-memory object
        snap = Snapshot.from_bytes(snap.to_bytes())
        warm, _ = resume(snap, program=prog, config=cfg)
        _assert_identical(warm, cold,
                          "%s @%d/%d" % (kernel, cycle, cold.cycles))


class _TinyRun:
    SOURCE = """
    long A[6] = {3, 1, 4, 1, 5, 9};
    long combine(long a, long b) { return a + b; }
    long red(long* t, long k) {
        if (k == 1) return t[0];
        long cut = k / 2 == 0 ? 1 : k / 2;
        return combine(red(t, cut), red(t + cut, k - cut));
    }
    long main() { out(red(A, 6)); return 0; }
    """

    @classmethod
    def program(cls):
        return compile_source(cls.SOURCE, fork_mode=True)


class TestEnvelope:
    def _snap(self, cycle=5):
        return capture_prefix(_TinyRun.program(), cycle,
                              SimConfig(n_cores=4))

    def test_bytes_roundtrip_preserves_everything(self):
        snap = self._snap()
        back = Snapshot.from_bytes(snap.to_bytes())
        assert (back.cycle, back.kernel, back.config, back.program_sha,
                back.state) == (snap.cycle, snap.kernel, snap.config,
                                snap.program_sha, snap.state)

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError, match="bad magic"):
            Snapshot.from_bytes(b"NOPE" + b"\0" * 64)

    def test_truncated_rejected(self):
        with pytest.raises(SnapshotError):
            Snapshot.from_bytes(self._snap().to_bytes()[:40])

    def test_other_schema_version_rejected(self):
        data = bytearray(self._snap().to_bytes())
        # the schema u32 sits right after the 4-byte magic
        data[4:8] = (SNAPSHOT_SCHEMA_VERSION + 1).to_bytes(4, "big")
        with pytest.raises(SnapshotError, match="schema v%d"
                           % (SNAPSHOT_SCHEMA_VERSION + 1)):
            Snapshot.from_bytes(bytes(data))

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_schema_rejected(self, version):
        # v1 predates the event kernel's lazy request scheduler: an
        # event-kernel v1 state lacks it, and a vector-kernel one names
        # a removed module.  A v2 state pickles DynInstr by position
        # over six more slots, so restoring it would misassign every
        # later field.  Both must fail at the schema check.
        assert SNAPSHOT_SCHEMA_VERSION == 3
        data = bytearray(self._snap().to_bytes())
        data[4:8] = version.to_bytes(4, "big")
        with pytest.raises(SnapshotError, match="schema v%d; this build "
                           "reads v3" % version):
            Snapshot.from_bytes(bytes(data))

    def test_corrupt_state_rejected(self):
        snap = self._snap()
        data = bytearray(snap.to_bytes())
        # recompress different state bytes so zlib still decodes but the
        # digest no longer matches the header
        tail = len(zlib.compress(snap.state, 6))
        evil = bytearray(snap.state)
        evil[len(evil) // 2] ^= 0xFF
        data[-tail:] = zlib.compress(bytes(evil), 6)
        with pytest.raises(SnapshotError, match="digest mismatch"):
            Snapshot.from_bytes(bytes(data))

    def test_save_load(self, tmp_path):
        snap = self._snap()
        path = snap.save(tmp_path / "deep" / "snap.rsnp")
        back = Snapshot.load(path)
        assert back.cycle == snap.cycle
        assert back.state == snap.state

    def test_load_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            Snapshot.load(tmp_path / "absent.rsnp")

    def test_key_is_content_address(self):
        snap = self._snap()
        import hashlib
        assert snap.key() == hashlib.sha256(snap.to_bytes()).hexdigest()

    def test_program_digest_tracks_listing(self):
        prog = _TinyRun.program()
        assert program_digest(prog) == program_digest(_TinyRun.program())


class TestCaptureSemantics:
    def test_checkpoint_cycles_populate_processor(self):
        prog = _TinyRun.program()
        cfg = SimConfig(n_cores=4, checkpoint_cycles=(3, 7))
        result, proc = simulate(prog, cfg)
        assert [s.cycle for s in proc.checkpoints] == [3, 7]
        assert result.cycles > 7

    def test_trailing_labels_collapse_to_final_state(self):
        prog = _TinyRun.program()
        cfg = SimConfig(n_cores=4, checkpoint_cycles=(3, 10 ** 9))
        result, proc = simulate(prog, cfg)
        assert [s.cycle for s in proc.checkpoints] == [3, result.cycles]

    def test_capture_prefix_abandons_the_run(self):
        prog = _TinyRun.program()
        cfg = SimConfig(n_cores=4)
        cold, _ = simulate(prog, cfg)
        snap = capture_prefix(prog, max(1, cold.cycles // 2), cfg)
        proc = snap.restore()
        assert proc.cycle == snap.cycle < cold.cycles

    def test_checkpointing_does_not_perturb_results(self):
        prog = _TinyRun.program()
        plain, _ = simulate(prog, SimConfig(n_cores=4, events=True))
        ticked, _ = simulate(prog, SimConfig(n_cores=4, events=True,
                                             checkpoint_cycles=(2, 5, 9)))
        _assert_identical(ticked, plain, "checkpointed vs plain")

    def test_future_label_rejected(self):
        snap = capture_prefix(_TinyRun.program(), 4, SimConfig(n_cores=4))
        proc = snap.restore()
        with pytest.raises(SnapshotError, match="future cycle"):
            Snapshot.capture(proc, cycle=proc.cycle + 10)

    def test_resumed_run_recaptures_future_checkpoints(self):
        prog = _TinyRun.program()
        snap = capture_prefix(prog, 3, SimConfig(n_cores=4))
        _, proc = resume(snap, checkpoint_cycles=[1, 3, 6])
        # labels at or before the snapshot are dropped, not re-captured
        assert [s.cycle for s in proc.checkpoints] == [6]


class TestResumeGuards:
    def test_program_mismatch_rejected(self):
        snap = capture_prefix(_TinyRun.program(), 4, SimConfig(n_cores=4))
        other = compile_source(
            "long main() { out(1); return 0; }", fork_mode=True)
        with pytest.raises(SnapshotError, match="program mismatch"):
            resume(snap, program=other)

    def test_config_mismatch_rejected(self):
        snap = capture_prefix(_TinyRun.program(), 4, SimConfig(n_cores=4))
        with pytest.raises(SnapshotError, match="config mismatch.*n_cores"):
            resume(snap, config=SimConfig(n_cores=8))

    def test_overridable_knobs_do_not_mismatch(self):
        prog = _TinyRun.program()
        snap = capture_prefix(prog, 4, SimConfig(n_cores=4))
        cold, _ = simulate(prog, SimConfig(n_cores=4))
        warm, _ = resume(snap, config=SimConfig(
            n_cores=4, checkpoint_cycles=(10 ** 9,)))
        assert warm.cycles == cold.cycles
