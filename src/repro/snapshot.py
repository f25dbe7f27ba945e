"""Snapshot/restore of live simulator state — time travel for the sim.

The simulator is deterministic: a run is a pure function of (program,
config, initial registers).  That makes full-state checkpoints sound in a
way they never are for wall-clock systems — a snapshot captured at cycle
*k* and resumed later is provably bit-identical to the cold run on every
compared :class:`~repro.sim.stats.SimResult` field (events, metrics and
fault_stats included; tests/sim/test_snapshot_differential.py).

What a snapshot holds
---------------------

The *whole* live machine, captured between cycles: every core (pipeline
queues, register files, occupancy spans), the section tree with MAATs
and per-section register frames, in-flight renaming requests and NoC
messages, the fold cursor, the placement RNG, the event kernel's
park-wake heaps and lazy request agendas, and
— when a :class:`~repro.faults.FaultPlan` is attached — the fault
engine's cursor (deaths already applied, accumulated FaultStats).  The
capture is a deep serialization of the :class:`~repro.sim.processor.
Processor` object graph; nothing is reconstructed on restore, so resume
simply re-enters the run loop.

Wire format
-----------

``to_bytes`` emits a versioned binary envelope::

    b"RSNP" | u32 schema | u32 header_len | header JSON | zlib(state)

The header carries the checkpoint cycle, kernel, the full
``SimConfig.to_dict()`` provenance, a sha256 of the program listing and
a sha256 + length of the raw state so corruption fails loudly.  Blobs
are content-addressed payloads: ``ResultCache.put_blob`` keys them by
the sha256 of exactly these bytes.

The state payload is a pickle.  Restore only snapshots you produced —
the same trust model as any pickle-backed cache (the repo's ResultCache
job tier is JSON precisely because job specs cross trust boundaries;
snapshots do not).

Determinism contract
--------------------

Semantic, not byte-level: two captures of the same machine state may
differ in serialized bytes (hash-order containers), but ``restore`` +
``run`` is bit-identical to the cold run.  Capture labels that land
inside an event-kernel all-parked cycle jump are materialized at the
next executed loop top with the cycle counter rewritten — sound because
the skipped cycles are provably no-ops.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple, Union

from .errors import ReproError

if TYPE_CHECKING:     # pragma: no cover - import cycle guard (sim -> here)
    from .faults.models import FaultPlan
    from .isa.program import Program
    from .sim.config import SimConfig
    from .sim.processor import Processor
    from .sim.stats import SimResult

#: bump when the envelope layout or the captured object graph changes
#: incompatibly; readers reject other versions loudly.  v2: the event
#: kernel's lazy request scheduler replaced its pending-request list,
#: and the vector kernel is gone.  v3: DynInstr lost six slots (its
#: pickle state is positional) and the processor its metrics side logs.
SNAPSHOT_SCHEMA_VERSION = 3

_MAGIC = b"RSNP"
_HEAD = struct.Struct(">II")    # schema version, header length


class SnapshotError(ReproError):
    """A snapshot could not be captured, decoded or resumed."""


def program_digest(program: "Program") -> str:
    """Content address of a program: sha256 of its canonical listing
    (the same round-trippable form the batch runner keys jobs by)."""
    return hashlib.sha256(program.listing().encode("utf-8")).hexdigest()


@dataclass
class Snapshot:
    """Full simulator state at the top of cycle ``cycle + 1``.

    ``state`` is the raw (uncompressed) pickle of the Processor graph;
    the envelope compresses it.  ``config`` is the run's
    ``SimConfig.to_dict()`` — provenance and resume-time validation,
    not a live object.
    """

    cycle: int
    kernel: str
    config: Dict[str, Any]
    program_sha: str
    state: bytes = field(repr=False)

    # -- capture -------------------------------------------------------

    @classmethod
    def capture(cls, proc: "Processor",
                cycle: Optional[int] = None) -> "Snapshot":
        """Serialize *proc* as a snapshot labelled *cycle* (default: the
        processor's current cycle).

        A label below the current cycle is only sound when every cycle
        in between was a no-op (the all-parked jump case); the run-loop
        hooks guarantee that — external callers should pass ``None``.
        The processor is left exactly as found: the label, the captured
        checkpoint list and the pending-checkpoint cursor are swapped in
        only for the duration of the pickle, so snapshots never nest
        and a restored run re-captures only *future* checkpoints.
        """
        label = proc.cycle if cycle is None else cycle
        if label > proc.cycle:
            raise SnapshotError(
                "cannot label a snapshot at future cycle %d "
                "(processor is at cycle %d)" % (label, proc.cycle))
        saved_cycle = proc.cycle
        saved_taken = proc.checkpoints
        saved_pending = proc._pending_checkpoints
        saved_abort = proc._abort_after_checkpoints
        proc.cycle = label
        proc.checkpoints = []
        proc._pending_checkpoints = [c for c in saved_pending if c > label]
        proc._abort_after_checkpoints = False
        try:
            state = pickle.dumps(proc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:        # unpicklable state is a repo bug
            raise SnapshotError("failed to capture snapshot at cycle %d: %s"
                                % (label, exc)) from exc
        finally:
            proc.cycle = saved_cycle
            proc.checkpoints = saved_taken
            proc._pending_checkpoints = saved_pending
            proc._abort_after_checkpoints = saved_abort
        return cls(cycle=label, kernel=proc.cfg.kernel,
                   config=proc.cfg.to_dict(),
                   program_sha=program_digest(proc.program), state=state)

    # -- restore -------------------------------------------------------

    def restore(self) -> "Processor":
        """Deserialize the captured processor, ready to :meth:`~repro.
        sim.processor.Processor.run` (which continues from the captured
        cycle; see :func:`resume` for the validated entry point)."""
        try:
            proc = pickle.loads(self.state)
        except Exception as exc:
            raise SnapshotError("corrupt snapshot state: %s" % exc) from exc
        if getattr(proc, "cycle", None) != self.cycle:
            raise SnapshotError(
                "snapshot state is at cycle %r, envelope says %d"
                % (getattr(proc, "cycle", None), self.cycle))
        return proc

    # -- versioned binary envelope ------------------------------------

    def to_bytes(self) -> bytes:
        """Encode as the versioned binary envelope (see module docs)."""
        header = {
            "cycle": self.cycle,
            "kernel": self.kernel,
            "config": self.config,
            "program_sha": self.program_sha,
            "codec": "zlib",
            "state_sha256": hashlib.sha256(self.state).hexdigest(),
            "state_len": len(self.state),
        }
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return b"".join((_MAGIC,
                         _HEAD.pack(SNAPSHOT_SCHEMA_VERSION, len(blob)),
                         blob, zlib.compress(self.state, 6)))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        """Decode and integrity-check an envelope; rejects foreign magic,
        other schema versions and payloads whose digest does not match."""
        if len(data) < len(_MAGIC) + _HEAD.size or not data.startswith(_MAGIC):
            raise SnapshotError("not a repro snapshot (bad magic)")
        schema, header_len = _HEAD.unpack_from(data, len(_MAGIC))
        if schema != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                "snapshot schema v%d; this build reads v%d"
                % (schema, SNAPSHOT_SCHEMA_VERSION))
        start = len(_MAGIC) + _HEAD.size
        try:
            header = json.loads(data[start:start + header_len])
            state = zlib.decompress(data[start + header_len:])
        except (ValueError, zlib.error) as exc:
            raise SnapshotError("corrupt snapshot envelope: %s" % exc) \
                from exc
        if len(state) != header.get("state_len") or \
                hashlib.sha256(state).hexdigest() != header.get("state_sha256"):
            raise SnapshotError("snapshot state digest mismatch")
        return cls(cycle=int(header["cycle"]), kernel=str(header["kernel"]),
                   config=dict(header["config"]),
                   program_sha=str(header["program_sha"]), state=state)

    def key(self) -> str:
        """Content address of the envelope — the exact key
        ``ResultCache.put_blob(snap.to_bytes())`` files it under."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(self.to_bytes())
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotError("cannot read snapshot %s: %s"
                                % (path, exc)) from exc
        return cls.from_bytes(data)


class _CaptureDone(Exception):
    """Internal: raised by the run-loop checkpoint hook to abandon a
    capture-only run (see :func:`capture_prefix`)."""


def capture_prefix(program: "Program", cycle: int,
                   config: Optional["SimConfig"] = None,
                   initial_regs: Optional[Dict[str, int]] = None,
                   ) -> Snapshot:
    """Run *program* just far enough to capture a snapshot at *cycle*
    and abandon the run — the cheap way to mint a warm-start point
    (paying the prefix, not the whole run).

    If the run finishes before *cycle*, the returned snapshot is the
    final state (same clamping as an over-long ``checkpoint_cycles``
    label).
    """
    import dataclasses

    from .sim.config import SimConfig
    from .sim.processor import Processor

    cfg = dataclasses.replace(config or SimConfig(),
                              checkpoint_cycles=(cycle,))
    if cfg.optimize:
        from .analysis.opt import optimize_program
        program = optimize_program(program).program
    proc = Processor(program, config=cfg, initial_regs=initial_regs)
    proc._abort_after_checkpoints = True
    try:
        proc.run()
    except _CaptureDone:
        pass
    if not proc.checkpoints:    # pragma: no cover - defensive
        raise SnapshotError("no checkpoint captured at cycle %d" % cycle)
    return proc.checkpoints[0]


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------

def _strip_overridables(config: Dict[str, Any]) -> Dict[str, Any]:
    """Config dict minus the knobs :func:`resume` may legally override."""
    stripped = dict(config)
    for name in ("faults", "checkpoint_cycles"):
        stripped.pop(name, None)
    return stripped


def _attach_plan(proc: "Processor", snap_cycle: int,
                 plan: "FaultPlan") -> None:
    """Attach *plan* to a restored fault-free processor (the chaos-grid
    warm fork).

    Sound only when the plan provably has no effect at or before the
    snapshot cycle: every fault decision is a pure hash gated by
    ``start_cycle`` / scheduled cycles, so a plan whose
    :meth:`~repro.faults.models.FaultPlan.first_effect_cycle` lies
    strictly beyond the snapshot behaves identically whether it was
    attached at cycle 0 or now.  Anything earlier is rejected — the
    cold run would have diverged before the capture point.
    """
    from .faults.recovery import FaultEngine
    plan.validate(proc.cfg.n_cores)
    if proc.fault_engine is not None:
        if proc.fault_engine.plan == plan:
            return      # same plan: keep the engine's captured cursor
        raise SnapshotError(
            "snapshot already carries a different fault plan; a faulted "
            "prefix cannot be re-faulted")
    first = plan.first_effect_cycle()
    if first <= snap_cycle:
        raise SnapshotError(
            "fault plan takes effect at cycle %s, at or before the "
            "snapshot cycle %d — fork from an earlier snapshot or gate "
            "the plan with start_cycle" % (first, snap_cycle))
    proc.cfg.faults = plan
    proc.fault_engine = FaultEngine(proc, plan)


def resume(snapshot: Snapshot, *, program: Optional["Program"] = None,
           config: Optional["SimConfig"] = None,
           faults: Optional["FaultPlan"] = None,
           checkpoint_cycles: Optional[Iterable[int]] = None,
           ) -> Tuple["SimResult", "Processor"]:
    """Continue *snapshot* to completion; returns ``(result, processor)``
    exactly like :func:`repro.sim.simulate`.

    *program* and *config*, when given, are cross-checked against the
    snapshot's provenance (listing digest; config dict modulo the two
    overridable knobs) so a snapshot can never silently resume under a
    different machine.  *faults* attaches a plan to a fault-free
    snapshot (validated via ``first_effect_cycle``); *checkpoint_cycles*
    re-arms future checkpoints — labels at or before the snapshot cycle
    are dropped, they already exist in the cold run's history.
    """
    if program is not None and program_digest(program) != snapshot.program_sha:
        raise SnapshotError(
            "program mismatch: snapshot was captured from a different "
            "listing (sha %s...)" % snapshot.program_sha[:12])
    if config is not None:
        mine = _strip_overridables(config.to_dict())
        theirs = _strip_overridables(snapshot.config)
        if mine != theirs:
            diff = sorted(k for k in set(mine) | set(theirs)
                          if mine.get(k) != theirs.get(k))
            raise SnapshotError(
                "config mismatch on %s: a snapshot only resumes under "
                "the machine that captured it (faults/checkpoint_cycles "
                "may be overridden)" % ", ".join(diff))
        if faults is None and config.faults is not None:
            faults = config.faults
        if checkpoint_cycles is None and config.checkpoint_cycles:
            checkpoint_cycles = config.checkpoint_cycles
    proc = snapshot.restore()
    if faults is not None:
        _attach_plan(proc, snapshot.cycle, faults)
    if checkpoint_cycles is not None:
        proc._pending_checkpoints = sorted(
            {int(c) for c in checkpoint_cycles if int(c) > snapshot.cycle})
    result = proc.run()
    return result, proc


__all__ = ["SNAPSHOT_SCHEMA_VERSION", "Snapshot", "SnapshotError",
           "capture_prefix", "program_digest", "resume"]
