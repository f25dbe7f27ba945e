"""JSON job-spec parsing for ``repro batch``.

A spec is either a bare list of job entries or an object::

    {"defaults": {"config": {"n_cores": 16}, "include_memory": true},
     "jobs": [
       {"id": "qsort",  "workload": "quicksort", "scale": 0, "seed": 1},
       {"id": "sum",    "file": "examples/sum.c"},
       {"id": "inline", "c": "long main() { out(42); return 0; }"},
       {"id": "raw",    "asm": "main:\\n    out $7\\n    hlt\\n"}
     ]}

Each entry names its program exactly one way:

* ``workload`` — a Table 1 short name/key; built at ``scale``/``seed``
  (or explicit ``n``) and fork-transformed unless ``transform`` is false;
* ``file`` — a ``.c`` (MiniC) or ``.s`` (assembly) path, resolved
  relative to the spec file;
* ``c`` — inline MiniC source;
* ``asm`` — inline assembly text.

MiniC compiles in fork mode by default (``"fork": false`` opts out,
``"fork_loops": true`` adds loop forking), matching ``repro simulate``.
``config`` is a :meth:`repro.sim.SimConfig.from_dict` dict, merged over
``defaults.config`` key by key; ``include_memory`` / ``include_trace`` /
``include_events`` shape the payload.  Unknown keys and mistyped values
(a spec that is not an object or list, a non-object ``config``, a
non-integer ``scale``, an unreadable ``file``) are rejected with a
:class:`~repro.errors.ReproError` naming the job's index, so a bad spec
runs nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import ReproError
from ..sim.config import SimConfig
from .job import Job

_PROGRAM_KEYS = ("workload", "file", "c", "asm")
_ENTRY_KEYS = frozenset(_PROGRAM_KEYS) | {
    "id", "scale", "seed", "n", "transform", "fork", "fork_loops",
    "config", "include_memory", "include_trace", "include_events",
}
_DEFAULT_KEYS = frozenset({"config", "include_memory", "include_trace",
                           "include_events", "fork", "fork_loops"})


def _int_field(entry: Dict[str, Any], name: str, default: int) -> int:
    """*entry*'s *name* as an int, or a ReproError naming the key."""
    value = entry.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ReproError("%s must be an integer, got %r"
                         % (name, value)) from None


def _entry_program(entry: Dict[str, Any], base_dir: Path) -> Any:
    """Resolve the entry's program source to an assembled Program."""
    from ..fork import fork_transform
    from ..isa import assemble
    from ..minic import compile_source

    fork = bool(entry.get("fork", True))
    fork_loops = bool(entry.get("fork_loops", False))
    if "workload" in entry:
        from ..workloads import get_workload
        try:
            workload = get_workload(str(entry["workload"]))
        except KeyError as exc:
            raise ReproError(str(exc.args[0])) from None
        n = entry.get("n")
        inst = workload.instance(scale=_int_field(entry, "scale", 0),
                                 seed=_int_field(entry, "seed", 1),
                                 n=None if n is None
                                 else _int_field(entry, "n", 0))
        program = inst.program
        if entry.get("transform", True):
            program = fork_transform(program)
        return program
    if "file" in entry:
        if not isinstance(entry["file"], str):
            raise ReproError("file must be a path string, got %r"
                             % (entry["file"],))
        path = Path(entry["file"])
        if not path.is_absolute():
            path = base_dir / path
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ReproError("cannot read %s: %s"
                             % (path, exc.strerror or exc)) from None
        except UnicodeDecodeError as exc:
            raise ReproError("cannot read %s: not a UTF-8 text file (%s)"
                             % (path, exc)) from None
        if str(path).endswith(".c"):
            return compile_source(source, fork_mode=fork,
                                  fork_loops=fork_loops)
        return assemble(source)
    if "c" in entry:
        return compile_source(str(entry["c"]), fork_mode=fork,
                              fork_loops=fork_loops)
    return assemble(str(entry["asm"]))


def job_from_entry(entry: Dict[str, Any],
                   defaults: Optional[Dict[str, Any]] = None,
                   base_dir: Union[str, Path] = ".") -> Job:
    """Build one :class:`Job` from a spec entry merged over *defaults*."""
    defaults = defaults or {}
    if not isinstance(entry, dict):
        raise ReproError("job entry must be an object, got %r" % (entry,))
    unknown = sorted(set(entry) - _ENTRY_KEYS)
    if unknown:
        raise ReproError("unknown job-spec keys: %s" % ", ".join(unknown))
    sources = [k for k in _PROGRAM_KEYS if k in entry]
    if len(sources) != 1:
        raise ReproError(
            "job entry needs exactly one of %s (got %s)"
            % ("/".join(_PROGRAM_KEYS), ", ".join(sources) or "none"))
    merged = dict(defaults)
    merged.update(entry)
    config_dict: Dict[str, Any] = {}
    for layer in (defaults.get("config"), entry.get("config")):
        if layer is not None and not isinstance(layer, dict):
            raise ReproError("config must be an object, got %r" % (layer,))
        config_dict.update(layer or {})
    try:
        config = SimConfig.from_dict(config_dict)
    except (TypeError, ValueError) as exc:   # a bad knob value or type
        raise ReproError("invalid config: %s" % exc) from None
    program = _entry_program(merged, Path(base_dir))
    return Job.from_program(
        program, config=config,
        job_id=str(entry.get("id", "")),
        include_memory=bool(merged.get("include_memory", False)),
        include_trace=bool(merged.get("include_trace", False)),
        include_events=bool(merged.get("include_events", False)))


def jobs_from_spec(spec: Union[Dict[str, Any], Sequence[Any]],
                   base_dir: Union[str, Path] = ".") -> List[Job]:
    """Parse a whole spec payload (bare list or {defaults, jobs})."""
    defaults: Dict[str, Any] = {}
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - {"defaults", "jobs"})
        if unknown:
            raise ReproError("unknown spec keys: %s" % ", ".join(unknown))
        defaults = spec.get("defaults") or {}
        if not isinstance(defaults, dict):
            raise ReproError("spec defaults must be an object, got %r"
                             % (defaults,))
        bad = sorted(set(defaults) - _DEFAULT_KEYS)
        if bad:
            raise ReproError("unknown defaults keys: %s" % ", ".join(bad))
        entries = spec.get("jobs")
        if entries is not None and not isinstance(entries, (list, tuple)):
            raise ReproError("spec jobs must be a list, got %r"
                             % (entries,))
    elif isinstance(spec, (list, tuple)):
        entries = list(spec)
    else:
        raise ReproError("job spec must be an object or a list, got %r"
                         % (spec,))
    if not entries:
        raise ReproError("job spec lists no jobs")
    jobs = []
    for index, entry in enumerate(entries):
        try:
            job = job_from_entry(entry, defaults, base_dir)
        except ReproError as exc:
            raise ReproError("job %d: %s"
                             % (index, getattr(exc, "raw_message", None)
                                or str(exc))) from None
        if not entry.get("id"):
            job.job_id = "job-%d-%s" % (index, job.key()[:8])
        jobs.append(job)
    return jobs
