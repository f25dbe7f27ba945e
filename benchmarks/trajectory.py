"""Machine-readable perf history: one normalized row per gated run.

``check_regression.py`` appends a row to
``benchmarks/results/TRAJECTORY.jsonl`` every time the gate runs (unless
``--update``), so the repo accumulates a
trajectory of its own performance — speedups, per-workload cycle totals,
cache hit rate and a digest of the batch engine's host metrics — instead
of only ever knowing its latest BENCH snapshot.  Rows are append-only
JSONL: one JSON object per line, stable keys, schema-versioned, so a
dashboard (or ``pandas.read_json(..., lines=True)``) can plot the whole
history without migrations.

The file deliberately does NOT match the ``BENCH_*.json`` pattern: the
gate's artifact census tracks deterministic baselines, while trajectory
rows carry wall-clock-derived ratios whose drift is an observation.

CLI::

    PYTHONPATH=src python benchmarks/trajectory.py --check   # validate
    PYTHONPATH=src python benchmarks/trajectory.py --show 5  # tail rows
    PYTHONPATH=src python benchmarks/trajectory.py --smoke   # round-trip
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import RESULTS_DIR  # noqa: E402

#: bumped whenever the row shape changes, so readers can gate on it
TRAJECTORY_SCHEMA_VERSION = 1

TRAJECTORY_PATH = RESULTS_DIR / "TRAJECTORY.jsonl"

REPO_ROOT = Path(__file__).resolve().parent.parent

#: a row's ``commit``: a short hash, marked ``+dirty`` when the measured
#: tree had tracked changes on top of that commit
COMMIT_PATTERN = re.compile(r"[0-9a-f]{4,40}(\+dirty)?")

#: fields every row must carry (type-checked by validate_row)
REQUIRED_FIELDS = {
    "schema_version": int,
    "ts": str,
    "passed": bool,
    "failures": list,
}


def _git_commit(root: Path = REPO_ROOT) -> Optional[str]:
    """Short commit hash of the working tree at *root*, with ``+dirty``
    appended when tracked files differ from that commit (a gate run
    before its change is committed measures the change, not HEAD).
    None outside git, without a git binary, or when the tree's state
    cannot be read (rows stay useful either way)."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=str(root),
                              capture_output=True, text=True, timeout=10,
                              check=False)

    try:
        head = git("rev-parse", "--short", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return None
    commit = head.stdout.strip()
    if head.returncode != 0 or not commit or status.returncode != 0:
        return None
    return commit + "+dirty" if status.stdout.strip() else commit


def host_metrics_digest(host_metrics: Optional[Dict[str, Any]]) -> Optional[str]:
    """Short content digest of a host-domain metrics export.  Wall-clock
    values differ every run, so the digest is a *fingerprint* for "which
    telemetry payload produced this row", not a comparison key."""
    if host_metrics is None:
        return None
    canonical = json.dumps(host_metrics, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def build_row(passed: bool, failures: List[str],
              fast_path: Optional[Dict[str, Any]] = None,
              kernel_256: Optional[Dict[str, Any]] = None,
              sweep_report: Optional[Any] = None,
              tolerance: Optional[float] = None,
              now: Optional[float] = None) -> Dict[str, Any]:
    """Fold one gate run's fresh measurements into a trajectory row.

    *fast_path* / *kernel_256* are the fresh dicts from
    ``check_regression.run_fast_path`` / ``run_kernel_256``;
    *sweep_report* is the ``--full`` sweep's BatchReport (or None when
    the sweep did not run).  Rows written before the vector kernel's
    removal carry ``vector_*`` keys and ``vector:``-prefixed cycles for
    the same 256-core subset, then timed against the vector kernel, and
    rows written before the serving layer's removal carry a ``serve``
    block of its latencies; they stay as written.
    """
    row: Dict[str, Any] = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                            time.gmtime(now if now is not None
                                        else time.time())),
        "commit": _git_commit(),
        "passed": passed,
        "failures": list(failures),
    }
    if tolerance is not None:
        row["tolerance"] = tolerance
    cycles: Dict[str, int] = {}
    if fast_path is not None:
        row["fast_path_speedup"] = round(fast_path["aggregate_speedup"], 4)
        row["fast_path_floor"] = round(fast_path["floor_speedup"], 4)
        for record in fast_path["workloads"]:
            cycles[record["benchmark"]] = record["cycles"]
    if kernel_256 is not None:
        row["kernel_256_speedup"] = round(kernel_256["aggregate_speedup"],
                                          4)
        row["kernel_256_floor"] = round(kernel_256["floor_speedup"], 4)
        for record in kernel_256["workloads"]:
            cycles.setdefault("kernel_256:%s" % record["benchmark"],
                              record["cycles"])
    if cycles:
        row["cycles"] = dict(sorted(cycles.items()))
        row["cycles_total"] = sum(cycles.values())
    if sweep_report is not None:
        stats = sweep_report.cache_stats or {}
        lookups = sum(stats.get(k, 0) for k in ("hits", "misses", "healed"))
        row["cache"] = {
            "hits": stats.get("hits", 0),
            "misses": stats.get("misses", 0),
            "healed": stats.get("healed", 0),
            "hit_rate": (round(stats.get("hits", 0) / lookups, 4)
                         if lookups else None),
        }
        row["sweep_jobs"] = len(sweep_report.outcomes)
        row["host_digest"] = host_metrics_digest(sweep_report.host_metrics)
    return row


def append_row(row: Dict[str, Any],
               path: Path = TRAJECTORY_PATH) -> Path:
    """Append *row* as one JSONL line (creating the file if needed)."""
    problems = validate_row(row)
    if problems:
        raise ValueError("refusing to append invalid trajectory row: %s"
                         % "; ".join(problems))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def load_rows(path: Path = TRAJECTORY_PATH) -> List[Dict[str, Any]]:
    """All rows, oldest first; empty when no history exists yet."""
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


def validate_row(row: Any) -> List[str]:
    """Schema problems of one row ([] = valid)."""
    problems = []
    if not isinstance(row, dict):
        return ["row is not an object: %r" % (row,)]
    for name, kind in REQUIRED_FIELDS.items():
        if name not in row:
            problems.append("missing field %r" % name)
        elif not isinstance(row[name], kind):
            problems.append("field %r is %s, expected %s"
                            % (name, type(row[name]).__name__,
                               kind.__name__))
    if row.get("schema_version") not in (None, TRAJECTORY_SCHEMA_VERSION):
        problems.append("unknown schema_version %r" % row["schema_version"])
    commit = row.get("commit")
    if commit is not None and not (isinstance(commit, str)
                                   and COMMIT_PATTERN.fullmatch(commit)):
        problems.append("field 'commit' is %r, expected a short hash, "
                        "optionally marked +dirty" % (commit,))
    return problems


def validate_file(path: Path = TRAJECTORY_PATH) -> List[str]:
    """Schema problems across the whole history file ([] = valid)."""
    problems = []
    if not path.exists():
        return problems
    for i, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            problems.append("line %d: invalid JSON (%s)" % (i, exc))
            continue
        problems.extend("line %d: %s" % (i, p) for p in validate_row(row))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="inspect/validate the perf-trajectory history "
                    "(benchmarks/results/TRAJECTORY.jsonl)")
    parser.add_argument("--check", action="store_true",
                        help="validate every row; exit 1 on problems")
    parser.add_argument("--show", type=int, metavar="N", default=None,
                        help="print the last N rows")
    parser.add_argument("--smoke", action="store_true",
                        help="build + append + reload a synthetic row in a "
                             "temp file (CI self-test; touches nothing)")
    args = parser.parse_args(argv)

    if args.smoke:
        import tempfile
        row = build_row(passed=True, failures=[],
                        fast_path={"aggregate_speedup": 3.0,
                                   "floor_speedup": 2.5,
                                   "workloads": [{"benchmark": "smoke",
                                                  "cycles": 123}]})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "TRAJECTORY.jsonl"
            append_row(row, path)
            append_row(dict(row, passed=False, failures=["x"]), path)
            rows = load_rows(path)
            assert len(rows) == 2 and rows[0]["cycles_total"] == 123
            assert not validate_file(path)
        print("trajectory smoke ok (row: %s)"
              % json.dumps(row, sort_keys=True))
        return 0

    if args.check:
        problems = validate_file()
        if problems:
            for problem in problems:
                print("error: %s" % problem, file=sys.stderr)
            return 1
        print("%s: %d rows, all valid"
              % (TRAJECTORY_PATH.name, len(load_rows())))
        return 0

    rows = load_rows()
    show = args.show if args.show is not None else 10
    if not rows:
        print("no trajectory yet (%s missing) — run "
              "benchmarks/check_regression.py to record the first row"
              % TRAJECTORY_PATH)
        return 0
    for row in rows[-show:]:
        print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
