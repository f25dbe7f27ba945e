"""Content-addressed on-disk result cache.

Entries live at ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directories small on big sweeps) and wrap the payload in an envelope::

    {"schema": SCHEMA_VERSION, "key": "<sha256>", "payload": {...}}

Reads are **fail-open**: anything suspicious — unreadable file, invalid
JSON, a non-dict envelope, a stale schema version, a stored key that does
not match the requested one — is treated as a miss, so a poisoned entry
is recomputed rather than served.  Writes are atomic (temp file +
``os.replace`` in the same directory), so a crashed or concurrent writer
can leave at worst a stale temp file, never a torn entry.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .job import SCHEMA_VERSION

#: distinguishes temp files written by different handles in one process
#: (two threads, each with its own handle) so concurrent same-key writers
#: can never collide on the temp path even with equal pids
_PUT_COUNTER = itertools.count()


class ResultCache:
    """Directory-backed map from job content address to result payload."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: host-domain telemetry over this handle's lifetime: ``hits``,
        #: ``misses`` (no file), ``healed`` (a file existed but was
        #: poisoned — corrupt JSON, stale schema, key mismatch — and will
        #: be recomputed).  Surfaced by ``repro batch`` summaries; never
        #: part of cached payloads.
        self.stats: Dict[str, int] = {"hits": 0, "misses": 0, "healed": 0}

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for *key*, or None on miss/poison."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            entry: Any = json.loads(text)
        except ValueError:
            entry = None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if (not isinstance(entry, dict)
                or entry.get("schema") != SCHEMA_VERSION
                or entry.get("key") != key
                or not isinstance(payload, dict)):
            self.stats["healed"] += 1
            return None
        self.stats["hits"] += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically store *payload* under *key*; returns the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema": SCHEMA_VERSION, "key": key,
                    "payload": payload}
        tmp = path.parent / (".%s.tmp.%d.%d"
                             % (key, os.getpid(), next(_PUT_COUNTER)))
        try:
            tmp.write_text(json.dumps(envelope, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError:
            # a failed write (full disk, revoked permissions) must not
            # leave a stale temp file accumulating next to the entries
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
