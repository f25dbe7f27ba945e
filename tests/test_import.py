"""Cold start: ``import repro`` loads the simulator, not an event loop
and no retired subsystem."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_import_repro_loads_no_event_loop():
    # a fresh interpreter: this process already has pytest's imports
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                           if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('\\n'.join(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "asyncio" not in loaded
    subpackages = {name.split(".")[1] for name in loaded
                   if name.startswith("repro.")}
    assert subpackages.isdisjoint({"serve", "snapshot"})
