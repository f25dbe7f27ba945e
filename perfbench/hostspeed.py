"""Host-speed sampling for the benchmark's timings.

The reference machine (a 2-core Intel Xeon VM) shares its cores and its
L3 cache with other tenants, and its speed swings by up to 1.5x within
seconds.  Raw host seconds of unchanged code moved by a fifth between
runs, and their medians by a third between two sets of runs.

So a :class:`Probe` times each unit of work and samples the host's speed
inside it: a short fixed loop of dict updates, run a few times right
before and right after the unit and, from a timer signal, every
:data:`INTERVAL_S` while the unit runs.  The unit's seconds, less the
samples' own, are scaled to the reference speed::

    scaled = seconds * REFERENCE_S / mean(sample seconds)

The loop uses only the standard library, never ``repro``, so a change to
the program cannot move it.  It touches a few kilobytes, and an untimed
warm-up brings them back into the cache before each sample, so the
program's own cache footprint cannot move it either: cold, the first
sample after a simulation read up to twice a warm one, which would have
made a change that shrinks the simulator's memory look slower.  Samples
taken all through a unit follow the host's swings within it, which one
calibration before and after a multi-second unit cannot.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, List, Optional, Tuple

#: seconds between two samples while a unit runs
INTERVAL_S = 0.04
#: samples taken right before and right after each unit, so that a unit
#: shorter than INTERVAL_S still has some
BRACKET = 3
#: updates in one sample (about 0.4 ms)
STEPS = 3000
#: untimed updates before each sample, which bring the loop's few
#: kilobytes back into the cache
WARM_STEPS = 512
#: mean seconds of one sample on the reference machine in its usual state
REFERENCE_S = 0.0004


class Probe:
    """Times calls at the reference host speed.  It owns ``SIGALRM`` for
    the life of the process, so it runs only in the main thread, and a
    signal arriving after a unit ends is dropped instead of reaching the
    default action."""

    def __init__(self) -> None:
        self._table = {key: key for key in range(256)}
        self._inside: Optional[List[float]] = None
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self._inside is not None:
            start = time.perf_counter()
            self._inside.append(self.sample())
            self._spent += time.perf_counter() - start

    def _loop(self, steps: int) -> None:
        table, total = self._table, 0
        for i in range(steps):
            table[i & 255] = total & 1023
            total += table[(i * 7) & 255]

    def sample(self) -> float:
        """Host seconds of one warm pass of the fixed loop."""
        self._loop(WARM_STEPS)
        start = time.perf_counter()
        self._loop(STEPS)
        return time.perf_counter() - start

    def time(self, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Tuple[Any, float]:
        """(fn's value, its host seconds at the reference speed)."""
        samples = [self.sample() for _ in range(BRACKET)]
        inside: List[float] = []
        self._inside, self._spent = inside, 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            spent = self._spent
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._inside = None
        samples += inside + [self.sample() for _ in range(BRACKET)]
        seconds = elapsed - spent
        mean = sum(samples) / len(samples)
        return value, seconds * REFERENCE_S / mean
