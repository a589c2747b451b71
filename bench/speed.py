"""A speed probe that rescales measured times to a reference interpreter speed.

The benchmark runs on a few cores of a shared host, and their speed drifts:
the same pass takes up to twice as long when co-tenants are busy, and the
slow spells last from under a second to minutes, with CPU time equal to wall
time throughout.  A fixed pure-Python loop (``probe_loop``) slows down with
them: over 1.4 s blocks its time correlates at 0.92 with the time of a
``stabdyn`` instance run beside it.  So the benchmark times the probe next to
the work and reports each stretch of work at the speed where the probe takes
``PROBE_REF_S``:

    reference seconds = measured seconds * PROBE_REF_S / probe seconds

During a pass, ``SpeedProbe`` runs the probe from a ``SIGALRM`` handler every
``PROBE_PERIOD_S``, so the stretches between probes are short next to the
slow spells.  The probe shares no code or data with ``stabdyn``, so a change
to the program moves only the work it times.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_STEPS = 12000      # about 1 ms at the reference speed
PROBE_REF_S = 0.001      # the probe's time at the reference speed
PROBE_PERIOD_S = 0.05    # one probe per 50 ms of a pass, about 3% of its time
PROBE_WINDOW = 3         # probes on each side of a stretch whose median rates it
SETUP_PROBES = 9         # probes right after set-up, to rate it

_TABLE = {i: (i * 7919) % 251 for i in range(251)}


def probe_loop() -> int:
    """Fixed interpreter work: small-dict lookups and integer arithmetic,
    with no allocation that outlives it, so it leaves the garbage collector's
    counts and the program's caches as they were."""
    table, key, acc = _TABLE, 1, 0
    for i in range(PROBE_STEPS):
        key = table[(key + i) % 251]
        acc ^= key
    return acc


def probe_seconds() -> float:
    start = time.perf_counter()
    probe_loop()
    return time.perf_counter() - start


def setup_probe_s() -> float:
    """The median probe time right after set-up, which rates the set-up."""
    return statistics.median(probe_seconds() for _ in range(SETUP_PROBES))


class SpeedProbe:
    """Runs the probe every ``PROBE_PERIOD_S`` while it is entered, and keeps
    (start, duration) of each run.  Times between ``__enter__`` and
    ``__exit__`` can then be split into work and probe time, and the work
    rescaled by ``reference``."""

    def __init__(self):
        self.marks = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe_loop()
        self.marks.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference(self, begin: float, end: float) -> tuple:
        """(work seconds, reference seconds) of the interval [begin, end]
        of ``time.perf_counter``, inside the entered span.  Probe runs are
        taken out; each stretch between two probes is rescaled by the median
        of the ``PROBE_WINDOW`` probes on either side of it, so one probe
        that the scheduler interrupted does not rate a stretch alone."""
        durations = [d for _, d in self.marks]
        work = ref = 0.0
        for k in range(len(self.marks) - 1):
            start, duration = self.marks[k]
            low, high = max(begin, start + duration), min(end, self.marks[k + 1][0])
            if high <= low:
                continue
            window = durations[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW]
            work += high - low
            ref += (high - low) * PROBE_REF_S / statistics.median(window)
        return work, ref
