"""A probe of the machine's speed, sampled all through a measured run.

On a shared machine the same check takes from 1x to 1.9x its best time,
depending on what runs beside it, and the slow spells come and go within a
second as well as over minutes.  A run is short, so these spells do not
average out between runs.  The probe measures them: about every 20 ms of
wall time (a random pause of 10 to 30 ms; 10 ms on average during the short
set-ups, so that each gets its own samples) a SIGALRM handler times one fixed
slice of pure-Python work, a sparse polynomial product like the ones the
program spends its time in.  The samples fall uniformly in time, so their
mean is the machine's mean speed over a region, and

    reference seconds = (wall seconds - probe time) * REF_SLICE_NS / mean slice

is the region's time at a fixed reference speed.  The slice is the
benchmark's own code, so a change to the program cannot move it, and the
cyclic garbage collector is paused while it runs, so the program's heap
cannot either.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter_ns

MEAN_INTERVAL_S = 0.02
# enough samples for each short set-up to get its own speed
DENSE_INTERVAL_S = 0.01
MIN_SAMPLES = 10
# one slice on the unloaded machine the benchmark was written on
REF_SLICE_NS = 870_000


def _poly(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    while len(out) < 30:
        out[tuple(rng.randrange(5) for _ in range(4))] = rng.choice((1, -2, 3, 5, -7))
    return out


_A, _B = _poly(1), _poly(2)


def work_slice() -> dict:
    """One product of two 30-term polynomials in 4 variables: tuple
    exponents, int coefficients and a result dict of a few hundred terms."""
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


class SpeedProbe:
    """Samples slice times while started; `on_sample(ns)`, when set, is told
    of each."""

    def __init__(self):
        self.samples = []
        self.on_sample = None
        self._jitter = random.Random(0)
        self._running = False
        self.interval = MEAN_INTERVAL_S

    def _arm(self):
        """Next sample after a random pause, so samples do not lock in step
        with any periodic activity of the machine."""
        pause = self._jitter.uniform(0.5, 1.5) * self.interval
        signal.setitimer(signal.ITIMER_REAL, pause)

    def _handler(self, signum, frame):
        if not self._running:
            return
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        work_slice()
        ns = perf_counter_ns() - start
        if collecting:
            gc.enable()
        self.samples.append(ns)
        if self.on_sample is not None:
            self.on_sample(ns)
        self._arm()

    def start(self):
        self._running = True
        signal.signal(signal.SIGALRM, self._handler)
        self._arm()

    def stop(self):
        # the handler stays installed: a signal already on its way is ignored
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Region:
    """Wall time and probe samples of the calls timed under one metric."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.wall_ns = 0
        self.samples = []

    def time(self, fn, *args):
        """fn(*args), its wall time and its samples added to the region."""
        first = len(self.probe.samples)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.wall_ns += perf_counter_ns() - start
            self.samples += self.probe.samples[first:]

    def reference_s(self, fallback) -> float:
        """Wall time without the probe's slices, at the reference speed;
        `fallback` samples stand in when the region was too short to be
        sampled often."""
        samples = self.samples if len(self.samples) >= MIN_SAMPLES else fallback
        mean = sum(samples) / len(samples)
        return (self.wall_ns - sum(self.samples)) * REF_SLICE_NS / mean / 1e9
