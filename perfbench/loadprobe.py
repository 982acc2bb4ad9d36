"""Load correction for timings taken on a shared host.

Load on a shared host comes in bursts, from seconds to longer than a whole
run, that slow every kind of work here by up to 1.8x in wall and CPU time
alike.  Every timed unit of work is paired with probes: a fixed piece of
reference work that runs no lastlayer code.  The unit's load is its probe
time over PROBE_REF_S.  Over windows whose raw time varied by 50%, workload
time over probe time held within a few per cent, so a duration divided by
its load does not depend on the load it ran under.  A change to lastlayer
moves the workload but not the probe, so it shows in full.

``LoadMeter`` probes between units, for short units of mostly numpy work
(posterior rounds, imports, set-ups).  ``LoadSampler`` probes inside a
unit, for training: a ``lastlayer run`` takes seconds, and load comes and
goes within it; a 100-epoch trainer call is shorter, but its interpreter-bound
work tracks one probe on either side poorly (spread over seeds, IQR over
median, of 10% against 2-4% with probes inside the call, on a 2-vCPU shared
host).
"""

import signal
import statistics
import time

import numpy as np

PROBE_ITERS = 250
SAMPLE_ITERS = 50
SAMPLE_INTERVAL_S = 0.02
# Sets the scale of corrected times: the usual probe time on the machine the
# bounds were set on (2 vCPU Xeon, Python 3.11, numpy 2.4, one BLAS thread),
# so corrected times read as times at that machine's usual load.
PROBE_REF_S = 2.5e-3

_X = np.random.default_rng(2024).standard_normal((48, 21))
_W = 0.1 * np.random.default_rng(2025).standard_normal((21, 21))


def probe_seconds(iters=PROBE_ITERS):
    """Time the reference work: small matmuls and tanh.

    The same mix of interpreter and small-array work as the trainers and
    queries, so load on the host slows the probe and the workload alike.  It
    allocates nothing the cyclic garbage collector tracks, so it never pays
    for garbage the workload left behind.
    """
    started = time.perf_counter()
    for _ in range(iters):
        h = np.tanh(_X @ _W)
        float((h.T @ h)[0, 0])
    return time.perf_counter() - started


class LoadMeter:
    """Times units of work and the host load around each of them."""

    def __init__(self):
        self.loads = []
        self._last = probe_seconds()

    def timed(self, call):
        """Run ``call``; returns (result, seconds, load).

        ``load`` is the harmonic mean (see LoadSampler.timed) of the probe
        taken after the previous unit and the one taken after this unit,
        over PROBE_REF_S; seconds / load is the load-corrected time.
        """
        started = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - started
        now = probe_seconds()
        self.loads.append(statistics.harmonic_mean([self._last, now]) / PROBE_REF_S)
        self._last = now
        return result, seconds, self.loads[-1]


class LoadSampler:
    """Times long units of work with the load sampled while they run."""

    def __init__(self):
        self.loads = []

    def timed(self, call):
        """Run ``call``; returns (result, seconds, load).

        A SIGALRM timer interrupts the main thread every SAMPLE_INTERVAL_S to
        time a short probe.  ``seconds`` leaves the probes out.  Work done is
        the integral of speed, 1 / load, over time, so ``load`` is the
        harmonic mean of the probes' loads, not their median: the median of a
        unit that spent half its time under load flips between the two
        levels.
        """
        durations = []
        busy = []

        def sample(signum, frame):
            if not busy:
                busy.append(True)
                durations.append(probe_seconds(SAMPLE_ITERS))
                busy.clear()

        previous = signal.signal(signal.SIGALRM, sample)
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - started - sum(durations)
        if not durations:
            durations.append(probe_seconds(SAMPLE_ITERS))
        scale = PROBE_ITERS / SAMPLE_ITERS / PROBE_REF_S
        self.loads.append(statistics.harmonic_mean(durations) * scale)
        return result, seconds, self.loads[-1]
