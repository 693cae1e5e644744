"""Host-speed probe and the normalisation rule for CPU-bound timings.

The machine this benchmark was calibrated on is a shared 2-core KVM
guest (Intel Xeon, 2.0 GHz) whose two vCPUs each switch, independently
and every second or so, between a fast and a slow state (a small Python
loop takes 8 ms in one and 12 ms in the other), with nothing else
running in the guest; all of the extra time is user CPU time, with no
page faults or preemption. A default sweep slows by up to 1.8x. A probe
run only before and after a sweep misses the switches in between, so
the speed is sampled *during* the timed phase:

* :class:`HostSpeed`, used as a context manager, runs one slice of the
  reference kernel from a ``SIGALRM`` handler every 50 ms, on the main
  thread between bytecodes (well under 1 ms, so about 1% of the phase).
* :meth:`HostSpeed.probe` runs :data:`SLICES_PER_PROBE` slices back to
  back (about 10-20 ms) between timed phases; its median over the run is
  the ``host_ref_ms`` a traced run reports. Back to back, the slices
  find their data in cache, so a probe reads about half of what the
  same slices scaled up read in the middle of a sweep.

The slice is fixed work of the kinds the sweep does, importing nothing
from ``repro``: an interpreted integer loop, reads of a 400k-element
list in a fixed random order (misses in the core's own caches), and a
numpy sort. A phase's normalised time divides its wall time, less the
slices' own time, by the mean slice time seen during it, scaled to a
full probe, and multiplies by a fixed nominal probe time:

    normalised_s = wall_s * REF_NOMINAL_MS / host_ms_during_phase

A phase too short to catch a slice falls back to the mean of the two
probes around it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

#: In-phase host time (ms, slices scaled to a probe) that defines the
#: "nominal host": a normalised second is a second of a phase whose
#: slices averaged ``REF_NOMINAL_MS / SLICES_PER_PROBE``, about what the
#: calibration host's fast state gives. Changing it rescales every
#: normalised figure, so it is a fixed constant, never re-measured.
REF_NOMINAL_MS = 24.0

#: Probe runs per probe reading; the reading is their median.
PROBE_REPEATS = 3
SLICES_PER_PROBE = 32
SAMPLE_INTERVAL_S = 0.05

_rng = np.random.default_rng(20180702)
_LIST = [float(x) for x in _rng.random(400_000)]
_READS = [int(i) for i in _rng.permutation(len(_LIST))[:2000]]
_SORT_INPUT = _rng.random(2500)


def _slice() -> None:
    acc = 0
    for i in range(3000):
        acc = (acc + i * i) % 1_000_003
    data = _LIST
    total = 0.0
    for index in _READS:
        total += data[index]
    np.sort(_SORT_INPUT)


def _timed_slice() -> float:
    began = time.perf_counter()
    _slice()
    return time.perf_counter() - began


class HostSpeed:
    """The probe and the in-phase sampler of one run (see the module doc)."""

    def __init__(self) -> None:
        #: ``(perf_counter at start, seconds)`` of every in-phase slice.
        self.samples: "list[tuple[float, float]]" = []
        self._previous: object = None

    def probe(self, repeats: int = PROBE_REPEATS) -> float:
        """Median of ``repeats`` full probes, in ms."""
        return statistics.median(
            sum(_timed_slice() for _ in range(SLICES_PER_PROBE)) * 1000.0
            for _ in range(repeats)
        )

    def sample(self) -> None:
        """Run and record one slice now."""
        began = time.perf_counter()
        self.samples.append((began, _timed_slice()))

    def sample_each_cpu(self) -> None:
        """Run and record one slice on each CPU this thread may use, then
        give the thread back its CPUs (for work spread over every CPU)."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                self.sample()
        finally:
            os.sched_setaffinity(0, allowed)

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(
        self, began: float, ended: float, fallback_ms: float, exponent: float = 1.0
    ) -> "tuple[float, float]":
        """``(raw_s, normalised_s)`` of a phase between two ``perf_counter``
        readings: its wall time less the slices that ran inside it, and
        that time rescaled by their mean (by ``fallback_ms``, a probe
        reading, when none ran); ``exponent`` as for :func:`normalise`."""
        inside = [d for start, d in self.samples if began <= start <= ended]
        wall = ended - began - sum(inside)
        host_ms = (
            statistics.fmean(inside) * SLICES_PER_PROBE * 1000.0 if inside else fallback_ms
        )
        return wall, normalise(wall, host_ms, exponent)


def steal_s() -> float:
    """CPU time the hypervisor has taken from this guest's CPUs since boot,
    in seconds (0.0 where ``/proc/stat`` does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def normalise(wall_s: float, host_ms: float, exponent: float = 1.0) -> float:
    """``wall_s`` rescaled to the nominal host (see the module doc).

    ``exponent`` is for work that slows more steeply than the slices
    when the host slows: the time is divided by the host factor raised
    to that power.
    """
    return wall_s * (REF_NOMINAL_MS / host_ms) ** exponent
