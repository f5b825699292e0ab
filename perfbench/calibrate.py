"""Machine-speed calibration for the timing metrics.

The benchmark's host can change speed by up to 2x from one few-second
stretch to the next (a shared VM whose other tenants come and go), and
the process's CPU time follows wall time through these changes, so
neither clock gives figures that two sets of runs can agree on. The
benchmark therefore runs a fixed pure-Python kernel every READING_EVERY_S
seconds of request time, and rescales the request time since the last
reading by

    REFERENCE_KERNEL_S / (mean of the kernel times at both ends)

which reads as "request time on a machine where the kernel takes
REFERENCE_KERNEL_S". A reading that falls due inside a request is taken
there, from a SIGALRM handler, and its own time is left out of the
request's time; so a request of several seconds is rescaled piece by
piece as the machine's speed changes under it. The kernel does not touch
`cliquedyn`, so a change to the library moves the rescaled figures as
much as the raw ones.

The kernel leans on what the library's hot paths lean on: integer bit
operations on vertex masks, Python-level recursion and calls, and small
lists. The collector is off while it runs, so the size of the library's
caches does not leak into the reading.
"""
from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# kernel seconds on the reference machine; any constant would do, this
# one keeps the rescaled figures near the raw ones on a 2-vCPU Xeon VM
REFERENCE_KERNEL_S = 0.012
READING_EVERY_S = 0.5  # request seconds between two readings
READING_REPEATS = 3  # kernel runs per reading; the reading is their median

_N = 80
_rng = random.Random(20220525)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.45:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u
del _rng, _u, _v


def _maximal_cliques(p: int, x: int, adj: list[int], found: list[int]) -> None:
    """Bron-Kerbosch with pivoting; counts maximal cliques into found[0]."""
    if not p and not x:
        found[0] += 1
        return
    u = (p | x).bit_length() - 1
    cand = p & ~adj[u]
    while cand:
        v = cand.bit_length() - 1
        bit = 1 << v
        _maximal_cliques(p & adj[v], x & adj[v], adj, found)
        p &= ~bit
        x |= bit
        cand &= ~bit


def _kernel() -> int:
    found = [0]
    _maximal_cliques((1 << _N) - 1, 0, _ADJ, found)
    degrees = sorted(a.bit_count() for a in _ADJ)
    return found[0] * 1000 + degrees[_N // 2]


_EXPECTED = 3408035


def kernel_seconds(repeats: int = 1) -> float:
    """Median seconds of `repeats` runs of the calibration kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = _kernel()
            times.append(time.perf_counter() - start)
            if result != _EXPECTED:
                raise RuntimeError("calibration kernel gave a different result")
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class ReferenceClock:
    """Times requests in seconds at the reference machine speed.

    Wrap each request in `start(index)` and `stop()`; `stop` returns the
    request's raw seconds, with readings taken inside it left out. The
    rescaled seconds of request i are in `scaled[i]` once `finish` ran.
    """

    def __init__(self):
        self.readings = [kernel_seconds(READING_REPEATS)]
        self.scaled: list[float] = []
        self._pending: list[tuple[int, float]] = []  # (request, raw seconds) since the last reading
        self._pending_s = 0.0
        self._current = -1
        self._mark = 0.0
        self._raw = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def start(self, index: int) -> None:
        self._current = index
        self._raw = 0.0
        # mark first: the alarm may fire as soon as it is armed
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(READING_EVERY_S - self._pending_s, 1e-3))

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_segment()
        self._current = -1
        if self._pending_s >= READING_EVERY_S:
            self._read()
        return self._raw

    def finish(self) -> None:
        if self._pending:
            self._read()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _close_segment(self) -> None:
        took = time.perf_counter() - self._mark
        self._raw += took
        self._pending.append((self._current, took))
        self._pending_s += took

    def _on_alarm(self, signum, frame) -> None:
        if self._current < 0:
            return
        self._close_segment()
        self._read()
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, READING_EVERY_S)

    def _read(self) -> None:
        reading = kernel_seconds(READING_REPEATS)
        factor = REFERENCE_KERNEL_S / statistics.fmean((self.readings[-1], reading))
        self.readings.append(reading)
        for index, took in self._pending:
            while len(self.scaled) <= index:
                self.scaled.append(0.0)
            self.scaled[index] += took * factor
        self._pending.clear()
        self._pending_s = 0.0
