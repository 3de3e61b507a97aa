"""The host's speed, read from a fixed reference loop, to correct timings.

The machine this benchmark was written on is a share of a busy host: the
same pure-Python loop runs 30-40 % slower in some minutes than in others,
and every sweep with it, so wall times of the same code taken minutes apart
spread by more than any bound worth keeping.  The reference loop here does
the same kind of work as the program's hot path (dicts keyed by small int
tuples, tuple arithmetic) on fixed data and imports nothing from
``combspectra``, so no change to the program can change it.

``SpeedProbe`` runs the loop every ``PERIOD_S`` of wall time while a
measurement is under way, in the processes that do the measured work (the
pool workers the program forks, at ``--workers 2``), and reads the loop's
CPU time: how fast the core it ran on went.  Each stretch of wall time
between two samples is scaled by ``REFERENCE_S`` over the speed there, and
the loops' own share is taken off, so the result reads in seconds at the
reference speed.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import struct
import time

_clock = time.perf_counter

# CPU seconds of one reference loop at the reference speed: about its
# median on a 2-core Xeon VM at 2.0 GHz (Python 3.11.7).
REFERENCE_S = 0.0125

# Wall seconds between two samples during a measurement.
PERIOD_S = 0.25

_RECORD = struct.Struct("dd")  # a sample sent from a pool worker: wall start, CPU seconds

_TERMS = [{(i % 5 + j, j % 3): (i - 2 * j, j + 1) for j in range(4)} for i in range(48)]


def reference_loop() -> int:
    """Fixed work: products of small term maps, accumulated into a dict."""
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for a in _TERMS:
        for b in _TERMS[::2]:
            for (ax, ay), (ar, ai) in a.items():
                for (bx, by), (br, bi) in b.items():
                    key = (ax + bx, ay + by)
                    cur = acc.get(key, (0, 0))
                    acc[key] = (cur[0] + ar * br - ai * bi, cur[1] + ar * bi + ai * br)
    return len(acc)


def _timed_loop() -> tuple[float, float]:
    collecting = gc.isenabled()
    gc.disable()  # no collection of the program's objects inside a sample
    try:
        start, cpu = _clock(), time.thread_time()
        reference_loop()
        return start, time.thread_time() - cpu
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Context manager that times what runs inside it at the reference speed.

    One sample is taken right before the clock starts and one right after it
    stops.  In between, a ``SIGALRM`` handler takes one every ``PERIOD_S``:
    in this process when ``workers`` is 1, else in every process forked
    meanwhile (the program's pool workers), which send their samples back
    through a pipe.  Each sample holds up the work of its process by its CPU
    time; that hold-up, shared over ``workers``, is taken off.  After the
    block, ``wall_s`` is the plain wall time, ``program_s`` the wall time
    less the hold-up, and ``corrected_s`` the time at the reference speed.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.samples: list[tuple[float, float]] = []  # (wall start, CPU seconds)
        self.wall_s = self.program_s = self.corrected_s = float("nan")

    def _sample(self, *_signal) -> None:
        self.samples.append(_timed_loop())

    def _send(self, *_signal) -> None:
        try:
            os.write(self._pipe[1], _RECORD.pack(*_timed_loop()))
        except BlockingIOError:  # pipe full: the sample is dropped
            pass

    def _start_timer(self, handler) -> None:
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _received(self) -> list[tuple[float, float]]:
        data = b""
        while True:
            try:
                chunk = os.read(self._pipe[0], 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        usable = len(data) - len(data) % _RECORD.size
        return sorted(_RECORD.iter_unpack(data[:usable]))

    def __enter__(self) -> "SpeedProbe":
        global _active
        self.samples = []
        self._sample()
        if self.workers == 1:
            self._start_timer(self._sample)
        else:
            self._pipe = os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC)
            _active = self
        self._start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        global _active
        end = _clock()
        if self.workers == 1:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # Ignored from now on: a late alarm must not end the process.
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        else:
            _active = None
            self.samples += [s for s in self._received() if self._start <= s[0] <= end]
            for fd in self._pipe:
                os.close(fd)
        self._sample()
        inner = self.samples[1:-1]
        points = [self._start, *(start for start, _ in inner), end]
        speeds = [cpu for _, cpu in self.samples]
        stretches = sum(
            (b - a) * 2 / (s0 + s1) for a, b, s0, s1 in zip(points, points[1:], speeds, speeds[1:])
        )
        # A sample of CPU time c at speed c is REFERENCE_S at the reference speed.
        self.wall_s = end - self._start
        self.program_s = self.wall_s - sum(cpu for _, cpu in inner) / self.workers
        self.corrected_s = REFERENCE_S * (stretches - len(inner) / self.workers)

    @property
    def speed(self) -> float:
        """Median reference-loop CPU seconds over the samples (lower is faster)."""
        return statistics.median(cpu for _, cpu in self.samples)


# The probe of a multi-worker measurement under way, if any.
_active: SpeedProbe | None = None


def _after_fork_in_child() -> None:
    probe = _active
    if probe is not None:
        probe._start_timer(probe._send)


os.register_at_fork(after_in_child=_after_fork_in_child)
