"""Host-speed reference for the timed runs.

On a shared host the CPU's speed moves by up to 1.6x within seconds, for
the same single-threaded loop, and a median over a run does not average
that out between runs. So every timed interval is read against a fixed
reference chunk (Python object, dict, heap and string work plus small
numpy operations, the kinds of work the program does) that is sampled
during the interval: between blocks of frames on `phy_codec`, from an
interval timer inside the simulation process(es) on the sims, and around
set-up. A time is then reported as the host seconds the work took, net
of the sampling, scaled to a host on which one chunk takes NOMINAL_CHUNK_S.
A faster program still shows as fewer seconds; a host phase that slows
program and chunk alike cancels.

All timestamps are CLOCK_MONOTONIC nanoseconds, which every process on
the machine shares.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
import time
from contextlib import contextmanager

import numpy as np

# Seconds one chunk takes on the host the scaled times refer to (about the
# middle of what a 2 GHz Xeon core of a shared host gives).
NOMINAL_CHUNK_S = 0.0025
CHUNK_ROUNDS = 300
# Interval of the sampling timer: the chunk adds about a tenth to the
# host time, and a speed phase (0.5 s or longer) spans many samples.
TICK_S = 0.03


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class _Slot:
    __slots__ = ("count", "load", "name")

    def __init__(self, i: int):
        self.count = i
        self.load = 0
        self.name = f"n{i:02d}"


def chunk(rounds: int = CHUNK_ROUNDS) -> int:
    """The reference work: always the same, independent of the program."""
    rng = random.Random(7)
    slots = [_Slot(i) for i in range(32)]
    by_name = {s.name: s for s in slots}
    heap: list[tuple[int, int]] = []
    lines = []
    bits = np.zeros(64, dtype=np.uint8)
    for r in range(rounds):
        for s in slots:
            if rng.random() < 0.5:
                s.load += s.count & 7
        heapq.heappush(heap, (rng.randrange(1000), r))
        if len(heap) > 64:
            heapq.heappop(heap)
        s = by_name[f"n{r % 32:02d}"]
        lines.append(f"{r},{s.name},{s.load},{s.count:04x}")
        if r % 4 == 0:
            np.array_equal(np.concatenate([bits[: r % 64], bits[r % 64 :]]), bits)
    return len(lines)


class Meter:
    """Reference samples (start_ns, end_ns) taken by one process."""

    def __init__(self, sink: int | None = None):
        self.samples: list[tuple[int, int]] = []
        self._sink = sink

    def sample(self, *_signal_args) -> None:
        start = now_ns()
        chunk()
        end = now_ns()
        self.samples.append((start, end))
        if self._sink is not None:
            os.write(self._sink, f"{start} {end}\n".encode())

    def tick(self) -> None:
        """Sample if TICK_S has passed since the last sample; for loops
        that sample between their own steps."""
        if not self.samples or now_ns() - self.samples[-1][1] >= TICK_S * 1e9:
            self.sample()

    @contextmanager
    def ticking(self):
        """Sample every TICK_S of wall time while the body runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


def tick_in_forked_children(prefix: str) -> None:
    """Make every process forked from now on sample itself every TICK_S
    until it exits, appending its samples to `<prefix>.<pid>`. The
    program's process pool forks its workers, so their host time is read
    against samples taken in the same processes."""

    def arm() -> None:
        # The file stays open for the life of the process.
        fd = os.open(f"{prefix}.{os.getpid()}", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        meter = Meter(sink=fd)
        signal.signal(signal.SIGALRM, meter.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    os.register_at_fork(after_in_child=arm)


def read_samples(path) -> list[tuple[int, int]]:
    out = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2:  # a process killed mid-write leaves half a line
                out.append((int(parts[0]), int(parts[1])))
    return out


def _speed(reads) -> float:
    return sum(NOMINAL_CHUNK_S * 1e9 / (e - s) for s, e in reads) / len(reads)


def scaled_s(start_ns: int, end_ns: int, processes: list[list[tuple[int, int]]]) -> float:
    """Seconds of work in [start_ns, end_ns] at the nominal host speed.

    `processes` holds each sampling process's samples. A process's speed
    is the mean over its samples inside the interval and its nearest one
    on either side, each read as NOMINAL_CHUNK_S / its duration; with
    samples evenly spaced in time that mean is the work the host did for
    it per second over the interval. Where several processes sampled
    inside the interval they ran in parallel, and the slowest one sets
    the wall time, so its speed and its sampling time are the ones taken
    out. An interval no process sampled inside (set-up) takes the nearest
    sample of any process on either side."""
    slowest = None
    before = after = None
    for samples in processes:
        inside, own_before, own_after, sampling = [], None, None, 0
        for s, e in samples:
            if e <= start_ns:
                if own_before is None or e > own_before[1]:
                    own_before = (s, e)
            elif s >= end_ns:
                if own_after is None or s < own_after[0]:
                    own_after = (s, e)
            else:
                inside.append((s, e))
                sampling += min(e, end_ns) - max(s, start_ns)
        if own_before is not None and (before is None or own_before[1] > before[1]):
            before = own_before
        if own_after is not None and (after is None or own_after[0] < after[0]):
            after = own_after
        if inside:
            reads = inside + [x for x in (own_before, own_after) if x is not None]
            speed = _speed(reads)
            if slowest is None or speed < slowest[0]:
                slowest = (speed, sampling)
    if slowest is None:
        reads = [x for x in (before, after) if x is not None]
        if not reads:
            raise ValueError("no reference sample near the interval")
        slowest = (_speed(reads), 0)
    speed, sampling = slowest
    return (end_ns - start_ns - sampling) / 1e9 * speed
