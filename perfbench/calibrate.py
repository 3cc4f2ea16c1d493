"""Machine-speed calibration, so that timings taken minutes apart on a
shared machine can be compared.

On the 2-core box the benchmark was defined on, the speed of the
machine drifts with its neighbours' load: back-to-back ``gd-race``
passes took anywhere from 3.6 s to 6.5 s within two and a half minutes,
26% apart between the quartiles, and over 80 s of back-to-back kernel
runs the kernel's own 4 s medians ranged from 0.027 s to 0.043 s.  A
sample taken before or after a 20 s pass therefore says little about
the speed during it.  The benchmark reports its end-to-end times in
reference seconds instead, using samples taken during the pass:
``SpeedSampler`` runs the kernel every half second from a ``SIGALRM``
handler, and a pass's wall time, less the time the sampler spent inside
it, is multiplied by ``REFERENCE_S`` over the mean of the samples that
fell inside it; the time the pass would take on a machine that runs the
kernel in ``REFERENCE_S``.  On six back-to-back ``sgd-mc`` passes of
one seed, the quartiles of wall time were 15% apart; of the time
converted with in-pass samples, 3%; of the time converted with one
sample taken after each pass, 40%.  Set-up probes run in a fresh
interpreter and are converted with ``calibration_seconds()`` taken
right before and after each.  README.md gives the spreads left between
runs.  Raw wall seconds are printed alongside.

The kernel is a frozen copy of deedsim's two kinds of hot path as they
stood when the benchmark was defined.  The message half is the
per-message path of the run workloads: Philox stream construction,
stochastic rounding of a d=20 vector, conversion to sparse tuples with
validation, and the Elias payload-bit count.  The codec half is the
bit-by-bit path of wire-codec: Elias gamma codes appended to a bit
buffer, packed to bytes, unpacked and decoded.  The kernel never
imports deedsim, so no change to the package moves it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# Calibration seconds that define one reference second: about the
# kernel's median on the defining box.
REFERENCE_S = 0.03
_MESSAGES = 240
_CODEC_ROUNDS = 3
_VECTOR = np.linspace(-3.0, 3.0, 20)


def _message_bits(v: np.ndarray, step: float, rng: np.random.Generator) -> int:
    scaled = v / step
    lo = np.floor(scaled)
    frac = scaled - lo
    randomized = frac != 0.0
    up = np.zeros(len(v), dtype=bool)
    up[randomized] = rng.random(int(randomized.sum())) < frac[randomized]
    grid = (lo + up).astype(np.int64)
    (idx,) = np.nonzero(grid)
    positions = tuple(int(i) + 1 for i in idx)
    values = tuple(int(grid[i]) for i in idx)
    prev = 0
    for pos, val in zip(positions, values):
        if pos <= prev or val == 0:
            raise AssertionError("calibration kernel produced an invalid sparse vector")
        prev = pos
    gaps = np.diff(np.asarray(positions, dtype=np.int64), prepend=np.int64(0))
    _, gap_exp = np.frexp(gaps.astype(np.float64))
    _, val_exp = np.frexp(np.abs(np.asarray(values, dtype=np.int64)).astype(np.float64))
    return int(np.sum(2 * gap_exp - 1)) + int(np.sum(2 * val_exp - 1)) + len(positions)


def _codec_round() -> None:
    bits = bytearray()
    for n in range(1, 600):
        width = n.bit_length()
        bits.extend(bytes(width - 1))
        for shift in range(width - 1, -1, -1):
            bits.append((n >> shift) & 1)
    packed = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            packed[i >> 3] |= 0x80 >> (i & 7)
    unpacked = bytearray((packed[i >> 3] >> (7 - (i & 7))) & 1 for i in range(len(bits)))
    cursor, expected = 0, 1
    while cursor < len(unpacked):
        zeros = 0
        while not unpacked[cursor]:
            zeros += 1
            cursor += 1
        n = 1
        cursor += 1
        for _ in range(zeros):
            n = (n << 1) | unpacked[cursor]
            cursor += 1
        if n != expected:
            raise AssertionError("calibration kernel decoded a wrong code")
        expected += 1


def _kernel_seconds() -> float:
    start = time.perf_counter_ns()
    for i in range(_MESSAGES):
        seq = np.random.SeedSequence(entropy=12345, spawn_key=(i, 0, 1))
        _message_bits(_VECTOR, 0.37, np.random.Generator(np.random.Philox(seq)))
    for _ in range(_CODEC_ROUNDS):
        _codec_round()
    return (time.perf_counter_ns() - start) / 1e9


def calibration_seconds() -> float:
    """Median wall seconds of three runs of the fixed calibration kernel;
    the median keeps a single stall from skewing the conversion."""
    return statistics.median(_kernel_seconds() for _ in range(3))


class SpeedSampler:
    """Runs the kernel every ``interval`` seconds of wall time while
    ``sampling()`` is active, from a ``SIGALRM`` handler in the main
    thread, so that a long pass gets samples from its whole duration.

    No thread or process is started: the handler runs between two
    bytecodes of whatever the main thread is doing.  Each sample is
    kept with its start and end, so the time the kernel took can be cut
    out of any interval it fell into (``excluded_ns``).
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[tuple[int, int, float]] = []  # (start ns, end ns, kernel s)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        seconds = _kernel_seconds()
        self.samples.append((start, time.perf_counter_ns(), seconds))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start_ns: int, end_ns: int) -> list[float]:
        """Kernel seconds of the samples that started in ``[start_ns, end_ns)``."""
        return [s for a, _, s in self.samples if start_ns <= a < end_ns]

    def excluded_ns(self, start_ns: int, end_ns: int) -> int:
        """Nanoseconds of ``[start_ns, end_ns)`` the sampler spent."""
        return sum(max(0, min(b, end_ns) - max(a, start_ns)) for a, b, _ in self.samples)
