"""The machine's speed while a run times its operations.

The shared hosts this benchmark runs on switch between speeds: the same
pure-Python loop takes 1.0x, 1.4x or 1.9x its best time for stretches of
a few seconds to minutes, and the share of a 30-second run spent at each
differs from run to run, so raw times of the same code spread by 25 % to
45 % between runs. A run therefore times a fixed pure-Python kernel, which
does not touch the program, before every operation that starts
CALIBRATE_EVERY_S or more after the last timing, and once at the end. It
reports each operation also in reference milliseconds: its time scaled
by the kernel's reference time over the kernel's time around it, i.e.
what it would have taken at the speed at which the kernel takes
REFERENCE_KERNEL_MS. A change to the program moves those; a change of
the machine's speed cancels out.
"""

from __future__ import annotations

import bisect
import time

CLOCK = time.perf_counter
CALIBRATE_EVERY_S = 0.2
# untimed kernel runs first, so that the interpreter has specialised it
WARM_UP = 5
# The kernel's time on a 2-vCPU Xeon host at its fast speed (Python
# 3.11); only a scale, so that reference milliseconds read about as real
# ones do on that machine when it is fast.
REFERENCE_KERNEL_MS = 3.0


def _tree(n: int):
    return (n, _tree(n - 1), _tree(n - 2)) if n > 1 else (n,)


def _fold(t) -> int:
    return t[0] + sum(_fold(c) for c in t[1:])


def kernel() -> int:
    """A fixed mix of what the program spends its time on: building and
    walking nested tuples by recursion, and dict updates."""
    acc = 0
    for _ in range(8):
        acc += _fold(_tree(11))
        table: dict[int, int] = {}
        for i in range(2500):
            table[i % 97] = table.get(i % 97, 0) + i
        acc += len(table)
    return acc


class Speed:
    """Kernel timings along a run, and the operations' times scaled by them."""

    def __init__(self):
        self.at: list[float] = []  # when each kernel timing ended
        self.kernel_s: list[float] = []
        for _ in range(WARM_UP):
            kernel()

    def sample(self) -> None:
        t0 = CLOCK()
        kernel()
        t1 = CLOCK()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or CLOCK() - self.at[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def reference_ms(self, start: float, seconds: float) -> float:
        """An operation's time in reference milliseconds: scaled by the
        mean of the last kernel timing before it and the first after it."""
        k = bisect.bisect_right(self.at, start) - 1
        before = self.kernel_s[max(k, 0)]
        after = self.kernel_s[min(bisect.bisect_left(self.at, start + seconds), len(self.at) - 1)]
        return seconds * 1000 * REFERENCE_KERNEL_MS / ((before + after) / 2 * 1000)

    def kernel_ms_p50(self) -> float:
        ordered = sorted(self.kernel_s)
        return ordered[len(ordered) // 2] * 1000
