"""Reference kernel: fixed stdlib Fraction/dict/tuple work timed beside every op.

Processes on a shared VM run at their own speeds, so every in-process time is
multiplied by ``R0 / r``, where ``r`` is this kernel's time measured next to the
op and ``R0`` is the kernel's nominal time.  Normalised times therefore stay in
seconds at reference speed.  The kernel imports nothing from ``affdef``.

Ops and kernel alike are timed by the process's CPU time, which leaves out the
time a virtual CPU is descheduled by its host: on the 2-vCPU reference VM that
halved the op-to-op spread of wall time.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Nominal kernel time in seconds: the median kernel time measured on the
# 2-vCPU reference VM while the benchmark was built (see README.md).
R0 = 0.004


def kernel() -> int:
    """Merge sparse vectors keyed by tuple words with exact rational coefficients.

    The shape of the program's own work (``State.__add__`` over PBW words), so
    the kernel slows down and speeds up with the process the way the ops do.
    """
    states = []
    for s in range(12):
        vec = {}
        for i in range(60):
            word = tuple((j % 3, -(1 + (i + j + s) % 3)) for j in range(i % 7 + 2))
            vec[word] = Fraction(i + s, i % 5 + 1)
        states.append(vec)
    acc = {}
    for vec in states:
        out = dict(acc)
        for word, coeff in vec.items():
            total = out.get(word, Fraction(0)) + coeff
            if total:
                out[word] = total
            else:
                out.pop(word, None)
        acc = out
    return len(acc)


def kernel_time(reps: int = 3) -> float:
    """Fastest of ``reps`` kernel calls, in CPU seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.process_time()
        kernel()
        best = min(best, time.process_time() - start)
    return best


# Kernel ticks on each side of a timed interval whose median estimates its speed:
# a single 3 ms tick on a shared VM is too noisy to scale one op by.
WINDOW = 3


class SpeedProbe:
    """Times the kernel between timed intervals and normalises them to reference speed.

    Call ``tick()`` before the first interval and after each one, so interval
    ``i`` lies between ticks ``i`` and ``i + 1``; its kernel time ``r`` is the
    median of the ``2 * WINDOW`` ticks nearest to it.
    """

    def __init__(self):
        kernel_time()  # warm-up
        self.ticks = []

    def tick(self):
        self.ticks.append(kernel_time())

    def normalise(self, raws: list) -> list:
        out = []
        for i, raw in enumerate(raws):
            r = statistics.median(self.ticks[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            out.append(raw * R0 / r)
        return out

    def median(self) -> float:
        return statistics.median(self.ticks)
