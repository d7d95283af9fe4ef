"""Host-speed correction for the end-to-end timings.

The host this benchmark was set up on (a 2-vCPU KVM guest) changes speed
in phases of seconds to a minute: one fixed Python loop took 19–30 ms
within a minute, and back-to-back ``attack`` rounds 0.90–1.79 s.  A run
lands in one phase or the other, so raw medians of 12-second runs spread
by about 30% from run to run.

Every measured round is therefore bracketed by a fixed pure-Python
kernel (method calls, attribute, dict and list updates and integer
arithmetic: the interpreter work the simulator does), and the round's
host seconds are reported at the reference speed: ``seconds * REFERENCE_KERNEL_S / kernel_seconds``,
with ``kernel_seconds`` the mean of the runs just before and after the
round.  The kernel does not touch the program, so a change to the
program moves the corrected time exactly as it moves the raw time at
constant host speed.  Measured over 95 ``attack`` rounds on that host,
it cut the spread of 6-round medians from 20% to 4%.
"""

import time

#: Kernel seconds at the reference speed (about its median on the host
#: the benchmark was set up on, so corrected seconds read like host
#: seconds there).
REFERENCE_KERNEL_S = 0.080

_ITERATIONS = 120_000
_ARITHMETIC_TERMS = 450_000


class _Counter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def step(self, value: int) -> int:
        self.total += value
        return self.total & 7


def kernel_seconds() -> float:
    """Host seconds of one run of the fixed kernel: a method-call, dict
    and list loop, then a generator of integer arithmetic (two
    instruction mixes track the host's speed better than one)."""
    started = time.perf_counter()
    counter = _Counter()
    counts: dict = {}
    ring = [0] * 64
    for index in range(_ITERATIONS):
        value = counter.step(index)
        counts[value] = counts.get(value, 0) + 1
        ring[index & 63] = value
    sum(index * index for index in range(_ARITHMETIC_TERMS))
    return time.perf_counter() - started


def correction(before: float, after: float) -> float:
    """Factor taking host seconds measured between two kernel runs to
    seconds at the reference speed."""
    return REFERENCE_KERNEL_S / ((before + after) / 2.0)
