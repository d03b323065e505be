"""Machine-speed probe: rescales measured times to a reference speed.

The benchmark runs on shared machines whose cores change speed by up
to about 1.8x for seconds at a time: a fixed pure-Python job and a
library call slow down together, in CPU time as much as in wall time.
A run that happens to fall in a slow stretch would then read 1.8x
slower than one that does not, and no run length affordable here
averages that out.

So the benchmark times this fixed job (bit arithmetic, dict updates,
small objects, tuple sorting and Fractions, the kinds of work the
library does) right before and right after every op and every set-up.
A time t measured between probes p0 and p1 is reported as
``t * PROBE_REF_S / ((p0 + p1) / 2)``: the time the op would take on a
machine that runs the probe in PROBE_REF_S.  The probe is the
benchmark's own code, so a change to the library cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_REF_S = 0.004     # probe time at the reference speed


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def key(self) -> int:
        return (self.a ^ self.b) & 1023


def probe(n: int = 3000) -> float:
    """Seconds taken by the fixed job."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    x = 0x9E3779B97F4A7C15
    f = Fraction(0)
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        p = _Pair(x >> 32, x & 0xFFFF)
        k = p.key()
        acc[k] = acc.get(k, 0) + (x & -x).bit_length()
        items.append((k, p.b))
        if i % 64 == 0:
            f += Fraction(p.b, 1 + (k | 1))
            items.sort()
            del items[:-32]
    return time.perf_counter() - start


def scale(p0: float, p1: float) -> float:
    """Factor that rescales a time measured between probes p0 and p1."""
    return PROBE_REF_S * 2 / (p0 + p1)
