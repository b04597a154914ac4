"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the speed of one core drifts by up to 2x over
seconds to minutes, far more than the changes the benchmark must resolve.  A
fixed reference workload, run right before and right after every timed
region, tracks that drift; each time is then scaled to a machine on which the
reference takes exactly `REFERENCE_S`.  The reference uses only the standard
library, never the package.  It runs with the garbage collector off, so the
heap the package leaves behind (caches, tables) cannot change its cost
through collections.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Seconds the reference takes on the scaled-to machine: about its time on a
# 2-vCPU Intel Xeon VM under CPython 3.11.7 in that VM's fast phases.
REFERENCE_S = 0.1
_ROUNDS = 8_000


class _Key:
    """A hashed wrapper around an exponent tuple, like the package's monomials."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        self.exponents = exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and self.exponents == other.exponents


def reference_seconds() -> float:
    """Wall time of the reference: arithmetic on fractions of a few hundred
    bits, and dict updates keyed by small hashed objects, the kinds of work
    the solves spend their time on.  Everything it allocates is freed by
    reference counting, so no collection is needed while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference()
    finally:
        if enabled:
            gc.enable()


def _reference() -> float:
    start = perf_counter()
    big = Fraction(3**200, 7**90)
    total = Fraction(0)
    table: dict[_Key, int] = {}
    for i in range(1, _ROUNDS):
        total = total * Fraction(i % 7 + 1, i % 5 + 1) + big if i % 50 else Fraction(i)
        key = _Key(tuple((i * k) % 13 for k in range(4)))
        table[key] = table.get(key, 0) + 1
        if len(table) > 500:
            table.clear()
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two references into
    seconds on the reference machine."""
    return REFERENCE_S / ((before + after) / 2)
