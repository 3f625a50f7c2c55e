"""Fixed-input microbenchmark of `Cyclo` multiplication by level.

The traced run counts scalar calls but does not time them one by one;
their per-call cost comes from here.  Two operand shapes per level:

- mono:  3 * zeta^1 (a single nonzero coordinate; plain 3 at level 1),
         the shape of almost every structure constant;
- dense: every coordinate nonzero, over denominator 5.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

LEVELS = (1, 4, 12, 105)


def operands(level: int):
    from qhopf.scalars import Cyclo, euler_phi

    deg = euler_phi(level)
    mono = [0] * deg
    mono[min(1, deg - 1)] = 3
    dense = [((7 * i + 3) % 19 - 9) or 1 for i in range(deg)]
    return Cyclo(level, mono), Cyclo(level, dense, 5)


def per_call_us(a, b, repeats: int = 5, min_seconds: float = 0.01) -> float:
    """Median over `repeats` of the mean time of a * b, in microseconds."""
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            a * b
        if perf_counter() - t0 >= min_seconds:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(loops):
            a * b
        samples.append((perf_counter() - t0) / loops * 1e6)
    return median(samples)


def scalar_metrics() -> dict:
    out = {}
    for level in LEVELS:
        mono, dense = operands(level)
        out[f"scalars.mono_dense_us.l{level}"] = per_call_us(mono, dense)
        out[f"scalars.dense_dense_us.l{level}"] = per_call_us(dense, dense)
    return out
