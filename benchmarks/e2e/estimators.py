"""Estimators and the host-noise guard.

This host's speed drifts in multi-second phases and interference only
ever *adds* time, so a timed end-to-end metric is the **quiet-decile
mean**: the metric is computed inside each fixed-work slice, and the
best tenth of the slices (at least ten of them, when there are that
many) is averaged.  The all-slice median stays a diagnostic
(README.md has the measurements behind this choice).
"""

from __future__ import annotations

import statistics
from time import perf_counter


def quiet_decile(values: list[float], *, better: str) -> float:
    """Mean of the best tenth of ``values`` (>= 10 of them, or all)."""
    keep = min(len(values), max(10, len(values) // 10))
    ranked = sorted(values, reverse=better == "higher")
    return statistics.fmean(ranked[:keep])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them —
    the same rule the acceptance driver applies to ten runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


_CALIBRATION_BLOCK = bytearray(1 << 20)


def calibrate() -> float:
    """Seconds taken by a fixed ~10 ms kernel: a pure-Python loop (the
    interpreter's speed) plus 1 MiB copies (the memory system's)."""
    t0 = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i & 7
    for _ in range(16):
        bytes(_CALIBRATION_BLOCK)
    return perf_counter() - t0


def calibration_spread(samples: list[float]) -> float:
    """p90 / p10 of the calibration samples: 1.0 on a silent host."""
    if len(samples) < 2:
        return 1.0
    return percentile(samples, 0.9) / percentile(samples, 0.1)
