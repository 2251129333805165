"""Micro-timing helpers and the paper-style table the figures print.

The paper's Figures 1-7 are tables of best-case per-message times; these
helpers measure them the same way (minimum of N) and lay them out as the
paper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


def best_of(fn: Callable[[], object], *, repeats: int = 7, inner: int = 1) -> float:
    """Return the best (minimum) per-call wall time of ``fn`` in seconds.

    Minimum-of-N is the standard technique for CPU-bound micro-timing
    (noise is strictly additive); ``inner`` amortizes the clock overhead
    for very fast operations.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        dt = (time.perf_counter() - t0) / inner
        if dt < best:
            best = dt
    return best


def calibrated_inner(fn: Callable[[], object], *, target_s: float = 5e-3, max_inner: int = 10_000) -> int:
    """Pick an inner-loop count so one repeat lasts about ``target_s``."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-9)
    return max(1, min(max_inner, int(target_s / once)))


@dataclass
class TimingTable:
    """Accumulates labelled measurements and renders a paper-style table."""

    title: str
    columns: list[str]
    rows: list[tuple[str, list[float]]] = field(default_factory=list)
    unit: str = "ms"

    def add(self, label: str, values: list[float]) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append((label, list(values)))

    def render(self) -> str:
        width = max(12, *(len(c) + 2 for c in self.columns))
        head = f"{self.title}\n" + " " * 16 + "".join(f"{c:>{width}}" for c in self.columns)
        lines = [head]
        for label, values in self.rows:
            cells = "".join(f"{v:>{width}.4f}" for v in values)
            lines.append(f"{label:16s}{cells}")
        lines.append(f"(values in {self.unit})")
        return "\n".join(lines)
