"""NumPy helpers for bulk element conversion.

The DCG backend lowers long homogeneous element runs onto numpy: one
``frombuffer(dst)[:] = frombuffer(src)`` cast, straight into the
destination, runs at C speed — the Python-world equivalent of the tight
native loops Vcode's generated code achieves in the paper.

The struct/numpy crossover was measured on CI-class x86-64 hardware with
``benchmarks/bench_ablation_numpy_threshold.py`` (best-of-7, 2000 inner
iterations per point), after the cast went in place: for a ``double[n]``
byte-order swap the batched struct pack/unpack wins up to n ~ 22 (n=16:
struct 0.91 us vs numpy 1.20 us), the two tie at n = 24 (1.14 us) and
numpy stays there out to 64 elements (1.5 us at 1024, 6.6 us at 8192)
while struct grows linearly; for an int32 -> int64 widening run the
crossover is n ~ 36 (n=32: struct 1.29 us vs numpy 1.36 us; n=40:
1.47 vs 1.38).  The threshold below sits between the two, and at 32
either lowering is within ~6% of the other (limit: 20% off the
op-specific optimum), so it stays.
"""

from __future__ import annotations

import numpy as np

from repro.abi.types import NUMPY_CODES, PrimKind

from .plan import ConversionPlan, OpKind

#: Element counts at or above this use numpy in generated converters.
#: Measured crossover band: ~24 (8-byte swaps) to ~36 (widening int
#: converts); 32 sits inside it — see the module docstring for the numbers.
NUMPY_THRESHOLD = 32


def np_dtype(endian: str, kind: PrimKind, size: int) -> np.dtype | None:
    """numpy dtype for an element, or None if not representable."""
    code = NUMPY_CODES.get((kind, size))
    if code is None or code.startswith("S"):
        return None
    prefix = ">" if endian in (">", "big") else "<"
    return np.dtype(prefix + code)


#: Native bytes (a record or a group) up to which a byte move is one gather
#: (:func:`gather_index`): ~1 ns a byte against ~1 us a ``struct`` statement, it
#: wins a 1 KB sparc -> x86 record 1.8 to 4.0 us and loses a 10 KB one 8.4 to 5.3.
GATHER_MAX_BYTES = 8 * 1024


def gather_index(plan: ConversionPlan) -> np.ndarray | None:
    """The byte index of a plan that only moves bytes — ops ``COPY``, ``SWAP``
    (one at least: copies alone are memcpys), ``CHARS``, ``ZERO``; a ``STRING``
    or ``CVT_*`` (VAX floats too) gets ``None``.  Native byte ``i`` is byte
    ``index[i]`` of the wire record with a zero byte ahead (index 0: padding,
    ``ZERO`` fields, a ``CHARS`` tail).  Built from the ops, not by a probe."""
    if plan.has_strings or all(op.kind is not OpKind.SWAP for op in plan.ops):
        return None
    index = np.zeros(plan.native.record_size, np.intp)
    for op in plan.ops:
        d0, s0, size = op.dst_off, op.src_off + 1, op.src_size
        if op.kind is OpKind.COPY or op.kind is OpKind.CHARS:
            size = min(size, op.dst_size)
            index[d0 : d0 + size] = np.arange(s0, s0 + size)
        elif op.kind is OpKind.SWAP:  # each element's bytes reversed
            elements = s0 + size * np.arange(op.count)[:, None] + np.arange(size - 1, -1, -1)
            index[d0 : d0 + elements.size] = elements.ravel()
        elif op.kind is not OpKind.ZERO:
            return None
    return index


def convert_run(
    src,
    src_off: int,
    count: int,
    src_dtype: np.dtype,
    dst,
    dst_off: int,
    dst_dtype: np.dtype,
) -> None:
    """Float size conversion of a homogeneous run, cast straight into
    ``dst`` with C semantics: inf on narrowing overflow, NaN stays NaN,
    no warning for either."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.frombuffer(dst, dst_dtype, count, dst_off)[:] = np.frombuffer(
            src, src_dtype, count, src_off
        )
