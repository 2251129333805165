"""Floating-point format conversion: IEEE 754 <-> VAX F/D floating.

PBIO's meta-information describes the sender's complete natural
representation; in the original system's lineage that includes the
*floating-point format*, because pre-IEEE machines (VAX, IBM/370) were
still live targets.  This module provides the VAX side: F_floating
(32-bit) and D_floating (64-bit) as stored in memory on a VAX — including
the PDP-11 heritage word order, where the 16-bit words of a float are
little-endian *within* but ordered most-significant-word first.

Format recap (vs IEEE):

* F_floating: sign, 8-bit excess-128 exponent, 23-bit fraction with a
  hidden bit normalized to 0.1f (IEEE normalizes to 1.f), so for the same
  bit pattern VAX values are 4x smaller and the exponent bias works out
  to IEEE's exponent + 2.  No infinities, no NaN, no denormals: the whole
  exponent range encodes numbers, and an exponent of 0 with sign 0 is
  exactly zero (sign 1 is a reserved operand that traps).
* D_floating: same exponent field (8 bits!) with 55 fraction bits — more
  precision but *less* range than IEEE double.

Conversions use numpy integer bit manipulation, vectorized, so bulk
conversion of VAX data is a few array ops per call.
"""

from __future__ import annotations

import numpy as np

#: Values below cannot be represented in VAX F/D (tiny) or overflow (huge).
VAX_F_MAX = 1.7014118e38
VAX_F_MIN_NORMAL = 2.938736e-39
VAX_D_MAX = 1.70141183460469229e38


class VaxFloatError(ValueError):
    """Value not representable in the VAX format (overflow / reserved)."""


def _words_swap32(u32: np.ndarray) -> np.ndarray:
    """Swap the two 16-bit words of each 32-bit item (PDP-11 order)."""
    return ((u32 << 16) | (u32 >> 16)) & np.uint32(0xFFFFFFFF)


def _words_swap64(u64: np.ndarray) -> np.ndarray:
    """Reverse the four 16-bit words of each 64-bit item."""
    w0 = (u64 >> 48) & np.uint64(0xFFFF)
    w1 = (u64 >> 32) & np.uint64(0xFFFF)
    w2 = (u64 >> 16) & np.uint64(0xFFFF)
    w3 = u64 & np.uint64(0xFFFF)
    return (w3 << 48) | (w2 << 32) | (w1 << 16) | w0


def ieee_to_vax_f(values) -> bytes:
    """Encode IEEE doubles/floats as VAX F_floating memory bytes."""
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if np.any(~np.isfinite(arr)):
        raise VaxFloatError("VAX F has no representation for inf/NaN")
    if np.any(np.abs(arr) > VAX_F_MAX):
        raise VaxFloatError("value overflows VAX F range")
    f32 = arr.astype(np.float32)
    bits = f32.view(np.uint32)
    sign = bits & np.uint32(0x80000000)
    exponent = (bits >> 23) & np.uint32(0xFF)
    fraction = bits & np.uint32(0x007FFFFF)
    # IEEE exponent e (biased 127) -> VAX exponent e + 2 (biased 128,
    # 0.1f normalization).  Zero stays all-zero; IEEE denormals flush to 0.
    nonzero = exponent != 0
    vax_exp = np.where(nonzero, exponent + np.uint32(2), np.uint32(0))
    if np.any(vax_exp > 0xFF):
        raise VaxFloatError("value overflows VAX F exponent range")
    vax_bits = np.where(
        nonzero, sign | (vax_exp << 23) | fraction, np.uint32(0)
    ).astype(np.uint32)
    return _words_swap32(vax_bits).astype("<u4").tobytes()  # MSW first, words LE


def vax_f_to_ieee(data: bytes | memoryview, count: int | None = None, offset: int = 0) -> np.ndarray:
    """Decode VAX F_floating memory bytes to IEEE float32."""
    if count is None:
        count = (len(data) - offset) // 4
    raw = np.frombuffer(data, dtype="<u4", count=count, offset=offset).astype(np.uint32)
    bits = _words_swap32(raw)
    sign = bits & np.uint32(0x80000000)
    exponent = (bits >> 23) & np.uint32(0xFF)
    fraction = bits & np.uint32(0x007FFFFF)
    nonzero = exponent != 0
    reserved = (~nonzero) & (sign != 0)
    if np.any(reserved):
        raise VaxFloatError("reserved operand (sign=1, exp=0) in VAX F data")
    ieee_bits = np.where(
        nonzero, sign | ((exponent - np.uint32(2)) << 23) | fraction, np.uint32(0)
    ).astype(np.uint32)
    return ieee_bits.view(np.float32)


def ieee_to_vax_d(values) -> bytes:
    """Encode IEEE doubles as VAX D_floating memory bytes."""
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if np.any(~np.isfinite(arr)):
        raise VaxFloatError("VAX D has no representation for inf/NaN")
    if np.any(np.abs(arr) > VAX_D_MAX):
        raise VaxFloatError("value overflows VAX D range")
    bits = arr.view(np.uint64)
    sign = (bits >> np.uint64(63)) & np.uint64(1)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    fraction = bits & np.uint64(0x000FFFFFFFFFFFFF)
    nonzero = exponent != 0
    # IEEE bias 1023 -> VAX D bias 128 with 0.1f normalization: e - 1023
    # + 128 + 1 = e - 894.  Range check: must fit in 8 bits.
    vax_exp = np.where(nonzero, exponent.astype(np.int64) - 894, 0)
    if np.any((vax_exp <= 0) & nonzero):
        # underflow: flush to zero, as VAX hardware conversion would trap;
        # we choose flush-to-zero for usability (documented).  Exponent 0
        # is underflow too: it reads back as zero, or with the sign set as
        # a reserved operand.
        flush = (vax_exp <= 0) & nonzero
        nonzero = nonzero & ~flush
        vax_exp = np.where(flush, 0, vax_exp)
    if np.any(vax_exp > 0xFF):
        raise VaxFloatError("value overflows VAX D exponent range")
    # D fraction: 55 bits; IEEE gives 52 -> shift left 3.
    vax_frac = (fraction << np.uint64(3)) & np.uint64(0x007FFFFFFFFFFFFF)
    vax_bits = np.where(
        nonzero,
        (sign << np.uint64(63)) | (vax_exp.astype(np.uint64) << np.uint64(55)) | vax_frac,
        np.uint64(0),
    ).astype(np.uint64)
    return _words_swap64(vax_bits).astype("<u8").tobytes()


def vax_d_to_ieee(data: bytes | memoryview, count: int | None = None, offset: int = 0) -> np.ndarray:
    """Decode VAX D_floating memory bytes to IEEE float64."""
    if count is None:
        count = (len(data) - offset) // 8
    raw = np.frombuffer(data, dtype="<u8", count=count, offset=offset).astype(np.uint64)
    bits = _words_swap64(raw)
    sign = (bits >> np.uint64(63)) & np.uint64(1)
    exponent = (bits >> np.uint64(55)) & np.uint64(0xFF)
    fraction = (bits >> np.uint64(3)) & np.uint64(0x000FFFFFFFFFFFFF)
    nonzero = exponent != 0
    reserved = (~nonzero) & (sign != 0)
    if np.any(reserved):
        raise VaxFloatError("reserved operand in VAX D data")
    ieee_exp = np.where(nonzero, exponent + np.uint64(894), np.uint64(0))
    ieee_bits = np.where(
        nonzero,
        (sign << np.uint64(63)) | (ieee_exp << np.uint64(52)) | fraction,
        np.uint64(0),
    ).astype(np.uint64)
    return ieee_bits.view(np.float64)


def convert_float_bytes(
    data: bytes | memoryview,
    offset: int,
    count: int,
    src_size: int,
    src_format: str,
    src_endian: str,
    dst_size: int,
    dst_format: str,
    dst_endian: str,
) -> bytes:
    """General float-run conversion between formats, sizes and orders.

    ``*_format`` is ``"ieee754"`` or ``"vax"``; VAX uses F for 4-byte and
    D for 8-byte elements, and its byte order is fixed by the format (the
    PDP word order), so ``*_endian`` is ignored on the VAX side.
    """
    # load to IEEE float64
    if src_format == "vax":
        values = (
            vax_f_to_ieee(data, count, offset).astype(np.float64)
            if src_size == 4
            else vax_d_to_ieee(data, count, offset)
        )
    else:
        dtype = np.dtype(f"{'>' if src_endian in ('>', 'big') else '<'}f{src_size}")
        values = np.frombuffer(data, dtype=dtype, count=count, offset=offset).astype(np.float64)
    # store from IEEE float64
    if dst_format == "vax":
        return ieee_to_vax_f(values) if dst_size == 4 else ieee_to_vax_d(values)
    out_dtype = np.dtype(f"{'>' if dst_endian in ('>', 'big') else '<'}f{dst_size}")
    with np.errstate(over="ignore"):
        return values.astype(out_dtype).tobytes()
