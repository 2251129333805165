"""The table-driven interpreted converter — PBIO's initial implementation.

Section 4.3: packages that marshal data themselves typically use "what
amounts to a table-driven interpreter ... making data movement and
conversion decisions based upon a description of the structure".  This
converter is that interpreter, in the "relatively heavily optimized" form
the paper describes for PBIO: per *record* it walks the op table and
dispatches dynamically per op, but each op executes as one batched
operation (a whole-field struct codec or slice move) rather than
element-by-element — and the receive buffer's data is moved exactly once,
with no intermediate packed buffer (unlike MPICH's unpack).

What it still pays, and what DCG (:mod:`.codegen`) eliminates, is the
per-record, per-op dynamic dispatch and the absence of cross-op
specialization (no numpy lowering, no compile-time constant folding of
offsets).
"""

from __future__ import annotations

import struct

from repro.abi.types import PrimKind, struct_code

from ..errors import ConversionError
from .plan import ConversionPlan, ConvOp, OpKind


class InterpretedConverter:
    """Executes a conversion plan by interpretation.

    Construction compiles no code: it builds the op table (whole-field
    struct codecs), the moral equivalent of the format-description tables
    a C interpreter walks.
    """

    def __init__(self, plan: ConversionPlan):
        self.plan = plan
        se, de = plan.src_endian, plan.dst_endian
        self._table = [
            ("vaxcvt", op, None, None)
            if op.kind is OpKind.CVT_FLOAT and plan.has_vax_floats
            else self._table_entry(op, se, de)
            for op in plan.ops
        ]
        self._dst_size = plan.native.record_size
        self._src_ptr = struct.Struct(se + ("Q" if _ptr_size(plan, "src") == 8 else "I"))
        self._dst_ptr = struct.Struct(de + ("Q" if _ptr_size(plan, "dst") == 8 else "I"))

    @staticmethod
    def _table_entry(op: ConvOp, se: str, de: str):
        kind = op.kind
        n = op.count
        if kind in (OpKind.COPY, OpKind.ZERO, OpKind.CHARS, OpKind.STRING):
            return (kind, op, None, None)
        if kind is OpKind.SWAP:
            code = struct_code(PrimKind.UNSIGNED, op.src_size)
            return (kind, op, struct.Struct(f"{se}{n}{code}"), struct.Struct(f"{de}{n}{code}"))
        if kind is OpKind.CVT_INT:
            sk = PrimKind.INTEGER if op.signed else PrimKind.UNSIGNED
            src = struct.Struct(f"{se}{n}{struct_code(sk, op.src_size)}")
            if op.dst_size > op.src_size:  # widening: values always fit
                dst = struct.Struct(f"{de}{n}{struct_code(sk, op.dst_size)}")
            else:  # narrowing: mask + pack unsigned (C truncation)
                dst = struct.Struct(f"{de}{n}{struct_code(PrimKind.UNSIGNED, op.dst_size)}")
            return (kind, op, src, dst)
        if kind is OpKind.CVT_FLOAT:
            return (kind, op, struct.Struct(f"{se}{n}{_f(op.src_size)}"), struct.Struct(f"{de}{n}{_f(op.dst_size)}"))
        if kind is OpKind.CVT_INT_FLOAT:
            sk = PrimKind.INTEGER if op.signed else PrimKind.UNSIGNED
            return (kind, op, struct.Struct(f"{se}{n}{struct_code(sk, op.src_size)}"), struct.Struct(f"{de}{n}{_f(op.dst_size)}"))
        if kind is OpKind.CVT_FLOAT_INT:
            return (kind, op, struct.Struct(f"{se}{n}{_f(op.src_size)}"), struct.Struct(f"{de}{n}{struct_code(PrimKind.UNSIGNED, op.dst_size)}"))
        raise ConversionError(f"unhandled op kind {kind}")  # pragma: no cover

    def __call__(self, src, dst=None) -> bytes:
        return self.convert(src, dst)

    def convert(self, src, dst=None) -> bytes:
        """Convert one wire record to native form.

        ``dst``, when supplied (a view decode), must be a zeroed
        bytearray of the native record size; it is filled in place and
        returned.  Plans with out-of-line strings produce variable-size
        output and always build a fresh buffer.
        """
        if self.plan.has_strings and not isinstance(src, (bytes, bytearray)):
            src = bytes(src)  # strings need bytes.index; else reuse the buffer
        owned = dst is None or self.plan.has_strings
        if owned:
            dst = bytearray(self._dst_size)
        tail: list[bytes] = []
        tail_len = self._dst_size
        for kind, op, a, b in self._table:
            if kind == "vaxcvt":
                # float format change: the interpreter calls the same
                # conversion subroutine the generated code would.
                from repro.abi.floats import convert_float_bytes

                dst[op.dst_off : op.dst_off + op.dst_size * op.count] = convert_float_bytes(
                    src,
                    op.src_off,
                    op.count,
                    op.src_size,
                    self.plan.src_float_format,
                    self.plan.src_endian,
                    op.dst_size,
                    self.plan.dst_float_format,
                    self.plan.dst_endian,
                )
            elif kind is OpKind.COPY:
                dst[op.dst_off : op.dst_off + op.dst_size] = src[op.src_off : op.src_off + op.src_size]
            elif kind is OpKind.SWAP or kind is OpKind.CVT_INT_FLOAT:
                b.pack_into(dst, op.dst_off, *a.unpack_from(src, op.src_off))
            elif kind is OpKind.CVT_FLOAT:
                if op.dst_size < op.src_size:  # narrowing: overflow -> inf, as in C
                    b.pack_into(dst, op.dst_off, *[_clamp_f32(v) for v in a.unpack_from(src, op.src_off)])
                else:
                    b.pack_into(dst, op.dst_off, *a.unpack_from(src, op.src_off))
            elif kind is OpKind.CVT_INT:
                if op.dst_size > op.src_size:
                    b.pack_into(dst, op.dst_off, *a.unpack_from(src, op.src_off))
                else:
                    mask = (1 << (8 * op.dst_size)) - 1
                    b.pack_into(dst, op.dst_off, *[v & mask for v in a.unpack_from(src, op.src_off)])
            elif kind is OpKind.CVT_FLOAT_INT:
                mask = (1 << (8 * op.dst_size)) - 1
                b.pack_into(dst, op.dst_off, *[int(v) & mask for v in a.unpack_from(src, op.src_off)])
            elif kind is OpKind.CHARS:
                m = min(op.src_size, op.dst_size)
                dst[op.dst_off : op.dst_off + m] = src[op.src_off : op.src_off + m]
            elif kind is OpKind.STRING:
                ptr = self._src_ptr.unpack_from(src, op.src_off)[0]
                if ptr:
                    end = src.index(0, ptr)
                    data = src[ptr : end + 1]
                    self._dst_ptr.pack_into(dst, op.dst_off, tail_len)
                    tail.append(bytes(data))
                    tail_len += len(data)
            else:  # OpKind.ZERO — fresh buffer is already zero
                pass
        if tail:
            return bytes(dst) + b"".join(tail)
        return bytes(dst) if owned else dst


def _f(size: int) -> str:
    return "f" if size == 4 else "d"


_F32_MAX = 3.4028234663852886e38


def _clamp_f32(value: float) -> float:
    if value > _F32_MAX:
        return float("inf")
    if value < -_F32_MAX:
        return float("-inf")
    return value


def _ptr_size(plan: ConversionPlan, side: str) -> int:
    fmt = plan.wire if side == "src" else plan.native
    for f in fmt.fields:
        if f.kind is PrimKind.STRING:
            return f.size
    return 4
