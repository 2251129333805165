"""Dynamic code generation: compile a conversion plan to specialized code.

This is the paper's central mechanism.  PBIO "employ[s] dynamic code
generation to create a customized conversion subroutine for every incoming
record type ... generated by the receiver on the fly, as soon as the wire
format is known" (Section 4.3).  The original uses Vcode to emit native
RISC instructions; the honest Python equivalent is to *generate Python
source specialized to the plan* — every offset, size and count baked in as
a literal, every helper prebound — and ``compile()`` it once.  Steady-state
conversion then runs straight-line specialized bytecode with zero dispatch,
and one record costs one pass, not one call per field:

* **Fused runs.**  Consecutive ops that convert value for value through
  ``struct`` (byte swaps, widening ints, float -> double, int -> float,
  all below ``NUMPY_THRESHOLD`` elements, and ``COPY``/``CHARS`` moves of
  at most ``FUSED_COPY_MAX`` bytes) become **one** ``Struct.unpack_from``
  / ``pack_into`` pair while their source and destination offsets both
  ascend without overlap.  Gaps (alignment holes, unexpected fields, the
  cut tail of a ``CHARS``) are ``x`` pad items: skipped on unpack, written
  as zeros on pack — what the zeroed destination holds there, so a
  ``ZERO`` op (a field absent from the wire) does not break a run.  What
  does: an op that masks (narrowing int, float -> int), a narrowing or
  VAX float, a string pointer, a long run, a larger copy, a source offset
  that goes backwards (fields reordered on the wire).  A run of one emits
  the statement it always did — an identity plan is still one slice
  assignment, a memcpy — and every value goes through the struct codes
  :class:`~.interpreted.InterpretedConverter` (the test reference) uses,
  so the bytes are identical by construction.
* **Long runs in place.**  ``NUMPY_THRESHOLD`` or more elements are one
  numpy cast straight into the destination — ``np.frombuffer(dst, ...)[:]
  = np.frombuffer(src, ...)`` — a C-speed loop standing in for Vcode's
  native loops, with no intermediate array or ``bytes`` copy of it.
* **A byte move is one gather.**  A plan that only moves bytes (byte
  order and padding, :func:`~.vectorized.gather_index`) is, up to
  ``GATHER_MAX_BYTES`` of native record and unless it fuses to one struct
  pair, one ``take`` of its byte index straight into the destination.

The paper's own route — the plan lowered onto a virtual RISC ISA and
run by a VM — is :func:`repro.vcode.generate_vcode_converter`, which a
context takes as its converter factory (``conversion=``); it serves the
mechanism-fidelity ablation (DESIGN.md discusses the inversion).

Generation cost vs. per-record savings is measured by
``benchmarks/bench_ablation_codegen_cost.py`` — the paper's claim is that
"the one-time costs of generating binary code [are] far outweigh[ed]" by
the gains, and the same holds here.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.abi.types import PrimKind, struct_code

from .plan import ConversionPlan, ConvOp, OpKind
from .vectorized import GATHER_MAX_BYTES, NUMPY_THRESHOLD, convert_run, gather_index, np_dtype

#: A COPY/CHARS op of at most this many bytes joins a fused run as an
#: ``s`` item; a longer one stays a slice assignment (a plain memcpy).
FUSED_COPY_MAX = 64


@dataclass
class GeneratedConverter:
    """A compiled converter plus its provenance (source, generation time)."""

    convert: Callable[[bytes], bytes]
    source: str
    generation_time_s: float
    gather: np.ndarray | None = None  # a byte move's index, within GATHER_MAX_BYTES

    def __call__(self, src, dst=None) -> bytes:
        return self.convert(src, dst)

    @property
    def statements(self) -> int:
        """Conversion statements of a fixed-size generated body: its
        lines less the ``def``, the two destination lines and the ``return``."""
        return self.source.count("\n") - 3


class _SourceBuilder:
    """Accumulates generated source plus the namespace of prebound helpers."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict = {"np": np}
        self._struct_cache: dict[str, str] = {}
        self._counter = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def bind(self, prefix: str, obj) -> str:
        self._counter += 1
        name = f"_{prefix}{self._counter}"
        self.namespace[name] = obj
        return name

    def bind_struct(self, fmt: str) -> str:
        name = self._struct_cache.get(fmt)
        if name is None:
            name = self.bind("st", struct.Struct(fmt))
            self._struct_cache[fmt] = name
        return name

    def bind_dtype(self, dt: np.dtype) -> str:
        key = f"dtype:{dt.str}"
        name = self._struct_cache.get(key)
        if name is None:
            name = self.bind("dt", dt)
            self._struct_cache[key] = name
        return name


def generate_converter(plan: ConversionPlan) -> GeneratedConverter:
    """Generate, compile and return a specialized converter for ``plan``."""
    t0 = time.perf_counter()
    sb = _SourceBuilder()
    se, de = plan.src_endian, plan.dst_endian
    sb.lines.append("def convert(src, dst=None):")
    gather = gather_index(plan) if plan.native.record_size <= GATHER_MAX_BYTES else None
    runs = _runs(plan)
    taken = gather is not None and len(runs) > 1  # one struct pair is as cheap as one gather
    if taken:
        # count= rejects a short source; mode="wrap" (all in range) does not buffer `out`
        ix, u8 = sb.bind("ix", gather), sb.bind_dtype(np.dtype(np.uint8))
        sb.emit(f"_w = np.frombuffer(b'\\0' + src, {u8}, {plan.wire.record_size + 1})")
        sb.emit(f"if dst is None: return _w.take({ix}, mode='wrap').tobytes()")
        sb.emit(f"_w.take({ix}, out=np.frombuffer(dst, {u8}), mode='wrap')")
        sb.emit("return dst")
    elif plan.has_strings:
        # Strings need bytes.index; fixed-size plans work straight off the
        # receive buffer (memoryview) — PBIO reuses the receive buffer.
        # Variable-size output: a caller-supplied dst cannot carry the
        # string tail, so this shape always builds a fresh buffer.
        sb.emit("if type(src) is not bytes: src = bytes(src)")
        sb.emit("tail = []")
        sb.emit(f"tail_len = {plan.native.record_size}")
        sb.emit(f"dst = bytearray({plan.native.record_size})")
    else:
        # dst, when supplied (a view that is to own its bytes), must be a
        # zeroed bytearray of the native record size; it is filled in
        # place and returned.
        sb.emit("_owned = dst is None")
        sb.emit(f"if _owned: dst = bytearray({plan.native.record_size})")
    for run in () if taken else runs:
        if len(run) == 1:
            _emit_op(sb, run[0], se, de, plan)
        else:
            _emit_pair(sb, run, se, de, plan)
    if plan.has_strings:
        sb.emit("if tail: return bytes(dst) + b''.join(tail)")
        sb.emit("return bytes(dst)")
    elif not taken:
        sb.emit("return bytes(dst) if _owned else dst")
    source = "\n".join(sb.lines)
    code = compile(source, f"<pbio-dcg:{plan.wire.name}->{plan.native.name}>", "exec")
    exec(code, sb.namespace)
    fn = sb.namespace["convert"]
    return GeneratedConverter(
        convert=fn,
        source=source,
        generation_time_s=time.perf_counter() - t0,
        gather=gather,
    )


def _runs(plan: ConversionPlan) -> list[list[ConvOp]]:
    """The plan's ops grouped into statements: maximal runs of
    struct-pair ops ascending without overlap on both sides, every other
    op alone, ZERO ops dropped (see the module docstring)."""
    runs: list[list[ConvOp]] = []
    growing = False  # runs[-1] is a run that may take the next op
    for op in plan.ops:
        if op.kind is OpKind.ZERO:
            continue  # dst is zeroed by contract, and a pad item keeps it so
        fusable = _pair_items(op, plan) is not None
        if fusable and growing:
            prev = runs[-1][-1]
            if op.src_off >= prev.src_end and op.dst_off >= prev.dst_end:
                runs[-1].append(op)
                continue
        runs.append([op])
        growing = fusable
    return runs


def _elem_kinds(op: ConvOp) -> tuple[PrimKind, PrimKind]:
    """(wire, native) element kinds an element op reads and writes."""
    int_kind = PrimKind.INTEGER if op.signed else PrimKind.UNSIGNED
    return {
        OpKind.SWAP: (PrimKind.UNSIGNED, PrimKind.UNSIGNED),  # bit-preserving, floats too
        OpKind.CVT_INT: (int_kind, int_kind),
        OpKind.CVT_FLOAT: (PrimKind.FLOAT, PrimKind.FLOAT),
        OpKind.CVT_INT_FLOAT: (int_kind, PrimKind.FLOAT),
        OpKind.CVT_FLOAT_INT: (PrimKind.FLOAT, int_kind),
    }[op.kind]


def _pair_items(op: ConvOp, plan: ConversionPlan) -> tuple[str, str] | None:
    """(wire, native) struct items of an op that converts as unpack ->
    pack, value for value; ``None`` for the ops that mask, clamp, call
    numpy or a VAX subroutine, move more than ``FUSED_COPY_MAX`` bytes,
    or chase a string pointer."""
    k, n = op.kind, op.count
    if k is OpKind.COPY or k is OpKind.CHARS:
        m = min(op.src_size, op.dst_size)  # CHARS: truncate / leave NUL-padded
        return (f"{m}s", f"{m}s") if m <= FUSED_COPY_MAX else None
    if (
        k is OpKind.STRING
        or k is OpKind.CVT_FLOAT_INT
        or n >= NUMPY_THRESHOLD
        # narrowing: an int masks, a float overflows to inf
        or (k in (OpKind.CVT_INT, OpKind.CVT_FLOAT) and op.dst_size < op.src_size)
        or (k is OpKind.CVT_FLOAT and plan.has_vax_floats)
    ):
        return None
    # widening ints sign-extend through Python ints; int -> float rounds
    src_kind, dst_kind = _elem_kinds(op)
    return f"{n}{struct_code(src_kind, op.src_size)}", f"{n}{struct_code(dst_kind, op.dst_size)}"


def _emit_pair(sb: _SourceBuilder, run: list[ConvOp], se: str, de: str, plan: ConversionPlan) -> None:
    """One ``Struct`` pair for a whole run: each op's items at its
    offsets, the gaps between ops as ``x`` pad items (skipped on unpack,
    written as zeros — what the destination holds there — on pack)."""
    src_fmt, dst_fmt = se, de
    src_end, dst_end = run[0].src_off, run[0].dst_off
    for op in run:
        src_items, dst_items = _pair_items(op, plan)
        src_fmt += _pad(op.src_off - src_end) + src_items
        dst_fmt += _pad(op.dst_off - dst_end) + dst_items
        src_end = op.src_off + struct.calcsize("=" + src_items)
        dst_end = op.dst_off + struct.calcsize("=" + dst_items)
    su, st = sb.bind_struct(src_fmt), sb.bind_struct(dst_fmt)
    sb.emit(f"{st}.pack_into(dst, {run[0].dst_off}, *{su}.unpack_from(src, {run[0].src_off}))")


def _pad(gap: int) -> str:
    return f"{gap}x" if gap else ""


def _emit_op(sb: _SourceBuilder, op: ConvOp, se: str, de: str, plan: ConversionPlan) -> None:
    k, count = op.kind, op.count
    d0, s0 = op.dst_off, op.src_off
    if k is OpKind.COPY or k is OpKind.CHARS:
        m = min(op.src_size, op.dst_size)  # CHARS: truncate / leave NUL-padded
        sb.emit(f"dst[{d0}:{d0 + m}] = src[{s0}:{s0 + m}]")
        return
    if k is OpKind.STRING:
        sptr = sb.bind_struct(se + ("Q" if op.src_size == 8 else "I"))
        dptr = sb.bind_struct(de + ("Q" if op.dst_size == 8 else "I"))
        sb.emit(f"_p = {sptr}.unpack_from(src, {s0})[0]")
        sb.emit("if _p:")
        sb.lines.append("        _e = src.index(0, _p)")
        sb.lines.append(f"        {dptr}.pack_into(dst, {d0}, tail_len)")
        sb.lines.append("        tail.append(src[_p:_e + 1])")
        sb.lines.append("        tail_len += _e + 1 - _p")
        return
    if _pair_items(op, plan) is not None:
        _emit_pair(sb, [op], se, de, plan)
        return
    if k is OpKind.CVT_FLOAT and plan.has_vax_floats:
        from repro.abi.floats import convert_float_bytes

        helper = sb.bind("vx", convert_float_bytes)
        sb.emit(
            f"dst[{d0}:{d0 + op.dst_size * count}] = {helper}(src, {s0}, {count}, "
            f"{op.src_size}, {plan.src_float_format!r}, {se!r}, "
            f"{op.dst_size}, {plan.dst_float_format!r}, {de!r})"
        )
        return
    src_kind, dst_kind = _elem_kinds(op)
    if count >= NUMPY_THRESHOLD or k is OpKind.CVT_FLOAT:
        # A long run, or a narrowing float: one numpy cast straight into
        # the destination.  Floats go through convert_run for C semantics
        # (inf on overflow, no warning).
        sdt = sb.bind_dtype(np_dtype(se, src_kind, op.src_size))
        ddt = sb.bind_dtype(np_dtype(de, dst_kind, op.dst_size))
        if k is OpKind.CVT_FLOAT:
            sb.emit(f"{sb.bind('cv', convert_run)}(src, {s0}, {count}, {sdt}, dst, {d0}, {ddt})")
        else:
            sb.emit(
                f"np.frombuffer(dst, {ddt}, {count}, {d0})[:] = np.frombuffer(src, {sdt}, {count}, {s0})"
            )
        return
    # narrowing int or float -> int: C-style truncation — mask, then pack unsigned
    mask = (1 << (8 * op.dst_size)) - 1
    value = "int(v)" if src_kind is PrimKind.FLOAT else "v"
    su = sb.bind_struct(f"{se}{count}{struct_code(src_kind, op.src_size)}")
    st = sb.bind_struct(f"{de}{count}{struct_code(PrimKind.UNSIGNED, op.dst_size)}")
    sb.emit(f"{st}.pack_into(dst, {d0}, *[{value} & {mask} for v in {su}.unpack_from(src, {s0})])")
