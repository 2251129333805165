"""The paper's own route to receiver-side DCG: a conversion plan lowered
onto the virtual RISC ISA and run by the VM.  Slower under Python than
:mod:`repro.core.conversion.codegen`, it serves the mechanism-fidelity
ablation (DESIGN.md), and a context takes it as its converter factory:
``IOContext(machine, conversion=generate_vcode_converter)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.conversion import ConversionPlan, GeneratedConverter, OpKind
from repro.core.errors import ConversionError

from .macros import ConversionEmitter
from .optimizer import OptimizationStats, optimize as run_passes
from .vm import VM


@dataclass
class VcodeConverter(GeneratedConverter):
    """A vcode converter; ``source`` is the program's disassembly."""

    vcode_stats: OptimizationStats | None = None  # None when not optimized


def generate_vcode_converter(plan: ConversionPlan, *, optimize: bool = True) -> VcodeConverter:
    """Lower ``plan`` to a vcode program and wrap VM execution.

    ``optimize`` runs the peephole passes of :mod:`repro.vcode.optimizer`
    (the paper's "runtime binary code optimization" future work) before
    execution.
    """
    if plan.has_strings:
        raise ConversionError("the vcode backend models fixed-size records")
    if plan.has_vax_floats:
        raise ConversionError(
            "the vcode backend models IEEE hosts; VAX float conversion uses "
            "the python backend's subroutines"
        )
    t0 = time.perf_counter()
    ce = ConversionEmitter(plan.wire.byte_order, plan.native.byte_order)
    for op in plan.ops:
        k = op.kind
        if k is OpKind.COPY:
            ce.copy_bytes(op.dst_off, op.src_off, op.dst_size)
        elif k is OpKind.ZERO:
            pass  # dst zero-initialized by the wrapper
        elif k is OpKind.CHARS:
            ce.copy_bytes(op.dst_off, op.src_off, min(op.src_size, op.dst_size))
        elif k in (OpKind.SWAP, OpKind.CVT_INT):
            ce.convert_int(op.dst_off, op.dst_size, op.src_off, op.src_size, signed=op.signed, count=op.count)
        elif k is OpKind.CVT_FLOAT:
            ce.convert_float(op.dst_off, op.dst_size, op.src_off, op.src_size, count=op.count)
        elif k is OpKind.CVT_INT_FLOAT:
            ce.convert_int_to_float(op.dst_off, op.dst_size, op.src_off, op.src_size, signed=op.signed, count=op.count)
        elif k is OpKind.CVT_FLOAT_INT:
            ce.convert_float_to_int(op.dst_off, op.dst_size, op.src_off, op.src_size, count=op.count)
        else:  # pragma: no cover
            raise ConversionError(f"vcode backend cannot lower {op}")
    program = ce.finish()
    opt_stats = None
    if optimize:
        program, opt_stats = run_passes(program)
    vm = VM()
    size = plan.native.record_size

    def convert(src, dst=None) -> bytes:
        owned = dst is None
        if owned:
            dst = bytearray(size)
        vm.run(program, {"src": src if isinstance(src, (bytes, bytearray)) else bytes(src), "dst": dst})
        return bytes(dst) if owned else dst

    return VcodeConverter(
        convert=convert,
        source=program.disassemble(),
        generation_time_s=time.perf_counter() - t0,
        vcode_stats=opt_stats,
    )
