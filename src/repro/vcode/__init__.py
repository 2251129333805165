"""Vcode-like dynamic code generation substrate.

A virtual RISC instruction set (after Engler's Vcode, which the paper's
PBIO uses for receiver-side DCG), an emitter with ``v_*``-style macros, a
register pool, a VM executor, and the lowering of a conversion plan onto
them (:func:`generate_vcode_converter`).  See DESIGN.md for how this maps
to the paper's native code generation.
"""

from .isa import FLOAT_WIDTHS, INT_WIDTHS, NUM_FLOAT_REGS, NUM_INT_REGS, Instr, Op
from .emitter import Emitter, Program
from .regalloc import RegisterExhausted, RegisterPool
from .vm import VM, VMError
from .macros import UNROLL_LIMIT, ConversionEmitter
from .optimizer import OptimizationStats, optimize
from .lowering import generate_vcode_converter

__all__ = [
    "Instr",
    "Op",
    "INT_WIDTHS",
    "FLOAT_WIDTHS",
    "NUM_INT_REGS",
    "NUM_FLOAT_REGS",
    "Emitter",
    "Program",
    "RegisterPool",
    "RegisterExhausted",
    "VM",
    "VMError",
    "ConversionEmitter",
    "UNROLL_LIMIT",
    "optimize",
    "OptimizationStats",
    "generate_vcode_converter",
]
