"""Receiver-side conversion: plans, the table-driven interpreter, and
dynamic code generation."""

from .plan import ConversionPlan, OpKind, build_plan
from .interpreted import InterpretedConverter
from .batch import build_batch_converter, build_var_batch_converter
from .codegen import GeneratedConverter, generate_converter
from .vectorized import GATHER_MAX_BYTES, NUMPY_THRESHOLD, gather_index

__all__ = [
    "ConversionPlan",
    "OpKind",
    "build_plan",
    "InterpretedConverter",
    "build_batch_converter",
    "build_var_batch_converter",
    "GeneratedConverter",
    "generate_converter",
    "GATHER_MAX_BYTES",
    "NUMPY_THRESHOLD",
    "gather_index",
]
