"""Receiver-side conversion: plans, the table-driven interpreter, and
dynamic code generation (Python and vcode backends)."""

from .plan import ConversionPlan, ConvOp, OpKind, build_plan
from .interpreted import InterpretedConverter
from .batch import (
    BatchConverter,
    VarBatchConverter,
    build_batch_converter,
    build_var_batch_converter,
)
from .codegen import (
    GeneratedConverter,
    generate_converter,
    generate_python_converter,
    generate_vcode_converter,
)
from .vectorized import GATHER_MAX_BYTES, NUMPY_THRESHOLD, gather_index

__all__ = [
    "ConversionPlan",
    "ConvOp",
    "OpKind",
    "build_plan",
    "InterpretedConverter",
    "BatchConverter",
    "VarBatchConverter",
    "build_batch_converter",
    "build_var_batch_converter",
    "GeneratedConverter",
    "generate_converter",
    "generate_python_converter",
    "generate_vcode_converter",
    "GATHER_MAX_BYTES",
    "NUMPY_THRESHOLD",
    "gather_index",
]
