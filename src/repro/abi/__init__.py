"""Machine/ABI simulation substrate.

Models the three sources of heterogeneity the paper's wire formats must
bridge: byte order, primitive type sizes, and compiler structure layout
(alignment padding).  See DESIGN.md §3.
"""

from .types import CType, FieldDecl, PrimKind, RecordSchema
from .machines import (
    ALPHA,
    I960,
    MACHINES,
    MIPS_O32,
    SPARC_V8,
    SPARC_V9_64,
    STRONGARM,
    VAX,
    X86,
    X86_64,
    MachineDescription,
    get_machine,
)
from . import floats
from .layout import LaidOutField, StructLayout, layout_record
from .encoding import NativeCodec, codec_for, records_equal
from .views import RecordArrayView, RecordView

__all__ = [
    "CType",
    "FieldDecl",
    "PrimKind",
    "RecordSchema",
    "MachineDescription",
    "MACHINES",
    "get_machine",
    "X86",
    "X86_64",
    "SPARC_V8",
    "SPARC_V9_64",
    "MIPS_O32",
    "ALPHA",
    "I960",
    "STRONGARM",
    "VAX",
    "floats",
    "LaidOutField",
    "StructLayout",
    "layout_record",
    "NativeCodec",
    "codec_for",
    "records_equal",
    "RecordView",
    "RecordArrayView",
]
