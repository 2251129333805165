"""PBIO — Portable Binary I/O with Natural Data Representation.

The paper's primary contribution: record-oriented messaging that
transmits data in the sender's native format plus one-time meta-
information, matches fields by name at the receiver, and converts (only
when needed) with dynamically generated code.

Public API:

* :class:`IOContext` — register/expect formats, encode/decode messages.
* :class:`PbioConnection` — an IOContext bound to a transport.
* :mod:`~repro.core.reflection` — inspect formats without decoding.
* :func:`~repro.core.versioning.check_evolution` — format change analysis.

Core imports only :mod:`repro.abi`: the transports of :mod:`repro.net`
build on it, and appear here in annotations alone.  The adapter that
lets the comparative benchmarks bind PBIO like the baselines is
:class:`repro.wire.PbioWire`.
"""

from .errors import (
    ConversionError,
    FormatError,
    LimitError,
    MessageError,
    PbioError,
    TokenResolutionError,
    UnknownFormatError,
)
from .safety import DEFAULT_LIMITS, DecodeLimits
from .fields import WireField, wire_fields_from_layout
from .formats import IOFormat
from .registry import FormatRegistry
from .matching import FieldMatch, MatchResult, match_formats
from .conversion import (
    ConversionPlan,
    ConvOp,
    InterpretedConverter,
    OpKind,
    build_plan,
    generate_converter,
)
from .runtime import (
    BufferPool,
    ContextStats,
    ConverterCache,
    DecodePipeline,
    Metrics,
    reset_shared_cache,
    shared_cache,
)
from .context import FormatHandle, IOContext
from .connection import PbioConnection
from .negotiation import Announcer, InboundNegotiator, LinkTable
from .reflection import MessageInfo, generic_decode, incoming_format, peek_message
from .versioning import CompatibilityReport, check_evolution
from .files import PbioFileReader, PbioFileWriter, read_records, write_records
from .rpc import (
    RpcClient,
    RpcError,
    RpcFault,
    RpcInterface,
    RpcOperation,
    RpcServer,
    RpcTimeout,
)
from .filters import (
    FilterError,
    RecordFilter,
    RecordProjector,
    compile_predicate,
    compile_projection,
)

__all__ = [
    "PbioError",
    "FormatError",
    "UnknownFormatError",
    "MessageError",
    "LimitError",
    "ConversionError",
    "DecodeLimits",
    "DEFAULT_LIMITS",
    "WireField",
    "wire_fields_from_layout",
    "IOFormat",
    "FormatRegistry",
    "FieldMatch",
    "MatchResult",
    "match_formats",
    "ConversionPlan",
    "ConvOp",
    "OpKind",
    "build_plan",
    "InterpretedConverter",
    "generate_converter",
    "IOContext",
    "FormatHandle",
    "ContextStats",
    "Metrics",
    "ConverterCache",
    "DecodePipeline",
    "BufferPool",
    "shared_cache",
    "reset_shared_cache",
    "PbioConnection",
    "TokenResolutionError",
    "Announcer",
    "InboundNegotiator",
    "LinkTable",
    "MessageInfo",
    "peek_message",
    "incoming_format",
    "generic_decode",
    "CompatibilityReport",
    "check_evolution",
    "PbioFileWriter",
    "PbioFileReader",
    "write_records",
    "read_records",
    "RpcInterface",
    "RpcOperation",
    "RpcClient",
    "RpcServer",
    "RpcFault",
    "RpcError",
    "RpcTimeout",
    "RecordFilter",
    "RecordProjector",
    "FilterError",
    "compile_predicate",
    "compile_projection",
]
