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
    UnknownFormatError,
)
from .safety import DEFAULT_LIMITS, DecodeLimits
from .fields import WireField
from .formats import IOFormat
from .registry import FormatRegistry
from .matching import match_formats
from .conversion import OpKind, build_plan
from .runtime import ConverterCache, DecodePipeline, Metrics, reset_shared_cache, shared_cache
from .context import IOContext
from .connection import PbioConnection
from .reflection import generic_decode, incoming_format, peek_message
from .versioning import check_evolution
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
    "IOFormat",
    "FormatRegistry",
    "match_formats",
    "OpKind",
    "build_plan",
    "IOContext",
    "Metrics",
    "ConverterCache",
    "DecodePipeline",
    "shared_cache",
    "reset_shared_cache",
    "PbioConnection",
    "peek_message",
    "incoming_format",
    "generic_decode",
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
