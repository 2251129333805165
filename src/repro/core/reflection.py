"""Reflection: inspect message formats without decoding.

"PBIO supports reflection by allowing message formats to be inspected
before the message is received" (Section 4.4).  Generic components — a
message logger, a visualization gateway, a generic filter — can look at
the full field list of an incoming record type and decide what to do with
it, with no a priori knowledge of the format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.abi import PrimKind
from repro.abi.floats import vax_d_to_ieee, vax_f_to_ieee
from repro.abi.types import struct_code

from . import encoder as enc
from .context import IOContext
from .errors import ConversionError
from .formats import IOFormat


@dataclass(frozen=True)
class MessageInfo:
    """Envelope information extractable from any PBIO message."""

    msg_type: int
    context_id: int
    format_id: int
    payload_len: int

    @property
    def is_format(self) -> bool:
        return self.msg_type == enc.MSG_FORMAT


def peek_message(message) -> MessageInfo:
    """Inspect a message's envelope without touching the payload."""
    msg_type, context_id, format_id, payload_len = enc.unpack_header(message)
    return MessageInfo(msg_type, context_id, format_id, payload_len)


def incoming_format(ctx: IOContext, message) -> IOFormat:
    """The wire format of a data message (from cached meta-information),
    or the announced format of a format message."""
    info = peek_message(message)
    if info.is_format:
        return IOFormat.from_meta_bytes(memoryview(message)[enc.HEADER_SIZE :])
    return ctx.registry.remote_format(info.context_id, info.format_id)


def generic_decode(ctx: IOContext, message) -> dict[str, Any]:
    """Decode a data message *without* a declared expected format.

    This is the "generic component" capability: the wire format's own
    description is used as the target, so every field is surfaced.  Scalar
    values are returned with wire semantics; the record need not match
    anything the receiver knows.

    The frame is admitted by the context's pipeline like any decode
    (:meth:`~repro.core.runtime.DecodePipeline.open_data`: the size limit,
    a data frame — plain or sequenced — whose payload is exactly what its
    header declares and covers its record); what the record's content
    breaks (a string pointer past the record, a missing NUL) is a
    :class:`ConversionError`, counted ``decode.rejected``.
    """
    wire_fmt, payload = ctx.pipeline.open_data(message)
    endian = ">" if wire_fmt.byte_order == "big" else "<"
    out: dict[str, Any] = {}
    try:
        for f in wire_fmt.fields:
            if f.kind is PrimKind.STRING:
                ptr = struct.unpack_from(endian + ("Q" if f.size == 8 else "I"), payload, f.offset)[0]
                if ptr == 0:
                    out[f.name] = None
                else:
                    raw = bytes(payload[ptr:])
                    out[f.name] = raw[: raw.index(b"\x00")].decode("utf-8")
            elif f.kind is PrimKind.CHAR:
                out[f.name] = bytes(payload[f.offset : f.offset + f.count])
            elif f.kind is PrimKind.FLOAT and wire_fmt.float_format == "vax":
                raw = bytes(payload[f.offset : f.offset + f.size * f.count])
                arr = vax_f_to_ieee(raw) if f.size == 4 else vax_d_to_ieee(raw)
                out[f.name] = float(arr[0]) if f.count == 1 else tuple(float(v) for v in arr)
            else:
                code = struct_code(f.kind, f.size)
                values = struct.unpack_from(f"{endian}{f.count}{code}", payload, f.offset)
                if f.kind is PrimKind.BOOLEAN:
                    values = tuple(bool(v) for v in values)
                out[f.name] = values[0] if f.count == 1 else values
    except (struct.error, ValueError) as exc:  # (UnicodeDecodeError is a ValueError)
        ctx.metrics.inc("decode.rejected")
        raise ConversionError(f"malformed {wire_fmt.name!r} record content: {exc}") from exc
    return out
