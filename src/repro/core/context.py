"""IOContext: the public PBIO API.

One :class:`IOContext` represents a communicating party on a particular
(simulated) machine.  Writers register the formats of the records they
produce; readers declare the formats they expect.  Encoding is NDR
(header + native bytes, no translation); decoding matches the incoming
wire format against the expected native format by field name and converts
only where representations actually differ, using a converter generated
at run time (DCG) or the table-driven interpreter.

All receive-side work is carried out by the context's
:class:`~repro.core.runtime.DecodePipeline`; converters live in a
:class:`~repro.core.runtime.ConverterCache` that is private per context
by default but can be shared by any number of same-process contexts
(``cache=`` parameter or :meth:`IOContext.use_cache`), so N subscribers
on identical machines pay converter generation once, not N times.

Typical use::

    sender = IOContext(machine=abi.X86)
    receiver = IOContext(machine=abi.SPARC_V8)

    fmt = sender.register_format(schema)
    receiver.expect(schema)

    announce = sender.announce(fmt)          # once per format
    message = sender.encode(fmt, record)     # per record
    receiver.receive(announce)
    result = receiver.receive(message)       # dict (or use decode_view)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.abi import (
    MachineDescription,
    NativeCodec,
    RecordSchema,
    RecordView,
    StructLayout,
    codec_for,
    layout_record,
)

from . import encoder as enc
from .formats import IOFormat
from .registry import FormatRegistry
from .runtime import ContextStats, ConverterCache, DecodePipeline, Metrics
from .safety import DEFAULT_LIMITS, DecodeLimits


@dataclass(frozen=True)
class FormatHandle:
    """A writer-side registered format: everything needed to emit records."""

    format_id: int
    iofmt: IOFormat
    layout: StructLayout
    codec: NativeCodec

    @property
    def name(self) -> str:
        return self.iofmt.name


class IOContext:
    """One PBIO party bound to a simulated machine.

    ``conversion`` selects the receiver-side strategy:

    * ``"dcg"`` (default) — runtime-generated specialized converters;
    * ``"interpreted"``   — the table-driven interpreter;
    * ``"vcode"``         — DCG lowered onto the virtual RISC VM
      (mechanism-fidelity mode; slow under Python, see DESIGN.md).

    ``cache`` may name a :class:`ConverterCache` shared with other
    contexts; the default is a private cache (seed-compatible).  The
    cache key includes the machine ABI and conversion mode, so sharing
    between heterogeneous contexts is always safe.

    ``limits`` (a :class:`~repro.core.safety.DecodeLimits`) bounds what
    this context will accept from peers — message size, meta size,
    field counts, per-peer format quota.  The default is
    :data:`~repro.core.safety.DEFAULT_LIMITS`; pass ``None`` to disable
    resource checks entirely (trusted in-process wiring only).
    """

    def __init__(
        self,
        machine: MachineDescription,
        *,
        conversion: str = "dcg",
        context_id: int | None = None,
        cache: ConverterCache | None = None,
        metrics: Metrics | None = None,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        format_service=None,
    ):
        if conversion not in ("dcg", "interpreted", "vcode"):
            raise ValueError(f"unknown conversion mode {conversion!r}")
        self.machine = machine
        self.conversion = conversion
        self.registry = FormatRegistry(context_id)
        self.metrics = metrics if metrics is not None else Metrics()
        self.stats = ContextStats(self.metrics)
        self.limits = limits
        self._handles: dict[int, FormatHandle] = {}
        self._expected: dict[str, IOFormat] = {}  # format name -> native format
        self.pipeline = DecodePipeline(
            registry=self.registry,
            expected=self._expected,
            machine=machine,
            conversion=conversion,
            cache=cache,
            metrics=self.metrics,
            limits=limits,
        )
        self.format_service = None
        if format_service is not None:
            self.use_format_service(format_service)

    @property
    def context_id(self) -> int:
        return self.registry.context_id

    @property
    def cache(self) -> ConverterCache:
        """The converter cache this context resolves against."""
        return self.pipeline.cache

    def use_cache(self, cache: ConverterCache) -> "IOContext":
        """Re-point this context at ``cache`` (e.g. a channel-wide shared
        cache).  Entries built in the previous cache are not migrated —
        they are rebuilt on demand in the new one."""
        self.pipeline.set_cache(cache)
        return self

    def use_format_service(self, service) -> "IOContext":
        """Attach a :class:`~repro.fmtserv.FormatService` (or ``None``).

        With a service attached, :meth:`announce_compact` emits 28-byte
        token announcements when the service can vouch for the format,
        and the decode pipeline resolves incoming token announcements
        through the service's cache ladder.  Detaching (``None``)
        restores pure inline behaviour.
        """
        self.format_service = service
        self.pipeline.resolver = service.resolve if service is not None else None
        return self

    # -- writer side --------------------------------------------------------

    def register_format(self, schema: RecordSchema) -> FormatHandle:
        """Register a record format this context will write."""
        layout = layout_record(schema, self.machine)
        iofmt = IOFormat.from_layout(layout)
        fmt_id = self.registry.register_local(iofmt)
        handle = FormatHandle(fmt_id, iofmt, layout, codec_for(layout))
        self._handles[fmt_id] = handle
        return handle

    def announce(self, handle: FormatHandle) -> bytes:
        """The one-time format meta-information message for ``handle``."""
        return enc.encode_format_message(self.context_id, handle.format_id, handle.iofmt)

    def announce_compact(self, handle: FormatHandle) -> bytes:
        """The cheapest safe announcement for ``handle``.

        A 28-byte token message when the attached format service holds a
        token for the format (the server has the meta, so any receiver
        can resolve it); the classic inline meta message otherwise.
        Token announcements are only ever emitted once the server has
        confirmed registration — a token in flight always has meta
        behind it.
        """
        svc = self.format_service
        if svc is not None:
            token = svc.publish(handle.iofmt)
            if token is not None:
                return enc.encode_token_message(
                    self.context_id,
                    handle.format_id,
                    handle.iofmt.fingerprint,
                    token,
                )
            svc.note_inline_fallback()
        return self.announce(handle)

    def encode_native(self, handle: FormatHandle, native) -> bytes:
        """Encode a record already in native binary form (any buffer: its
        bytes are the record) into one contiguous data message."""
        return enc.data_frames(self.context_id, handle.format_id, (native,))[0]

    def encode(self, handle: FormatHandle, record: dict[str, Any]) -> bytes:
        """Convenience: encode a value dict (simulating the application's
        in-memory struct) and wrap it in a data message."""
        return self.encode_native(handle, handle.codec.encode(record))

    # -- reader side ----------------------------------------------------------

    def expect(self, schema: RecordSchema) -> IOFormat:
        """Declare the native format this context wants records decoded to.

        Registered per format *name*; incoming wire formats with the same
        name are matched against it field by field.
        """
        layout = layout_record(schema, self.machine)
        iofmt = IOFormat.from_layout(layout)
        self._expected[schema.name] = iofmt
        return iofmt

    def receive(self, message) -> dict[str, Any] | None:
        """Process one incoming message.

        Format announcements are absorbed (returns ``None``); data
        messages return the decoded record dict.
        """
        return self.pipeline.ingest(message)

    # decoding ---------------------------------------------------------------

    def decode_native(self, message) -> bytes:
        """Decode to record bytes in this context's native layout."""
        return self.pipeline.decode_native(message)

    def decode_view(self, message) -> RecordView:
        """Decode to a :class:`RecordView`.

        In the homogeneous (matching-layout) case the view references the
        *message buffer itself* — received data used directly, no copy.
        """
        return self.pipeline.decode_view(message)

    def decode(self, message) -> dict[str, Any]:
        """Decode to a value dict (fully materialized)."""
        return self.pipeline.decode(message)

    def converter_sources(self, format_name: str | None = None) -> dict[str, str]:
        """Inspect the conversion code available to this context.

        Returns ``{"<wire> -> <native>": source}`` for every converter in
        this context's cache matching its machine and conversion mode
        (generated Python for DCG, vcode disassembly for the vcode
        backend, the plan description for the interpreter) — a debugging
        window into what DCG actually emitted.  With a shared cache this
        includes converters built by sibling contexts on the same machine.
        """
        return self.cache.sources(
            format_name, conversion=self.conversion, machine=self.machine
        )
