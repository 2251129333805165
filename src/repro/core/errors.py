"""PBIO exception hierarchy, and the transport errors.

The transport errors are defined here and re-exported by
:mod:`repro.net.transport`, so that core's negotiation and RPC catch a
failed link without importing the layer above them.  They are
``RuntimeError`` subclasses, not :class:`PbioError` ones: a failed link
is not a malformed message."""

from __future__ import annotations


class PbioError(RuntimeError):
    """Base class for all PBIO errors."""


class FormatError(PbioError):
    """Malformed or unknown format meta-information."""


class UnknownFormatError(FormatError):
    """A data message referenced a format id that was never announced."""

    def __init__(self, context_id: int, format_id: int):
        super().__init__(
            f"unknown format id {format_id} from context {context_id:#010x}; "
            f"the format meta-information message has not been received"
        )
        self.context_id = context_id
        self.format_id = format_id


class TokenResolutionError(FormatError):
    """A token-only announcement named a fingerprint the receiver cannot
    resolve (no format service attached, cold cache, format server
    unreachable).  Unlike :class:`UnknownFormatError` this is *not*
    evidence of protocol damage — duplex endpoints recover by sending a
    ``MSG_FORMAT_REQUEST`` back to the announcer."""

    def __init__(self, context_id: int, format_id: int, fingerprint: bytes):
        super().__init__(
            f"cannot resolve format {fingerprint.hex()} announced as id "
            f"{format_id} by context {context_id:#010x} (format service "
            f"miss or unreachable)"
        )
        self.context_id = context_id
        self.format_id = format_id
        self.fingerprint = fingerprint


class MessageError(PbioError):
    """Malformed wire message (bad magic, truncation, bad type)."""


class LimitError(MessageError):
    """Incoming data exceeded a :class:`~repro.core.safety.DecodeLimits`
    resource bound (message size, field count, per-peer format quota...).

    A subclass of :class:`MessageError`: to the receiver, a frame that
    demands more resources than the configured ceiling is protocol
    damage, not a reason to allocate unboundedly."""


class ConversionError(PbioError):
    """A field cannot be converted between wire and native form."""


class TransportError(RuntimeError):
    pass


class PeerClosedError(TransportError):
    """The peer closed its end: distinguishable from a merely idle link."""


class TransportTimeout(TransportError):
    """A blocking send/recv exceeded the configured timeout."""


class WriteQueueFull(TransportError):
    """A bounded send queue rejected a frame: the peer is not draining.

    Raised by queueing transports (:class:`repro.net.aio.AsyncSocketTransport`)
    whose per-connection write queue is at capacity.  It is a
    :class:`TransportError` deliberately: fan-out layers (the relay) treat a
    persistently-full queue exactly like a broken link — count, report,
    quarantine — which is the slow-consumer eviction policy.
    """


class PeerUnresponsive(TransportError):
    """The peer missed too many consecutive liveness probes.

    Raised (or reported) by :class:`repro.net.health.HeartbeatMonitor`
    when ``miss_threshold`` pings go unanswered.  The socket may still be
    technically open — half-dead links are exactly what heartbeats
    exist to detect — so this is a verdict about the *peer*, not the
    local endpoint.  Probing (:class:`repro.net.health.ProbePolicy`)
    can later clear it.
    """
