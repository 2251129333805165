"""PbioConnection: an IOContext bound to a transport.

Handles the meta-information protocol transparently: the first time a
format travels over the connection its announcement precedes the data
message; the receiving side absorbs announcements and returns only data.
This is the convenience layer examples and integration tests use — the
benchmarks call the context primitives directly so the one-time costs can
be measured separately.

With a format service attached to the sending context
(:meth:`IOContext.use_format_service`), announcements shrink to 28-byte
``(fingerprint, token)`` messages; the receiving side resolves tokens
through its own service's cache ladder, and when it cannot — server
down, cold cache — the connection runs the
:mod:`~repro.core.negotiation` recovery dance: a ``MSG_FORMAT_REQUEST``
travels back, data messages of the unresolved format are held (never
dropped), and the sender answers with classic inline meta.  Everything
degrades to the pre-service wire protocol; nothing ever depends on the
format server being up.

Announcement state is keyed by *live link identity* — transport token
plus reconnect generation — so a re-dialled transport is re-announced
to rather than silently assumed to remember formats the dead link heard
(see :func:`~repro.core.negotiation.link_key`).
"""

from __future__ import annotations

from typing import Any

from repro.net.transport import Transport

from . import encoder as enc
from .context import FormatHandle, IOContext
from .negotiation import Announcer, InboundNegotiator


class PbioConnection:
    """Duplex PBIO messaging over one transport endpoint."""

    def __init__(self, ctx: IOContext, transport: Transport):
        self.ctx = ctx
        self.transport = transport
        self._announcer = Announcer(ctx)
        # Late-bound send: `self.transport` may be swapped for a
        # re-dialled replacement, and back-channel traffic must follow.
        self._negotiator = InboundNegotiator(ctx, lambda data: self.transport.send(data))

    # -- sending ------------------------------------------------------------

    def send_native(self, handle: FormatHandle, native) -> None:
        """Send a record already in native binary form (NDR fast path)."""
        # Answer any meta requests the peer has queued before pushing
        # more data at it (keeps the recovery dance converging even when
        # this side never calls recv).
        self._negotiator.pump(self.transport)
        self._announcer.ensure_announced(self.transport, handle)
        self.transport.send_segments(self.ctx.encode_segments(handle, native))

    def send(self, handle: FormatHandle, record: dict[str, Any]) -> None:
        """Send a value dict (encodes to native form first)."""
        self.send_native(handle, handle.codec.encode(record))

    def send_batch_native(self, handle: FormatHandle, natives) -> None:
        """Send many native-form records as one vectored transport burst.

        The announcement (when still owed to this link) travels in the
        same burst, ahead of the data frames; on a socket transport the
        whole batch is a handful of ``sendmsg`` calls instead of N
        ``sendall`` round trips through the kernel.
        """
        self._negotiator.pump(self.transport)
        frames = self._announcer.pending_announcements(self.transport, handle)
        cid, fid = self.ctx.context_id, handle.format_id
        frames.extend(enc.encode_data_message(cid, fid, n) for n in natives)
        self.transport.send_many(frames)

    # -- receiving ------------------------------------------------------------

    def recv_message(self) -> bytes:
        """Receive the next *data* message, absorbing announcements.

        Token announcements that cannot be resolved locally trigger the
        inline-recovery protocol transparently; messages of a format
        whose meta is still in flight are held and returned (in order)
        once it arrives.
        """
        message, _ = self._recv_parsed()
        return message

    def _recv_parsed(self) -> tuple[bytes, tuple | None]:
        """Next data message plus its already-parsed header (when the
        steady-state fast path produced one — threading it into the
        pipeline makes each frame's header validate exactly once)."""
        message = self._negotiator.next_ready()
        header = None
        while message is None:
            message, header = self._negotiator.filter_parsed(self.transport.recv())
        return message, header

    def recv(self) -> dict[str, Any]:
        """Receive and decode the next record to a dict."""
        message, header = self._recv_parsed()
        return self.ctx.pipeline.decode(message, header=header)

    def recv_view(self):
        """Receive and decode the next record to a (possibly zero-copy)
        :class:`~repro.abi.views.RecordView`."""
        message, header = self._recv_parsed()
        return self.ctx.pipeline.decode_view(message, header=header)

    def recv_batch(
        self, max_frames: int = 0, *, on_error: str = "raise", lend: bool = False
    ) -> list:
        """Receive a burst of records in one pass.

        Blocks for the first frame, then drains everything the transport
        already has buffered (``recv_many``), runs announcements through
        the negotiator, and decodes the resulting data messages with the
        batch pipeline — consecutive same-format frames share one
        columnar conversion.  Returns the decoded dicts in arrival order
        (``on_error="skip"`` leaves a ``None`` per rejected frame).

        ``lend=True`` returns leased :class:`~repro.abi.views.RecordView`
        objects instead of dicts: homogeneous data frames are decoded as
        views *directly into the transport's receive buffer*
        (``recv_many_leased``) — zero payload copies end to end.  The
        views hold the buffer lease; call ``view.detach()`` before
        storing one past the processing loop.  Control frames and
        sequenced/held frames are copied out as usual — correctness never
        depends on the fast path.
        """
        messages: list = []
        headers: list = []  # what this loop sniffed; None for a frame the negotiator held

        def drain_ready() -> None:
            while max_frames <= 0 or len(messages) < max_frames:
                m = self._negotiator.next_ready()
                if m is None:
                    return
                messages.append(m)
                headers.append(None)

        drain_ready()
        lease = None
        while not messages:
            if lend:
                frames, lease = self.transport.recv_many_leased(max_frames)
                for frame in frames:
                    header = enc.try_unpack_header(frame)
                    if (
                        header is not None
                        and header[0] == enc.MSG_DATA
                        and not self._negotiator.unresolved
                    ):
                        # Steady state: a data frame with nothing pending
                        # bypasses the negotiator and stays a borrowed
                        # view.  Everything else (announcements, seq
                        # frames, held-format data) is copied and takes
                        # the ordinary path.
                        messages.append(frame)
                        headers.append(header)
                    else:
                        self._negotiator.offer(bytes(frame), header=header)
            else:
                for frame in self.transport.recv_many(max_frames):
                    self._negotiator.offer(frame)
            drain_ready()
        return self.ctx.pipeline.decode_batch(
            messages, on_error=on_error, lend=lend, lease=lease, headers=headers
        )

    def poll(self) -> None:
        """Drain frames available right now without blocking.

        Absorbs announcements, answers the peer's meta requests, and
        queues any data messages for the next :meth:`recv`.  Useful for
        send-mostly endpoints on non-blocking transports.
        """
        self._negotiator.pump(self.transport)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
