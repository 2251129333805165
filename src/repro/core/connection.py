"""PbioConnection: an IOContext bound to a transport.

Handles the meta-information protocol transparently: the first time a
format travels over the connection its announcement precedes the data
message; the receiving side absorbs announcements and returns only data.
This is the layer examples, integration tests and the reference benchmark
(``benchmarks/e2e``: the socket workloads drive it) use; the figure
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

Announcement state is kept per *live link incarnation* — the transport
object and its reconnect generation — so a re-dialled transport is
re-announced to rather than silently assumed to remember formats the dead
link heard (see :class:`~repro.core.negotiation.LinkTable`).
"""

from __future__ import annotations

from typing import Any

from repro.net.transport import Transport

from . import encoder as enc
from .context import FormatHandle, IOContext
from .errors import PbioError
from .negotiation import ENDPOINT_ROWS, Announcer, InboundNegotiator, LinkTable


class PbioConnection:
    """Duplex PBIO messaging over one transport endpoint."""

    def __init__(self, ctx: IOContext, transport: Transport):
        self.ctx = ctx
        self.transport = transport
        links = LinkTable(ctx)
        self._announcer = Announcer(ctx, links)
        # Late-bound send: `self.transport` may be swapped for a
        # re-dialled replacement, and back-channel traffic must follow.
        self._negotiator = InboundNegotiator(ctx, lambda data: self.transport.send(data))
        self._context_id = ctx.context_id
        # (transport, generation, format id) triples a send owes nothing more: see _owed
        self._settled = links.settled

    # -- sending ------------------------------------------------------------

    def _owed(self, handle: FormatHandle) -> list[bytes]:
        """Announcement frames this link is still owed for ``handle``, after
        answering what a transport with a zero-syscall ``pending()`` probe has
        queued (the recovery dance converges though this side never calls
        recv; on any other transport that takes :meth:`poll`)."""
        transport = self.transport
        pending = transport.pending
        while pending is not None and pending():
            self._negotiator.offer(transport.recv())
        frames = self._announcer.pending_announcements(transport, handle)
        if not frames and pending is None:  # (the table empties the set when the link changes)
            self._settled.add((transport, transport.generation, handle.format_id))
        return frames

    def send_native(self, handle: FormatHandle, native) -> None:
        """Send a record already in native binary form (NDR fast path): its
        segments, header and the caller's buffer, to the transport's scalar
        lane, which packs or gathers them by size."""
        transport = self.transport
        if (transport, transport.generation, handle.format_id) not in self._settled:
            for frame in self._owed(handle):
                transport.send(frame)
        frame = enc.data_frames(self._context_id, handle.format_id, (native,), gather=0)[0]
        transport.send_segments(frame.segments)

    def send(self, handle: FormatHandle, record: dict[str, Any]) -> None:
        """Send a value dict (encodes to native form first)."""
        self.send_native(handle, handle.codec.encode(record))

    def send_batch_native(self, handle: FormatHandle, natives) -> None:
        """Send many native-form records as one vectored transport burst.

        The announcement (when still owed to this link) travels in the
        same burst, ahead of the data frames.  A frame under
        :data:`~repro.core.encoder.GATHER_MIN_FRAME` is header + record
        packed (a copy cheaper than an iovec); a larger one is gathered:
        the caller's buffer goes to the transport untouched.
        """
        transport = self.transport
        frames = [] if (transport, transport.generation, handle.format_id) in self._settled else self._owed(handle)
        frames += enc.data_frames(self._context_id, handle.format_id, natives, gather=enc.GATHER_MIN_FRAME)
        transport.send_many(frames)

    # -- receiving ------------------------------------------------------------

    def _recv(self, decode):
        """The next frame the negotiator admits, through ``decode`` with the
        header it parsed: in the steady state straight off the transport."""
        negotiator = self._negotiator
        taken = negotiator.admit() if negotiator.ready else None
        while taken is None:
            taken = negotiator.admit(self.transport.recv())
        return decode(taken[0], header=taken[1])

    def recv(self) -> dict[str, Any]:
        """Receive and decode the next record to a dict."""
        return self._recv(self.ctx.pipeline.decode)

    def recv_view(self):
        """Receive and decode the next record to a (possibly zero-copy)
        :class:`~repro.abi.views.RecordView`."""
        return self._recv(self.ctx.pipeline.decode_view)

    def recv_batch(self, max_frames: int = 0, *, on_error: str = "raise", lend: bool = False) -> list:
        """Receive a burst of records in one pass.

        Blocks for the first frame, then takes everything the transport
        already has buffered (``recv_many_leased``) and decodes it with
        the batch pipeline where it lies — consecutive same-format
        frames share one columnar conversion.  Returns the decoded dicts
        in arrival order (``on_error="skip"`` leaves a ``None`` per
        rejected frame; ``"raise"`` raises at the first, like the
        sequential loop: the frames behind it come with the next call).

        ``lend=True`` returns :class:`~repro.abi.views.RecordView`
        objects instead: homogeneous data frames are viewed *directly in
        the transport's receive buffer* — zero payload copies end to end
        — and hold its lease; call ``view.detach()`` before storing one
        past the processing loop.  Converted views own their bytes, and
        the buffer never leaves the transport for them.  A burst holding
        a control or foreign frame, or met with a format unresolved, goes
        through the negotiator in order on owned copies (a sequenced frame
        is data: decoded where it lies, its prefix checked, not deduplicated).
        """
        negotiator, ready, rows, run = self._negotiator, self._negotiator.ready, ENDPOINT_ROWS, enc.RUN
        headers = loan = None
        try:
            while not ready:
                messages, loan = self.transport.recv_many_leased(max_frames)
                headers = list(map(enc.try_unpack_header, messages))
                if not negotiator.unresolved:
                    for header in headers:
                        if header is None or rows[header[0]] is not run:
                            break
                    else:  # the steady state: plain data, nothing pending
                        break
                for frame, header in zip(messages, headers):
                    negotiator.offer(bytes(frame), header=header)
                if loan is not None:
                    loan.close()
                headers = loan = None
            else:  # the negotiator has frames ready: owned bytes, no parsed headers, no loan
                take = min(max_frames, len(ready)) if max_frames > 0 else len(ready)
                messages = [ready.popleft() for _ in range(take)]
            try:
                return self.ctx.pipeline.decode_batch(
                    messages, on_error=on_error, lend=lend, lease=loan, headers=headers
                )
            except PbioError as exc:
                # off the transport already: what lies behind the rejected frame is still owed
                ready.extendleft(bytes(frame) for frame in reversed(messages[exc.partial.index(None) + 1 :]))
                raise
        finally:
            if loan is not None:
                loan.close()

    def poll(self) -> None:
        """Drain frames available right now without blocking.

        Absorbs announcements, answers the peer's meta requests, and
        queues any data messages for the next :meth:`recv`, for send-mostly
        endpoints: ``transport.poll_recv()`` is what every transport has.
        """
        while (frame := self.transport.poll_recv()) is not None:
            self._negotiator.offer(frame)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
