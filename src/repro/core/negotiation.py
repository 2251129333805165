"""Announcement negotiation: token-first sending, inline recovery.

The format service replaces full meta-information announcements with
28-byte ``(fingerprint, token)`` messages — but a receiver can only use
one if it can resolve the fingerprint (cache, disk, or format server).
When it cannot, the wire protocol recovers on the link itself: the
receiver sends ``MSG_FORMAT_REQUEST`` back to the announcer, *holds*
data messages of the unresolved format, and releases them — in order —
once the announcer replies with a classic inline ``MSG_FORMAT``.  No
message is lost, no decode is attempted against an unknown format, and
the slow path ends in exactly the pre-service protocol.

Two pieces, shared by :class:`~repro.core.connection.PbioConnection`
and the RPC endpoints so the recovery dance exists once:

* :class:`InboundNegotiator` — the receive-side state machine;
* :class:`Announcer` — the send-side dedup, keyed by *live link
  identity* ``(transport_token, reconnect generation)`` rather than by
  format id alone, so a re-dialled transport is never mistaken for one
  that already heard the announcements.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.net.transport import transport_token

from . import encoder as enc
from .context import FormatHandle, IOContext
from .errors import LimitError, TokenResolutionError

#: Hold-queue ceiling per unresolved format: a peer that streams data
#: forever without ever answering the meta request is either broken or
#: hostile, and memory must stay bounded either way.
DEFAULT_MAX_HELD = 1024


def link_key(transport) -> tuple[int, int]:
    """Identity of the *current incarnation* of a link.

    ``transport_token`` distinguishes transport objects (a re-dialled
    replacement is a new object, hence a new token); ``generation``
    distinguishes incarnations of a self-reconnecting transport (same
    object, fresh link after each re-dial).  Announcement state keyed by
    anything less survives a reconnect it should not.
    """
    return (transport_token(transport), getattr(transport, "generation", 0))


class Announcer:
    """Send-side announcement dedup for one context over any links."""

    def __init__(self, ctx: IOContext):
        self.ctx = ctx
        self._sent: set[tuple[int, int, int]] = set()
        self._link_memo: tuple | None = None  # (transport, gen, key prefix)

    def ensure_announced(
        self,
        transport,
        handle: FormatHandle,
        *,
        send: Callable[[bytes], None] | None = None,
    ) -> None:
        """Announce ``handle`` if this link incarnation has not heard it.

        The announcement is compact (token) when the context has a
        format service that can vouch for the format, inline otherwise —
        :meth:`IOContext.announce_compact` decides.
        """
        for frame in self.pending_announcements(transport, handle):
            (send or transport.send)(frame)

    def pending_announcements(self, transport, handle: FormatHandle) -> list[bytes]:
        """Announcement frames still owed to this link for ``handle``.

        Empty once the link incarnation has heard the format.  The frames
        are marked sent on return — the caller *must* put them on the
        wire (batch senders splice them ahead of the data frames so the
        whole burst is one vectored send).
        """
        gen = getattr(transport, "generation", 0)
        memo = self._link_memo
        if memo is not None and memo[0] is transport and memo[1] == gen:
            prefix = memo[2]
        else:
            prefix = link_key(transport)
            self._link_memo = (transport, gen, prefix)
        key = (prefix[0], prefix[1], handle.format_id)
        if key in self._sent:
            return []
        self._sent.add(key)
        return [self.ctx.announce_compact(handle)]


class InboundNegotiator:
    """Receive-side handling of announcements, tokens and meta requests.

    Feed every inbound frame to :meth:`offer`; consume decodable frames
    (data messages, or foreign frames such as RPC call headers) from
    :meth:`next_ready`.  Announcements are absorbed, token announcements
    resolved (or converted into a ``MSG_FORMAT_REQUEST`` on the
    back-channel), meta requests answered from the context's local
    registry, and data messages for still-unresolved formats held until
    their inline meta arrives.

    Within one format, held messages release in arrival order; frames of
    *other* formats are not delayed behind an unresolved one (per-format
    ordering, the same guarantee a lossy-link replay gives).
    """

    def __init__(
        self,
        ctx: IOContext,
        send: Callable[[bytes], None],
        *,
        max_held: int = DEFAULT_MAX_HELD,
    ):
        self.ctx = ctx
        self._send = send
        self.max_held = max_held
        self._pending: dict[tuple[int, int], bytes] = {}  # (cid, fid) -> fingerprint
        self._held: dict[tuple[int, int], list[bytes]] = {}
        self.ready: deque[bytes] = deque()  # oldest first; a burst caller (recv_batch) takes from it directly
        #: Set when the peer sent a goodbye ping (it is draining).
        self.peer_goodbye = False

    def next_ready(self) -> bytes | None:
        """The next frame ready for the caller, if any."""
        return self.ready.popleft() if self.ready else None

    def filter(self, frame) -> bytes | None:
        """:meth:`offer` + :meth:`next_ready` fused for pull-style loops.

        In the steady state (nothing held, nothing pending) a data
        message or foreign frame is returned directly, skipping the
        ready queue; otherwise the frame takes the full :meth:`offer`
        path and whatever is ready next comes back (``None`` if the
        frame was absorbed by the negotiation).
        """
        header = None
        if not self.ready and not self._pending:
            header = enc.try_unpack_header(frame)
            if header is None or header[0] == enc.MSG_DATA:
                return frame if isinstance(frame, bytes) else bytes(frame)
        self.offer(frame, header=header)
        return self.next_ready()

    @property
    def unresolved(self) -> int:
        """Formats currently awaiting an inline re-announcement."""
        return len(self._pending)

    def offer(self, frame, *, header: tuple | None = None) -> None:
        """Process one inbound frame (absorb, hold, request, or enqueue).

        ``header`` may carry the already-parsed tuple from
        :func:`~repro.core.encoder.try_unpack_header`; the frame is then
        never re-parsed here (one validation per frame, end to end).
        """
        if header is None:
            header = enc.try_unpack_header(frame)
        if header is None:
            # A foreign frame (RPC call header, fault text): the caller's
            # business.
            self.ready.append(frame if isinstance(frame, bytes) else bytes(frame))
            return
        kind = header[0]
        if kind == enc.MSG_DATA:
            if self._pending:
                key = (header[1], header[2])
                if key in self._pending:
                    self._hold(key, frame)
                    return
            self.ready.append(frame if isinstance(frame, bytes) else bytes(frame))
            return
        if kind == enc.MSG_FORMAT:
            self.ctx.pipeline.absorb(frame, header[1], header[2])
            self._release((header[1], header[2]))
            return
        if kind == enc.MSG_FORMAT_TOKEN:
            try:
                self.ctx.pipeline.absorb_token(frame)
            except TokenResolutionError as exc:
                self._request_meta(exc)
            else:
                # A re-announcement that resolves now (service recovered):
                # anything held from the earlier failure is decodable.
                self._release((header[1], header[2]))
            return
        if kind == enc.MSG_PING:
            nonce, _depth = enc.parse_ping(frame)
            if nonce == enc.GOODBYE_NONCE:
                self.peer_goodbye = True  # peer is draining; no pong expected
            else:
                self._send(enc.encode_pong(nonce))
            return
        if kind == enc.MSG_PONG:
            # A pong reaching the negotiator means no HeartbeatMonitor
            # polled it first; it carries no format state — drop it.
            return
        self._serve_meta(enc.parse_format_request(frame))

    def _hold(self, key: tuple[int, int], frame) -> None:
        held = self._held.setdefault(key, [])
        if len(held) >= self.max_held:
            raise LimitError(
                f"{len(held)} messages held for unresolved format id "
                f"{key[1]} from context {key[0]:#010x}; peer never "
                f"answered the meta request"
            )
        held.append(bytes(frame))
        self.ctx.metrics.inc("fmtserv.messages_held")

    # -- internals -----------------------------------------------------------

    def _release(self, key: tuple[int, int]) -> None:
        self._pending.pop(key, None)
        held = self._held.pop(key, None)
        if held:
            self.ctx.metrics.inc("fmtserv.messages_released", len(held))
            self.ready.extend(held)

    def _request_meta(self, exc: TokenResolutionError) -> None:
        key = (exc.context_id, exc.format_id)
        if key in self._pending:
            return  # request already on the wire; keep holding
        self._pending[key] = exc.fingerprint
        self._held.setdefault(key, [])
        self._send(enc.encode_format_request(self.ctx.context_id, exc.fingerprint))
        self.ctx.metrics.inc("fmtserv.meta_requests_sent")

    def _serve_meta(self, fingerprint: bytes) -> None:
        fmt_id = self.ctx.registry.local_id_for_fingerprint(fingerprint)
        if fmt_id is None:
            # Not ours (mis-routed or stale): ignoring is safe — the
            # requester keeps holding and will re-request or time out.
            self.ctx.metrics.inc("fmtserv.meta_requests_unknown")
            return
        fmt = self.ctx.registry.local_format(fmt_id)
        self._send(enc.encode_format_message(self.ctx.context_id, fmt_id, fmt))
        self.ctx.metrics.inc("fmtserv.meta_requests_served")
