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

Everything here is *link* state — what one endpoint keeps about one
live incarnation of one point-to-point link (docs/wire-format.md §13) —
shared by :class:`~repro.core.connection.PbioConnection` and the RPC
endpoints so it exists once:

* :class:`LinkControl` — the one responder to a ping or a pong;
* :class:`InboundNegotiator` — the receive-side state machine;
* :class:`Link` / :class:`LinkTable` — the per-link state and its one
  owner, keyed weakly by the *live* transport object and checked against
  its reconnect ``generation``: a re-dialled link never inherits what the
  dead one heard, and the state is released with the transport;
* :class:`Announcer` — the send-side announcement dedup over that table.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict, deque
from typing import Callable

from repro.net.transport import TransportError

from . import encoder as enc
from .context import FormatHandle, IOContext
from .errors import LimitError, MessageError, TokenResolutionError

#: Hold-queue ceiling per unresolved format: a peer that streams data
#: forever without ever answering the meta request is either broken or
#: hostile, and memory must stay bounded either way.
DEFAULT_MAX_HELD = 1024


class LinkControl:
    """What the peer's heartbeats told this end of a link, and the one body
    that handles them (negotiator, heartbeat monitor, relay downstream,
    fabric peer: each is or keeps one)."""

    peer_goodbye = False  # the peer sent a goodbye ping: it is draining
    peer_queue_depth = 0  # the write-queue depth its last heartbeat carried
    pongs_received = 0
    control_malformed = 0  # wrong-size pings / pongs seen (and ignored)

    def control(self, frame, header, send=None, depth: int = 0, metrics=None) -> bool:
        """Handle one ``MSG_PING`` / ``MSG_PONG`` whose ``header`` the
        caller parsed: a ping is answered through ``send`` with a pong
        carrying ``depth`` (a goodbye is noted, not answered), a pong is
        counted, either one's queue depth recorded.  False for a malformed
        one — counted (``link.control_malformed`` on every role with a
        ``metrics``), never raised: it proves nothing about the peer."""
        try:
            nonce, self.peer_queue_depth = enc.parse_control(frame, header)
        except MessageError:
            self.control_malformed += 1
            if metrics is not None:
                metrics.inc("link.control_malformed")
            return False
        if header[0] == enc.MSG_PONG:
            self.pongs_received += 1
        elif nonce == enc.GOODBYE_NONCE:
            self.peer_goodbye = True
        elif send is not None:
            send(enc.encode_pong(nonce, depth))
        return True


def send_goodbye(transport) -> bool:
    """Best-effort goodbye ping on a bare transport; True if it went out."""
    try:
        transport.send(enc.encode_ping(enc.GOODBYE_NONCE, transport.write_queue_depth))
        return True
    except TransportError:
        return False


#: The endpoint's column of the verdict table (docs/wire-format.md §12): data —
#: plain or sequenced — and foreign frames (an RPC call header, fault text)
#: are the caller's; announcements are absorbed, a meta request and a ping
#: answered, a pong counted; an ack with no durable publisher behind the
#: endpoint is dropped, as a one-way hub drops one on its forward path.
ENDPOINT_ROWS = enc.rows(
    foreign="run", data="run", data_seq="run", format="handle _format", token="handle _token",
    request="handle _request", ping="handle _heartbeat", pong="handle _heartbeat",
    ack="drop link.acks_dropped",
)  # fmt: skip


class InboundNegotiator(LinkControl):
    """Receive-side handling of announcements, tokens and meta requests.

    Pull the caller's frames with :meth:`admit` (or feed frames to
    :meth:`offer` and take them from :attr:`ready`).  Announcements are
    absorbed, token announcements resolved (or converted into a
    ``MSG_FORMAT_REQUEST`` on the back-channel), meta requests answered
    from the context's local registry, pings answered, and data messages
    — plain or sequenced — for still-unresolved formats held until their
    inline meta arrives.

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
        self.metrics = ctx.metrics
        self._send = send
        self.max_held = max_held
        self._pending: dict[tuple[int, int], bytes] = {}  # (cid, fid) -> fingerprint
        self._held: dict[tuple[int, int], list[bytes]] = {}
        self.ready: deque[bytes] = deque()  # oldest first; a burst caller (recv_batch) takes from it directly

    def admit(self, frame=None) -> tuple | None:
        """Is ``frame`` the caller's right now?  The one question of every
        pull loop: ``(frame, header)`` — the next frame that is, a frame
        ready from earlier first — or ``None`` when nothing is (``frame``
        was absorbed, answered or held, or there was none).

        In the steady state (nothing ready, no format pending) a frame
        whose :data:`ENDPOINT_ROWS` row is ``run`` comes back as it is,
        with the header parsed here so the decode does not parse it again
        (``None``: a foreign frame); anything else takes :meth:`offer`, and
        a ready frame comes back with no parsed header.
        """
        ready = self.ready
        if frame is not None:
            header = None
            if not ready and not self._pending:
                header = enc.try_unpack_header(frame)
                if ENDPOINT_ROWS[None if header is None else header[0]] is enc.RUN:
                    return frame, header
            self.offer(frame, header=header)
        return (ready.popleft(), None) if ready else None

    @property
    def unresolved(self) -> int:
        """Formats currently awaiting an inline re-announcement."""
        return len(self._pending)

    def offer(self, frame, *, header: tuple | None = None) -> None:
        """Process one inbound frame (absorb, hold, request, answer, or
        enqueue) by its row of :data:`ENDPOINT_ROWS`.

        ``header`` may carry the already-parsed tuple from
        :func:`~repro.core.encoder.try_unpack_header`; the frame is then
        never re-parsed here (one validation per frame, end to end).
        """
        if header is None:
            header = enc.try_unpack_header(frame)
        row = ENDPOINT_ROWS[None if header is None else header[0]]
        if row is enc.RUN:
            self._data(frame, header)
        else:
            enc.settle(row, frame, header, self)

    # -- the handled rows ------------------------------------------------------

    def _data(self, frame, header) -> None:
        """Plain or sequenced: held behind its unresolved format, else ready
        (a foreign frame too: its decode, if any, rejects it)."""
        if self._pending and header is not None and (key := (header[1], header[2])) in self._pending:
            held = self._held.setdefault(key, [])
            if len(held) >= self.max_held:
                raise LimitError(
                    f"{len(held)} messages held for unresolved format id "
                    f"{key[1]} from context {key[0]:#010x}; peer never "
                    f"answered the meta request"
                )
            held.append(bytes(frame))
            self.ctx.metrics.inc("fmtserv.messages_held")
        else:
            self.ready.append(frame if isinstance(frame, bytes) else bytes(frame))

    def _format(self, frame, header) -> None:
        self.ctx.pipeline.absorb(frame, header)
        self._release((header[1], header[2]))

    def _token(self, frame, header) -> None:
        try:
            self.ctx.pipeline.absorb_token(frame, header)
        except TokenResolutionError as exc:
            key = (exc.context_id, exc.format_id)
            if key not in self._pending:  # else the request is on the wire: keep holding
                self._pending[key] = exc.fingerprint
                self._held.setdefault(key, [])
                self._send(enc.encode_format_request(self.ctx.context_id, exc.fingerprint))
                self.ctx.metrics.inc("fmtserv.meta_requests_sent")
        else:
            # A re-announcement that resolves now (service recovered):
            # anything held from the earlier failure is decodable.
            self._release((header[1], header[2]))

    def _request(self, frame, header) -> None:
        """Answer a peer's meta request from the local registry."""
        try:
            (fingerprint,) = enc.parse_control(frame, header)
        except MessageError:
            self.ctx.metrics.inc("decode.rejected")
            raise
        fmt_id = self.ctx.registry.local_id_for_fingerprint(fingerprint)
        if fmt_id is None:
            # Not ours (mis-routed or stale): ignoring is safe — the
            # requester keeps holding and will re-request or time out.
            self.ctx.metrics.inc("fmtserv.meta_requests_unknown")
            return
        fmt = self.ctx.registry.local_format(fmt_id)
        self._send(enc.encode_format_message(self.ctx.context_id, fmt_id, fmt))
        self.ctx.metrics.inc("fmtserv.meta_requests_served")

    def _heartbeat(self, frame, header) -> None:
        # (a pong reaching here means no HeartbeatMonitor polled it first)
        self.control(frame, header, self._send, metrics=self.ctx.metrics)

    def _release(self, key: tuple[int, int]) -> None:
        self._pending.pop(key, None)
        held = self._held.pop(key, None)
        if held:
            self.ctx.metrics.inc("fmtserv.messages_released", len(held))
            self.ready.extend(held)


class Link:
    """Everything an endpoint keeps for one live incarnation of one link:
    the format ids announced on it, its inbound negotiator (built when
    first asked for, :meth:`LinkTable.negotiator`) and a server's reply
    window.  It refers to its transport weakly — through :meth:`send` too
    — so it never keeps a dropped link alive."""

    __slots__ = ("transport", "generation", "announced", "negotiator", "replies")

    def __init__(self, ctx: IOContext, transport):
        self.transport = weakref.ref(transport)
        self.generation = transport.generation
        self.announced: set[int] = set()
        self.negotiator: InboundNegotiator | None = None
        self.replies: OrderedDict[int, list[bytes]] = OrderedDict()  # request id -> reply frames

    def send(self, data) -> None:
        self.transport().send(data)


class LinkTable:
    """The one home of an endpoint's per-link state.

    :meth:`of` returns the :class:`Link` of a transport's *current*
    incarnation, memoised on the last link asked for.  Links are keyed
    weakly by the transport object, so a dropped link's state goes with
    it (no count bound, hence no live link is ever evicted, and a
    recycled ``id()`` cannot alias a dead transport); a re-dial — the same
    object at a new ``generation`` — starts from a fresh :class:`Link`.
    """

    def __init__(self, ctx: IOContext):
        self.ctx = ctx
        self._links: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._last: Link | None = None
        #: ``(transport, generation, format id)`` triples on the last link
        #: that a send owes nothing more (``PbioConnection._owed``); emptied
        #: whenever the last link changes, so it pins no other transport.
        self.settled: set[tuple] = set()

    def of(self, transport) -> Link:
        link = self._last
        if link is None or link.transport() is not transport or link.generation != transport.generation:
            link = self._links.get(transport)
            if link is None or link.generation != transport.generation:
                link = self._links[transport] = Link(self.ctx, transport)
            self._last = link
            self.settled.clear()
        return link

    def negotiator(self, transport) -> InboundNegotiator:
        """The inbound negotiator of ``transport``'s current incarnation."""
        link = self.of(transport)
        if link.negotiator is None:
            link.negotiator = InboundNegotiator(self.ctx, link.send)
        return link.negotiator

    def live(self) -> list:
        """The transports with state here that are still referenced."""
        return list(self._links)


class Announcer:
    """Send-side announcement dedup for one context over any links."""

    def __init__(self, ctx: IOContext, links: LinkTable | None = None):
        self.ctx = ctx
        self.links = links if links is not None else LinkTable(ctx)

    def ensure_announced(self, transport, handle: FormatHandle) -> None:
        """Announce ``handle`` if this link incarnation has not heard it.

        The announcement is compact (token) when the context has a
        format service that can vouch for the format, inline otherwise —
        :meth:`IOContext.announce_compact` decides.
        """
        for frame in self.pending_announcements(transport, handle):
            transport.send(frame)

    def pending_announcements(self, transport, handle: FormatHandle) -> list[bytes]:
        """Announcement frames still owed to this link for ``handle``.

        Empty once the link incarnation has heard the format.  The frames
        are marked sent on return — the caller *must* put them on the
        wire (batch senders splice them ahead of the data frames so the
        whole burst is one vectored send).
        """
        announced = self.links.of(transport).announced
        if handle.format_id in announced:
            return []
        announced.add(handle.format_id)
        return [self.ctx.announce_compact(handle)]
