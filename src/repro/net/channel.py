"""Event channels: publish/subscribe record distribution over PBIO.

The paper's introduction motivates loosely-coupled component systems —
online visualization, remote instruments, "plug-and-play" codes joining
ongoing computations — and its conclusion claims NDR lets "receivers who
have no a priori knowledge of data formats ... easily `join' ongoing
communications".  This module provides that composition layer (the role
DataExchange/ECho played in the original system's ecosystem):

* any number of publishers (each an :class:`~repro.core.IOContext` on its
  own simulated machine) emit records into a channel;
* subscribers attach with their own machine, their own expected formats,
  and optionally a DCG-compiled filter; they may join at any time —
  the channel replays the format announcements they missed;
* a channel constructed with a shared
  :class:`~repro.core.runtime.ConverterCache` hands it to every
  subscriber, so same-machine subscribers generate each converter once
  between them (the cache key includes the machine ABI, so heterogeneous
  subscriber sets share safely);
* each subscriber decodes through its context's decode pipeline: a
  zero-copy view for homogeneous publishers, generated conversion
  otherwise; filtered messages are rejected from the 16-byte header +
  referenced fields alone, without decoding the record; a wire burst
  (:meth:`EventChannel.ingest_many`) is scanned once, and its parsed
  headers serve every subscriber's screens and batch decode;
* delivery is failure-isolated per subscriber: each subscription has an
  error policy (``"raise"``, ``"suppress"`` or ``"detach"``) governing
  what a throwing handler or an undecodable stream does — under
  ``suppress``/``detach`` one bad subscriber never breaks delivery to
  the healthy ones.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.context import FormatHandle, IOContext
from repro.core.errors import PbioError, TokenResolutionError
from repro.core.filters import RecordFilter
from repro.core.runtime import ConverterCache, Metrics, SubscriberStats
from repro.core import encoder as enc

from .health import AnnouncementBacklog
from .transport import TransportError

#: Per-subscriber error policies: propagate (pre-existing behaviour),
#: count-and-continue, or count-and-unsubscribe.
ERROR_POLICIES = ("raise", "suppress", "detach")

#: Wire ingress is hostile input: a frame that is not PBIO or an announcement
#: that is not whole is counted, never remembered for late joiners.  Link
#: control never fans out: an ack flows *against* the record stream, to the
#: durable publishers listening here; the rest is meaningless in-channel.
CHANNEL_ROWS = enc.rows(
    default="drop", foreign="reject channel.frames_rejected", data="run", data_seq="run",
    format="check _announce", token="check _announce", ack="handle _route_ack",
)
#: A subscriber absorbs announcements and screens and decodes data (a plain
#: one decodes a sequenced record where it lies); link control is not record
#: delivery, and a frame with no PBIO header is damage.
SUBSCRIPTION_ROWS = enc.rows(
    default="drop", foreign="handle _damaged", data="run", data_seq="run",
    format="handle _absorb", token="handle _absorb",
)

#: Delivery shapes: materialized dicts (pre-existing behaviour) or
#: :class:`~repro.abi.views.RecordView` objects — zero-copy for
#: homogeneous publishers, and *leased* straight out of the receive
#: buffer on lend-mode wire ingress (:meth:`EventChannel.ingest_many`).
DELIVERY_MODES = ("dict", "view")


class Subscription:
    """One subscriber: a context, an optional filter, and a handler."""

    def __init__(
        self,
        ctx: IOContext,
        handler: Callable[[dict[str, Any]], None],
        *,
        format_name: str | None = None,
        filter_expr: str | None = None,
        on_error: str = "raise",
        deliver: str = "dict",
    ):
        if filter_expr is not None and format_name is None:
            raise ValueError("a filter requires format_name")
        if on_error not in ERROR_POLICIES:
            raise ValueError(f"on_error must be one of {ERROR_POLICIES}, not {on_error!r}")
        if deliver not in DELIVERY_MODES:
            raise ValueError(f"deliver must be one of {DELIVERY_MODES}, not {deliver!r}")
        self.ctx = ctx
        self.handler = handler
        self.format_name = format_name
        self.error_policy = on_error
        self.deliver = deliver
        self.metrics = Metrics()
        self.stats = SubscriberStats(self.metrics)
        self._filter = (
            RecordFilter(ctx, format_name, filter_expr) if filter_expr else None
        )

    def _offer(self, message: bytes) -> None:
        header = enc.try_unpack_header(message)
        row = SUBSCRIPTION_ROWS[None if header is None else header[0]]
        if row is not enc.RUN:
            enc.settle(row, message, header, self, False, None)
            return
        pipeline = self.ctx.pipeline
        try:
            outcome = self._screen(message, header)
            self.metrics.inc(outcome)
            if outcome != "delivered":
                return
            decode = pipeline.decode_view if self.deliver == "view" else pipeline.decode
            decoded = decode(message, header=header)
        except PbioError:
            self.metrics.inc("decode_errors")
            raise
        try:
            self.handler(decoded)
        except Exception:
            self.metrics.inc("handler_errors")
            raise

    def _absorb(self, message, header, suppress: bool, lease) -> None:
        try:
            self.ctx.receive(message)
        except PbioError as exc:
            if isinstance(exc, TokenResolutionError):
                # No service (or a cold one) on this subscriber: the
                # publisher's fallback re-announces inline channel-wide.
                self.metrics.inc("unresolved_tokens")
            if not suppress:
                raise

    def _damaged(self, message, header, suppress: bool, lease) -> None:
        self.metrics.inc("decode_errors")
        if not suppress:
            enc.unpack_header(message)  # raises what is wrong with the frame

    def _screen(self, message, header) -> str:
        """The counter one data frame lands in: ``delivered`` when this
        subscriber wants it, else ``wrong_type`` or ``filtered_out``.
        Counts nothing itself, and raises when it cannot tell: the format
        was never announced here (a lossy link), the sequence prefix is
        torn, the record is shorter than its format."""
        if self.format_name is not None:
            fmt = self.ctx.registry.remote_format(header[1], header[2])
            if fmt.name != self.format_name:
                return "wrong_type"
        if self._filter is not None and not self._filter.matches(message, header=header):
            return "filtered_out"
        return "delivered"

    def _offer_batch(self, messages, suppress: bool, lease=None, headers=None) -> None:
        """Offer a burst (``headers``: parsed by the channel's scan, or
        here) through :data:`SUBSCRIPTION_ROWS`, each run of data frames
        one :meth:`_flush_run`.  Mirrors a sequential :meth:`_offer` loop
        message for message: with ``suppress`` each failure is counted and
        the rest of the burst still delivers; otherwise the first failure
        propagates (the caller applies the raise/detach policy), leaving
        later messages unoffered exactly like the scalar loop."""
        enc.walk(messages, headers, SUBSCRIPTION_ROWS, self, self._flush_run, suppress, lease)

    def _flush_run(self, run, headers, suppress: bool, lease=None) -> None:
        """Screen one run of data frames, decode it in one batch, deliver.

        What the scalar loop would do, in its order: under ``suppress``
        every failure is counted and the run goes on; otherwise the
        handler gets the records ahead of the first failure — a screen
        that cannot tell, a rejected frame, the handler itself — which
        then raises, and nothing behind it is counted.
        """
        if headers is None:
            headers = [enc.unpack_header(message) for message in run]
        failure = None
        if self.format_name is None and self._filter is None:
            outcomes, wanted = None, range(len(run))
        else:
            outcomes = []
            for message, header in zip(run, headers):
                try:
                    outcomes.append(self._screen(message, header))
                except PbioError as exc:
                    outcomes.append("decode_errors")
                    if not suppress:  # raised once what precedes it is delivered
                        failure = exc
                        break
            wanted = [k for k, outcome in enumerate(outcomes) if outcome == "delivered"]
            run, headers = [run[k] for k in wanted], [headers[k] for k in wanted]
        decoded = ()
        try:
            if run:
                decoded = self.ctx.pipeline.decode_batch(
                    run,
                    on_error="skip" if suppress else "raise",
                    lend=self.deliver == "view",
                    lease=lease,
                    headers=headers,
                )
        except PbioError as exc:  # comes before a screen's failure: screening stopped at that
            failure, decoded = exc, exc.partial
        seen = -1  # the last frame of the run the scalar loop would have got to
        try:
            for seen, value in zip(wanted, decoded):
                if value is None:  # rejected: under "skip" counted here too
                    self.metrics.inc("decode_errors")
                    if not suppress:
                        raise failure
                    continue
                try:
                    self.handler(value)
                except Exception:
                    self.metrics.inc("handler_errors")
                    if not suppress:
                        raise
            seen = len(wanted if outcomes is None else outcomes) - 1
        finally:
            if outcomes is None:
                self.metrics.inc("delivered", seen + 1)
            else:
                for outcome in outcomes[: seen + 1]:
                    self.metrics.inc(outcome)
        if failure is not None:
            raise failure

    #: A run the channel's walk already found to be data: nothing to walk again.
    _offer_run = _flush_run


class WireTap:
    """One wire-attached remote peer of an :class:`EventChannel`.

    ``send`` is the peer's frame sink — typically
    ``AsyncSocketTransport.send``, a synchronous bounded-queue enqueue,
    so fanning a message to hundreds of taps never blocks the
    publisher.  ``send_run`` is the sink's entry for a whole run of
    frames, resolved once from ``send``: the ``send_many`` of the
    transport, or the ``forward_batch`` of the relay or fabric
    dispatcher, whose bound ``send`` / ``forward`` it is — ``None`` for
    an opaque callable, which can only be called frame by frame.
    ``headed``: the run entry is a ``forward_batch``, which also takes the
    run's headers, so a run whose publisher built them is not parsed again.
    Per-tap counters: ``forwarded``, ``send_errors``, ``detached``.
    """

    __slots__ = ("send", "send_run", "headed", "metrics")

    def __init__(self, send: Callable[[bytes], None]):
        self.send = send
        self.send_run = None
        self.headed = False
        owner = getattr(send, "__self__", None)
        for name, run_name in (("send", "send_many"), ("forward", "forward_batch")):
            # by equality with the owner's bound method, not by __name__:
            # a class-patched method (a tracer's wrapper) is still the one
            if getattr(owner, name, None) == send:
                self.send_run = getattr(owner, run_name, None)
                self.headed = name == "forward"
        self.metrics = Metrics()


class EventChannel:
    """An in-process record distribution hub with late-join support.

    ``cache`` (optional) is handed to every subscriber context at
    subscribe time, pooling converter generation across same-machine
    subscribers; pass :func:`repro.core.runtime.shared_cache()` for the
    process-global cache or a fresh :class:`ConverterCache` scoped to
    this channel.

    Besides in-process :class:`Subscription` handlers, remote peers can
    attach *over the wire* (:meth:`attach_wire`): every published frame
    — announcements and data alike — is forwarded to their transport,
    and frames they send in arrive through :meth:`ingest`.  A tap whose
    transport fails (including a full bounded write queue on an async
    transport: the slow-consumer signal) is detached, never retried —
    the same failure isolation subscribers get.
    """

    def __init__(
        self, *, cache: ConverterCache | None = None, format_service=None
    ) -> None:
        self._subscribers: list[Subscription] = []
        self._taps: list[WireTap] = []
        self._announcements = AnnouncementBacklog()  # replayed to late joiners
        #: MSG_ACK sinks (durable publishers); acks are point-to-point
        #: control, so they route here instead of fanning to subscribers
        self._ack_listeners: list[Callable[[bytes], None]] = []
        self._cache = cache
        #: Channel-wide format service: attached to every publisher and
        #: subscriber context, so token announcements published here are
        #: always resolvable from the shared cache (the in-process
        #: analogue of "every peer talks to the same format server").
        self._format_service = format_service
        self.messages_published = 0
        self.metrics = Metrics()  # channel-level: channel.frames_rejected

    @property
    def cache(self) -> ConverterCache | None:
        return self._cache

    @property
    def format_service(self):
        return self._format_service

    # -- subscribing ---------------------------------------------------------

    def subscribe(
        self,
        ctx: IOContext,
        handler: Callable[[dict[str, Any]], None],
        *,
        format_name: str | None = None,
        filter_expr: str | None = None,
        on_error: str = "raise",
        deliver: str = "dict",
    ) -> Subscription:
        """Attach a subscriber; formats announced before it joined are
        replayed so it can decode the ongoing stream immediately.

        ``on_error`` selects the failure policy for this subscriber:
        ``"raise"`` propagates handler/decode errors to the publisher
        (the historical behaviour), ``"suppress"`` counts them and keeps
        the subscription, ``"detach"`` counts them and unsubscribes the
        offender — either way the other subscribers still get the event.

        ``deliver="view"`` hands the handler
        :class:`~repro.abi.views.RecordView` objects instead of dicts —
        zero-copy for homogeneous publishers, and leased straight out of
        the receive buffer on lend-mode wire ingress
        (:meth:`ingest_many`).  A view handler must not keep a view past
        its return without calling ``view.detach()``.
        """
        if self._cache is not None:
            ctx.use_cache(self._cache)
        if self._format_service is not None and ctx.format_service is None:
            ctx.use_format_service(self._format_service)
        sub = Subscription(
            ctx,
            handler,
            format_name=format_name,
            filter_expr=filter_expr,
            on_error=on_error,
            deliver=deliver,
        )
        self._attach(sub)
        return sub

    def _attach(self, sub: Subscription) -> None:
        """Join a constructed subscription: append + announcement replay."""
        self._subscribers.append(sub)
        try:
            for announcement in self._announcements:
                self._deliver(sub, sub._offer, announcement)
        except Exception:  # "raise" policy during replay: don't half-join
            self._subscribers.remove(sub)
            raise

    def unsubscribe(self, sub: Subscription) -> None:
        self._subscribers.remove(sub)

    # -- ack routing -----------------------------------------------------------

    def add_ack_listener(self, listener: Callable[[bytes], None]) -> None:
        """Register a sink for MSG_ACK frames entering this channel."""
        self._ack_listeners.append(listener)

    def remove_ack_listener(self, listener: Callable[[bytes], None]) -> None:
        if listener in self._ack_listeners:
            self._ack_listeners.remove(listener)

    def route_ack(self, message: bytes) -> None:
        """Hand one MSG_ACK frame to every registered listener."""
        for listener in list(self._ack_listeners):
            listener(message)

    # -- wire attachment -------------------------------------------------------

    def attach_wire(self, send: Callable[[bytes], None]) -> WireTap:
        """Attach a remote peer by its frame sink; replays the
        announcement backlog first so the peer can decode the ongoing
        stream immediately (the wire analogue of :meth:`subscribe`'s
        late-join replay).  A replay failure propagates — don't
        half-join a broken transport."""
        tap = WireTap(send)
        for announcement in self._announcements:
            tap.send(announcement)
            tap.metrics.inc("forwarded")
        self._taps.append(tap)
        return tap

    def detach_wire(self, tap: WireTap) -> None:
        if tap in self._taps:
            self._taps.remove(tap)

    @property
    def tap_count(self) -> int:
        return len(self._taps)

    def ingest(self, message: bytes, *, exclude: WireTap | None = None) -> None:
        """Feed one frame arriving from the wire into the channel, as its
        row in :data:`CHANNEL_ROWS` says.  ``exclude`` names the
        originating tap, which must not be echoed its own frame.
        """
        header = enc.try_unpack_header(message)
        row = CHANNEL_ROWS[None if header is None else header[0]]
        if row is enc.RUN:
            self._publish_message(bytes(message), exclude=exclude)
        else:
            enc.settle(row, message, header, self, exclude, None)

    def ingest_many(
        self, messages, *, lease=None, exclude: WireTap | None = None
    ) -> None:
        """Feed a burst of wire frames into the channel: :meth:`ingest`'s
        rows under the walk, each run of data frames one
        :meth:`_publish_batch` (one columnar decode per subscriber).  This
        is the burst's one header scan: each run travels with its headers
        down into ``decode_batch(headers=...)``.  ``lease`` is the
        receive-buffer lease of borrowed views from ``recv_many_leased``,
        threaded through to ``deliver="view"`` subscribers, whose views
        then keep the buffer alive; everything else retained is copied, so
        the caller may drop the lease as soon as this returns."""
        enc.walk(messages, None, CHANNEL_ROWS, self, self._publish_batch, exclude, lease)

    def _announce(self, message, header, exclude: WireTap | None, lease) -> None:
        # the replay list wants private bytes
        self._publish_message(bytes(message), exclude=exclude, announcement=True)

    def _route_ack(self, message, header, exclude: WireTap | None, lease) -> None:
        self.route_ack(bytes(message))

    def _fan_to_wire(self, run, exclude: WireTap | None, headers=None) -> None:
        """Offer every tap but ``exclude`` one run of frames: one call of its
        run entry (with ``headers`` where it takes them) if any, else frame by frame."""
        if not self._taps:
            return
        # Taps may enqueue (async transports): never hand them a
        # borrowed view whose lease can expire before the send.
        run = [m if isinstance(m, bytes) else bytes(m) for m in run]
        for tap in list(self._taps):
            if tap is exclude:
                continue
            sent = 0
            try:
                if tap.send_run is not None and len(run) > 1:
                    tap.send_run(run, headers) if tap.headed else tap.send_run(run)
                    sent = len(run)
                else:
                    for message in run:
                        tap.send(message)
                        sent += 1
            except TransportError:  # includes WriteQueueFull: slow consumer
                tap.metrics.inc("send_errors")
                tap.metrics.inc("detached")
                self.detach_wire(tap)
            if sent:
                tap.metrics.inc("forwarded", sent)

    # -- publishing ------------------------------------------------------------

    def publisher(self, ctx: IOContext) -> "ChannelPublisher":
        return ChannelPublisher(self, ctx)

    def _publish_message(self, message: bytes, *, exclude=None, announcement: bool = False) -> None:
        if announcement:
            # Remembered once; a repeat (a durable resend re-announces)
            # still reaches everyone attached, who may have lost it.
            self._announcements.add(message)
        else:
            self.messages_published += 1
        for sub in list(self._subscribers):
            self._deliver(sub, sub._offer, message)
        self._fan_to_wire((message,), exclude)

    def _deliver(self, sub: Subscription, offer, *args) -> None:
        """Run one of ``sub``'s offer methods under its error policy."""
        try:
            offer(*args)
        except Exception:
            if sub.error_policy == "raise":
                raise
            if sub.error_policy == "detach":
                sub.metrics.inc("detached")
                if sub in self._subscribers:
                    self._subscribers.remove(sub)

    def _publish_batch(self, batch: list[bytes], headers=None, exclude=None, lease=None) -> None:
        """Fan a burst of data messages (and, when the caller parsed
        them, their headers) to every subscriber, one batch decode per
        subscriber per run instead of one per message."""
        self.messages_published += len(batch)
        for sub in list(self._subscribers):
            # detach: same first-failure semantics as the scalar loop
            self._deliver(sub, sub._offer_run, batch, headers, sub.error_policy == "suppress", lease)
        self._fan_to_wire(batch, exclude, headers)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)


class ChannelPublisher:
    """Publishing endpoint bound to one IOContext.

    On a channel with a format service, announcements go out as tokens;
    if any ``"raise"``-policy subscriber cannot resolve one (its own
    service is cold and the server unreachable), the publisher falls
    back channel-wide: the token message is withdrawn from the replay
    list and a classic inline announcement is published instead, so
    both current subscribers and late joiners decode identically.
    """

    def __init__(self, channel: EventChannel, ctx: IOContext):
        self.channel = channel
        self.ctx = ctx
        if channel._format_service is not None and ctx.format_service is None:
            ctx.use_format_service(channel._format_service)
        self._announced: set[int] = set()

    # Spellings of the one burst body; they return what it returns (a
    # durable publisher's sequences, one alone for one record).

    def publish(self, handle: FormatHandle, record: dict[str, Any]):
        return self.publish_native(handle, handle.codec.encode(record))

    def publish_native(self, handle: FormatHandle, native):
        sent = self.publish_native_batch(handle, (native,))
        return sent[0] if sent else None

    def publish_batch(self, handle: FormatHandle, records):
        """Publish many value dicts as one burst."""
        codec = handle.codec
        return self.publish_native_batch(handle, [codec.encode(r) for r in records])

    def publish_native_batch(self, handle: FormatHandle, natives) -> None:
        """The publisher's one burst body: the records (any buffers: their
        bytes are the records) as data frames, and the headers built with
        them, to every subscriber — consecutive frames decode through one
        columnar converter call, and no one parses the headers again."""
        self._ensure_announced(handle)
        headers = []
        frames = enc.data_frames(self.ctx.context_id, handle.format_id, natives, headers=headers)
        self.channel._publish_batch(frames, headers)

    def _ensure_announced(self, handle: FormatHandle) -> bool:
        """Announce ``handle`` before its first record; True when this
        call was the one that did."""
        if handle.format_id in self._announced:
            return False
        self._announce(handle)
        self._announced.add(handle.format_id)
        return True

    def _announce(self, handle: FormatHandle) -> None:
        # Token announcements only on a channel-coordinated service:
        # subscribers share its cache, so resolution is local and cheap.
        publish = self.channel._publish_message
        if self.channel._format_service is None or self.ctx.format_service is None:
            publish(self.ctx.announce(handle), announcement=True)
            return
        message = self.ctx.announce_compact(handle)
        try:
            publish(message, announcement=True)
        except TokenResolutionError:
            self.channel._announcements.remove(message)
            self.ctx.format_service.note_inline_fallback()
            publish(self.ctx.announce(handle), announcement=True)
