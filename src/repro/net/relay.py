"""Message relays: forwarding PBIO streams without decoding them.

The paper closes with the goal of pushing "selected message operations
... `into' the communication co-processors" (Section 5).  The enabling
property is NDR + self-description: an intermediary can route, replicate
and *filter* messages while treating every record as opaque bytes plus a
16-byte header — it never converts, and filters it does apply read only
the fields they name (via :mod:`repro.core.filters`), straight from the
sender's natural representation.

A :class:`Relay` therefore has no machine of its own in any meaningful
sense: it observes format announcements (to keep its registry and to
replay them to late-attached downstreams) and forwards data messages
verbatim.  Filters are per-downstream, so one stream fans out into
differently-filtered substreams — the derived-event-channel pattern.

Fan-out is failure-isolated: a downstream whose transport raises
:class:`~repro.net.transport.TransportError` never stalls the stream for
its siblings; it is quarantined, and with a
:class:`~repro.net.health.ProbePolicy` the quarantine heals itself —

    attached → active ⇄ quarantined → probing → active | evicted

(:meth:`Relay.heal`; a pong reactivates with the full announcement
replay, so no format state is ever lost).  The per-peer record
(:class:`~repro.net.health.QuarantineRecord`) and the announcement
backlog (:class:`~repro.net.health.AnnouncementBacklog`) are the health
plane's; the fabric dispatcher keeps the same record per worker.

:meth:`Relay.forward` is a one-frame :meth:`Relay.forward_batch`, which
is the relay's column of the verdict table (:data:`RELAY_ROWS`) under
the one burst walk (:func:`repro.core.encoder.walk`): runs of data go
to ``_flush_data_run`` (admission, then the one filter screen),
announcements to ``_announce``, and ``_send_many`` is the one place a
transport is written and a failure accounted — so a burst behaves
exactly like its frames forwarded one by one.

A slow consumer meets the same machine a broken link does — the relay
keeps no queue of its own.  Async downstreams compose directly: an
:class:`~repro.net.aio.AsyncSocketTransport`'s ``send``/``send_many``
are synchronous bounded-queue enqueues, so the fan-out loop never
blocks on one peer, and a queue at capacity raises
:class:`~repro.net.transport.WriteQueueFull` — a ``TransportError`` —
so the *same* consecutive-failure quarantine that handles broken links
doubles as slow-consumer eviction (the paper's co-processor must shed,
not stall); reactivation replays the announcements and the sequenced
window the peer missed, and the publisher WAL retransmits what aged
out of it.  A downstream's ``transport.write_queue_depth`` is the live
queue depth for monitoring.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import compress
from typing import Callable

from repro.abi import X86_64
from repro.core import encoder as enc
from repro.core.context import IOContext
from repro.core.errors import PbioError, TokenResolutionError
from repro.core.filters import RecordFilter
from repro.core.negotiation import LinkControl, send_goodbye
from repro.core.runtime import ConverterCache, DownstreamStats, Metrics
from repro.core.safety import DEFAULT_LIMITS, DecodeLimits
from repro.net.health import (
    ACTIVE,
    EVICTED,
    AnnouncementBacklog,
    ProbePolicy,
    QuarantineRecord,
)
from repro.net.transport import Transport, TransportError


def hub_rows(prefix: str, announce: str) -> dict:
    """The column of a one-way fan-out hub (relay, fabric front), counters
    under ``prefix``.  Link control is dropped: pings and pongs are
    point-to-point liveness (a hub probes on its back-channels, in heal());
    a meta request with no route back to its sender times out holding; an
    ack belongs to the back-channel it can be attributed on."""
    return enc.rows(
        foreign=f"reject {prefix}.rejected", data="run", data_seq="run",
        format=f"check {announce}", token=f"check {announce}",
        request=f"drop {prefix}.requests_dropped", ack=f"drop {prefix}.acks_dropped",
        ping=f"drop {prefix}.heartbeats_dropped", pong=f"drop {prefix}.heartbeats_dropped",
    )  # fmt: skip


RELAY_ROWS = hub_rows("relay", "_announce")
#: What a downstream sends back: heartbeats (a pong answers a probe) and
#: acks; anything else is not proof it can receive.
BACK_CHANNEL_ROWS = enc.rows(default="drop", ping="handle _heard", pong="handle _pong", ack="handle _ack")


class Downstream(QuarantineRecord, LinkControl):
    """The opaque handle :meth:`Relay.attach` returns.

    Callers read :attr:`stats` / :attr:`state` / :attr:`quarantined` and
    hand the object back to :meth:`Relay.detach` / :meth:`Relay.reactivate`;
    the mutable machinery inside is the relay's business.
    """

    def __init__(self, transport: Transport, flt: RecordFilter | None):
        super().__init__()
        self.transport = transport
        self.filter = flt
        self.metrics = Metrics()
        self.stats = DownstreamStats(self.metrics)
        #: Per-stream cumulative ack cursors harvested off this peer's
        #: back-channel (durable delivery, docs/robustness.md §11).
        self.ack_cursors: dict[tuple[int, int], int] = {}


class Relay:
    """Store-and-forward hub for PBIO message streams.

    Typical use::

        relay = Relay()
        relay.attach(link_to_viz)                       # everything
        relay.attach(link_to_alarms,
                     format_name="telemetry",
                     filter_expr="temperature > 700.0") # hot records only
        for message in upstream:
            relay.forward(message)

    ``quarantine_after`` is the number of *consecutive* send failures
    that detaches a downstream (any success resets the count);
    ``on_error`` is called as ``on_error(downstream, exc)`` after each
    failed send, before any quarantine decision.

    ``probe_policy`` arms automatic quarantine recovery: call
    :meth:`heal` periodically (e.g. once per pump iteration) and
    quarantined downstreams are probed, reactivated on a pong with the
    announcements they missed, or evicted at the policy's deadline.
    ``clock`` is injectable (:class:`repro.net.timing.VirtualClock`) so
    the whole state machine can run in virtual time.

    Durable streams (docs/robustness.md §11) pass through untouched:
    ``MSG_DATA_SEQ`` frames forward verbatim and are remembered in a
    bounded per-stream replay window (``replay_window`` frames) that is
    re-sent, above each peer's acked cursor, on reactivation.  ``MSG_ACK``
    frames harvested off downstream back-channels in :meth:`heal` advance
    per-downstream cursors, and their min-cursor aggregate is emitted to
    ``ack_upstream`` (a frame sink toward the publisher, e.g. the
    upstream transport's ``send``) so WAL compaction upstream only ever
    covers what every acking downstream has confirmed.
    """

    def __init__(
        self,
        *,
        cache: ConverterCache | None = None,
        quarantine_after: int = 3,
        on_error: Callable[[Downstream, TransportError], None] | None = None,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        format_service=None,
        probe_policy: ProbePolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        ack_upstream: Callable[[bytes], None] | None = None,
        replay_window: int = 256,
    ) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        # The relay's context exists only to hold the format registry for
        # filter compilation; records are never decoded to its layouts.
        # A shared cache is accepted anyway so filter-free relays embedded
        # in larger topologies can participate in channel-wide sharing.
        # A format service lets the relay resolve token announcements for
        # its *own* registry (filters); forwarding never needs one.
        self.ctx = IOContext(
            X86_64, cache=cache, limits=limits, format_service=format_service
        )
        self.limits = limits
        self.quarantine_after = quarantine_after
        self.on_error = on_error
        self.probe_policy = probe_policy
        self._clock = clock
        self.metrics = Metrics()
        self._downstreams: list[Downstream] = []
        self._links: tuple = ()  # (downstream, its transport's pending probe): what heal() walks
        self._announcements = AnnouncementBacklog()
        self.messages_seen = 0
        self._ping_nonce = 0
        self._stopped = False
        self.ack_upstream = ack_upstream
        if replay_window < 1:
            raise ValueError("replay_window must be >= 1")
        self.replay_window = replay_window
        self._replay: dict[tuple[int, int], deque[tuple[int, bytes]]] = {}
        self._upstream_acked: dict[tuple[int, int], int] = {}
        self._touched: set[tuple[int, int]] = set()  # streams whose min-cursor may have moved
        self._proof = False  # the back-channel being harvested proved its peer alive

    def attach(
        self,
        transport: Transport,
        *,
        format_name: str | None = None,
        filter_expr: str | None = None,
    ) -> Downstream:
        """Add a downstream link, replaying announcements it missed.

        Returns the opaque :class:`Downstream` handle accepted by
        :meth:`detach` and :meth:`reactivate`.
        """
        flt = None
        if filter_expr is not None:
            if format_name is None:
                raise ValueError("a filter requires format_name")
            flt = RecordFilter(self.ctx, format_name, filter_expr)
        downstream = Downstream(transport, flt)
        self._downstreams.append(downstream)
        self._relink()
        self._replay_announcements(downstream)
        return downstream

    def detach(self, downstream: Downstream) -> None:
        """Remove a downstream entirely (it will not be forwarded again)."""
        self._downstreams.remove(downstream)
        self._relink()
        downstream.state = EVICTED
        self._touched.update(downstream.ack_cursors)

    def _relink(self) -> None:
        self._links = tuple((d, d.transport.pending) for d in self._downstreams)

    def reactivate(self, downstream: Downstream) -> None:
        """Clear a quarantine (e.g. after the link reconnected) and replay
        the announcements the downstream missed while detached.

        This is the manual override; with a ``probe_policy`` configured,
        :meth:`heal` makes the same transition automatically on a pong.
        """
        downstream.reset()
        self._touched.update(downstream.ack_cursors)
        downstream.metrics.inc("reactivated")
        self.metrics.inc("relay.reactivated")
        self._replay_announcements(downstream)
        self._replay_sequenced(downstream)

    def _replay_announcements(self, downstream: Downstream) -> None:
        # one by one: a link that fails mid-replay counts every failure
        for announcement in self._announcements:
            self._send_many(downstream, (announcement,), "announcements")

    def _replay_sequenced(self, downstream: Downstream) -> None:
        """Re-send windowed sequenced frames the peer has not acked.

        Runs after the announcement replay on reactivation, so the peer
        can decode what it receives; its dedup window absorbs anything
        that did arrive before the quarantine.  Frames that aged out of
        the bounded window are the publisher WAL's responsibility.
        """
        for key, window in self._replay.items():
            cursor = downstream.ack_cursors.get(key, 0)
            batch = [message for seq, message in window if seq > cursor]
            if downstream.filter is not None:
                batch = self._screen(downstream, batch, [None] * len(batch))
            if batch:
                self._send_many(downstream, batch, "replayed")
                self.metrics.inc("durable.replayed", len(batch))

    @property
    def downstreams(self) -> list[Downstream]:
        """Every attached downstream, quarantined ones included (a
        detached or evicted one is gone)."""
        return list(self._downstreams)

    @property
    def active_downstreams(self) -> list[Downstream]:
        return [d for d in self._downstreams if d.state == ACTIVE]

    def _count_failure(self, downstream: Downstream, exc: TransportError) -> None:
        downstream.metrics.inc("send_errors")
        errors = downstream.fail()
        if self.on_error is not None:
            self.on_error(downstream, exc)
        if errors >= self.quarantine_after:
            downstream.quarantine(self._clock(), self.probe_policy)
            self._touched.update(downstream.ack_cursors)
            downstream.metrics.inc("detached")
            self.metrics.inc("relay.quarantined")

    def _send_many(self, downstream: Downstream, batch, counter: str) -> None:
        """Send a run of frames to one downstream, absorbing transport
        failures: one frame is one ``send``, several are one vectored
        ``send_many``.

        One dead peer must never abort the fan-out loop: the error is
        counted, reported to ``on_error``, and — after ``quarantine_after``
        consecutive failures — the downstream is quarantined.  A peer's
        full write queue (:class:`~repro.net.transport.WriteQueueFull`)
        is such a failure: a slow consumer is shed, not waited for.
        """
        if downstream.state != ACTIVE:
            return
        count = len(batch)
        try:
            if count == 1:
                downstream.transport.send(batch[0])
            else:
                downstream.transport.send_many(batch)
        except TransportError as exc:
            self._count_failure(downstream, exc)
        else:
            downstream.consecutive_errors = 0
            downstream.metrics.inc(counter, count)

    def forward(self, message: bytes, *, header=None) -> None:
        """Process one upstream message (``header``: already parsed, when
        it was): a one-frame :meth:`forward_batch`."""
        self.forward_batch((message,), (header,))

    def _announce(self, message, header) -> None:
        # Absorbed for filter compilation.  The relay's key property:
        # tokens forward *verbatim* — meta is never re-expanded in the
        # middle of the network — and an unresolvable one only degrades
        # filtering on that format, never forwarding.
        try:
            self.ctx.receive(message)
        except TokenResolutionError:
            self.metrics.inc("relay.unresolved_tokens")
        except PbioError:  # malformed/quota-busting meta: don't propagate it downstream
            self.metrics.inc("relay.rejected")
            return
        data = bytes(message)
        if not self._announcements.add(data):
            # Anyone attached since the first copy got it at attach
            # time; anyone attached before got the original forward.
            self.metrics.inc("relay.announcements_deduped")
            return
        for downstream in self._downstreams:
            self._send_many(downstream, (data,), "announcements")

    def forward_batch(self, messages, headers=None) -> None:
        """Forward a burst of upstream messages through :data:`RELAY_ROWS`.

        Frames that are not PBIO, exceed the relay's
        :class:`~repro.core.safety.DecodeLimits` or whose header
        contradicts their length are *dropped* (``relay.rejected``), not
        fanned out: an intermediary must not amplify damage.  Each run of
        valid data frames goes out as one ``send_many`` per downstream.

        ``headers`` optionally carries the parsed header of each message
        (``None`` entries allowed): a burst an upstream sniffer grouped —
        the fabric routes on ``(cid, fid)`` — is not parsed again, and the
        headers travel on into each downstream's filter evaluation.
        """
        if self._stopped:
            self.metrics.inc("relay.dropped_after_stop", len(list(messages)))
            return
        limit = self.limits.max_message_size if self.limits is not None else None
        enc.walk(messages, headers, RELAY_ROWS, self, self._flush_data_run, limit=limit)

    def _flush_data_run(self, frames, headers) -> None:
        """Admit one run of data frames and fan what passes to every live
        downstream, verbatim: zero re-encoding.  A torn or padded frame or
        sequence 0 is rejected (``relay.rejected``); a sequenced frame is
        durable passthrough: a private copy is remembered in the bounded
        replay window (for downstream reactivation) and goes out *verbatim*
        — the subscriber's dedup window needs the publisher's numbering.
        A uniform ``MSG_DATA`` run (``enc.uniform_header``) is admitted whole."""
        header = enc.uniform_header(frames, headers)
        if header is not None and header[0] == enc.MSG_DATA:
            run, run_headers = frames, headers
        else:
            run, run_headers = [], []
            for message, header in zip(frames, headers):
                try:
                    seq = enc.data_sequence(message, header)
                except PbioError:
                    self.metrics.inc("relay.rejected")
                    continue  # rejects do not break a run
                if seq:
                    key = (header[1], header[2])
                    window = self._replay.get(key)
                    if window is None:
                        window = self._replay[key] = deque(maxlen=self.replay_window)
                    message = bytes(message)
                    if not window or seq > window[-1][0]:  # a retransmit is held already, or the WAL's
                        window.append((seq, message))
                run.append(message)
                run_headers.append(header)
        self.messages_seen += len(run)
        for downstream in self._downstreams:
            if downstream.state == ACTIVE:
                # unfiltered downstreams share the run itself: nobody mutates it
                batch = run if downstream.filter is None else self._screen(downstream, run, run_headers)
                if batch:
                    self._send_many(downstream, batch, "forwarded")

    def _screen(self, downstream: Downstream, run, headers) -> list[bytes]:
        """The frames of ``run`` that pass this downstream's filter (a uniform run's: one ``matches_run``)."""
        header = enc.uniform_header(run, headers)
        if header is not None:
            try:
                matched = downstream.filter.matches_run(run, header)
            except PbioError:  # as below, for every frame of the run
                downstream.metrics.inc("filter_errors", len(run))
                return []
            batch = list(compress(run, matched))
            if len(batch) < len(run):
                downstream.metrics.inc("filtered_out", len(run) - len(batch))
            return batch
        batch = []
        for message, header in zip(run, headers):
            try:
                matched = downstream.filter.matches(message, header=header)
            except PbioError:
                # e.g. the announcement this record needs never made it
                # here: this downstream cannot evaluate its predicate,
                # so the record is withheld from it, not from siblings.
                downstream.metrics.inc("filter_errors")
                continue
            if matched:
                batch.append(message)
            else:
                downstream.metrics.inc("filtered_out")
        return batch

    # -- self-healing ---------------------------------------------------------

    def heal(self, now: float | None = None) -> None:
        """Drive the quarantine-recovery state machine one step.

        Cheap enough to call once per pump iteration: reads only back-channels
        whose ``pending()`` says frames wait (or that have no probe) — acks
        off active downstreams, then, with a ``probe_policy``, probe answers
        from quarantined ones (a ``MSG_PONG`` reactivates, with the full
        announcement replay) — sends the next backoff-scheduled probe where
        due, evicts peers silent past the policy's deadline, and moves the
        upstream min-cursor of the streams an ack or a state change touched.
        """
        policy = self.probe_policy
        for downstream, pending in self._links:
            if downstream.state == ACTIVE:
                # Ack frames ride the same back-channel the probe pump
                # uses: harvesting here is what keeps downstream cursors
                # (and the upstream min-cursor aggregate) current.
                if pending is None or pending():
                    self._harvest_pong(downstream, pending)
                continue
            if policy is None or downstream.state == EVICTED:
                continue
            if now is None:
                now = self._clock()
            if (pending is None or pending()) and self._harvest_pong(downstream, pending):
                self.reactivate(downstream)
            elif downstream.expired(now, policy):
                self._evict(downstream)
            elif downstream.probe_due(now):
                self._probe(downstream, now)
        if self._touched:
            self._aggregate_acks()

    def _harvest_pong(self, downstream: Downstream, pending) -> bool:
        """Drain the downstream's back-channel through :data:`BACK_CHANNEL_ROWS`
        until ``pending()`` reads 0 (or, with no probe, ``poll_recv`` comes
        back empty); True on proof of life: a pong (its probe answered) or
        an ack (a peer that acks is receiving)."""
        self._proof = False
        poll = downstream.transport.poll_recv
        while True:
            try:
                frame = poll()
            except TransportError:
                break  # a torn back-channel is just more silence
            if frame is None:
                break
            header = enc.try_unpack_header(frame)
            row = BACK_CHANNEL_ROWS[None if header is None else header[0]]
            enc.settle(row, frame, header, self, downstream)
            if pending is not None and not pending():
                break
        return self._proof

    def _heard(self, frame, header, downstream: Downstream) -> bool:
        return downstream.control(frame, header, metrics=self.metrics)  # unanswered: a hub probes on its own

    def _pong(self, frame, header, downstream: Downstream) -> None:
        self._proof |= self._heard(frame, header, downstream)  # its probe answered

    def _ack(self, frame, header, downstream: Downstream) -> None:
        """Admit one ack: a cursor past the tail of the stream's replay
        window — the highest sequence forwarded on it — cannot be true."""
        try:
            cursor, _nb, _bits = enc.parse_control(frame, header)
        except PbioError:
            return
        self._proof = True
        self.metrics.inc("durable.acks_received")
        key = (header[1], header[2])
        window = self._replay.get(key)
        if window is None or cursor > window[-1][0]:
            self.metrics.inc("durable.acks_rejected")
        elif cursor > downstream.ack_cursors.get(key, 0):
            downstream.ack_cursors[key] = cursor
            self._touched.add(key)

    def _aggregate_acks(self) -> None:
        """Push each touched stream's min-cursor over active downstreams upstream.

        For each stream, the relay may only ack what *every* acking
        downstream has confirmed — the minimum cursor — because an
        upstream ack licenses WAL compaction there.  Downstreams that
        have never acked a stream (plain, non-durable subscribers) do
        not participate; a relay fanning out only to such peers simply
        never acks upstream, which is the conservative truth.
        """
        touched = self._touched
        if self.ack_upstream is None:
            touched.clear()
        while touched:  # (an upstream call that quarantines a downstream adds keys)
            key = touched.pop()
            agg = 0
            for d in self._downstreams:
                cursor = d.ack_cursors.get(key) if d.state == ACTIVE else None
                if cursor is not None and (not agg or cursor < agg):
                    agg = cursor
            if agg <= self._upstream_acked.get(key, 0):
                continue
            self._upstream_acked[key] = agg
            try:
                self.ack_upstream(enc.encode_ack(key[0], key[1], agg))
            except Exception:
                self.metrics.inc("durable.ack_send_errors")
            else:
                self.metrics.inc("durable.acks_sent")

    def _probe(self, downstream: Downstream, now: float) -> None:
        self._ping_nonce += 1
        try:
            downstream.transport.send(enc.encode_ping(self._ping_nonce))
        except TransportError:
            pass  # an unsendable probe is an unanswered probe
        downstream.metrics.inc("probes_sent")
        self.metrics.inc("relay.probes_sent")
        downstream.probed(now, self.probe_policy)

    def _evict(self, downstream: Downstream) -> None:
        self.detach(downstream)
        downstream.metrics.inc("evicted")
        self.metrics.inc("relay.evicted")

    # -- graceful drain -------------------------------------------------------

    def drain_and_stop(self, deadline_s: float = 5.0) -> None:
        """Stop forwarding and say goodbye.

        New upstream messages are dropped (counted as
        ``relay.dropped_after_stop``) from the moment this is called;
        every still-attached downstream then gets a goodbye ping
        (nonce 0) so peers re-dial promptly instead of timing out.  The
        relay queues nothing, so there is nothing to flush:
        ``deadline_s`` exists for signature parity with the async
        servers (where :meth:`repro.net.aio.AsyncServer.drain_and_stop`
        owns the queue flush).
        """
        self._stopped = True
        for downstream in self._downstreams:
            if downstream.state != EVICTED and send_goodbye(downstream.transport):
                downstream.metrics.inc("goodbyes_sent")
        self.metrics.inc("relay.drained")
