"""Sharded relay fabric: consistent-hash routing, one relay per channel, edge filters.

One :class:`~repro.net.relay.Relay` is one event loop: aggregate
throughput is capped by a single process however many downstreams it
fans to.  This module shards the relay plane the way the paper's
closing section wants message operations pushed "`into' the
communication co-processors" — by channel, with the fabric itself
touching nothing but the 16-byte header:

* a :class:`HashRing` (consistent hashing with virtual nodes) maps
  ``(context_id, format_id)`` channel keys to N workers; membership
  changes move only the channels adjacent to the joined/left worker's
  points (the classic minimal-movement property);
* each :class:`RelayWorker` owns the channels the ring assigns it, one
  :class:`Relay` per channel, built on first use and kept: a subscriber
  joining or leaving is one ``attach`` / ``detach`` on that relay, so
  nobody else's :class:`~repro.net.relay.Downstream` handle, ack cursor,
  quarantine record or replay window is touched.  Fan-out inside one
  process is one loop (all of a worker's relays share a thread, so more
  levels would only be more sends); where one process is not enough, a
  relay or a whole fabric attaches as another's downstream over a real
  transport (``relay_handler`` / :func:`fabric_handler`);
* the :class:`FabricDispatcher` front routes every inbound frame by
  sniffing only the channel key from its header — data, sequenced and
  token frames are forwarded *verbatim*, never decoded (announcements
  are checked whole, kept as opaque bytes for replay and handed to
  their channel's relay only, which decodes the meta; the size limit
  is checked before a frame is classified, at the front and each worker);
* filters push down to the edge: ``subscribe(..., filter_expr=...)``
  places a :class:`~repro.core.filters.RecordFilter` on the subscriber's
  attachment, compiled per arriving wire format against the packed
  bytes and shared through the fabric-wide
  :class:`~repro.core.runtime.ConverterCache`, so N subscribers with one
  predicate compile it once.

The existing planes are integrated, not reimplemented.  Worker death
is detected the way the health plane detects peer death — the
per-worker slot is the :class:`~repro.net.health.QuarantineRecord` a
relay downstream is: ingest failures count toward quarantine, a
:class:`~repro.net.health.ProbePolicy` schedules probes and the
eviction deadline — and quarantine triggers a
ring rebalance: surviving workers take over the lost channels, their
subscribers are re-attached (with the announcement replay
:meth:`Relay.attach` already performs), and the publisher WAL's
retransmission covers the frames that died in the worker's queues.
Durable streams keep PR 8 semantics per shard: ``MSG_DATA_SEQ`` frames
pass through unmodified, each channel's relay harvests its subscribers'
acks and emits their min-cursor exactly as a standalone relay does, and
the dispatcher forwards each shard's min-cursor upstream,
never-regressing per channel across rebalances.

See docs/fabric.md for the full design.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
import time
from typing import Callable, Iterable

from repro.core import encoder as enc
from repro.core.errors import PbioError
from repro.core.negotiation import LinkControl
from repro.core.runtime import ConverterCache, Metrics
from repro.core.safety import DEFAULT_LIMITS, DecodeLimits
from repro.net.health import (
    ACTIVE,
    EVICTED,
    AnnouncementBacklog,
    ProbePolicy,
    QuarantineRecord,
)
from repro.net.relay import Downstream, Relay, hub_rows
from repro.net.transport import PeerUnresponsive, Transport, TransportError

FRONT_ROWS = hub_rows("fabric", "_broadcast_announcement")
#: A worker trusts its front: an announcement is remembered as it comes
#: (the channel's relay rejects a bad one); link control has no business
#: inside a shard.
WORKER_ROWS = enc.rows(
    default="drop worker.dropped", foreign="reject worker.rejected", data="run", data_seq="run",
    format="handle _absorb_announcement", token="handle _absorb_announcement",
)  # fmt: skip
#: A ``fabric_handler`` connection's: its pings are answered there, the
#: rest goes to the front.
PEER_ROWS = enc.rows(default="run", ping="handle answer")

#: Virtual nodes per worker.  512 keeps every worker's owned share of
#: the hash space within ~14% of fair across 2..8 workers (measured over
#: 400 random worker-name sets), comfortably inside the 20% balance
#: target; the per-lookup cost is one bisect over ``workers * vnodes``
#: points, and an 8th worker joining costs ~1.3 ms (2-vCPU Xeon, CPython
#: 3.11) — rare (scale events, failures) and off the record path.
DEFAULT_VNODES = 512


class FabricError(RuntimeError):
    """Fabric-level misuse: no live workers, unknown worker, bad key."""


def _hash64(data: bytes) -> int:
    """The ring's 64-bit hash point for ``data`` (sha1-based: stable
    across processes and Python versions, unlike ``hash()``)."""
    return int.from_bytes(hashlib.sha1(data).digest()[:8], "big")


_KEY = struct.Struct(">II")


class HashRing:
    """Consistent hashing with virtual nodes over worker names.

    Each worker contributes ``vnodes`` points ``sha1("<name>#<i>")`` to
    a 64-bit ring; a channel key ``(context_id, format_id)`` hashes to a
    point and is owned by the first worker point at or after it
    (wrapping).  Adding a worker therefore steals only the key ranges
    immediately before its new points; removing one hands its ranges to
    the next points around the ring — no other key moves.
    """

    def __init__(self, workers: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._members: dict[str, list[tuple[int, str]]] = {}  # worker -> its sorted (point, name) pairs
        self._points: list[int] = []
        self._owners: list[str] = []
        for worker in workers:
            self.add(worker)

    @staticmethod
    def key_hash(key: tuple[int, int]) -> int:
        """The ring point for one ``(context_id, format_id)`` channel."""
        cid, fid = key
        return _hash64(_KEY.pack(cid & 0xFFFFFFFF, fid & 0xFFFFFFFF))

    def add(self, worker: str) -> None:
        if worker in self._members:
            raise ValueError(f"worker {worker!r} already on the ring")
        pairs = ((_hash64(f"{worker}#{i}".encode()), worker) for i in range(self.vnodes))
        self._members[worker] = sorted(pairs)
        self._rebuild()

    def remove(self, worker: str) -> None:
        del self._members[worker]
        self._rebuild()

    def _rebuild(self) -> None:
        # A worker's points are hashed and sorted once, when it joins: a
        # membership change merges the sorted runs into the flat arrays one
        # bisect searches.  Collisions tie-break on the name: deterministic.
        points = sorted(pair for pairs in self._members.values() for pair in pairs)
        self._points = [p for p, _ in points]
        self._owners = [w for _, w in points]

    def owner(self, key: tuple[int, int]) -> str | None:
        """The worker owning ``key`` (None on an empty ring)."""
        if not self._points:
            return None
        i = bisect.bisect_right(self._points, self.key_hash(key))
        return self._owners[i % len(self._owners)]

    @property
    def workers(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, worker: str) -> bool:
        return worker in self._members

    def assignment(self, keys: Iterable[tuple[int, int]]) -> dict[str, list[tuple[int, int]]]:
        """``{worker: [keys...]}`` for a set of channels (ownership map)."""
        out: dict[str, list[tuple[int, int]]] = {w: [] for w in self._members}
        for key in keys:
            owner = self.owner(key)
            if owner is not None:
                out[owner].append(key)
        return out

    def arc_shares(self) -> dict[str, float]:
        """Fraction of the hash space each worker owns (sums to 1.0) —
        the ring's deterministic balance, independent of any key sample."""
        if not self._points:
            return {}
        space = 1 << 64
        shares = {w: 0 for w in self._members}
        prev = self._points[-1] - space
        for point, owner in zip(self._points, self._owners):
            shares[owner] += point - prev
            prev = point
        return {w: n / space for w, n in shares.items()}


class EdgeSubscription:
    """One subscriber placed on a worker: the transport, the channel key
    and the (optional) pushed-down filter.  ``downstream`` is its
    :class:`~repro.net.relay.Downstream` handle inside the channel's
    relay — the same object from placement until the channel moves to
    another worker.  A tap (``key`` is ``None``) is attached to every
    channel relay of its worker and keeps one handle per channel in
    ``tap_downstreams``."""

    def __init__(
        self,
        key: tuple[int, int] | None,
        transport: Transport,
        format_name: str | None,
        filter_expr: str | None,
    ):
        self.key = key
        self.transport = transport
        self.format_name = format_name
        self.filter_expr = filter_expr
        self.worker_name: str | None = None
        self.downstream: Downstream | None = None
        self.tap_downstreams: dict[tuple[int, int], Downstream] = {}


def _queue_depth(relay: Relay) -> int:
    return sum(d.transport.write_queue_depth for d in relay.active_downstreams)


class RelayWorker:
    """One shard of the fabric: the relays for the channels a ring
    assigns to this worker, one :class:`Relay` per channel.

    The worker is addressed through :meth:`ingest` /
    :meth:`ingest_batch` (the dispatcher's route targets); a dead worker
    (:meth:`kill` — the in-process stand-in for ``kill -9``) raises
    :class:`~repro.net.transport.PeerUnresponsive` from both, which is
    what lets the dispatcher's health machinery treat worker death
    exactly like peer death.
    """

    def __init__(
        self,
        name: str,
        *,
        cache: ConverterCache | None = None,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        quarantine_after: int = 3,
        probe_policy: ProbePolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        replay_window: int = 256,
        ack_upstream: Callable[[bytes], None] | None = None,
        format_service=None,
    ):
        self.name = name
        #: Shared across every relay on this worker (and, when the
        #: dispatcher hands one in, across the whole fabric): converters
        #: and compiled filters are built once per fabric.
        self.cache = cache if cache is not None else ConverterCache()
        self.limits = limits
        self.quarantine_after = quarantine_after
        self.probe_policy = probe_policy
        self.clock = clock
        self.replay_window = replay_window
        self.ack_upstream = ack_upstream
        self.format_service = format_service
        self.alive = True
        self.metrics = Metrics()
        self._relays: dict[tuple[int, int], Relay] = {}
        self._announcements = AnnouncementBacklog()  # every one heard; below, the same per channel
        self._channel_announcements: dict[tuple[int, int], list[bytes]] = {}
        self.taps: list[EdgeSubscription] = []

    def _emit_ack(self, frame: bytes) -> None:
        """The channel relays' ``ack_upstream`` sink: one shard's min-cursor."""
        self.metrics.inc("worker.acks_up")
        if self.ack_upstream is not None:
            self.ack_upstream(frame)

    def _check_alive(self) -> None:
        if not self.alive:
            raise PeerUnresponsive(f"worker {self.name!r} is down")

    # -- the dispatcher-facing ingest path -----------------------------------

    def ingest(self, message: bytes, header=None) -> None:
        """Route one frame (``header``: the dispatcher's, already parsed):
        a one-frame :meth:`ingest_batch`."""
        self.ingest_batch((message,), (header,))

    def ingest_batch(self, messages, headers=None) -> None:
        """Route one dispatcher run — ``headers`` parallel to ``messages``,
        a ``None`` one parsed here — through :data:`WORKER_ROWS`: nothing
        oversize is ever remembered for replay (``worker.rejected``)."""
        self._check_alive()
        limit = self.limits.max_message_size if self.limits is not None else None
        enc.walk(messages, headers, WORKER_ROWS, self, self._route_run, limit=limit)

    def _route_run(self, messages, headers) -> None:
        """One run of data frames, one ``forward_batch`` per channel's relay (a
        uniform run is one channel's; cross-channel order inside a run is not meaningful)."""
        header = enc.uniform_header(messages, headers)
        if header is not None:
            self._relay((header[1], header[2])).forward_batch(messages, headers)
            self.metrics.inc("worker.routed", len(messages))
            return
        by_key: dict[tuple[int, int], tuple[list[bytes], list[tuple]]] = {}
        for message, header in zip(messages, headers):
            run, run_headers = by_key.setdefault((header[1], header[2]), ([], []))
            run.append(message)
            run_headers.append(header)
        for key, (run, run_headers) in by_key.items():
            self._relay(key).forward_batch(run, headers=run_headers)
            self.metrics.inc("worker.routed", len(run))

    def _absorb_announcement(self, message: bytes, header) -> None:
        """Remember it, and hand it to its own channel's relay only (which
        dedups): no other channel's subscriber can use it."""
        key, data = (header[1], header[2]), bytes(message)
        if self._announcements.add(data):
            self.metrics.inc("worker.announcements")
            self._channel_announcements.setdefault(key, []).append(data)
        relay = self._relays.get(key)
        if relay is not None:
            relay.forward(data, header=header)

    def _relay(self, key: tuple[int, int]) -> Relay:
        """The channel's relay, built on first use: it hears the
        channel's part of the worker's announcement backlog (so every
        later ``attach`` replays it), then every worker-wide tap attaches."""
        relay = self._relays.get(key)
        if relay is None:
            relay = self._relays[key] = Relay(
                cache=self.cache,
                quarantine_after=self.quarantine_after,
                limits=self.limits,
                format_service=self.format_service,
                probe_policy=self.probe_policy,
                clock=self.clock,
                ack_upstream=self._emit_ack,
                replay_window=self.replay_window,
            )
            relay.forward_batch(self._channel_announcements.get(key, ()))
            for tap in self.taps:
                tap.tap_downstreams[key] = relay.attach(tap.transport)
        return relay

    # -- subscriptions --------------------------------------------------------

    def subscribe(
        self,
        key: tuple[int, int],
        transport: Transport,
        *,
        format_name: str | None = None,
        filter_expr: str | None = None,
    ) -> EdgeSubscription:
        """Attach a subscriber for one channel (filter pushed down to
        its attachment; announcements replayed by the channel's relay)."""
        sub = EdgeSubscription(tuple(key), transport, format_name, filter_expr)
        self.adopt(sub)
        return sub

    def adopt(self, sub: EdgeSubscription) -> None:
        """Place an existing subscription handle on this worker — the
        migration primitive: the dispatcher moves *handles* between
        workers on rebalance, so caller and fabric always agree on the
        one object that represents the subscription."""
        self._check_alive()
        sub.worker_name = self.name
        sub.downstream = self._relay(sub.key).attach(
            sub.transport, format_name=sub.format_name, filter_expr=sub.filter_expr
        )
        self.metrics.inc("worker.subscribed")

    def unsubscribe(self, sub: EdgeSubscription) -> None:
        """Detach ``sub`` from its channel's relay; a handle this worker
        does not hold (evicted, or placed before a :meth:`kill`) is a
        no-op."""
        relay = self._relays.get(sub.key)
        if relay is not None and sub.downstream in relay.downstreams:
            relay.detach(sub.downstream)
            self.metrics.inc("worker.unsubscribed")

    def subscribe_tap(self, transport: Transport) -> EdgeSubscription:
        """Attach a worker-wide wildcard subscriber: it receives every
        channel this worker owns, now and later (``pbio-fabric`` peers)."""
        self._check_alive()
        tap = EdgeSubscription(None, transport, None, None)
        tap.worker_name = self.name
        self.taps.append(tap)
        for key, relay in self._relays.items():
            tap.tap_downstreams[key] = relay.attach(transport)
        return tap

    def unsubscribe_tap(self, tap: EdgeSubscription) -> None:
        if tap in self.taps:
            self.taps.remove(tap)
            for key, downstream in tap.tap_downstreams.items():
                if downstream.state != EVICTED:  # only heal() can have removed a listed tap's handle
                    self._relays[key].detach(downstream)
            tap.tap_downstreams.clear()

    # -- lifecycle / health ---------------------------------------------------

    def heal(self, now: float | None = None) -> None:
        """Drive every relay's quarantine/ack machinery one step."""
        if not self.alive:
            return
        for relay in self._relays.values():
            relay.heal(now)

    def kill(self) -> None:
        """Die abruptly, state and all — the in-process ``kill -9``.

        Every relay, announcement and subscription is gone; the next
        :meth:`ingest` raises, which is how the dispatcher finds out.
        """
        self.alive = False
        self._relays.clear()
        self._announcements, self._channel_announcements = AnnouncementBacklog(), {}
        self.taps.clear()
        self.metrics.inc("worker.killed")

    def revive(self) -> None:
        """Come back empty (a restarted process): the dispatcher replays
        announcements and re-places subscriptions on reactivation."""
        self.alive = True

    def drain_and_stop(self, deadline_s: float = 5.0) -> None:
        """Graceful exit: stop every relay, goodbye every subscriber, go down."""
        for relay in self._relays.values():
            relay.drain_and_stop(deadline_s)
        self.alive = False
        self.metrics.inc("worker.drained")

    # -- observability --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(_queue_depth(relay) for relay in self._relays.values())

    def channels(self) -> dict[tuple[int, int], dict]:
        """Per-channel ``{"subscribers", "queue_depth"}`` (taps and
        quarantined subscribers count; evicted ones are gone)."""
        return {
            key: {
                "subscribers": len(relay.downstreams),
                "queue_depth": _queue_depth(relay),
            }
            for key, relay in sorted(self._relays.items())
        }


class _WorkerSlot(QuarantineRecord):
    """The dispatcher's per-worker health record (the same state machine
    a relay keeps per downstream, lifted one level up)."""

    def __init__(self, worker: RelayWorker):
        super().__init__()
        self.worker = worker


class FabricDispatcher:
    """The fabric front: header-sniff routing over a worker ring.

    ``workers`` is either an int (that many local :class:`RelayWorker`\\ s
    named ``w0..wN-1`` are built, sharing the dispatcher's converter
    cache) or an iterable of prebuilt workers.  Inbound frames go
    through :meth:`forward` / :meth:`forward_batch` and
    :data:`FRONT_ROWS`: data routes verbatim to ``ring.owner((cid,
    fid))``, its header parsed once for the whole fabric; announcements
    are remembered and broadcast to every active worker (and replayed
    into workers that join or return), so any worker can own any channel
    after a rebalance.

    Worker failure and durable acks go as the module says: a quarantined
    worker leaves the ring (:meth:`_rebalance`), one alive again is
    reactivated (ring re-add, backlog replay, rebalance back), and each
    shard's min-cursor ack reaches ``ack_upstream`` — the sink contract a
    relay takes — never regressing (a freshly-placed worker starts at 0).
    Call :meth:`heal` periodically — once per pump burst is enough.
    """

    def __init__(
        self,
        workers: int | Iterable[RelayWorker],
        *,
        vnodes: int = DEFAULT_VNODES,
        cache: ConverterCache | None = None,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        quarantine_after: int = 3,
        probe_policy: ProbePolicy | None = None,
        worker_probe_policy: ProbePolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        replay_window: int = 256,
        ack_upstream: Callable[[bytes], None] | None = None,
        format_service=None,
    ):
        self.cache = cache if cache is not None else ConverterCache()
        self.limits = limits
        self.quarantine_after = quarantine_after
        #: Probe schedule for *workers* (quarantine recovery/eviction).
        self.probe_policy = probe_policy
        self._clock = clock
        self.ack_upstream = ack_upstream
        self.metrics = Metrics()
        self._slots: dict[str, _WorkerSlot] = {}
        self._subs: dict[tuple[int, int], list[EdgeSubscription]] = {}
        self._taps: list[EdgeSubscription] = []
        #: every channel seen so far and the worker the ring gives it:
        #: the routing table :meth:`_rebalance` keeps equal to the ring
        self._owner_of: dict[tuple[int, int], str | None] = {}
        self._announcements = AnnouncementBacklog()
        self._acked: dict[tuple[int, int], int] = {}
        if isinstance(workers, int):
            if workers < 1:
                raise ValueError("a fabric needs at least one worker")
            workers = [
                RelayWorker(
                    f"w{i}",
                    cache=self.cache,
                    limits=limits,
                    quarantine_after=quarantine_after,
                    probe_policy=worker_probe_policy,
                    clock=clock,
                    replay_window=replay_window,
                    format_service=format_service,
                )
                for i in range(workers)
            ]
        self.ring = HashRing(vnodes=vnodes)
        for worker in workers:
            self._admit(worker)

    def _admit(self, worker: RelayWorker) -> None:
        if worker.name in self._slots:
            raise ValueError(f"duplicate worker name {worker.name!r}")
        worker.ack_upstream = self._on_shard_ack
        self._slots[worker.name] = _WorkerSlot(worker)
        self.ring.add(worker.name)

    # -- membership -----------------------------------------------------------

    def add_worker(self, worker: RelayWorker) -> None:
        """Scale out: replay the announcement backlog into the worker,
        put it on the ring and rebalance (existing taps included)."""
        self._admit(worker)
        self._replay_announcements(worker)
        for tap in self._taps:
            worker.subscribe_tap(tap.transport)
        self.metrics.inc("fabric.workers_added")
        self._rebalance()

    def remove_worker(self, name: str, *, drain: bool = True) -> None:
        """Scale in: take the worker off the ring, move its channels to
        the survivors, then drain it gracefully."""
        slot = self._slots.pop(name, None)
        if slot is None:
            raise FabricError(f"no worker named {name!r}")
        if name in self.ring:
            self.ring.remove(name)
        self.metrics.inc("fabric.workers_removed")
        self._rebalance()
        if drain and slot.worker.alive:
            slot.worker.drain_and_stop()
        slot.state = EVICTED

    def worker(self, name: str) -> RelayWorker:
        slot = self._slots.get(name)
        if slot is None:
            raise FabricError(f"no worker named {name!r}")
        return slot.worker

    @property
    def workers(self) -> list[RelayWorker]:
        return [slot.worker for slot in self._slots.values()]

    def worker_states(self) -> dict[str, str]:
        return {name: slot.state for name, slot in self._slots.items()}

    # -- the forward path -----------------------------------------------------

    def forward(self, message: bytes, *, header=None) -> None:
        """Route one inbound frame (header sniffed at most once): a
        one-frame :meth:`forward_batch`."""
        self.forward_batch((message,), (header,))

    def forward_batch(self, messages, headers=None) -> None:
        """Route a burst through :data:`FRONT_ROWS`, each data run grouped
        per owning worker so each worker sees one vectored batch per run.
        Non-PBIO, oversize and torn frames and damaged announcements are
        dropped (``fabric.rejected``)."""
        limit = self.limits.max_message_size if self.limits is not None else None
        enc.walk(messages, headers, FRONT_ROWS, self, self._route_run, limit=limit)

    def _route_run(self, messages, headers) -> None:
        header = enc.uniform_header(messages, headers)  # whole frames of one channel: one owner, one run
        if header is not None and (name := self._owner_for((header[1], header[2]))) is not None:
            self._deliver_run(name, messages, headers)
            return
        runs: dict[str, list[tuple[bytes, tuple]]] = {}
        last_key = last_run = None  # a frame of the previous frame's channel joins its run
        for message, header in zip(messages, headers):
            if header[3] != len(message) - enc.HEADER_SIZE:  # torn or padded
                self.metrics.inc("fabric.rejected")
                continue
            key = (header[1], header[2])
            if key != last_key:
                name = self._owner_for(key)
                if name is None:
                    self.metrics.inc("fabric.dropped_no_worker")
                    continue
                last_key, last_run = key, runs.setdefault(name, [])
            last_run.append((message, header))
        for name, run in runs.items():
            self._deliver_run(name, *map(list, zip(*run)))

    def _owner_for(self, key: tuple[int, int]) -> str | None:
        """The worker that owns ``key``: remembered, and hashed onto the
        ring only the first time a key is seen — every ring mutation is
        followed by :meth:`_rebalance`, which re-owns every known key."""
        try:
            return self._owner_of[key]
        except KeyError:
            name = self._owner_of[key] = self.ring.owner(key)
            return name

    def _deliver_run(self, name: str, run: list, headers: list) -> None:
        slot = self._slots.get(name)
        if slot is None or slot.state != ACTIVE:
            self.metrics.inc("fabric.dropped_worker_error", len(run))
            return
        try:
            slot.worker.ingest_batch(run, headers)
        except TransportError:
            self._count_worker_failure(slot)
            self.metrics.inc("fabric.dropped_worker_error", len(run))
        else:
            slot.consecutive_errors = 0
            self.metrics.inc("fabric.routed", len(run))

    def _broadcast_announcement(self, message: bytes, header) -> None:
        """Remember (verbatim bytes, checked whole by the walk, never
        decoded) and fan to every active worker; each worker's relays
        decode and dedup."""
        data = bytes(message)
        if self._announcements.add(data):
            self.metrics.inc("fabric.announcements")
        for slot in self._slots.values():
            if slot.state != ACTIVE:
                continue
            try:
                slot.worker.ingest(data, header)
            except TransportError:
                self._count_worker_failure(slot)

    def _replay_announcements(self, worker: RelayWorker) -> None:
        try:
            worker.ingest_batch(list(self._announcements))
        except TransportError:
            pass

    # -- subscriptions --------------------------------------------------------

    def subscribe(
        self,
        key: tuple[int, int],
        transport: Transport,
        *,
        format_name: str | None = None,
        filter_expr: str | None = None,
    ) -> EdgeSubscription:
        """Place a subscriber on the channel's owning worker (the filter
        expression pushes down to its attachment there; on rebalance the
        subscription follows the channel to its new owner)."""
        key = (int(key[0]), int(key[1]))
        name = self._owner_for(key)
        if name is None:
            raise FabricError("fabric has no live workers to place the subscription on")
        sub = self._slots[name].worker.subscribe(
            key, transport, format_name=format_name, filter_expr=filter_expr
        )
        self._subs.setdefault(key, []).append(sub)
        self.metrics.inc("fabric.subscriptions")
        return sub

    def unsubscribe(self, sub: EdgeSubscription) -> None:
        subs = self._subs.get(sub.key, [])
        if sub in subs:
            subs.remove(sub)
        if sub.worker_name is not None:
            slot = self._slots.get(sub.worker_name)
            if slot is not None and slot.worker.alive:
                slot.worker.unsubscribe(sub)

    def tap(self, transport: Transport) -> EdgeSubscription:
        """Subscribe a transport to *every* worker's whole output (the
        ``pbio-fabric serve`` peer contract, like ``channel_handler``)."""
        tap = EdgeSubscription(None, transport, None, None)
        self._taps.append(tap)
        for slot in self._slots.values():
            if slot.state == ACTIVE and slot.worker.alive:
                slot.worker.subscribe_tap(transport)
        return tap

    def untap(self, tap: EdgeSubscription) -> None:
        if tap in self._taps:
            self._taps.remove(tap)
        for slot in self._slots.values():
            if not slot.worker.alive:
                continue
            for worker_tap in list(slot.worker.taps):
                if worker_tap.transport is tap.transport:
                    slot.worker.unsubscribe_tap(worker_tap)

    # -- health / rebalance ---------------------------------------------------

    def _count_worker_failure(self, slot: _WorkerSlot) -> None:
        errors = slot.fail()
        self.metrics.inc("fabric.worker_errors")
        if slot.state == ACTIVE and errors >= self.quarantine_after:
            self._quarantine(slot)

    def _quarantine(self, slot: _WorkerSlot) -> None:
        slot.quarantine(self._clock(), self.probe_policy)
        if slot.worker.name in self.ring:
            self.ring.remove(slot.worker.name)
        self.metrics.inc("fabric.workers_quarantined")
        self._rebalance()

    def _reactivate(self, slot: _WorkerSlot) -> None:
        slot.reset()
        # A returned worker may be a restarted process with empty state:
        # replay the backlog (dedup absorbs it if it never died), restore
        # fabric-wide taps, then take traffic again.
        self._replay_announcements(slot.worker)
        for tap in self._taps:
            worker_taps = slot.worker.taps
            if not any(t.transport is tap.transport for t in worker_taps):
                slot.worker.subscribe_tap(tap.transport)
        self.ring.add(slot.worker.name)
        self.metrics.inc("fabric.workers_reactivated")
        self._rebalance()

    def _evict(self, slot: _WorkerSlot) -> None:
        slot.state = EVICTED
        self.metrics.inc("fabric.workers_evicted")

    def reactivate_worker(self, name: str) -> None:
        """Operator override: bring a quarantined worker back by hand
        (the probe machinery does this automatically with a policy)."""
        slot = self._slots.get(name)
        if slot is None:
            raise FabricError(f"no worker named {name!r}")
        if slot.state != ACTIVE and slot.worker.alive:
            self._reactivate(slot)

    def heal(self, now: float | None = None) -> None:
        """One step of the fabric state machine: detect dead workers,
        probe and reactivate/evict quarantined ones, drive every live
        worker's own relay healing (which is what moves acks upstream)."""
        if now is None:
            now = self._clock()
        policy = self.probe_policy
        for slot in self._slots.values():  # heal never adds or removes a worker
            if slot.state == ACTIVE:
                if not slot.worker.alive:
                    self._quarantine(slot)
                    continue
                slot.worker.heal(now)
                continue
            if policy is None or slot.state == EVICTED:
                continue
            if slot.expired(now, policy):
                self._evict(slot)
            elif slot.probe_due(now):
                slot.probed(now, policy)
                self.metrics.inc("fabric.probes_sent")
                # The in-process probe: is the worker taking traffic
                # again?  (A socket fabric would ping here instead.)
                if slot.worker.alive:
                    self._reactivate(slot)

    def _rebalance(self) -> None:
        """Re-own every known channel after a membership change and move
        the subscriptions of channels whose owner changed.  Announcement
        state needs no special motion: every active worker holds the
        backlog (broadcast on arrival, replayed on join/return), and
        :meth:`RelayWorker.adopt` attaches to a relay that replays it."""
        self.metrics.inc("fabric.rebalances")
        moved = 0
        for key, old_name in sorted(self._owner_of.items()):
            new_name = self.ring.owner(key)
            if new_name == old_name:
                continue
            self._owner_of[key] = new_name
            subs = self._subs.get(key, ())
            if subs:
                moved += 1
            for sub in subs:
                old_slot = self._slots.get(sub.worker_name or "")
                if old_slot is not None and old_slot.worker.alive:
                    old_slot.worker.unsubscribe(sub)
                if new_name is None:
                    sub.worker_name = None
                    sub.downstream = None
                    continue
                self._slots[new_name].worker.adopt(sub)
        if moved:
            self.metrics.inc("fabric.migrated_channels", moved)

    def _on_shard_ack(self, frame: bytes) -> None:
        """A worker channel relay's min-cursor ack for one channel: never
        regress (a re-placed shard restarts at cursor 0), then forward
        toward the publisher."""
        try:
            cid, fid, cursor, _nb, _bits = enc.parse_ack(frame)
        except PbioError:
            return
        key = (cid, fid)
        if cursor <= self._acked.get(key, 0):
            return
        self._acked[key] = cursor
        self.metrics.inc("fabric.acks_up")
        if self.ack_upstream is not None:
            self.ack_upstream(frame)

    # -- observability --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(
            slot.worker.queue_depth
            for slot in self._slots.values()
            if slot.state == ACTIVE and slot.worker.alive
        )

    def ownership(self) -> dict[str, list[tuple[int, int]]]:
        """``{worker: [channel keys]}`` for every channel seen so far."""
        return self.ring.assignment(self._owner_of)

    def drain_and_stop(self, deadline_s: float = 5.0) -> None:
        for slot in self._slots.values():
            if slot.worker.alive:
                slot.worker.drain_and_stop(deadline_s)
        self.metrics.inc("fabric.drained")


class _Peer(LinkControl):
    """One :func:`fabric_handler` connection, answering its pings."""

    def __init__(self, dispatcher: FabricDispatcher, transport):
        self.dispatcher, self.send = dispatcher, transport.send

    def answer(self, frame, header) -> None:
        depth = min(self.dispatcher.queue_depth, 0xFFFFFFFF)
        self.control(frame, header, self.send, depth, self.dispatcher.metrics)


def fabric_handler(dispatcher: FabricDispatcher, *, max_frames: int = 0):
    """An :class:`~repro.net.aio.AsyncServer` connection handler serving
    a fabric: every peer is an ingress publisher *and* a fabric-wide
    subscriber tap (the ``channel_handler`` contract).  Pings are
    answered by the one responder with the fabric's aggregate queue depth
    (``pbio-fabric status``); everything else routes through the dispatcher with its
    header parsed exactly once.  Each burst also drives :meth:`heal`.
    """

    async def handle(transport) -> None:
        tap, peer = dispatcher.tap(transport), _Peer(dispatcher, transport)
        try:
            while True:
                frames = await transport.recv_many(max_frames)
                enc.walk(frames, None, PEER_ROWS, peer, dispatcher.forward_batch)
                dispatcher.heal()
        finally:
            dispatcher.untap(tap)

    return handle
