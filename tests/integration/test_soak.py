"""Soak: the self-healing service plane under sustained seeded chaos.

A relay fans one telemetry stream out to eight subscribers while a
chaos schedule breaks and heals their links; a format service publishes
fresh formats over two paths (primary/backup) to a format server while
the primary path flaps.  The run lasts ``PBIO_SOAK_SECONDS`` (a couple
of seconds by default so the tier-1 suite stays fast; CI's soak job
sets 60) and asserts the plane's contract:

* zero acknowledged loss — every record forwarded while a subscriber's
  link was healthy and its downstream ACTIVE is delivered and decodes;
* quarantines always resolve — by the end every downstream is ACTIVE
  again and nothing was evicted;
* announcement replay works — reactivated subscribers keep decoding
  (a lost announcement would poison every later record);
* fmtserv failover — every publish lands a token while at least one
  path is up, and every published format survives a cold lookup.

``PBIO_CHAOS_SEED`` selects the chaos schedule (CI sweeps a matrix).
"""

import os
import random
import time

from repro.abi import SPARC_V8, X86, RecordSchema, layout_record
from repro.core import IOContext, IOFormat
from repro.core import encoder as enc
from repro.fmtserv import FormatCache, FormatServer, FormatService
from repro.net import InMemoryPipe, ProbePolicy, Relay, Transport, TransportError
from repro.net.health import ACTIVE

from ..fmtserv.helpers import SyncServerLink

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))
SOAK_SECONDS = float(os.environ.get("PBIO_SOAK_SECONDS", "1.5"))
N_SUBSCRIBERS = 8

TELEMETRY = RecordSchema.from_pairs("telemetry", [("seq", "int"), ("value", "double")])


class FlakyLink(Transport):
    """A pipe end whose send path can be broken and healed at will.

    The receive path stays up even while broken — probes that cannot be
    *sent* are the relay's problem; pongs the subscriber queued earlier
    must still be harvestable once the link heals.
    """

    def __init__(self, inner):
        self.inner = inner
        self.broken = False

    def send(self, data):
        if self.broken:
            raise TransportError("soak chaos: link down")
        self.inner.send(data)

    def recv(self):
        return self.inner.recv()

    def poll_recv(self):
        return self.inner.poll_recv()

    def close(self):
        self.inner.close()


class Subscriber:
    """One relay downstream: decodes telemetry, answers probe pings."""

    def __init__(self, relay):
        self.pipe = InMemoryPipe()
        self.link = FlakyLink(self.pipe.a)
        self.down = relay.attach(self.link)
        self.ctx = IOContext(X86)
        self.ctx.expect(TELEMETRY)
        self.received = []  # seqs, in delivery order
        self.expected = set()  # seqs acknowledged as sent on a healthy link

    def pump(self):
        while True:
            frame = self.pipe.b.poll_recv()
            if frame is None:
                return
            kind = enc.unpack_header(frame)[0]
            if kind == enc.MSG_PING:
                nonce, _depth = enc.parse_ping(frame)
                if nonce != enc.GOODBYE_NONCE:
                    self.pipe.b.send(enc.encode_pong(nonce))
            elif kind == enc.MSG_PONG:
                continue
            else:
                record = self.ctx.receive(frame)
                if record is not None:
                    assert record["value"] == record["seq"] * 0.5
                    self.received.append(record["seq"])


def test_soak_self_healing_plane():
    rng = random.Random(CHAOS_SEED)
    relay = Relay(
        quarantine_after=1,
        probe_policy=ProbePolicy(
            base_delay_s=0.01,
            multiplier=2.0,
            max_delay_s=0.05,
            eviction_deadline_s=3600.0,  # a soak must heal, never evict
        ),
    )
    subs = [Subscriber(relay) for _ in range(N_SUBSCRIBERS)]

    # One format server reachable over two paths — failover without a
    # replication story (an HA pair behind two network routes).
    fserver = FormatServer()
    primary_up = [True]

    def primary_connect():
        if not primary_up[0]:
            raise TransportError("soak chaos: primary path down")
        return SyncServerLink(fserver)

    service = FormatService(
        [primary_connect, lambda: SyncServerLink(fserver)],
        cache=FormatCache(None),
        server_retry_s=0.05,
    )

    sender = IOContext(SPARC_V8)
    handle = sender.register_format(TELEMETRY)
    relay.forward(sender.announce(handle))

    published = []
    deadline = time.monotonic() + SOAK_SECONDS
    seq = 0
    while time.monotonic() < deadline:
        # -- chaos: flap subscriber links and the primary fmtserv path
        for sub in subs:
            if not sub.link.broken:
                if rng.random() < 0.03:
                    sub.link.broken = True
            elif rng.random() < 0.25:
                sub.link.broken = False
        if rng.random() < 0.05:
            primary_up[0] = not primary_up[0]

        # -- forward one record; a healthy link at send time is the ack
        message = sender.encode(handle, {"seq": seq, "value": seq * 0.5})
        for sub in subs:
            if sub.down.state == ACTIVE and not sub.link.broken:
                sub.expected.add(seq)
        relay.forward(message)
        seq += 1

        # -- every fifth round, exercise the format service: publish
        #    fresh formats up to half the server's per-client quota,
        #    then keep the wire busy with cache-evicted re-lookups
        if seq % 5 == 0:
            if len(published) < 512:
                schema = RecordSchema.from_pairs(f"soak{seq}", [("x", "int")])
                fmt = IOFormat.from_layout(layout_record(schema, SPARC_V8))
                token = service.publish(fmt)
                assert token is not None, "publish failed with a live replica"
                published.append(fmt.fingerprint)
            else:
                fingerprint = published[rng.randrange(len(published))]
                service.cache.purge(fingerprint)
                fmt = service.resolve(fingerprint)
                assert fmt is not None, "lookup failed with a live replica"

        # -- let the plane heal and the subscribers drain
        relay.heal()
        for sub in subs:
            sub.pump()
        time.sleep(0.001)

    # -- quiesce: heal every link, drive probes until everyone recovers
    for sub in subs:
        sub.link.broken = False
    recovery_deadline = time.monotonic() + 10.0
    while any(s.down.state != ACTIVE for s in subs):
        assert time.monotonic() < recovery_deadline, "a downstream never recovered"
        relay.heal()
        for sub in subs:
            sub.pump()
        time.sleep(0.002)

    # -- one final record must reach all eight (the replayed
    #    announcements prove reactivated subscribers still decode)
    final = sender.encode(handle, {"seq": seq, "value": seq * 0.5})
    for sub in subs:
        sub.expected.add(seq)
    relay.forward(final)
    for sub in subs:
        sub.pump()

    for sub in subs:
        got = set(sub.received)
        lost = sorted(sub.expected - got)
        assert not lost, f"acknowledged records lost: {lost[:10]}"
        assert sub.received == sorted(sub.received), "out-of-order delivery"
        assert sub.down.state == ACTIVE
    assert relay.metrics.value("relay.evicted") == 0

    # -- every format published during the soak survives a cold lookup
    cold = FormatService(lambda: SyncServerLink(fserver), cache=FormatCache(None))
    try:
        for fingerprint in published:
            assert cold.resolve(fingerprint) is not None, "published format lost"
    finally:
        cold.close()
        service.close()


# ---------------------------------------------------------------------------
# Durable delivery under crash-restart churn
# ---------------------------------------------------------------------------

DURABLE_PUB_ID = 0xBEEF
N_DURABLE_SUBS = 4


class DurableSub:
    """One durable subscriber process behind a relay downstream.

    ``crash()`` discards every in-memory object — channel, subscription,
    sequence window — and reboots purely from the cursor file, exactly
    what a kill -9 leaves behind.  The pipe (the network) survives; any
    frames queued in it are redelivered into the new incarnation and
    absorbed by its dedup window.
    """

    def __init__(self, relay, cursor_path):
        self.cursor_path = cursor_path
        self.received = []  # seqs, in delivery order, across incarnations
        self._connect(relay)
        self._boot()

    def _connect(self, relay):
        self.pipe = InMemoryPipe()
        self.down = relay.attach(self.pipe.a)  # attach replays announcements

    def _boot(self):
        from repro.net import DurableSubscription, EventChannel

        self.chan = EventChannel()
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        self.sub = DurableSubscription(
            self.chan,
            ctx,
            lambda record: self.received.append(record["seq"]),
            cursor_path=self.cursor_path,
            ack_sink=self.pipe.b.send,
            window=8192,
        )

    def crash(self, relay):
        # kill -9 also drops the connection: the relay notices the
        # hangup (detach) and the reborn process dials back in, which
        # replays the announcements its empty registry needs.
        relay.detach(self.down)
        self._connect(relay)
        self._boot()

    def reattach(self, relay):
        """After a *relay* crash: the new relay adopts the old pipe."""
        self.down = relay.attach(self.pipe.a)

    def pump(self):
        while True:
            frame = self.pipe.b.poll_recv()
            if frame is None:
                return
            kind = enc.unpack_header(frame)[0]
            if kind == enc.MSG_PING:
                nonce, _depth = enc.parse_ping(frame)
                if nonce != enc.GOODBYE_NONCE:
                    self.pipe.b.send(enc.encode_pong(nonce))
            elif kind == enc.MSG_PONG:
                continue
            else:
                self.chan.ingest(frame)


def test_soak_durable_crash_restart(tmp_path):
    """Publisher, relay and subscribers all crash-restart mid-stream;
    every published record is observed exactly once, in order, at every
    subscriber — the durable plane's whole contract."""
    from repro.net import DurablePublisher, EventChannel, Relay as DurableRelay

    rng = random.Random(CHAOS_SEED + 0xD0)
    wal_dir = str(tmp_path / "wal")
    chan_box = [None]  # current publisher-side channel (relay acks route here)

    def boot_relay():
        return DurableRelay(
            quarantine_after=1,
            probe_policy=ProbePolicy(
                base_delay_s=0.01,
                multiplier=2.0,
                max_delay_s=0.05,
                eviction_deadline_s=3600.0,
            ),
            ack_upstream=lambda message: chan_box[0].route_ack(message),
            replay_window=8192,
        )

    relay_box = [boot_relay()]

    def boot_publisher():
        """Rebuild the publisher process from its WAL alone."""
        chan = EventChannel()
        chan.attach_wire(lambda message: relay_box[0].forward(message))
        chan_box[0] = chan
        ctx = IOContext(SPARC_V8, context_id=DURABLE_PUB_ID)
        handle = ctx.register_format(TELEMETRY)
        return DurablePublisher(chan, ctx, wal_dir=wal_dir), handle

    pub, handle = boot_publisher()
    subs = [
        DurableSub(relay_box[0], str(tmp_path / f"sub{i}.cursors"))
        for i in range(N_DURABLE_SUBS)
    ]

    published = 0
    deadline = time.monotonic() + SOAK_SECONDS
    while time.monotonic() < deadline:
        # -- chaos: kill -9 one of the three process kinds now and then
        roll = rng.random()
        if roll < 0.02:
            pub, handle = boot_publisher()  # no close(), no goodbye
            pub.resend_unacked()
        elif roll < 0.04:
            relay_box[0] = boot_relay()  # replay window + cursors lost
            for sub in subs:
                sub.reattach(relay_box[0])
            pub.resend_unacked()  # the WAL refills what the relay forgot
        elif roll < 0.08:
            rng.choice(subs).crash(relay_box[0])

        pub.publish(handle, {"seq": published, "value": published * 0.5})
        published += 1
        relay_box[0].heal()
        for sub in subs:
            sub.pump()

    # -- quiesce: retransmit and heal until everyone has everything
    expected = list(range(published))
    recovery_deadline = time.monotonic() + 10.0
    while any(len(sub.received) < published for sub in subs):
        assert time.monotonic() < recovery_deadline, (
            "durable soak never converged: "
            + str([len(sub.received) for sub in subs])
        )
        pub.resend_unacked()
        relay_box[0].heal()
        for sub in subs:
            sub.pump()
        time.sleep(0.001)

    for sub in subs:
        assert sub.received == expected, (
            f"exactly-once violated: got {len(sub.received)} records, "
            f"first divergence at "
            f"{next((i for i, (a, b) in enumerate(zip(sub.received, expected)) if a != b), 'tail')}"
        )

    # -- and the acks must drain the WAL completely
    ack_deadline = time.monotonic() + 10.0
    while pub.unacked_count:
        assert time.monotonic() < ack_deadline, "acks never drained the WAL"
        relay_box[0].heal()
        for sub in subs:
            sub.pump()
        time.sleep(0.001)
    assert pub.stats.acked > 0


# -- the sharded fabric under worker kill -9 -----------------------------------

FABRIC_PUB_ID = 0xFAB1
N_FABRIC_WORKERS = 3
N_FABRIC_SUBS = 4


class FabricDurableSub:
    """One durable subscriber placed on the fabric: the dispatcher owns
    the leaf placement (and migrates it across rebalances); this side
    only pumps its pipe into a durable channel and acks."""

    def __init__(self, dispatcher, key, cursor_path):
        from repro.net import DurableSubscription, EventChannel

        self.pipe = InMemoryPipe()
        self.handle = dispatcher.subscribe(key, self.pipe.a, format_name="telemetry")
        self.chan = EventChannel()
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        self.received = []
        self.sub = DurableSubscription(
            self.chan,
            ctx,
            lambda record: self.received.append(record["seq"]),
            cursor_path=cursor_path,
            ack_sink=self.pipe.b.send,
            window=65536,
        )

    def pump(self):
        while True:
            frame = self.pipe.b.poll_recv()
            if frame is None:
                return
            kind = enc.unpack_header(frame)[0]
            if kind == enc.MSG_PING:
                nonce, _depth = enc.parse_ping(frame)
                if nonce != enc.GOODBYE_NONCE:
                    self.pipe.b.send(enc.encode_pong(nonce))
            elif kind == enc.MSG_PONG:
                continue
            else:
                self.chan.ingest(frame)


def test_soak_fabric_worker_kill(tmp_path):
    """kill -9 fabric workers mid-stream under the durable plane: the
    dispatcher quarantines the dead worker, rebalances its channels to
    the survivors (announcement replay included), probes revive it, and
    the publisher WAL refills whatever died in its queues — zero
    acknowledged loss, no duplicate delivery, at every subscriber."""
    from repro.net import DurablePublisher, EventChannel, FabricDispatcher

    rng = random.Random(CHAOS_SEED + 0xFA)
    chan = EventChannel()
    dispatcher = FabricDispatcher(
        N_FABRIC_WORKERS,
        quarantine_after=1,
        probe_policy=ProbePolicy(
            base_delay_s=0.001,
            multiplier=2.0,
            max_delay_s=0.01,
            eviction_deadline_s=3600.0,  # a soak must heal, never evict
        ),
        replay_window=65536,
        ack_upstream=chan.route_ack,
    )
    chan.attach_wire(dispatcher.forward)
    ctx = IOContext(SPARC_V8, context_id=FABRIC_PUB_ID)
    handle = ctx.register_format(TELEMETRY)
    pub = DurablePublisher(chan, ctx, wal_dir=str(tmp_path / "wal"))
    key = (FABRIC_PUB_ID, handle.format_id)
    subs = [
        FabricDurableSub(dispatcher, key, str(tmp_path / f"fsub{i}.cursors"))
        for i in range(N_FABRIC_SUBS)
    ]

    published = 0
    kills = 0
    deadline = time.monotonic() + SOAK_SECONDS
    while time.monotonic() < deadline:
        roll = rng.random()
        live = [w for w in dispatcher.workers if w.alive]
        dead = [w for w in dispatcher.workers if not w.alive]
        if roll < 0.04 and len(live) > 1:
            rng.choice(live).kill()  # state and all — the in-process kill -9
            kills += 1
        elif roll < 0.12 and dead:
            rng.choice(dead).revive()  # restarted empty; probes re-admit it
        pub.publish(handle, {"seq": published, "value": published * 0.5})
        published += 1
        if rng.random() < 0.2:
            pub.resend_unacked()  # the WAL refills what dead shards dropped
        dispatcher.heal()
        for sub in subs:
            sub.pump()

    # -- quiesce: revive everyone, retransmit and heal until converged
    for worker in dispatcher.workers:
        worker.revive()
    expected = list(range(published))
    recovery_deadline = time.monotonic() + 10.0
    while any(len(sub.received) < published for sub in subs) or pub.unacked_count:
        assert time.monotonic() < recovery_deadline, (
            f"fabric soak never converged after {kills} kills: "
            + str([len(sub.received) for sub in subs])
            + f" of {published}, unacked={pub.unacked_count}"
        )
        pub.resend_unacked()
        dispatcher.heal()
        for sub in subs:
            sub.pump()
        time.sleep(0.001)

    for sub in subs:
        assert sub.received == expected, (
            f"exactly-once violated after {kills} kills: "
            f"got {len(sub.received)} records "
            f"({len(sub.received) - len(set(sub.received))} duplicates)"
        )
    # Delivery can converge before the last revived worker's probe timer
    # fires; keep healing until the probe machinery re-admits everyone.
    reactivation_deadline = time.monotonic() + 10.0
    while not all(s == ACTIVE for s in dispatcher.worker_states().values()):
        assert time.monotonic() < reactivation_deadline, (
            f"quarantine never resolved: {dispatcher.worker_states()}"
        )
        dispatcher.heal()
        time.sleep(0.001)
    assert pub.stats.acked == published
