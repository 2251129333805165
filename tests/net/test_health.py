"""Tests for the self-healing service plane (:mod:`repro.net.health`).

Heartbeat wire records, the tick-driven :class:`HeartbeatMonitor`, probe
backoff schedules, the circuit breaker, the relay's quarantine-recovery state machine, and
graceful drain on every server surface.  Everything runs in virtual
time (:class:`~repro.net.timing.VirtualClock`); the hypothesis property
test is seeded from ``PBIO_CHAOS_SEED`` like the rest of the chaos
suite (default 0).
"""

import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext
from repro.core import encoder as enc
from repro.core.errors import MessageError
from repro.net import (
    CircuitBreaker,
    FabricDispatcher,
    FaultInjectingTransport,
    FaultPlan,
    HeartbeatMonitor,
    InMemoryPipe,
    PeerUnresponsive,
    ProbePolicy,
    Relay,
    RelayWorker,
    Transport,
    TransportError,
    VirtualClock,
    WriteQueueFull,
    send_goodbye,
)
from repro.net import health
from repro.net.health import ACTIVE, EVICTED, PROBING, QUARANTINED

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)


def telemetry_stream(records):
    """Announcement + encoded records, as an upstream would frame them."""
    sender = IOContext(SPARC_V8)
    handle = sender.register_format(TELEMETRY)
    return [sender.announce(handle)] + [sender.encode(handle, r) for r in records]


def data_frame(cid: int, fid: int, payload: bytes) -> bytes:
    return enc.pack_header(enc.MSG_DATA, cid, fid, len(payload)) + payload


def drain_frames(pipe_end) -> list[bytes]:
    frames = []
    while pipe_end.pending():
        frames.append(pipe_end.recv())
    return frames


class FlakyLink(Transport):
    """A pipe end whose send path can be switched dead and alive."""

    def __init__(self, inner):
        self.inner = inner
        self.broken = False

    def send(self, data):
        if self.broken:
            raise TransportError("link down (test)")
        self.inner.send(data)

    def recv(self):
        return self.inner.recv()

    def poll_recv(self):
        return self.inner.poll_recv()

    def close(self):
        self.inner.close()


class ChokedLink(Transport):
    """A pipe end that signals a full write queue while ``full`` is set."""

    def __init__(self, inner):
        self.inner = inner
        self.full = False

    def send(self, data):
        if self.full:
            raise WriteQueueFull("write queue full (test)")
        self.inner.send(data)

    def recv(self):
        return self.inner.recv()

    def poll_recv(self):
        return self.inner.poll_recv()

    def close(self):
        self.inner.close()


# -- wire records --------------------------------------------------------------


class TestHeartbeatWire:
    def test_ping_pong_round_trip(self):
        ping = enc.encode_ping(7, queue_depth=42)
        assert len(ping) == enc.HEADER_SIZE + enc.HEARTBEAT_PAYLOAD_SIZE
        assert enc.unpack_header(ping)[0] == enc.MSG_PING
        assert enc.parse_ping(ping) == (7, 42)
        pong = enc.encode_pong(7, queue_depth=3)
        assert enc.unpack_header(pong)[0] == enc.MSG_PONG
        assert enc.parse_pong(pong) == (7, 3)

    def test_strict_size_enforced(self):
        ping = enc.encode_ping(1)
        with pytest.raises(MessageError):
            enc.parse_ping(ping + b"\x00")  # oversize
        with pytest.raises(MessageError):
            enc.parse_ping(ping[:-1])  # truncated
        with pytest.raises(MessageError):
            enc.parse_pong(ping)  # wrong type

    def test_goodbye_nonce_is_reserved(self):
        assert enc.GOODBYE_NONCE == 0
        nonce, _depth = enc.parse_ping(enc.encode_ping(enc.GOODBYE_NONCE))
        assert nonce == enc.GOODBYE_NONCE


# -- heartbeat monitor ---------------------------------------------------------


class TestHeartbeatMonitor:
    def make(self, **kwargs):
        clock = VirtualClock()
        pipe = InMemoryPipe()
        kwargs.setdefault("interval_s", 1.0)
        kwargs.setdefault("miss_threshold", 3)
        monitor = HeartbeatMonitor(pipe.a, clock=clock, **kwargs)
        return monitor, pipe, clock

    def test_answered_pings_stay_responsive(self):
        monitor, pipe, clock = self.make()
        for _ in range(10):
            assert monitor.tick()
            ping = pipe.b.recv()
            nonce, _depth = enc.parse_ping(ping)
            pipe.b.send(enc.encode_pong(nonce, queue_depth=5))
            clock.advance(1.0)
        assert monitor.responsive
        assert monitor.misses == 0
        assert monitor.pongs_received >= 9  # the last pong is still in flight
        assert monitor.peer_queue_depth == 5

    def test_silent_peer_raises_at_threshold(self):
        monitor, pipe, clock = self.make()
        verdicts = []
        for _ in range(3):  # ping 1, nothing back; miss 1, ping 2; miss 2, ping 3
            monitor.tick()
            verdicts.append(monitor.responsive)
            clock.advance(1.0)
        with pytest.raises(PeerUnresponsive):
            monitor.tick()  # miss 3 == threshold
        verdicts.append(monitor.responsive)
        assert monitor.misses == 3
        assert verdicts == [True, True, True, False]

    def test_any_frame_is_proof_of_life(self):
        monitor, pipe, clock = self.make()
        monitor.tick()
        pipe.b.recv()  # the ping; peer streams data instead of answering
        for tick in range(1, 10):
            pipe.b.send(data_frame(1, 1, b"busy"))
            clock.advance(1.0)
            monitor.tick()
        assert monitor.responsive and monitor.misses == 0
        assert len(monitor.inbox) == 9  # data frames kept for the caller

    def test_recovery_resets_misses_and_notifies(self):
        monitor, pipe, clock = self.make(miss_threshold=2)
        verdicts = []
        for _ in range(3):
            with pytest.raises(PeerUnresponsive) if monitor.misses >= 1 else no_raise():
                monitor.tick()
            verdicts.append(monitor.responsive)
            clock.advance(1.0)
        pipe.b.send(enc.encode_pong(1))
        monitor.tick()
        verdicts.append(monitor.responsive)
        assert monitor.misses == 0
        assert verdicts == [True, True, False, True]

    def test_inbound_ping_answered_automatically(self):
        monitor, pipe, clock = self.make()
        pipe.b.send(enc.encode_ping(99, queue_depth=7))
        monitor.tick()
        frames = drain_frames(pipe.b)
        pongs = [f for f in frames if enc.unpack_header(f)[0] == enc.MSG_PONG]
        assert len(pongs) == 1
        assert enc.parse_pong(pongs[0])[0] == 99
        assert monitor.peer_queue_depth == 7

    def test_goodbye_sets_flag_without_pong(self):
        monitor, pipe, clock = self.make()
        pipe.b.send(enc.encode_ping(enc.GOODBYE_NONCE))
        monitor.tick()
        assert monitor.peer_goodbye
        frames = drain_frames(pipe.b)
        assert all(enc.unpack_header(f)[0] != enc.MSG_PONG for f in frames)

    def test_goodbye_helper_best_effort(self):
        pipe = InMemoryPipe()
        assert send_goodbye(pipe.a)
        nonce, _depth = enc.parse_ping(pipe.b.recv())
        assert nonce == enc.GOODBYE_NONCE
        pipe.b.close()
        pipe.a.close()
        assert not send_goodbye(pipe.a)  # dead link: False, never raises

    def test_validation(self):
        pipe = InMemoryPipe()
        with pytest.raises(ValueError):
            HeartbeatMonitor(pipe.a, interval_s=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(pipe.a, miss_threshold=0)


def no_raise():
    import contextlib

    return contextlib.nullcontext()


# -- probe policy --------------------------------------------------------------


class TestProbePolicy:
    def test_backoff_schedule(self):
        policy = ProbePolicy(base_delay_s=0.5, multiplier=2.0, max_delay_s=4.0)
        assert [policy.delay(n) for n in range(5)] == [0.5, 1.0, 2.0, 4.0, 4.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbePolicy(base_delay_s=0.0)
        with pytest.raises(ValueError):
            ProbePolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            ProbePolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ValueError):
            ProbePolicy(eviction_deadline_s=0.0)


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_lifecycle(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(5.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # one trial call
        breaker.record_success()
        assert breaker.state == "closed"

    def test_holdoff_doubles_and_caps(self, monkeypatch):
        monkeypatch.setattr(health, "MAX_HOLDOFF_S", 4.0)
        clock = VirtualClock()
        breaker = CircuitBreaker(1.0, clock=clock)
        for expected in (1.0, 2.0, 4.0, 4.0):  # doubling, then the cap
            breaker.record_failure()
            clock.advance(expected - 0.01)
            assert not breaker.allow()
            clock.advance(0.01)
            assert breaker.allow()
        breaker.record_success()
        breaker.record_failure()
        clock.advance(1.0)  # success reset the consecutive-open count
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0.0)


# -- relay self-healing --------------------------------------------------------


def healing_relay(clock, **kwargs):
    kwargs.setdefault(
        "probe_policy",
        ProbePolicy(base_delay_s=1.0, multiplier=2.0, max_delay_s=4.0, eviction_deadline_s=20.0),
    )
    return Relay(quarantine_after=1, clock=clock, **kwargs)


class TestRelayHealing:
    def test_pong_reactivates_with_announcement_replay(self):
        clock = VirtualClock()
        relay = healing_relay(clock)
        pipe = InMemoryPipe()
        link = FlakyLink(pipe.a)
        down = relay.attach(link)
        announcement, lost, after = telemetry_stream(
            [{"unit": 1, "temperature": 1.0}, {"unit": 2, "temperature": 2.0}]
        )
        relay.forward(announcement)
        link.broken = True
        relay.forward(lost)  # send fails: quarantined at threshold 1
        assert down.state == QUARANTINED
        link.broken = False
        clock.advance(1.0)
        relay.heal()  # probe goes out
        assert down.state == PROBING
        assert down.stats.probes_sent == 1
        pings = [f for f in drain_frames(pipe.b) if enc.unpack_header(f)[0] == enc.MSG_PING]
        assert len(pings) == 1
        pipe.b.send(enc.encode_pong(enc.parse_ping(pings[0])[0]))
        relay.heal()
        assert down.state == ACTIVE
        assert down.stats.reactivated == 1
        assert relay.metrics.value("relay.reactivated") == 1
        relay.forward(after)
        # The reactivated peer missed nothing it needs: replayed
        # announcement first, then the fresh record — decodable.
        receiver = IOContext(X86)
        receiver.expect(TELEMETRY)
        decoded = [receiver.receive(f) for f in drain_frames(pipe.b)]
        assert {"unit": 2, "temperature": 2.0} in decoded

    def test_silent_peer_evicted_at_deadline(self):
        clock = VirtualClock()
        relay = healing_relay(clock)
        pipe = InMemoryPipe()
        link = FlakyLink(pipe.a)
        down = relay.attach(link)
        announcement, record = telemetry_stream([{"unit": 1, "temperature": 1.0}])
        relay.forward(announcement)
        link.broken = True
        relay.forward(record)
        for _ in range(50):
            clock.advance(0.5)
            relay.heal()
        assert down.state == EVICTED
        assert down.stats.evicted == 1
        assert relay.metrics.value("relay.evicted") == 1
        assert down not in relay.active_downstreams
        relay.forward(record)  # eviction is final: nothing reaches the pipe
        assert not [
            f for f in drain_frames(pipe.b) if enc.unpack_header(f)[0] == enc.MSG_DATA
        ]

    def test_garbage_on_backchannel_is_not_proof_of_life(self):
        clock = VirtualClock()
        relay = healing_relay(clock)
        pipe = InMemoryPipe()
        link = FlakyLink(pipe.a)
        down = relay.attach(link)
        announcement, record = telemetry_stream([{"unit": 1, "temperature": 1.0}])
        relay.forward(announcement)
        link.broken = True
        relay.forward(record)
        link.broken = False
        clock.advance(1.0)
        relay.heal()
        pipe.b.send(b"not a pong")  # the peer babbles but can't receive
        relay.heal()
        assert down.state == PROBING

    def test_without_policy_recovery_stays_manual(self):
        clock = VirtualClock()
        relay = Relay(quarantine_after=1, clock=clock, probe_policy=None)
        pipe = InMemoryPipe()
        link = FlakyLink(pipe.a)
        down = relay.attach(link)
        announcement, record = telemetry_stream([{"unit": 1, "temperature": 1.0}])
        relay.forward(announcement)
        link.broken = True
        relay.forward(record)
        assert down.quarantined
        link.broken = False
        for _ in range(10):
            clock.advance(10.0)
            relay.heal()
        assert down.quarantined  # heal never probes without a policy
        relay.reactivate(down)  # the operator override still works
        assert down.state == ACTIVE


class TestRelayDrain:
    def test_drain_flushes_and_says_goodbye(self):
        relay = Relay(clock=VirtualClock())
        pipe = InMemoryPipe()
        down = relay.attach(pipe.a)
        frames = telemetry_stream([{"unit": 1, "temperature": 1.0}])
        relay.forward(frames[0])
        relay.forward(frames[1])
        relay.drain_and_stop(deadline_s=5.0)
        relay.forward(frames[1])  # after stop: dropped
        relay.forward_batch(frames)
        assert relay.metrics.value("relay.dropped_after_stop") == 3
        assert relay.metrics.value("relay.drained") == 1
        received = drain_frames(pipe.b)
        kinds = [enc.unpack_header(f)[0] for f in received]
        assert kinds == [enc.MSG_FORMAT, enc.MSG_DATA, enc.MSG_PING]
        nonce, _depth = enc.parse_ping(received[-1])
        assert nonce == enc.GOODBYE_NONCE
        assert down.stats.goodbyes_sent == 1


# -- damaged heartbeats ----------------------------------------------------------


def damaged_heartbeats():
    """Every heartbeat damage shape: a type-5 / type-6 header on 0, 3, 15
    or 17 payload bytes, and on 16 with the header's length lying both ways."""
    shapes = {}
    for name, kind in (("ping", enc.MSG_PING), ("pong", enc.MSG_PONG)):
        for n in (0, 3, 15, 17):
            shapes[f"{name}-{n}"] = enc.pack_header(kind, 0, 0, n) + b"\x01" * n
        for lie in (15, 17):
            shapes[f"{name}-16-says-{lie}"] = enc.pack_header(kind, 0, 0, lie) + b"\x01" * 16
    return shapes


DAMAGED = damaged_heartbeats()


class _AsyncFeed:
    """What ``fabric_handler`` needs of an async transport: bursts in,
    frames out, the peer gone when the bursts are."""

    write_queue_depth = 0

    def __init__(self, bursts):
        self.bursts, self.sent = list(bursts), []

    async def recv_many(self, max_frames=0):
        if not self.bursts:
            raise TransportError("peer closed (test)")
        return self.bursts.pop(0)

    def send(self, data):
        self.sent.append(bytes(data))

    def send_many(self, frames):
        self.sent.extend(bytes(f) for f in frames)


@pytest.mark.parametrize("shape", sorted(DAMAGED))
class TestDamagedHeartbeats:
    """Defect (2): a malformed ping or pong is counted — under one name on
    every role with a ``Metrics`` — never answered, never raised past the
    pump, and never proof that a ping was answered."""

    def test_monitor_observe(self, shape):
        pipe = InMemoryPipe()
        monitor = HeartbeatMonitor(pipe.a, clock=VirtualClock())
        assert monitor.observe(DAMAGED[shape]) is True  # consumed: not application traffic
        assert monitor.control_malformed == 1 and monitor.pongs_received == 0
        assert not pipe.b.pending()  # and not answered

    def test_monitor_tick_raises_only_peer_unresponsive(self, shape):
        clock, pipe = VirtualClock(), InMemoryPipe()
        monitor = HeartbeatMonitor(pipe.a, interval_s=1.0, miss_threshold=3, clock=clock)
        verdicts = []
        for _ in range(6):  # an otherwise silent link: damage is all that ever arrives
            pipe.b.send(DAMAGED[shape])
            try:
                verdicts.append(monitor.tick())
            except PeerUnresponsive:
                verdicts.append(False)
            clock.advance(1.0)
        assert verdicts == [True, True, True, False, False, False]  # misses accrued regardless
        assert monitor.misses >= 3 and not monitor.inbox

    def test_negotiator_offer(self, shape):
        from repro.core.negotiation import InboundNegotiator

        ctx, sent = IOContext(X86), []
        negotiator = InboundNegotiator(ctx, sent.append)
        negotiator.offer(DAMAGED[shape])
        assert sent == [] and not negotiator.ready and not negotiator.peer_goodbye
        assert ctx.metrics.value("link.control_malformed") == 1

    def test_fabric_handler(self, shape):
        import asyncio

        from repro.net import fabric_handler

        dispatcher = FabricDispatcher(2)
        feed = _AsyncFeed([[DAMAGED[shape], enc.encode_ping(7)]])
        with pytest.raises(TransportError, match="peer closed"):
            asyncio.run(fabric_handler(dispatcher)(feed))
        assert [enc.parse_pong(f)[0] for f in feed.sent] == [7]  # the good ping only
        counters = dispatcher.metrics.counters()
        # a ping is the handler's to answer; a pong is the dispatcher's to drop
        name = "link.control_malformed" if shape.startswith("ping") else "fabric.heartbeats_dropped"
        assert counters.get(name) == 1

    def test_relay_harvest(self, shape):
        clock = VirtualClock()
        relay = healing_relay(clock)
        pipe = InMemoryPipe()
        link = FlakyLink(pipe.a)
        down = relay.attach(link)
        link.broken = True
        relay.forward(telemetry_stream([])[0])  # the send fails: quarantined
        link.broken = False
        clock.advance(1.0)
        relay.heal()
        assert down.state == PROBING
        pipe.b.send(DAMAGED[shape])
        relay.heal()
        assert down.state == PROBING  # damage is not an answer
        assert relay.metrics.value("link.control_malformed") == 1
        pipe.b.send(enc.encode_pong(1))
        relay.heal()
        assert down.state == ACTIVE


# -- heartbeat-aware fault plans ----------------------------------------------


class TestClassifiedFaultPlans:
    def test_mute_heartbeats_swallows_pings_not_data(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(
            pipe.a, FaultPlan.mute_heartbeats(), seed=CHAOS_SEED
        )
        record = data_frame(1, 1, b"payload")
        chaotic.send(enc.encode_ping(1))
        chaotic.send(record)
        chaotic.send(enc.encode_pong(1))
        assert drain_frames(pipe.b) == [record]
        assert chaotic.metrics.value("faults.heartbeats_dropped") == 2

    def test_mute_payload_delivers_heartbeats_only(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(
            pipe.a, FaultPlan.mute_payload(), seed=CHAOS_SEED
        )
        ping = enc.encode_ping(1)
        chaotic.send(data_frame(1, 1, b"gone"))
        chaotic.send(ping)
        assert drain_frames(pipe.b) == [ping]
        assert chaotic.metrics.value("faults.payload_dropped") == 1

    def test_classified_plans_draw_nothing_when_disabled(self):
        # The 6-vector decision stream must be bit-stable for plans that
        # predate the classified drops — replayability of old schedules.
        def stream(plan):
            pipe = InMemoryPipe()
            chaotic = FaultInjectingTransport(pipe.a, plan, seed=CHAOS_SEED + 3)
            for i in range(64):
                try:
                    chaotic.send(data_frame(1, 1, bytes([i]) * 8))
                except TransportError:
                    break
            return drain_frames(pipe.b)

        assert stream(FaultPlan(drop=0.3, delay=0.2)) == stream(
            FaultPlan(drop=0.3, delay=0.2, drop_heartbeats=0.0, drop_payload=0.0)
        )

    def test_monitor_detects_muted_heartbeats_through_wrapper(self):
        # A link that eats pings looks dead to the monitor even though
        # data still flows the other way — exactly what quarantine wants.
        clock = VirtualClock()
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(
            pipe.a, FaultPlan.mute_heartbeats(), seed=CHAOS_SEED
        )
        monitor = HeartbeatMonitor(
            chaotic, interval_s=1.0, miss_threshold=2, clock=clock
        )
        with pytest.raises(PeerUnresponsive):
            for _ in range(4):
                monitor.tick()
                clock.advance(1.0)
        assert pipe.b.pending() == 0  # no ping ever reached the peer

    def test_poll_recv_forwards_through_wrapper(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan.lossy(0.5), seed=CHAOS_SEED)
        pipe.b.send(b"inbound")
        assert chaotic.poll_recv() == b"inbound"
        assert chaotic.poll_recv() is None
        inert = FaultInjectingTransport(pipe.a, FaultPlan(), seed=CHAOS_SEED)
        pipe.b.send(b"again")
        assert inert.poll_recv() == b"again"  # zero-plan alias path

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_heartbeats=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_payload=-0.1)
        assert FaultPlan(drop_heartbeats=0.1).active


# -- the quarantine record, whoever owns it ------------------------------------

LIFECYCLE_POLICY = ProbePolicy(
    base_delay_s=1.0, multiplier=2.0, max_delay_s=4.0, eviction_deadline_s=20.0
)


class _RelayPeer:
    """A relay downstream behind a link the test can break."""

    COUNTERS = "relay.quarantined", "relay.probes_sent", "relay.reactivated", "relay.evicted"

    def __init__(self, clock):
        self.owner = Relay(quarantine_after=2, probe_policy=LIFECYCLE_POLICY, clock=clock)
        self.pipe = InMemoryPipe()
        self.link = FlakyLink(self.pipe.a)
        self.record = self.owner.attach(self.link)

    def state(self):
        return self.record.state

    def offer(self, ok):
        """One unit of traffic toward the peer, which succeeds or fails."""
        self.link.broken = not ok
        self.owner.forward(data_frame(1, 1, b"payload"))

    def die(self):
        self.offer(ok=False)
        self.offer(ok=False)

    def revive(self):
        self.link.broken = False

    def answer_probes(self):
        for frame in drain_frames(self.pipe.b):
            if enc.unpack_header(frame)[0] == enc.MSG_PING:
                self.pipe.b.send(enc.encode_pong(enc.parse_ping(frame)[0]))


class _WorkerPeer:
    """A fabric worker the test can take down."""

    COUNTERS = (
        "fabric.workers_quarantined",
        "fabric.probes_sent",
        "fabric.workers_reactivated",
        "fabric.workers_evicted",
    )

    def __init__(self, clock):
        self.owner = FabricDispatcher(
            2, quarantine_after=2, probe_policy=LIFECYCLE_POLICY, clock=clock
        )
        self.name = self.owner.ring.owner((1, 1))
        self.worker = self.owner.worker(self.name)
        self.record = self.owner._slots[self.name]

    def state(self):
        return self.owner.worker_states()[self.name]

    def offer(self, ok):
        self.worker.alive = ok
        self.owner.forward(data_frame(1, 1, b"payload"))

    def die(self):
        self.worker.kill()
        self.owner.heal()  # the liveness sweep finds it

    def revive(self):
        self.worker.revive()

    def answer_probes(self):
        pass  # the in-process probe asks the worker directly


@pytest.mark.parametrize("make_peer", [_RelayPeer, _WorkerPeer])
def test_quarantine_record_lifecycle(make_peer):
    """Errors → quarantine → backoff schedule → reactivate, and → evict
    at the deadline: one record, the same walk under a relay (per
    downstream) and under the fabric dispatcher (per worker)."""
    clock = VirtualClock()
    peer = make_peer(clock)
    record = peer.record
    quarantined, probes_sent, reactivated, evicted = peer.COUNTERS
    count = peer.owner.metrics.value

    peer.offer(ok=False)
    assert (peer.state(), record.consecutive_errors) == (ACTIVE, 1)  # below the threshold
    peer.offer(ok=True)
    assert record.consecutive_errors == 0  # any success resets the count
    peer.offer(ok=False)
    peer.offer(ok=False)
    assert peer.state() == QUARANTINED and record.quarantined
    assert (record.quarantined_at, record.probe_attempts, record.next_probe_at) == (0.0, 0, 1.0)
    assert count(quarantined) == 1

    # a silent peer is probed at 1, then +2, +4, +4 (capped) …
    probe_times = []
    while clock.now() < 12.0:
        before = count(probes_sent)
        peer.owner.heal()
        if count(probes_sent) > before:
            probe_times.append(clock.now())
            assert peer.state() == PROBING and record.quarantined
            assert record.probe_attempts == len(probe_times)
        clock.advance(0.5)
    assert probe_times == [1.0, 3.0, 7.0, 11.0]
    assert record.next_probe_at == 15.0

    # … until it answers one: active again, with a clean record
    peer.revive()
    while peer.state() != ACTIVE:
        assert clock.now() <= 15.5  # the probe at 15.0, plus a round trip
        peer.owner.heal()
        peer.answer_probes()
        clock.advance(0.5)
    assert clock.now() > 15.0 and count(reactivated) == 1
    assert (record.consecutive_errors, record.probe_attempts) == (0, 0)
    assert (record.quarantined_at, record.next_probe_at) == (None, None)

    # a peer that never answers is evicted at the deadline, no earlier
    gone_at = clock.now()
    peer.die()
    assert peer.state() == QUARANTINED and record.quarantined_at == gone_at
    while peer.state() != EVICTED:
        assert clock.now() - gone_at <= LIFECYCLE_POLICY.eviction_deadline_s
        clock.advance(0.5)
        peer.owner.heal()
    assert clock.now() - gone_at == LIFECYCLE_POLICY.eviction_deadline_s
    assert not record.quarantined and count(evicted) == 1


# -- the healing property ------------------------------------------------------


@seed(CHAOS_SEED)
@settings(max_examples=60, deadline=None)
@given(
    answer_after=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    step=st.floats(min_value=0.25, max_value=2.0),
)
def test_quarantine_always_resolves(answer_after, step):
    """A quarantined downstream either reactivates (with zero lost
    announcements — the replayed stream decodes) or is evicted promptly
    at the deadline.  It is never left probing forever."""
    clock = VirtualClock()
    policy = ProbePolicy(
        base_delay_s=0.5, multiplier=2.0, max_delay_s=4.0, eviction_deadline_s=10.0
    )
    relay = Relay(quarantine_after=1, probe_policy=policy, clock=clock)
    pipe = InMemoryPipe()
    link = FlakyLink(pipe.a)
    down = relay.attach(link)
    announcement, lost, fresh = telemetry_stream(
        [{"unit": 1, "temperature": 1.0}, {"unit": 2, "temperature": 2.0}]
    )
    relay.forward(announcement)
    link.broken = True
    relay.forward(lost)
    assert down.state == QUARANTINED
    quarantined_at = clock.now()
    link.broken = False
    drain_frames(pipe.b)  # discard the pre-quarantine traffic

    pings_seen = 0
    answered = False
    resolved_at = None
    delivered = []  # non-heartbeat frames the peer received, in order
    # Safety bound: well past the deadline plus one max backoff.
    while clock.now() < quarantined_at + policy.eviction_deadline_s + policy.max_delay_s + 2 * step:
        clock.advance(step)
        relay.heal()
        for frame in drain_frames(pipe.b):
            if enc.unpack_header(frame)[0] != enc.MSG_PING:
                delivered.append(frame)
                continue
            pings_seen += 1
            if answer_after is not None and pings_seen >= answer_after and not answered:
                pipe.b.send(enc.encode_pong(enc.parse_ping(frame)[0]))
                answered = True
        if down.state in (ACTIVE, EVICTED):
            resolved_at = clock.now()
            break

    assert down.state in (ACTIVE, EVICTED), "stuck probing"
    assert resolved_at is not None
    if down.state == EVICTED:
        # Evicted no earlier than the deadline, and within one heal step
        # plus the step that crossed it — never lingering.
        assert resolved_at - quarantined_at >= policy.eviction_deadline_s
        assert resolved_at - quarantined_at <= policy.eviction_deadline_s + 2 * step
    else:
        # Reactivated: the replay means a fresh record still decodes.
        relay.forward(fresh)
        delivered += [
            f
            for f in drain_frames(pipe.b)
            if enc.unpack_header(f)[0] not in (enc.MSG_PING, enc.MSG_PONG)
        ]
        receiver = IOContext(X86)
        receiver.expect(TELEMETRY)
        decoded = [receiver.receive(f) for f in delivered]
        assert {"unit": 2, "temperature": 2.0} in decoded


# -- the probe schedule, pinned ------------------------------------------------

SCHEDULE_POLICY = ProbePolicy(
    base_delay_s=1.0, multiplier=2.0, max_delay_s=4.0, eviction_deadline_s=12.0
)
SCHEDULE = [
    (0.0, "waiting", "reactivate"),
    (1.0, "silent", "probe"), (1.0, "late", "probe"),
    (3.0, "silent", "probe"), (3.0, "late", "probe"),
    (4.0, "second", "probe"), (4.5, "second", "reactivate"),
    (7.0, "silent", "probe"), (7.0, "late", "probe"), (7.5, "late", "reactivate"),
    (11.0, "silent", "probe"), (12.0, "silent", "evict"),
]  # fmt: skip


class _ReadyLink(FlakyLink):
    """A :class:`FlakyLink` with its pipe's zero-syscall ``pending`` probe."""

    def pending(self):
        return self.inner.pending()


class _Scripted:
    """A downstream behind a link the script breaks and mends, answering
    the probes that reach it from its ``answer_from``-th on."""

    def __init__(self, name, answer_from=None):
        self.name, self.answer_from, self.pings = name, answer_from, 0
        self.pipe = InMemoryPipe()
        self.link = _ReadyLink(self.pipe.a)

    def answer(self):
        for frame in drain_frames(self.pipe.b):
            if enc.unpack_header(frame)[0] == enc.MSG_PING:
                self.pings += 1
                if self.answer_from is not None and self.pings >= self.answer_from:
                    self.pipe.b.send(enc.encode_pong(enc.parse_ping(frame)[0]))


def _probe_schedule(kind, monkeypatch):
    """Every (time, downstream, event) of one quarantine script under
    ``kind``: a relay, or the channel's relay inside a fabric worker."""
    clock, events, names = VirtualClock(), [], {}
    for method, event in (("_probe", "probe"), ("reactivate", "reactivate"), ("_evict", "evict")):

        def recorded(relay, downstream, *args, body=Relay.__dict__[method], event=event):
            events.append((clock.now(), names[id(downstream)], event))
            return body(relay, downstream, *args)

        monkeypatch.setattr(Relay, method, recorded)
    key = (7, 1)
    if kind == "relay":
        hub = Relay(quarantine_after=1, probe_policy=SCHEDULE_POLICY, clock=clock)
        attach = hub.attach
    else:
        workers = [
            RelayWorker(f"w{i}", quarantine_after=1, probe_policy=SCHEDULE_POLICY, clock=clock) for i in range(2)
        ]
        hub = FabricDispatcher(workers, quarantine_after=1, probe_policy=SCHEDULE_POLICY, clock=clock)
        attach = lambda link: hub.subscribe(key, link).downstream
    silent, late, waiting, second, healthy = peers = [
        _Scripted("silent"),  # never mended: every probe unsendable, evicted at the deadline
        _Scripted("late", 2),  # mended at 2.0, answers the second probe that reaches it
        _Scripted("waiting"),  # its pong is already waiting when it is quarantined
        _Scripted("second", 1),  # quarantined at 3.0, answers its first probe
        _Scripted("healthy"),
    ]
    for peer in peers:
        names[id(attach(peer.link))] = peer.name
    waiting.pipe.b.send(enc.encode_pong(99))
    silent.link.broken = late.link.broken = waiting.link.broken = True
    hub.forward(data_frame(*key, b"lost"))
    waiting.link.broken = False
    while clock.now() < 16.0:
        if clock.now() == 2.0:
            late.link.broken = False
        if clock.now() == 3.0:
            second.link.broken = True
            hub.forward(data_frame(*key, b"lost too"))
            second.link.broken = False
        hub.heal()
        for peer in peers:
            peer.answer()
        clock.advance(0.5)
    return events


@pytest.mark.parametrize("kind", ["relay", "fabric"])
def test_the_probe_schedule_does_not_move(kind, monkeypatch):
    """Reading only the back-channels with frames waiting changes nothing
    anyone can observe of a quarantine: the event sequence pinned here is
    the one heal produced when it polled every back-channel every call."""
    assert _probe_schedule(kind, monkeypatch) == SCHEDULE
