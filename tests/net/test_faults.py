"""Fault-injection harness and graceful-degradation tests.

Every test is deterministic: all randomness comes from seeded numpy
generators.  ``PBIO_CHAOS_SEED`` (set by the CI chaos job, default 0)
shifts the seeds so the same suite explores different fault schedules
run to run while any single run stays exactly reproducible.
"""

import gc
import os

import numpy as np
import pytest

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import (
    IOContext,
    PbioConnection,
    PbioError,
    RpcClient,
    RpcFault,
    RpcInterface,
    RpcOperation,
    RpcServer,
    RpcTimeout,
)
from repro.net import (
    EventChannel,
    FaultInjectingTransport,
    FaultPlan,
    HeartbeatMonitor,
    InMemoryPipe,
    PeerClosedError,
    ReconnectingTransport,
    Relay,
    RetryPolicy,
    TransportError,
    TransportTimeout,
    VirtualClock,
)
from repro.core import encoder as enc
from repro.core.negotiation import Announcer, LinkTable
from repro.net.transport import Transport

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)

ADD_REQ = RecordSchema.from_pairs("add_req", [("a", "double"), ("b", "double")])
ADD_REP = RecordSchema.from_pairs("add_rep", [("total", "double")])
CALC = RpcInterface("Calculator", [RpcOperation("add", ADD_REQ, ADD_REP)])


def no_sleep(_s: float) -> None:
    pass


class TestFaultPlan:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_delay_messages=0)

    def test_activity_flag(self):
        assert not FaultPlan().active
        assert FaultPlan.lossy(0.1).active
        assert FaultPlan(disconnect=0.01).active


class TestFaultInjectingTransport:
    def test_zero_plan_is_pure_passthrough(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(), seed=CHAOS_SEED)
        payloads = [bytes([i]) * (i + 1) for i in range(10)]
        for p in payloads:
            chaotic.send(p)
        assert [pipe.b.recv() for _ in payloads] == payloads
        # An inactive plan aliases the inner methods: zero bookkeeping.
        assert chaotic.send == pipe.a.send
        assert chaotic.recv == pipe.a.recv
        assert chaotic.metrics.value("messages") == 0
        assert all(
            chaotic.metrics.value(f"faults.{name}") == 0
            for name in ("dropped", "truncated", "corrupted", "duplicated", "delayed", "disconnects")
        )

    def test_drop_loses_messages(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(drop=1.0), seed=CHAOS_SEED)
        for i in range(5):
            chaotic.send(b"x%d" % i)
        assert pipe.b.pending() == 0
        assert chaotic.metrics.value("faults.dropped") == 5

    def test_truncate_shortens_messages(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(truncate=1.0), seed=CHAOS_SEED)
        original = bytes(range(64))
        chaotic.send(original)
        delivered = pipe.b.recv()
        assert len(delivered) < len(original)
        assert delivered == original[: len(delivered)]
        assert chaotic.metrics.value("faults.truncated") == 1

    def test_corrupt_flips_bytes_same_length(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(corrupt=1.0), seed=CHAOS_SEED)
        original = bytes(range(64))
        chaotic.send(original)
        delivered = pipe.b.recv()
        assert len(delivered) == len(original) and delivered != original
        assert chaotic.metrics.value("faults.corrupted") == 1

    def test_duplicate_delivers_twice(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(duplicate=1.0), seed=CHAOS_SEED)
        chaotic.send(b"once")
        assert pipe.b.pending() == 2
        assert pipe.b.recv() == pipe.b.recv() == b"once"

    def test_delay_holds_then_releases_in_virtual_time(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(
            pipe.a, FaultPlan(delay=1.0, max_delay_messages=1), seed=CHAOS_SEED
        )
        chaotic.send(b"m1")  # held, due at the next send
        assert pipe.b.pending() == 0
        chaotic.send(b"m2")  # releases m1, holds m2
        assert pipe.b.recv() == b"m1"
        chaotic.close()  # flush releases what is still held
        assert pipe.b.recv() == b"m2"
        assert chaotic.metrics.value("faults.delayed") == 2

    def test_disconnect_severs_both_directions(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(disconnect=1.0), seed=CHAOS_SEED)
        with pytest.raises(TransportError):
            chaotic.send(b"doomed")
        assert chaotic.broken
        with pytest.raises(TransportError):
            chaotic.send(b"still doomed")
        with pytest.raises(PeerClosedError):
            pipe.b.recv()  # the peer observes a real hangup
        assert chaotic.metrics.value("faults.disconnects") == 1

    def test_same_seed_same_chaos(self):
        plan = FaultPlan(drop=0.2, truncate=0.1, corrupt=0.1, duplicate=0.2, delay=0.2)
        rng = np.random.default_rng(CHAOS_SEED)
        payloads = [rng.integers(0, 256, size=32, dtype=np.uint8).tobytes() for _ in range(50)]

        def run(seed):
            pipe = InMemoryPipe()
            chaotic = FaultInjectingTransport(pipe.a, plan, seed=seed)
            for p in payloads:
                chaotic.send(p)
            chaotic.close()
            return (
                [pipe.b.recv() for _ in range(pipe.b.pending())],
                chaotic.metrics.counters(),
            )

        stream_a, counters_a = run(CHAOS_SEED + 7)
        stream_b, counters_b = run(CHAOS_SEED + 7)
        stream_c, _ = run(CHAOS_SEED + 8)
        assert stream_a == stream_b and counters_a == counters_b
        assert stream_a != stream_c  # a different seed takes a different path


class TestCrashPlan:
    def test_crash_probability_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash=2.0)
        assert FaultPlan(crash=0.5).active

    def test_crash_drops_held_frames_and_raises(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(
            pipe.a, FaultPlan(delay=1.0, max_delay_messages=10), seed=CHAOS_SEED
        )
        chaotic.send(b"held")  # parked in the delay buffer
        assert pipe.b.pending() == 0
        with pytest.raises(PeerClosedError):
            chaotic.crash()
        # The held frame died inside the process: a close() flush after
        # the crash must NOT resurrect it.
        chaotic.close()
        assert pipe.b.pending() == 0
        assert chaotic.metrics.value("faults.crashes") == 1
        # The peer sees a real hangup, not a silent stall.
        with pytest.raises(PeerClosedError):
            pipe.b.recv()

    def test_crash_breaks_transport_for_later_sends(self):
        pipe = InMemoryPipe()
        chaotic = FaultInjectingTransport(pipe.a, FaultPlan(crash=1.0), seed=CHAOS_SEED)
        with pytest.raises(PeerClosedError):
            chaotic.send(b"never arrives")
        assert pipe.b.pending() == 0
        with pytest.raises(TransportError):
            chaotic.send(b"post mortem")

    def test_crash_draw_is_seeded_and_deterministic(self):
        def crashes_at(seed):
            pipe = InMemoryPipe()
            chaotic = FaultInjectingTransport(
                pipe.a, FaultPlan(crash=0.2), seed=seed
            )
            for i in range(200):
                try:
                    chaotic.send(b"x%d" % i)
                except PeerClosedError:
                    return i
            return None

        first = crashes_at(CHAOS_SEED + 3)
        assert first is not None
        assert crashes_at(CHAOS_SEED + 3) == first

    def test_crash_draw_does_not_shift_main_fault_vector(self):
        # The crash draw comes after the fixed six-fault vector, so a
        # schedule replayed with crash disabled keeps its exact shape.
        def delivered(plan, seed):
            pipe = InMemoryPipe()
            chaotic = FaultInjectingTransport(pipe.a, plan, seed=seed)
            for i in range(50):
                try:
                    chaotic.send(b"m%d" % i)
                except PeerClosedError:
                    break
            out = []
            while pipe.b.pending():
                out.append(pipe.b.recv())
            return out

        with_crash = delivered(FaultPlan(drop=0.2, crash=0.0), CHAOS_SEED + 11)
        without = delivered(FaultPlan(drop=0.2), CHAOS_SEED + 11)
        assert with_crash == without


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05)
        first = list(policy.backoffs())
        assert first == list(policy.backoffs())
        assert len(first) == 5
        expected_caps = [0.01, 0.02, 0.04, 0.05, 0.05]
        for backoff, cap in zip(first, expected_caps):
            assert cap * 0.5 <= backoff <= cap

    def test_run_retries_until_success(self):
        calls = {"n": 0}
        sleeps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransportError("flap")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01)
        assert policy.run(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert sleeps == list(policy.backoffs())[:2]

    def test_run_exhausts_attempts_and_reraises(self):
        def always_down():
            raise TransportError("down")

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(TransportError, match="down"):
            policy.run(always_down, sleep=no_sleep)

    def test_deadline_budget_stops_retrying(self):
        clock = {"now": 0.0}

        def sleep(s):
            clock["now"] += s

        def always_down():
            clock["now"] += 0.3  # each attempt costs virtual time
            raise TransportError("down")

        policy = RetryPolicy(max_attempts=50, base_delay_s=0.2, deadline_s=1.0)
        with pytest.raises(TransportTimeout, match="deadline"):
            policy.run(always_down, sleep=sleep, clock=lambda: clock["now"])
        assert clock["now"] <= 1.0 + 0.3  # never oversleeps the budget

    def test_non_retryable_errors_propagate_immediately(self):
        def broken():
            raise ValueError("not a link problem")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).run(broken, sleep=no_sleep)


class _DialFactory:
    """dial() callback yielding fresh pipes; keeps every peer end."""

    def __init__(self, plan: FaultPlan | None = None, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.peers = []

    def __call__(self):
        pipe = InMemoryPipe()
        self.peers.append(pipe.b)
        if self.plan is None:
            return pipe.a
        return FaultInjectingTransport(
            pipe.a, self.plan, seed=self.seed + len(self.peers)
        )

    def drain(self):
        out = []
        for peer in self.peers:
            while peer.pending():
                out.append(peer.recv())
        return out


class TestReconnectingTransport:
    def test_redials_and_retries_after_peer_hangup(self):
        factory = _DialFactory()
        link = ReconnectingTransport(
            factory, policy=RetryPolicy(max_attempts=3, base_delay_s=0.0), sleep=no_sleep
        )
        link.send(b"before")
        factory.peers[0].close()  # peer hangs up
        link.send(b"after")  # PeerClosedError -> redial -> delivered
        assert len(factory.peers) == 2
        assert factory.peers[1].recv() == b"after"
        assert link.metrics.value("reconnects") == 1

    def test_announcements_replayed_after_reconnect(self):
        ctx = IOContext(SPARC_V8)
        handle = ctx.register_format(TELEMETRY)
        announcement = ctx.announce(handle)
        data = ctx.encode(handle, {"unit": 1, "temperature": 2.0})
        factory = _DialFactory()
        link = ReconnectingTransport(
            factory, policy=RetryPolicy(max_attempts=3, base_delay_s=0.0), sleep=no_sleep
        )
        link.send(announcement)
        factory.peers[0].close()
        link.send(data)
        # the new link saw the replayed announcement *before* the data
        assert factory.peers[1].recv() == bytes(announcement)
        assert factory.peers[1].recv() == bytes(data)
        assert link.metrics.value("announcements_replayed") == 1

    def test_a_heartbeat_sees_the_link_it_wears(self):
        """A monitor on the wrapper stays responsive while the peer's own
        monitor answers it: the wrapper's ``poll_recv`` is its link's."""
        clock = VirtualClock()
        pipe = InMemoryPipe()
        ours = HeartbeatMonitor(ReconnectingTransport(lambda: pipe.a), miss_threshold=2, clock=clock)
        theirs = HeartbeatMonitor(pipe.b, miss_threshold=2, clock=clock)
        for _ in range(6):
            assert ours.tick() and theirs.tick()
            clock.advance(1.0)
        assert ours.pongs_received == 5 and ours.misses == 0

    def test_a_relay_harvests_through_the_wrapper(self):
        """Heal reads a re-dialling downstream as its link: the pong and the
        ack waiting on it are taken, in one heal, through its ``pending()``."""
        pipe = InMemoryPipe()
        relay = Relay()
        down = relay.attach(ReconnectingTransport(lambda: pipe.a))
        pipe.b.send_many([enc.encode_pong(1), enc.encode_ack(0xC1D0, 1, 1)])
        relay.heal()
        assert down.pongs_received == 1 and relay.metrics.value("durable.acks_received") == 1
        assert pipe.a.pending() == 0

    def test_dial_failures_counted_and_raised(self):
        def dial():
            raise OSError("network unreachable")

        with pytest.raises(TransportError, match="dial failed"):
            ReconnectingTransport(dial, policy=RetryPolicy(max_attempts=2, base_delay_s=0.0))

    def test_pbio_stream_survives_mid_stream_disconnects(self):
        """Acceptance: the meta-information protocol survives reconnects —
        every record sent over a disconnecting link decodes downstream."""
        factory = _DialFactory(
            plan=FaultPlan(disconnect=0.15), seed=CHAOS_SEED
        )
        link = ReconnectingTransport(
            factory,
            policy=RetryPolicy(max_attempts=6, base_delay_s=0.0),
            sleep=no_sleep,
        )
        conn = PbioConnection(IOContext(SPARC_V8), link)
        handle = conn.ctx.register_format(TELEMETRY)
        records = [{"unit": i, "temperature": float(i)} for i in range(40)]
        for record in records:
            conn.send(handle, record)
        receiver = IOContext(X86)
        receiver.expect(TELEMETRY)
        received = []
        for message in factory.drain():
            decoded = receiver.receive(message)
            if decoded is not None:
                received.append(decoded)
        assert received == records
        assert link.metrics.value("reconnects") > 0  # the chaos actually bit


class TestRelayGracefulDegradation:
    def _stream(self, n):
        sender = IOContext(SPARC_V8)
        handle = sender.register_format(TELEMETRY)
        messages = [sender.announce(handle)]
        messages += [
            sender.encode(handle, {"unit": i, "temperature": float(i)}) for i in range(n)
        ]
        return messages

    def test_faulty_downstream_never_starves_healthy_ones(self):
        """Acceptance: drop + corrupt + disconnect on one downstream; the
        two healthy downstreams still receive 100% of the records."""
        errors = []
        relay = Relay(quarantine_after=3, on_error=lambda d, exc: errors.append(exc))
        faulty_pipe = InMemoryPipe()
        faulty = FaultInjectingTransport(
            faulty_pipe.a,
            FaultPlan(drop=0.2, corrupt=0.2, disconnect=0.05),
            seed=CHAOS_SEED,
        )
        bad = relay.attach(faulty)
        healthy_pipes = [InMemoryPipe(), InMemoryPipe()]
        for pipe in healthy_pipes:
            relay.attach(pipe.a)
        n = 200
        for message in self._stream(n):
            relay.forward(message)
        for pipe in healthy_pipes:
            assert pipe.b.pending() == n + 1  # announcement + every record
            rx = PbioConnection(IOContext(X86), pipe.b)
            rx.ctx.expect(TELEMETRY)
            got = [rx.recv() for _ in range(n)]
            assert got == [{"unit": i, "temperature": float(i)} for i in range(n)]
        assert bad.quarantined
        assert bad.stats.detached == 1
        assert bad.stats.send_errors >= relay.quarantine_after
        assert errors  # the hook saw every failure
        assert bad not in relay.active_downstreams

    def test_success_resets_consecutive_error_count(self):
        class FlickeringTransport(Transport):
            """Fails every other send: never quarantined at threshold 2."""

            def __init__(self):
                self.n = 0
                self.delivered = []

            def send(self, data):
                self.n += 1
                if self.n % 2:
                    raise TransportError("flicker")
                self.delivered.append(bytes(data))

            def recv(self):
                raise TransportError("write-only")

            def close(self):
                pass

        relay = Relay(quarantine_after=2)
        flicker = FlickeringTransport()
        downstream = relay.attach(flicker)
        for message in self._stream(10):
            relay.forward(message)
        assert not downstream.quarantined
        assert downstream.stats.send_errors > 0
        assert len(flicker.delivered) > 0

    def test_reactivate_replays_announcements(self):
        relay = Relay(quarantine_after=1)
        pipe = InMemoryPipe()
        pipe.b.close()  # downstream dead on arrival
        downstream = relay.attach(pipe.a)
        messages = self._stream(2)
        relay.forward(messages[0])  # announcement: send fails, quarantines
        assert downstream.quarantined
        relay.forward(messages[1])  # skipped while quarantined
        fresh = InMemoryPipe()
        downstream.transport = fresh.a
        relay.reactivate(downstream)
        assert not downstream.quarantined
        relay.forward(messages[2])
        assert fresh.b.recv() == bytes(messages[0])  # replayed announcement
        assert fresh.b.recv() == bytes(messages[2])


class TestEventChannelErrorPolicies:
    def _publish(self, channel, n):
        sender = IOContext(SPARC_V8)
        handle = sender.register_format(TELEMETRY)
        publisher = channel.publisher(sender)
        for i in range(n):
            publisher.publish(handle, {"unit": i, "temperature": float(i)})

    def _subscriber(self, channel, policy, handler=None):
        received = []
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        sub = channel.subscribe(ctx, handler or received.append, on_error=policy)
        return sub, received

    def test_raise_policy_keeps_historical_behaviour(self):
        channel = EventChannel()
        def explode(_record):
            raise RuntimeError("bad handler")
        self._subscriber(channel, "raise", handler=explode)
        with pytest.raises(RuntimeError, match="bad handler"):
            self._publish(channel, 1)

    def test_suppress_policy_isolates_bad_handler(self):
        channel = EventChannel()
        def explode(_record):
            raise RuntimeError("bad handler")
        bad, _ = self._subscriber(channel, "suppress", handler=explode)
        good, received = self._subscriber(channel, "raise")
        self._publish(channel, 20)
        assert len(received) == 20  # the healthy subscriber saw everything
        assert bad.stats.handler_errors == 20
        assert channel.subscriber_count == 2  # suppressed, not removed

    def test_detach_policy_unsubscribes_offender(self):
        channel = EventChannel()
        def explode(_record):
            raise RuntimeError("bad handler")
        bad, _ = self._subscriber(channel, "detach", handler=explode)
        good, received = self._subscriber(channel, "raise")
        self._publish(channel, 20)
        assert len(received) == 20
        assert bad.stats.handler_errors == 1  # detached on first failure
        assert bad.stats.detached == 1
        assert channel.subscriber_count == 1

    def test_undecodable_stream_does_not_break_siblings(self):
        channel = EventChannel()
        bad, bad_received = self._subscriber(channel, "suppress")
        good, received = self._subscriber(channel, "suppress")
        sender = IOContext(SPARC_V8)
        handle = sender.register_format(TELEMETRY)
        publisher = channel.publisher(sender)
        publisher.publish(handle, {"unit": 0, "temperature": 0.0})
        # A damaged data message reaches every subscriber: each absorbs it.
        message = bytearray(sender.encode(handle, {"unit": 1, "temperature": 1.0}))
        channel._publish_message(bytes(message[:18]))  # truncated mid-payload
        publisher.publish(handle, {"unit": 2, "temperature": 2.0})
        assert [r["unit"] for r in received] == [0, 2]
        assert [r["unit"] for r in bad_received] == [0, 2]
        assert bad.stats.decode_errors == 1 and good.stats.decode_errors == 1
        assert channel.subscriber_count == 2

    def test_invalid_policy_rejected(self):
        channel = EventChannel()
        ctx = IOContext(X86)
        with pytest.raises(ValueError, match="on_error"):
            channel.subscribe(ctx, lambda r: None, on_error="explode")


class _FlakyLoop(Transport):
    """Synchronous client↔server transport that loses replies.

    ``serve_one`` runs inline (like the test loops in test_rpc.py); with
    probability ``loss_rate`` a recv observes the reply being "lost on
    the wire" — the inbox is cleared and a TransportError raised, which
    is exactly the situation client-side retransmission exists for.
    """

    def __init__(self, server, *, seed: int, loss_rate: float = 0.4):
        self.pipe = InMemoryPipe()
        self.server = server
        self.rng = np.random.default_rng(seed)
        self.loss_rate = loss_rate
        self.lost_replies = 0

    def set_timeout(self, timeout_s):
        pass

    def send(self, data):
        self.pipe.a.send(data)

    def recv(self):
        while self.pipe.b.pending() and not self.pipe.a.pending():
            self.server.serve_one(self.pipe.b)
        if self.pipe.a.pending() and float(self.rng.random()) < self.loss_rate:
            while self.pipe.a.pending():
                self.pipe.a.recv()
            self.lost_replies += 1
            raise TransportError("injected reply loss")
        return self.pipe.a.recv()

    def close(self):
        pass


class TestRpcRetryAndDedup:
    def _stack(self, servant=None, **loop_kwargs):
        executed = []

        def add(req):
            executed.append(req["a"])
            return {"total": req["a"] + req["b"]}

        server = RpcServer(SPARC_V8, CALC)
        server.register(b"calc", {"add": servant or add})
        client = RpcClient(X86, CALC)
        loop = _FlakyLoop(server, **loop_kwargs)
        return client, server, loop, executed

    def test_retransmission_executes_servant_exactly_once(self):
        """Acceptance: over a lossy transport, retried calls complete and
        the servant observes each request id exactly once."""
        # NB: the loss draw happens per recv (2-3 per attempt), so the
        # per-attempt failure probability is ~1-(1-loss_rate)^3; keep
        # max_attempts generous so exhaustion is vanishingly unlikely.
        client, server, loop, executed = self._stack(seed=CHAOS_SEED, loss_rate=0.25)
        policy = RetryPolicy(max_attempts=16, base_delay_s=0.0)
        for i in range(20):
            result = client.invoke(
                loop, b"calc", "add", {"a": float(i), "b": 1.0},
                retry=policy, sleep=no_sleep,
            )
            assert result == {"total": float(i) + 1.0}
        assert executed == [float(i) for i in range(20)]  # exactly once each
        assert loop.lost_replies > 0  # the chaos actually bit
        assert server.metrics.value("dedup_hits") == client.metrics.value("retries")

    def test_stale_duplicate_reply_is_absorbed(self):
        client, server, loop, executed = self._stack(seed=CHAOS_SEED, loss_rate=0.0)

        lose_next = {"armed": True}
        original_recv = loop.recv

        def recv_with_one_phantom_loss():
            # Simulate a reply that arrives *after* the client gave up:
            # raise once without clearing the inbox, so the retransmitted
            # call leaves a duplicate reply queued for the next call.
            while loop.pipe.b.pending() and not loop.pipe.a.pending():
                loop.server.serve_one(loop.pipe.b)
            if lose_next["armed"] and loop.pipe.a.pending():
                lose_next["armed"] = False
                raise TransportError("phantom loss")
            return loop.pipe.a.recv()

        loop.recv = recv_with_one_phantom_loss
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        assert client.invoke(loop, b"calc", "add", {"a": 1.0, "b": 1.0},
                             retry=policy, sleep=no_sleep) == {"total": 2.0}
        loop.recv = original_recv
        assert client.invoke(loop, b"calc", "add", {"a": 2.0, "b": 1.0},
                             retry=policy, sleep=no_sleep) == {"total": 3.0}
        assert executed == [1.0, 2.0]
        assert client.metrics.value("stale_replies") > 0

    def test_faults_are_not_retried(self):
        client, server, loop, executed = self._stack(seed=CHAOS_SEED, loss_rate=0.0)
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(RpcFault, match="no object"):
            client.invoke(loop, b"ghost", "add", {"a": 1.0, "b": 1.0},
                          retry=policy, sleep=no_sleep)
        assert client.metrics.value("retries") == 0

    def test_broken_servant_returns_fault_not_dead_server(self):
        def broken(_req):
            raise ZeroDivisionError("servant bug")

        client, server, loop, _ = self._stack(servant=broken, seed=CHAOS_SEED, loss_rate=0.0)
        with pytest.raises(RpcFault, match="internal error"):
            client.invoke(loop, b"calc", "add", {"a": 1.0, "b": 1.0})
        assert server.metrics.value("servant_errors") == 1
        # the server is still alive for the next (well-formed) servant fault
        with pytest.raises(RpcFault, match="no object"):
            client.invoke(loop, b"ghost", "add", {"a": 1.0, "b": 1.0})

    def test_malformed_reply_header_is_protocol_error(self):
        """A frame that is not a call header (e.g. a stray record body
        after mid-reply frame loss) raises PbioError, not struct.error."""

        class Garbage(Transport):
            def set_timeout(self, timeout_s):
                pass

            def send(self, data):
                pass

            def recv(self):
                return b"\x00\x01"  # far too short for a call header

            def close(self):
                pass

        client = RpcClient(X86, CALC)
        with pytest.raises(PbioError, match="malformed call header"):
            client.invoke(Garbage(), b"calc", "add", {"a": 1.0, "b": 1.0})

    def test_deadline_expired_raises_rpc_timeout(self):
        client, server, loop, executed = self._stack(seed=CHAOS_SEED, loss_rate=0.0)
        with pytest.raises(RpcTimeout, match="deadline"):
            client.invoke(loop, b"calc", "add", {"a": 1.0, "b": 1.0}, deadline_s=0.0)
        assert executed == []

    def test_deadline_bounds_retry_budget(self):
        class BlackHole(Transport):
            def set_timeout(self, timeout_s):
                pass

            def send(self, data):
                pass

            def recv(self):
                raise TransportError("link down")

            def close(self):
                pass

        clock = {"now": 0.0}

        def sleep(s):
            clock["now"] += s

        client = RpcClient(X86, CALC)
        policy = RetryPolicy(max_attempts=1000, base_delay_s=0.1, multiplier=1.0)
        with pytest.raises((RpcTimeout, TransportTimeout)):
            client.invoke(
                BlackHole(), b"calc", "add", {"a": 1.0, "b": 1.0},
                retry=policy, deadline_s=2.0,
                sleep=sleep, clock=lambda: clock["now"],
            )
        assert clock["now"] <= 2.1  # gave up close to the budget

    def test_announcements_keyed_by_token_not_id(self):
        """A brand-new transport must always be re-announced, even if it
        happens to reuse a dead transport's memory address."""
        client, server, loop, _ = self._stack(seed=CHAOS_SEED, loss_rate=0.0)
        wire = []  # every announcement the client puts on any link
        for link in (loop, _FlakyLoop(server, seed=CHAOS_SEED, loss_rate=0.0)):
            send = link.pipe.a.send
            link.pipe.a.send = lambda data, send=send: (wire.append(bytes(data)), send(data))[1]
            client.invoke(link, b"calc", "add", {"a": 1.0, "b": 1.0})
            client.invoke(link, b"calc", "add", {"a": 2.0, "b": 1.0})
        announcements = [m for m in wire if enc.try_message_type(m) in enc.ANNOUNCEMENT_KINDS]
        assert len(announcements) == 2  # one per transport, none per call
        assert len(client._links.live()) == 2


class TestTransportToken:
    """What ``transport_token`` was for, as the property that replaced it:
    per-link state is keyed by the live transport object and dies with it,
    so neither a re-dialled nor a recycled transport inherits any."""

    def test_stable_and_unique(self):
        ctx = IOContext(X86)
        links = LinkTable(ctx)
        a, b = InMemoryPipe().endpoints()
        assert links.of(a) is links.of(a)
        assert links.of(a) is not links.of(b)
        a.generation = 1  # the same object, re-dialled
        fresh = links.of(a)
        assert fresh.generation == 1 and not fresh.announced and fresh is links.of(a)

    def test_monotonic_across_generations(self):
        ctx = IOContext(X86)
        handle = ctx.register_format(TELEMETRY)
        announcer = Announcer(ctx)
        for _ in range(50):
            t = InMemoryPipe().a  # old pipes are garbage, ids may recycle
            announcer.ensure_announced(t, handle)
            announcer.ensure_announced(t, handle)
            assert t.messages_sent == 1  # never mistaken for a dead link that had heard it
            del t
            gc.collect()
            assert len(announcer.links.live()) == 0  # released with the link
