"""Token announcements end-to-end: connections, channels, relays, RPC."""

import pytest

from repro.net.transport import Transport
from repro.abi import SPARC_V8, X86, X86_64, RecordSchema
from repro.core import (
    IOContext,
    LimitError,
    PbioConnection,
    RpcClient,
    RpcInterface,
    RpcOperation,
    RpcServer,
)
from repro.core import encoder as enc
from repro.core import negotiation
from repro.core.negotiation import Announcer, InboundNegotiator
from repro.fmtserv import FormatCache, FormatServer, FormatService
from repro.net import EventChannel, InMemoryPipe, Relay, TransportError, loopback_pair

from .helpers import FakeClock, SyncServerLink, no_sleep

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)

RECORDS = [
    {"unit": 1, "temperature": 451.0},
    {"unit": 2, "temperature": 20.5},
    {"unit": 3, "temperature": -40.0},
]


def make_service(server=None, **kw):
    kw.setdefault("clock", FakeClock())
    kw.setdefault("sleep", no_sleep)
    kw.setdefault("cache", FormatCache(clock=kw["clock"]))
    connect = (lambda: SyncServerLink(server)) if server is not None else None
    return FormatService(connect, **kw)


class CountingPipeEnd(Transport):
    """Transport wrapper that tallies wire frames by message type."""

    def __init__(self, inner):
        self.inner = inner
        self.kinds: list[int] = []
        self.meta_bytes = 0

    def send(self, payload):
        data = bytes(payload)
        kind = enc.try_message_type(data)
        self.kinds.append(kind)
        if kind == enc.MSG_FORMAT:
            self.meta_bytes += len(data) - enc.HEADER_SIZE
        self.inner.send(data)

    def send_segments(self, segments):
        self.send(b"".join(bytes(s) for s in segments))

    def recv(self):
        return self.inner.recv()

    def poll_recv(self):
        return self.inner.poll_recv()

    def close(self):
        self.inner.close()


def make_link(sender_svc=None, receiver_svc=None, ends=None):
    a, b = ends or InMemoryPipe().endpoints()
    outbound = CountingPipeEnd(a)
    sctx = IOContext(X86_64, format_service=sender_svc)
    rctx = IOContext(SPARC_V8, format_service=receiver_svc)
    rctx.expect(TELEMETRY)
    sender = PbioConnection(sctx, outbound)
    receiver = PbioConnection(rctx, b)
    handle = sctx.register_format(TELEMETRY)
    return sender, receiver, handle, outbound


def pumped_recv(receiver, sender):
    """Receive one record, letting the sender answer meta requests."""
    for _ in range(10):
        try:
            return receiver.recv()
        except TransportError:
            sender.poll()  # answer any queued MSG_FORMAT_REQUEST
    raise AssertionError("recovery dance did not converge")


class TestConnectionTokens:
    def test_no_service_announces_inline(self):
        sender, receiver, handle, wire = make_link()
        sender.send(handle, RECORDS[0])
        assert receiver.recv() == pytest.approx(RECORDS[0])
        assert wire.kinds[0] == enc.MSG_FORMAT  # classic protocol untouched

    def test_token_announcement_with_shared_server(self):
        server = FormatServer()
        sender, receiver, handle, wire = make_link(
            make_service(server), make_service(server)
        )
        for record in RECORDS:
            sender.send(handle, record)
        assert [receiver.recv() for _ in RECORDS] == [
            pytest.approx(r) for r in RECORDS
        ]
        # the announcement crossed as a 28-byte token, never as meta
        assert wire.kinds[0] == enc.MSG_FORMAT_TOKEN
        assert enc.MSG_FORMAT not in wire.kinds
        assert wire.meta_bytes == 0

    def test_second_connection_exchanges_zero_meta_bytes(self):
        # The headline acceptance test: once a format is known cluster-
        # wide, a brand-new connection carries tokens only.
        server = FormatServer()
        writer_svc, reader_svc = make_service(server), make_service(server)
        sender1, receiver1, handle1, _ = make_link(writer_svc, reader_svc)
        sender1.send(handle1, RECORDS[0])
        receiver1.recv()
        lookups_before = server.metrics.value("fmtserv.lookups")

        pipe2 = InMemoryPipe()
        wire2 = CountingPipeEnd(pipe2.a)
        sender2 = PbioConnection(sender1.ctx, wire2)
        receiver2 = PbioConnection(receiver1.ctx, pipe2.b)
        sender2.send(handle1, RECORDS[1])
        assert receiver2.recv() == pytest.approx(RECORDS[1])
        assert wire2.meta_bytes == 0
        assert enc.MSG_FORMAT not in wire2.kinds
        # and the receiver resolved from its own cache: zero round-trips
        assert server.metrics.value("fmtserv.lookups") == lookups_before

    def test_cold_receiver_recovers_via_meta_request(self, ends=None):
        # Sender has a server; receiver is fully offline with a cold
        # cache — the worst case.  The link itself must recover.
        server = FormatServer()
        sender, receiver, handle, wire = make_link(
            make_service(server), make_service(), ends  # offline receiver
        )
        for record in RECORDS:
            sender.send(handle, record)  # token + 3 held-to-be data frames
        got = [pumped_recv(receiver, sender) for _ in RECORDS]
        sender.close()
        receiver.close()
        assert got == [pytest.approx(r) for r in RECORDS]  # in order, no loss
        rmetrics = receiver.ctx.metrics
        assert rmetrics.value("fmtserv.meta_requests_sent") == 1
        assert rmetrics.value("fmtserv.messages_held") == len(RECORDS)
        assert rmetrics.value("fmtserv.messages_released") == len(RECORDS)
        assert sender.ctx.metrics.value("fmtserv.meta_requests_served") == 1
        # the recovery meta went over the wire exactly once
        assert wire.kinds.count(enc.MSG_FORMAT) == 1

    def test_cold_receiver_recovers_via_meta_request_over_a_socket(self):
        # The same case where a receive with nothing to read times out and
        # the sender's poll() has no pending() probe to lean on.
        self.test_cold_receiver_recovers_via_meta_request(loopback_pair(timeout_s=0.2))

    def test_restarted_receiver_decodes_from_disk_cache(self, tmp_path):
        # Acceptance: a receiver restarted with a primed cache file
        # resolves tokens without any server round-trip.
        path = str(tmp_path / "primed.pbfc")
        server = FormatServer()
        writer_svc = make_service(server)
        reader_svc = make_service(server, cache=FormatCache(path))
        sender, receiver, handle, _ = make_link(writer_svc, reader_svc)
        sender.send(handle, RECORDS[0])
        receiver.recv()
        reader_svc.cache.close()

        # "restart": a fresh context + an OFFLINE service on the same file
        reborn_svc = make_service(cache=FormatCache(path))
        pipe = InMemoryPipe()
        rctx = IOContext(SPARC_V8, format_service=reborn_svc)
        rctx.expect(TELEMETRY)
        reborn = PbioConnection(rctx, pipe.b)
        sender2 = PbioConnection(sender.ctx, pipe.a)
        sender2.send(handle, RECORDS[1])
        assert reborn.recv() == pytest.approx(RECORDS[1])
        assert reborn_svc.metrics.value("fmtserv.hits") == 1
        assert rctx.metrics.value("fmtserv.meta_requests_sent") == 0

    def test_warm_start_primes_converter_cache(self, tmp_path):
        path = str(tmp_path / "primed.pbfc")
        server = FormatServer()
        make_service(server).publish(
            IOContext(X86_64).register_format(TELEMETRY).iofmt
        )
        svc = make_service(server, cache=FormatCache(path))
        svc.pull_all()
        ctx = IOContext(SPARC_V8, format_service=svc)
        ctx.expect(TELEMETRY)
        assert svc.warm_start(ctx) == 1
        before = ctx.metrics.value("converters_generated")
        # the first real message hits a warm converter cache
        pipe = InMemoryPipe()
        sender = PbioConnection(IOContext(X86_64, format_service=make_service(server)), pipe.a)
        handle = sender.ctx.register_format(TELEMETRY)
        receiver = PbioConnection(ctx, pipe.b)
        sender.send(handle, RECORDS[0])
        assert receiver.recv() == pytest.approx(RECORDS[0])
        assert ctx.metrics.value("converters_generated") == before


class TestNegotiatorUnits:
    def test_hold_queue_is_bounded(self, monkeypatch):
        monkeypatch.setattr(negotiation, "MAX_HELD", 2)
        ctx = IOContext(SPARC_V8)
        sent = []
        negotiator = InboundNegotiator(ctx, sent.append)
        token = enc.encode_token_message(0xABC, 7, b"\x13" * 20, 99)
        negotiator.offer(token)
        assert len(sent) == 1  # a meta request went out
        data = enc.encode_data_message(0xABC, 7, b"\x00" * 12)
        negotiator.offer(data)
        negotiator.offer(data)
        with pytest.raises(LimitError, match="held"):
            negotiator.offer(data)

    def test_duplicate_token_sends_one_request(self):
        ctx = IOContext(SPARC_V8)
        sent = []
        negotiator = InboundNegotiator(ctx, sent.append)
        token = enc.encode_token_message(0xABC, 7, b"\x13" * 20, 99)
        negotiator.offer(token)
        negotiator.offer(token)  # sender re-announced: still one request
        assert len(sent) == 1
        assert negotiator.unresolved == 1

    def test_unknown_meta_request_ignored(self):
        ctx = IOContext(X86_64)
        sent = []
        negotiator = InboundNegotiator(ctx, sent.append)
        negotiator.offer(enc.encode_format_request(0x1, b"\x77" * 20))
        assert sent == []  # not ours: requester keeps holding elsewhere
        assert ctx.metrics.value("fmtserv.meta_requests_unknown") == 1

    def test_announcer_rekeys_on_generation_bump(self):
        # Satellite regression: a re-dialled (new-generation) transport
        # must be re-announced to, even though it is the same object.
        class FakeTransport:
            def __init__(self):
                self.generation = 0
                self.sent = []

            def send(self, data):
                self.sent.append(bytes(data))

        ctx = IOContext(X86_64)
        handle = ctx.register_format(TELEMETRY)
        transport = FakeTransport()
        announcer = Announcer(ctx)
        announcer.ensure_announced(transport, handle)
        announcer.ensure_announced(transport, handle)
        assert len(transport.sent) == 1  # deduped within one incarnation
        transport.generation += 1  # the link died and was re-dialled
        announcer.ensure_announced(transport, handle)
        assert len(transport.sent) == 2


class TestChannelTokens:
    def test_channel_service_publishes_tokens(self):
        server = FormatServer()
        svc = make_service(server)
        channel = EventChannel(format_service=svc)
        got = []
        sub_ctx = IOContext(SPARC_V8)
        sub_ctx.expect(TELEMETRY)
        channel.subscribe(sub_ctx, got.append, format_name="telemetry")
        publisher = channel.publisher(IOContext(X86_64))
        handle = publisher.ctx.register_format(TELEMETRY)
        publisher.publish(handle, RECORDS[0])
        assert got == [pytest.approx(RECORDS[0])]
        # the replayed announcement is the token, and late joiners resolve
        # it from the shared channel service
        assert [enc.try_message_type(a) for a in channel._announcements] == [enc.MSG_FORMAT_TOKEN]
        late = []
        late_ctx = IOContext(X86)
        late_ctx.expect(TELEMETRY)
        channel.subscribe(late_ctx, late.append, format_name="telemetry")
        publisher.publish(handle, RECORDS[1])
        assert late == [pytest.approx(RECORDS[1])]

    def test_unresolvable_token_falls_back_inline_channel_wide(self):
        server = FormatServer()
        channel = EventChannel(format_service=make_service(server))
        got = []
        # This subscriber brings its OWN offline, cold service — the
        # channel respects it, so the token cannot resolve there.
        stubborn = IOContext(SPARC_V8, format_service=make_service())
        stubborn.expect(TELEMETRY)
        channel.subscribe(stubborn, got.append, format_name="telemetry")
        publisher = channel.publisher(IOContext(X86_64))
        handle = publisher.ctx.register_format(TELEMETRY)
        publisher.publish(handle, RECORDS[0])
        assert got == [pytest.approx(RECORDS[0])]
        # the token was withdrawn; replay now carries inline meta only
        kinds = [enc.try_message_type(a) for a in channel._announcements]
        assert kinds == [enc.MSG_FORMAT]
        assert channel.format_service.metrics.value("fmtserv.inline_fallbacks") == 1


class TestRelayTokens:
    def test_tokens_forward_verbatim_and_replay(self):
        relay = Relay()
        down1, down2 = InMemoryPipe(), InMemoryPipe()
        relay.attach(down1.a)
        token = enc.encode_token_message(0xCAFE, 3, b"\x21" * 20, 12)
        relay.forward(token)
        assert down1.b.recv() == token  # byte-identical: never re-expanded
        assert relay.metrics.value("relay.unresolved_tokens") == 1
        relay.attach(down2.a)  # late joiner gets the replay
        assert down2.b.recv() == token

    def test_meta_requests_are_dropped(self):
        relay = Relay()
        pipe = InMemoryPipe()
        relay.attach(pipe.a)
        relay.forward(enc.encode_format_request(0x1, b"\x44" * 20))
        assert pipe.b.pending() == 0
        assert relay.metrics.value("relay.requests_dropped") == 1


ADD_REQ = RecordSchema.from_pairs("add_req", [("a", "double"), ("b", "double")])
ADD_REP = RecordSchema.from_pairs("add_rep", [("total", "double")])
CALC = RpcInterface("Calculator", [RpcOperation("add", ADD_REQ, ADD_REP)])


class TestRpcTokens:
    def test_rpc_with_shared_format_service(self):
        # Both endpoints talk to the same format server, so request and
        # reply formats announce as tokens and resolve without the
        # back-channel dance.
        server = FormatServer()
        pipe = InMemoryPipe()
        client = RpcClient(X86, CALC, format_service=make_service(server))
        rpc_server = RpcServer(SPARC_V8, CALC, format_service=make_service(server))
        rpc_server.register(b"calc", {"add": lambda r: {"total": r["a"] + r["b"]}})

        class SyncTransport(Transport):
            def send(self, data):
                pipe.a.send(data)

            def recv(self):
                while pipe.b.pending() and not pipe.a.pending():
                    rpc_server.serve_one(pipe.b)
                return pipe.a.recv()

            def close(self):
                pass

        transport = SyncTransport()
        for i in range(3):
            result = client.invoke(transport, b"calc", "add", {"a": float(i), "b": 1.0})
            assert result == {"total": float(i) + 1.0}
        assert client.ctx.metrics.value("fmtserv.tokens_absorbed") >= 1
        assert rpc_server.ctx.metrics.value("fmtserv.tokens_absorbed") >= 1
