"""Tests for the async event-loop serving core (:mod:`repro.net.aio`).

Covers the readiness-driven transport (bounded write queue, explicit
backpressure, framing parity with the blocking transport), the
single-process :class:`AsyncServer` acceptor (concurrency, ``once``,
``max_clients`` shedding, prompt stop), every handler adapter against
the *synchronous* client stack — the thin-wrapper guarantee cuts both
ways — and seeded fault injection over an async transport, which must
draw the exact same per-message plans as over a blocking one
(``PBIO_CHAOS_SEED`` shifts the seed in the CI chaos matrix, default 0).
"""

import asyncio
import contextlib
import os
import socket
import threading
import time

import pytest

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, PbioConnection, RpcClient, RpcInterface, RpcOperation, RpcServer
from repro.core import encoder as enc
from repro.fmtserv import FormatServer, FormatService
from repro.net import (
    AsyncServer,
    AsyncSocketTransport,
    EventChannel,
    FaultInjectingTransport,
    FaultPlan,
    InMemoryPipe,
    PeerClosedError,
    Relay,
    SocketTransport,
    TransportError,
    TransportTimeout,
    WriteQueueFull,
    channel_handler,
    echo_handler,
    fmtserv_handler,
    relay_handler,
    rpc_handler,
)

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)
#: A bulky schema (~4 KiB encoded) for filling kernel socket buffers fast.
BLOB = RecordSchema.from_pairs("blob", [("v", "double[512]")])

ADD_REQ = RecordSchema.from_pairs("add_req", [("a", "double"), ("b", "double")])
ADD_REP = RecordSchema.from_pairs("add_rep", [("total", "double")])
CALC = RpcInterface("Calculator", [RpcOperation("add", ADD_REQ, ADD_REP)])


# -- harness -------------------------------------------------------------------


@contextlib.contextmanager
def serving(server: AsyncServer):
    """Run an AsyncServer's loop on a background thread — the sync-wrapper
    path every test client then talks to with plain blocking sockets."""
    host, port = server.bind()
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        yield host, port
    finally:
        server.stop()
        thread.join(timeout=10)
        assert not thread.is_alive(), "server loop failed to stop"


def connect(host: str, port: int, timeout_s: float = 10.0) -> SocketTransport:
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.settimeout(timeout_s)
    return SocketTransport(sock)


def tcp_pair() -> tuple[socket.socket, socket.socket]:
    """A connected raw TCP pair (unlike ``socketpair``, real TCP, so both
    ends accept ``TCP_NODELAY`` and behave like production links)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return client, server


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


# -- echo serving --------------------------------------------------------------


class TestAsyncEcho:
    def test_round_trip(self):
        server = AsyncServer(echo_handler())
        with serving(server) as (host, port):
            with connect(host, port) as t:
                t.send(b"hello async")
                assert t.recv() == b"hello async"

    def test_transform_handler(self):
        server = AsyncServer(echo_handler(lambda data: data.upper()))
        with serving(server) as (host, port):
            with connect(host, port) as t:
                t.send(b"ndr")
                assert t.recv() == b"NDR"

    def test_many_concurrent_connections_one_process(self):
        server = AsyncServer(echo_handler())
        with serving(server) as (host, port):
            clients = [connect(host, port) for _ in range(64)]
            try:
                # All 64 links open at once; interleave traffic across them.
                for rounds in range(2):
                    for i, t in enumerate(clients):
                        t.send(f"c{i}r{rounds}".encode())
                    for i, t in enumerate(clients):
                        assert t.recv() == f"c{i}r{rounds}".encode()
            finally:
                for t in clients:
                    t.close()
            assert server.metrics.value("aio.accepted") == 64

    def test_batch_echo_uses_recv_many(self):
        server = AsyncServer(echo_handler())
        with serving(server) as (host, port):
            with connect(host, port) as t:
                frames = [f"m{i}".encode() for i in range(32)]
                t.send_many(frames)
                got = []
                while len(got) < len(frames):
                    got.extend(t.recv_many())
                assert got == frames

    def test_once_serves_one_connection_then_exits(self):
        server = AsyncServer(echo_handler(), once=True)
        host, port = server.bind()
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        with connect(host, port) as t:
            t.send(b"only")
            assert t.recv() == b"only"
        thread.join(timeout=10)  # exits by itself: no stop() needed
        assert not thread.is_alive()

    def test_max_clients_sheds_excess_cleanly(self):
        server = AsyncServer(echo_handler(), max_clients=1)
        with serving(server) as (host, port):
            with connect(host, port) as first:
                first.send(b"hold")  # ensure the handler owns the slot
                assert first.recv() == b"hold"
                shed = connect(host, port)
                # The excess client gets an orderly FIN, not a hang.
                with pytest.raises(TransportError):
                    shed.recv()
                shed.close()
            wait_until(lambda: server.metrics.value("aio.shed") >= 1)

    def test_stop_cancels_open_connections(self):
        server = AsyncServer(echo_handler())
        with serving(server) as (host, port):
            idle = connect(host, port)  # never sends: handler parked in recv
            wait_until(lambda: server.active_connections == 1)
            server.stop()
            with pytest.raises(TransportError):
                idle.recv()  # connection torn down by the stopping server
            idle.close()


# -- transport-level: bounded queue, backpressure, framing parity --------------


class TestAsyncTransportQueue:
    def test_write_queue_bound_backpressure_and_drain(self):
        # A writable socket flushes inline and never queues, so real
        # backpressure needs a jammed kernel buffer: small SO_SNDBUF,
        # peer not reading.  Once the kernel stops accepting, the
        # bounded queue fills and WriteQueueFull surfaces synchronously.
        chunk = b"y" * 4096
        received = bytearray()
        stop = threading.Event()

        async def scenario():
            client, srv = tcp_pair()
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            transport = AsyncSocketTransport(srv, max_write_queue=8192)
            sent = 0
            with pytest.raises(WriteQueueFull):
                for _ in range(2048):  # no awaits: the writer can't run
                    transport.send(chunk)
                    sent += 1
            assert transport.metrics.value("aio.queue_full") == 1
            assert transport.write_queue_depth > 0

            def drain_peer():
                client.settimeout(0.2)
                while not stop.is_set():
                    try:
                        data = client.recv(65536)
                    except socket.timeout:
                        continue
                    except OSError:
                        return
                    if not data:
                        return
                    received.extend(data)

            reader = threading.Thread(target=drain_peer, daemon=True)
            reader.start()
            await transport.drain()  # reader relieves the jam
            assert transport.write_queue_depth == 0
            transport.send(b"after")  # queue usable again once drained
            await transport.drain()
            transport.close()
            return sent

        sent = asyncio.run(scenario())
        expect = sent * (4 + len(chunk)) + (4 + 5)
        wait_until(lambda: len(received) >= expect)
        stop.set()
        assert len(received) == expect  # nothing lost, nothing duplicated
        assert received.endswith(b"\x00\x00\x00\x05after")

    def test_framing_parity_with_blocking_transport(self):
        async def scenario():
            client, srv = tcp_pair()
            transport = AsyncSocketTransport(srv)
            transport.send(b"")  # empty frame survives
            transport.send_many([b"a", b"bb", b"ccc"])
            transport.send_segments([b"head", b"-", b"tail"])
            await transport.drain()
            transport.close()
            return client

        client = asyncio.run(scenario())
        peer = SocketTransport(client)
        peer.set_timeout(10.0)
        assert peer.recv() == b""
        assert peer.recv() == b"a"
        assert peer.recv() == b"bb"
        assert peer.recv() == b"ccc"
        assert peer.recv() == b"head-tail"
        peer.close()

    def test_segmented_frame_is_queued_as_its_segments(self):
        """A gathered burst frame costs the queue no join: its immutable
        segments are the iovecs, a mutable one is pinned (the send is
        asynchronous; the caller may reuse its buffer at once)."""
        from repro.net.transport import SegmentedFrame

        async def scenario():
            client, srv = tcp_pair()
            transport = AsyncSocketTransport(srv)
            queued, enqueue = [], transport._enqueue
            transport._enqueue = lambda bufs, nbytes: (queued.append((list(bufs), nbytes)), enqueue(bufs, nbytes))
            head, body = b"h" * 16, bytearray(b"b" * 5000)
            transport.send_many([b"a", SegmentedFrame((head, body), 5016)])
            body[:] = b"x" * 5000
            await transport.drain()
            transport.close()
            return client, head, queued

        client, head, ((bufs, nbytes),) = asyncio.run(scenario())
        assert nbytes == 4 + 1 + 4 + 5016 and len(bufs) == 5 and bufs[3] is head and type(bufs[4]) is bytes
        peer = SocketTransport(client)
        peer.set_timeout(10.0)
        assert peer.recv() == b"a" and peer.recv() == b"h" * 16 + b"b" * 5000
        peer.close()

    def test_recv_timeout(self):
        async def scenario():
            client, srv = tcp_pair()
            transport = AsyncSocketTransport(srv)
            transport.set_timeout(0.05)
            with pytest.raises(TransportTimeout):
                await transport.recv()
            transport.close()
            client.close()

        asyncio.run(scenario())

    def test_clean_eof_is_peer_closed_mid_frame_is_error(self):
        async def scenario():
            client, srv = tcp_pair()
            transport = AsyncSocketTransport(srv)
            client.sendall(b"\x00\x00\x00\x05hello")
            assert await transport.recv() == b"hello"
            client.close()  # clean frame boundary
            with pytest.raises(PeerClosedError):
                await transport.recv()
            transport.close()

            client2, srv2 = tcp_pair()
            transport2 = AsyncSocketTransport(srv2)
            client2.sendall(b"\x00\x00\x00\x09par")  # torn mid-frame
            client2.close()
            with pytest.raises(TransportError) as excinfo:
                await transport2.recv()
            assert not isinstance(excinfo.value, PeerClosedError)
            transport2.close()

        asyncio.run(scenario())

    def test_send_on_closed_transport_raises(self):
        async def scenario():
            client, srv = tcp_pair()
            transport = AsyncSocketTransport(srv)
            transport.close()
            with pytest.raises(TransportError):
                transport.send(b"late")
            client.close()

        asyncio.run(scenario())


# -- RPC over the async core ---------------------------------------------------


class TestAsyncRpc:
    def test_sync_rpc_client_against_async_server(self):
        rpc = RpcServer(SPARC_V8, CALC)
        rpc.register(b"calc", {"add": lambda req: {"total": req["a"] + req["b"]}})
        server = AsyncServer(rpc_handler(rpc))
        with serving(server) as (host, port):
            client = RpcClient(X86, CALC)
            with connect(host, port) as t:
                for i in range(5):
                    reply = client.invoke(t, b"calc", "add", {"a": float(i), "b": 1.0})
                    assert reply == {"total": float(i) + 1.0}
            # The reply can reach the client a beat before the server
            # task returns to its accounting, so poll rather than assert.
            wait_until(lambda: rpc.metrics.value("requests_served") == 5)

    def test_32_live_links_each_keep_their_negotiator(self):
        """An endpoint with many links alive at once (what an ``AsyncServer``
        gives an ``RpcServer``) keeps each one's negotiator: a frame parked
        behind an unresolvable token on the first link is still there once
        the other 31 have been touched (a table bounded at 16 lost it)."""
        sender = IOContext(SPARC_V8, context_id=0x32)
        handle = sender.register_format(ADD_REP)
        token = enc.encode_token_message(0x32, handle.format_id, handle.iofmt.fingerprint, 9)
        body = sender.encode(handle, {"total": 3.0})
        client = RpcClient(X86, CALC)  # no format service: the token cannot resolve
        pipes = [InMemoryPipe() for _ in range(32)]
        first = pipes[0]
        first.a.send_many([token, b"a call header", body])
        assert client._recv_frame(first.b) == (b"a call header", None)
        with pytest.raises(TransportError):  # the body is held, the link dry
            client._recv_frame(first.b)
        assert enc.try_message_type(first.a.recv()) == enc.MSG_FORMAT_REQUEST
        for k, pipe in enumerate(pipes[1:]):
            pipe.a.send(b"frame %d" % k)
            assert client._recv_frame(pipe.b) == (b"frame %d" % k, None)
        first.a.send(sender.announce(handle))  # the inline answer, at last
        assert client._recv_frame(first.b)[0] == body
        assert client.ctx.metrics.value("fmtserv.messages_released") == 1

    def test_link_state_lives_and_dies_with_the_connection(self):
        rpc = RpcServer(SPARC_V8, CALC)
        rpc.register(b"calc", {"add": lambda req: {"total": req["a"] + req["b"]}})
        server = AsyncServer(rpc_handler(rpc))
        with serving(server) as (host, port):
            client = RpcClient(X86, CALC)
            links = [connect(host, port) for _ in range(32)]
            for k, t in enumerate(links):
                assert client.invoke(t, b"calc", "add", {"a": float(k), "b": 1.0}) == {"total": k + 1.0}
            assert len(rpc._links.live()) == len(client._links.live()) == 32
            for t in links:  # every one is still the link it was: no re-announcement
                assert client.invoke(t, b"calc", "add", {"a": 1.0, "b": 1.0}) == {"total": 2.0}
            assert client.ctx.metrics.value("fmtserv.meta_requests_served") == 0
            for t in links:
                t.close()
            del links, t
            wait_until(lambda: server.active_connections == 0)
        import gc

        gc.collect()
        assert rpc._links.live() == [] and client._links.live() == []

    def test_two_clients_interleaved(self):
        rpc = RpcServer(SPARC_V8, CALC)
        rpc.register(b"calc", {"add": lambda req: {"total": req["a"] + req["b"]}})
        server = AsyncServer(rpc_handler(rpc))
        with serving(server) as (host, port):
            c1, c2 = RpcClient(X86, CALC), RpcClient(X86, CALC)
            with connect(host, port) as t1, connect(host, port) as t2:
                for i in range(3):
                    assert c1.invoke(t1, b"calc", "add", {"a": 1.0, "b": float(i)})
                    assert c2.invoke(t2, b"calc", "add", {"a": 2.0, "b": float(i)})


# -- format server over the async core -----------------------------------------


class TestAsyncFmtserv:
    def test_register_and_resolve_over_tcp(self):
        from repro.abi import X86_64, layout_record
        from repro.core import IOFormat

        fserver = FormatServer()
        server = AsyncServer(fmtserv_handler(fserver))
        with serving(server) as (host, port):
            fmt = IOFormat.from_layout(layout_record(TELEMETRY, X86_64))
            publisher = FormatService(lambda: connect(host, port))
            try:
                token = publisher.publish(fmt)
                assert token == 1
            finally:
                publisher.close()
            resolver = FormatService(lambda: connect(host, port))
            try:
                resolved = resolver.resolve(fmt.fingerprint)
                assert resolved is not None
                assert resolved.fingerprint == fmt.fingerprint
            finally:
                resolver.close()
        assert fserver.metrics.value("fmtserv.registered") == 1


# -- relay over the async core -------------------------------------------------


class TestAsyncRelay:
    def test_wire_ingress_fans_to_downstreams(self):
        relay = Relay()
        pipe = InMemoryPipe()
        relay.attach(pipe.a)
        server = AsyncServer(relay_handler(relay))
        with serving(server) as (host, port):
            sender = IOContext(SPARC_V8)
            handle = sender.register_format(TELEMETRY)
            announcement = sender.announce(handle)
            record = sender.encode(handle, {"unit": 7, "temperature": 451.0})
            with connect(host, port) as t:
                t.send_many([announcement, record])
                wait_until(lambda: pipe.b.pending() == 2)
        assert pipe.b.recv() == bytes(announcement)
        assert pipe.b.recv() == bytes(record)  # verbatim: no re-encode
        assert relay.messages_seen == 1

    def test_slow_async_downstream_hits_queue_bound_and_quarantines(self):
        async def scenario():
            reader, writer = tcp_pair()
            for sock in (reader, writer):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            down = AsyncSocketTransport(writer, max_write_queue=8192)
            relay = Relay()
            downstream = relay.attach(down)
            sender = IOContext(SPARC_V8)
            handle = sender.register_format(BLOB)
            relay.forward(sender.announce(handle))
            message = sender.encode(
                handle, {"v": tuple(float(i) for i in range(512))}
            )
            # The peer never reads: the kernel buffer fills, then the
            # bounded queue, then WriteQueueFull trips the same
            # consecutive-failure quarantine a broken link would.
            for _ in range(64):
                relay.forward(message)
                await asyncio.sleep(0)  # let the writer task try the kernel
                if downstream.quarantined:
                    break
            assert downstream.quarantined
            assert downstream.metrics.value("send_errors") >= relay.quarantine_after
            assert downstream.transport.write_queue_depth > 0  # the gauge shows the jam
            down.close()
            reader.close()

        asyncio.run(scenario())


# -- event channel over the wire -----------------------------------------------


class TestAsyncChannel:
    def test_wire_subscriber_gets_backlog_and_live_traffic(self):
        channel = EventChannel()
        publisher = channel.publisher(IOContext(SPARC_V8))
        handle = publisher.ctx.register_format(TELEMETRY)
        publisher.publish(handle, {"unit": 1, "temperature": 100.0})
        server = AsyncServer(channel_handler(channel))
        with serving(server) as (host, port):
            with connect(host, port) as t:
                rx = PbioConnection(IOContext(X86), t)
                rx.ctx.expect(TELEMETRY)
                wait_until(lambda: channel.tap_count == 1)
                publisher.publish(handle, {"unit": 2, "temperature": 200.0})
                # The announcement backlog was replayed on join, so the
                # live record decodes; pre-join *data* is not replayed.
                assert rx.recv() == {"unit": 2, "temperature": 200.0}

    def test_wire_ingress_reaches_in_process_subscribers(self):
        channel = EventChannel()
        received = []
        sub_ctx = IOContext(X86)
        sub_ctx.expect(TELEMETRY)
        channel.subscribe(sub_ctx, received.append, format_name="telemetry")
        server = AsyncServer(channel_handler(channel))
        with serving(server) as (host, port):
            with connect(host, port) as t:
                sender = IOContext(SPARC_V8)
                handle = sender.register_format(TELEMETRY)
                t.send_many(
                    [
                        sender.announce(handle),
                        sender.encode(handle, {"unit": 9, "temperature": 9.5}),
                    ]
                )
                wait_until(lambda: len(received) == 1)
        assert received == [{"unit": 9, "temperature": 9.5}]

    def test_wire_ingress_rejects_garbage(self):
        channel = EventChannel()
        server = AsyncServer(channel_handler(channel))
        with serving(server) as (host, port):
            with connect(host, port) as t:
                t.send(b"not a pbio frame")
                wait_until(
                    lambda: channel.metrics.value("channel.frames_rejected") == 1
                )


# -- seeded chaos over async ---------------------------------------------------


class TestChaosOverAsync:
    def test_same_seeded_plans_sync_and_async(self):
        """The fault injector must draw identical per-message fault plans
        whether it wraps a blocking pipe or an async socket transport —
        same counters, byte-identical delivered stream."""
        plan = FaultPlan(drop=0.2, truncate=0.1, corrupt=0.1, duplicate=0.2, delay=0.2)
        seed = CHAOS_SEED + 99
        messages = [f"record-{i:04d}".encode() * 4 for i in range(200)]

        # Reference: the blocking in-memory pipe.
        pipe = InMemoryPipe()
        sync_chaos = FaultInjectingTransport(pipe.a, plan, seed=seed)
        for message in messages:
            sync_chaos.send(message)
        sync_chaos.flush()
        expected_counters = dict(sync_chaos.metrics.counters())
        expected_stream = []
        while pipe.b.pending():
            expected_stream.append(pipe.b.recv())

        async def scenario():
            client, srv = tcp_pair()
            inner = AsyncSocketTransport(srv)
            chaos = FaultInjectingTransport(inner, plan, seed=seed)
            for message in messages:
                chaos.send(message)
            chaos.flush()
            await chaos.drain()  # delegated through the wrapper
            assert chaos.write_queue_depth == 0
            inner.close()
            return dict(chaos.metrics.counters()), client

        got_counters, client = asyncio.run(scenario())
        assert got_counters == expected_counters
        peer = SocketTransport(client)
        peer.set_timeout(10.0)
        got_stream = [peer.recv() for _ in range(len(expected_stream))]
        assert got_stream == expected_stream
        peer.close()


# -- stop()/restart() as the per-connection serving loops observe them ---------


class TestPromptShutdown:
    def test_rpc_serve_exits_on_stop(self):
        rpc = RpcServer(SPARC_V8, CALC)
        rpc.register(b"calc", {"add": lambda req: {"total": req["a"] + req["b"]}})
        server = AsyncServer(rpc_handler(rpc))
        client = RpcClient(X86, CALC)
        with serving(server) as (host, port):
            with connect(host, port) as t:
                assert client.invoke(t, b"calc", "add", {"a": 1.0, "b": 2.0})
            rpc.stop()
            with connect(host, port) as t:
                with pytest.raises(TransportError):
                    t.recv()  # turned away with an orderly close, not a hang
            rpc.restart()
            assert not rpc.stopped
            with connect(host, port) as t:
                assert client.invoke(t, b"calc", "add", {"a": 2.0, "b": 3.0})

    def test_format_server_serve_exits_on_stop(self):
        from repro.abi import X86_64, layout_record
        from repro.core import IOFormat

        fserver = FormatServer()
        server = AsyncServer(fmtserv_handler(fserver))
        with serving(server) as (host, port):
            fserver.stop()
            with connect(host, port) as t:
                with pytest.raises(TransportError):
                    t.recv()  # turned away with an orderly close, not a hang
            fserver.restart()
            service = FormatService(lambda: connect(host, port))
            try:
                fmt = IOFormat.from_layout(layout_record(TELEMETRY, X86_64))
                assert service.publish(fmt) == 1
            finally:
                service.close()


# -- graceful drain (tentpole: self-healing service plane) ---------------------


class TestGracefulDrain:
    def test_drain_and_stop_sends_goodbye_then_stops(self):
        server = AsyncServer(echo_handler())
        with serving(server) as (host, port):
            with connect(host, port) as t:
                t.send(b"warmup")
                assert t.recv() == b"warmup"
                wait_until(lambda: len(server._conn_transports) == 1)
                fut = asyncio.run_coroutine_threadsafe(
                    server.drain_and_stop(1.0), server._loop
                )
                fut.result(timeout=5)
                goodbye = t.recv()
                kind, _cid, _fid, _plen = enc.unpack_header(goodbye)
                assert kind == enc.MSG_PING
                nonce, _depth = enc.parse_ping(goodbye)
                assert nonce == enc.GOODBYE_NONCE
        assert server.metrics.value("aio.drained") == 1
        assert server.metrics.value("aio.drain_timeouts") == 0

    def test_drain_with_no_connections_just_stops(self):
        server = AsyncServer(echo_handler())
        with serving(server) as (host, port):
            wait_until(lambda: server._loop is not None)
            fut = asyncio.run_coroutine_threadsafe(
                server.drain_and_stop(1.0), server._loop
            )
            fut.result(timeout=5)
        assert server.metrics.value("aio.drained") == 1
