"""Tests for transports, the network model, and loopback sockets.

The end of the file is the transport contract: one suite over every
transport and both zero-plan wrappers.
"""

import asyncio
import gc
import inspect
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.abi import X86, RecordSchema, codec_for, layout_record
from repro.core import IOContext, PbioConnection
from repro.core import encoder as enc
from repro.net import (
    AsyncSocketTransport,
    FaultInjectingTransport,
    FaultPlan,
    FrameBuffer,
    InMemoryPipe,
    LegCost,
    NetworkModel,
    PeerClosedError,
    ReconnectingTransport,
    Relay,
    RetryPolicy,
    RoundTripCost,
    SimulatedLink,
    SocketTransport,
    TimingTable,
    Transport,
    TransportError,
    TransportTimeout,
    best_of,
    drain,
    loopback_pair,
    paper_network_times_ms,
    shm_pair,
)
from repro.net.transport import GATHER_MIN_FRAME, MAX_FRAME, SegmentedFrame


class TestFraming:
    """``u32 length | payload`` on the wire, as the socket transports'
    shared :class:`FrameBuffer` parses it."""

    def feed(self, framer, data):
        framer.writable(len(data))[: len(data)] = data
        framer.advance(len(data))

    def test_frame_round_trip(self):
        framer = FrameBuffer()
        wire = struct.pack(">I", 5) + b"hello" + struct.pack(">I", 2) + b"hi"
        self.feed(framer, wire[:6])  # a frame arrives in pieces
        assert framer.next_frame() is None and framer.needed() == 3
        self.feed(framer, wire[6:])
        assert framer.next_frame() == b"hello"
        assert bytes(framer.next_frame_view()) == b"hi"
        assert framer.next_frame() is None and framer.pending == 0

    def test_empty_frame(self):
        framer = FrameBuffer()
        self.feed(framer, struct.pack(">I", 0))
        assert framer.next_frame() == b""

    def test_oversized_frame_rejected(self):
        framer = FrameBuffer()
        self.feed(framer, struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(TransportError, match="too large"):
            framer.next_frame()
        with pytest.raises(TransportError, match="too large"):
            framer.next_frame_view()


class TestInMemoryPipe:
    def test_bidirectional_delivery(self):
        a, b = InMemoryPipe().endpoints()
        a.send(b"ping")
        assert b.recv() == b"ping"
        b.send(b"pong")
        assert a.recv() == b"pong"

    def test_fifo_order(self):
        a, b = InMemoryPipe().endpoints()
        for i in range(5):
            a.send(bytes([i]))
        assert [b.recv()[0] for i in range(5)] == [0, 1, 2, 3, 4]

    def test_byte_accounting(self):
        a, b = InMemoryPipe().endpoints()
        a.send(b"12345")
        b.recv()
        assert a.bytes_sent == 5 and b.bytes_received == 5

    def test_recv_empty_raises(self):
        a, _ = InMemoryPipe().endpoints()
        with pytest.raises(TransportError):
            a.recv()

    def test_send_after_close_raises(self):
        a, _ = InMemoryPipe().endpoints()
        a.close()
        with pytest.raises(TransportError):
            a.send(b"x")

    def test_send_segments_concatenates(self):
        a, b = InMemoryPipe().endpoints()
        a.send_segments([b"head", memoryview(b"body"), bytearray(b"tail")])
        assert b.recv() == b"headbodytail"  # joined as they are: no per-segment bytes() first


class TestNetworkModel:
    def test_matches_paper_endpoints_of_fit(self):
        model = NetworkModel.ethernet_100mbps()
        paper = paper_network_times_ms()
        # The model was fitted on the 100 B and 100 KB points.
        assert model.one_way_s(100) * 1e3 == pytest.approx(paper["100b"], rel=0.02)
        assert model.one_way_s(102400) * 1e3 == pytest.approx(paper["100kb"], rel=0.02)

    def test_intermediate_sizes_within_15_percent(self):
        model = NetworkModel.ethernet_100mbps()
        paper = paper_network_times_ms()
        assert model.one_way_s(1024) * 1e3 == pytest.approx(paper["1kb"], rel=0.15)
        assert model.one_way_s(10240) * 1e3 == pytest.approx(paper["10kb"], rel=0.15)

    def test_monotone_in_size(self):
        model = NetworkModel()
        assert model.one_way_s(10) < model.one_way_s(100) < model.one_way_s(10_000)

    def test_ideal_network_is_free(self):
        model = NetworkModel.ideal()
        assert model.one_way_s(1 << 20) == 0.0


class TestSimulatedLink:
    def test_clock_accumulates_per_message(self):
        link = SimulatedLink()
        link.a.send(b"x" * 1000)
        link.b.recv()
        expected = link.model.one_way_s(1000)
        assert link.a.wire_time_s == pytest.approx(expected)
        assert link.b.recv_overhead_s == pytest.approx(link.model.select_overhead_s)

    def test_payload_integrity(self):
        link = SimulatedLink()
        payload = bytes(range(256)) * 10
        link.a.send(payload)
        assert link.b.recv() == payload


class TestSockets:
    def test_loopback_round_trip(self):
        c, s = loopback_pair()
        try:
            c.send(b"over tcp")
            assert s.recv() == b"over tcp"
            s.send(b"back")
            assert c.recv() == b"back"
        finally:
            c.close()
            s.close()

    def test_zero_length_frames_round_trip(self):
        # Regression: a zero-length iovec never advances sendmsg's resume
        # cursor, so an empty frame (or empty segment) used to spin the
        # vectored send loop forever.
        c, s = loopback_pair(timeout_s=5.0)
        try:
            c.send(b"")
            assert s.recv() == b""
            c.send_many([b"", b"x", b""])
            assert s.recv_many(3) == [b"", b"x", b""]
            c.send_segments([b"", b"mid", b""])
            assert s.recv() == b"mid"
        finally:
            c.close()
            s.close()

    def test_poll_recv_never_waits_out_the_timeout(self):
        # Regression: on a socket with a timeout set Python waits for
        # readability ahead of any read, MSG_DONTWAIT included, so a poll
        # of an idle link blocked for the whole timeout and then raised.
        c, s = loopback_pair(timeout_s=5.0)
        try:
            start = time.monotonic()
            assert s.poll_recv() is None
            assert time.monotonic() - start < 1.0
            c.send(b"now")
            frame = None
            while frame is None and time.monotonic() - start < 5.0:
                frame = s.poll_recv()
            assert frame == b"now" and s.poll_recv() is None
        finally:
            c.close()
            s.close()

    def test_large_message_survives_partial_reads(self):
        c, s = loopback_pair()
        try:
            payload = bytes(range(256)) * 4096  # 1 MiB
            c.send(payload)
            assert s.recv() == payload
        finally:
            c.close()
            s.close()


class TestSegmentedFrames:
    """A burst frame handed over as its segments is, on every sink, the
    bytes of the same frame packed."""

    HEAD, BODY = b"h" * 16, bytes(range(256)) * 20

    def link(self, kind, root):
        if kind in ("socket", "faulted", "reconnecting"):
            a, b = loopback_pair(timeout_s=5.0)
            if kind == "faulted":  # an active plan: the wrapper's own send path, nothing dropped
                return FaultInjectingTransport(a, FaultPlan(drop_heartbeats=1.0)), b
            return (ReconnectingTransport(lambda: a), b) if kind == "reconnecting" else (a, b)
        if kind == "shm":
            return shm_pair(capacity=1 << 16, directory=root)
        return InMemoryPipe().endpoints() if kind == "pipe" else SimulatedLink().endpoints()

    @pytest.mark.parametrize("kind", ["pipe", "simulated", "socket", "shm", "faulted", "reconnecting"])
    def test_every_sink_delivers_the_packed_bytes(self, kind, tmp_path):
        tx, rx = self.link(kind, str(tmp_path))
        frame = SegmentedFrame((self.HEAD, memoryview(self.BODY)), len(self.HEAD) + len(self.BODY))
        assert len(frame) == 16 + 5120 and bytes(frame) == self.HEAD + self.BODY
        try:
            tx.send_many([b"before", frame, b"after"])
            got = []
            while len(got) < 3:
                got += rx.recv_many()
            assert got == [b"before", self.HEAD + self.BODY, b"after"]
        finally:
            tx.close()
            rx.close()

    def test_wire_bytes_of_a_native_burst_are_the_packed_encoding(self):
        """A recorded socket transcript, both sides of the size constant:
        what ``send_batch_native`` — and ``send_native``, a record at a
        time — puts on the wire is ``u32 length | encode_data_message``
        per record, as before either selected pack or gather — and a
        gathered record is the caller's own buffer, a packed one a copy
        (the scalar frame below the constant is one buffer to the kernel,
        its prefix included)."""
        a, b = loopback_pair()

        class Recording:
            def __init__(self, sock):
                self.sock, self.calls = sock, []

            def sendmsg(self, bufs):
                self.calls.append(list(bufs))
                return self.sock.sendmsg(bufs)

            def sendall(self, data):
                self.calls.append([data])
                return self.sock.sendall(data)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        a._sock = wire = Recording(a._sock)
        try:
            edge = GATHER_MIN_FRAME - enc.HEADER_SIZE  # the record size whose frame sits on the constant
            sizes = [100, edge - 4, edge, edge + 4, 100 * 1024]
            tx = IOContext(X86)
            schemas = [RecordSchema.from_pairs(f"r{n}", [("blob", f"char[{n}]")]) for n in sizes]
            connection = PbioConnection(tx, a)
            for n, schema in zip(sizes, schemas):
                handle = tx.register_format(schema)
                natives = [codec_for(layout_record(schema, X86)).encode({"blob": bytes([k + 1]) * n}) for k in range(3)]
                assert len(natives[0]) == n
                connection.send_batch_native(handle, natives)  # the first burst carries the announcement
                del wire.calls[:]
                connection.send_batch_native(handle, natives)
                (bufs,) = wire.calls
                expected = [enc.encode_data_message(tx.context_id, handle.format_id, native) for native in natives]
                assert b"".join(bufs) == b"".join(struct.pack(">I", len(m)) + m for m in expected)
                gathered = n >= edge
                assert len(bufs) == (3 if gathered else 2) * len(natives)
                assert [any(buf is native for buf in bufs) for native in natives] == [gathered] * 3
                del wire.calls[:]
                connection.send_native(handle, natives[0])
                (bufs,) = wire.calls
                assert b"".join(bufs) == struct.pack(">I", len(expected[0])) + expected[0]
                assert len(bufs) == (3 if gathered else 1) and (bufs[-1] is natives[0]) == gathered
        finally:
            a.close()
            b.close()


class TestTiming:
    def test_best_of_returns_positive(self):
        t = best_of(lambda: sum(range(100)), repeats=3, inner=10)
        assert t > 0

    def test_roundtrip_cost_accounting(self):
        rt = RoundTripCost(
            label="100b",
            payload_bytes=100,
            forward=LegCost(0.001, 0.002, 0.003),
            back=LegCost(0.001, 0.002, 0.003),
        )
        assert rt.total_s == pytest.approx(0.012)
        assert rt.encode_decode_fraction == pytest.approx(8 / 12)
        assert "100b" in rt.row()

    def test_timing_table_renders(self):
        table = TimingTable("t", ["100b", "1kb"])
        table.add("PBIO", [0.1, 0.2])
        text = table.render()
        assert "PBIO" in text and "100b" in text

    def test_timing_table_arity_check(self):
        table = TimingTable("t", ["a"])
        with pytest.raises(ValueError):
            table.add("x", [1.0, 2.0])


class TestPipeCloseSemantics:
    """Closing one end must be distinguishable from a merely idle pipe."""

    def test_recv_after_peer_close_raises_peer_closed(self):
        a, b = InMemoryPipe().endpoints()
        a.close()
        with pytest.raises(PeerClosedError):
            b.recv()

    def test_queued_messages_drain_before_peer_closed(self):
        a, b = InMemoryPipe().endpoints()
        a.send(b"last words")
        a.close()
        assert b.recv() == b"last words"
        with pytest.raises(PeerClosedError):
            b.recv()

    def test_send_to_closed_peer_raises_peer_closed(self):
        a, b = InMemoryPipe().endpoints()
        b.close()
        with pytest.raises(PeerClosedError):
            a.send(b"into the void")

    def test_peer_closed_is_a_transport_error(self):
        assert issubclass(PeerClosedError, TransportError)

    def test_empty_pipe_still_plain_transport_error(self):
        a, _ = InMemoryPipe().endpoints()
        with pytest.raises(TransportError) as excinfo:
            a.recv()
        assert not isinstance(excinfo.value, PeerClosedError)


def _small_buffer_pair(sndbuf=4096, rcvbuf=4096, timeout_s=10.0):
    """A loopback TCP pair with deliberately tiny kernel buffers, so
    vectored sends go partial and the framer sees fragmented reads."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    client.settimeout(timeout_s)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    server.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    server.settimeout(timeout_s)
    listener.close()
    return SocketTransport(client), SocketTransport(server)


class TestSmallKernelBuffers:
    """send_segments partial-send resume and the buffered framer under
    real nonblocking-kernel conditions, not just InMemoryPipe."""

    def test_send_segments_partial_send_resume(self):
        c, s = _small_buffer_pair()
        try:
            # 64 segments x 8 KiB = 512 KiB, far beyond both kernel
            # buffers: sendmsg must go partial and resume mid-iovec.
            segments = [bytes([i]) * 8192 for i in range(64)]
            sender = threading.Thread(target=c.send_segments, args=(segments,))
            sender.start()
            received = s.recv()
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert received == b"".join(segments)
        finally:
            c.close()
            s.close()

    def test_send_many_burst_survives_fragmentation(self):
        c, s = _small_buffer_pair()
        try:
            frames = [bytes([i % 256]) * (1 + 977 * i % 4096) for i in range(128)]
            sender = threading.Thread(target=c.send_many, args=(frames,))
            sender.start()
            received = []
            while len(received) < len(frames):
                received.extend(s.recv_many())
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert received == frames
        finally:
            c.close()
            s.close()

    def test_loopback_pair_timeout_parameter(self):
        c, s = loopback_pair(timeout_s=0.1)
        try:
            with pytest.raises(TransportTimeout):
                c.recv()
        finally:
            c.close()
            s.close()


# -- the transport contract: one suite over every transport --------------------
#
# Each case is a coroutine over the end under test and its peer (the async
# socket's ``recv`` and ``drain`` are coroutines: ``value`` awaits what is
# awaitable).  A wrapper's case is its link's, bar what re-dialling changes.

KINDS = [
    "pipe", "socket", "simulated", "shm", "async",
    "faulted-pipe", "faulted-shm", "reconnecting-pipe", "reconnecting-shm",
]  # fmt: skip


def _bare(base, root):
    if base == "pipe":
        return InMemoryPipe().endpoints()
    if base == "simulated":
        return SimulatedLink(NetworkModel.ideal()).endpoints()
    if base == "socket":
        return loopback_pair(timeout_s=5.0)
    if base == "shm":
        return shm_pair(capacity=1 << 16, directory=root)
    left, right = socket.socketpair()
    return AsyncSocketTransport(left), AsyncSocketTransport(right)


def run(kind, root, case):
    """``await case(end, peer)`` in an event loop over a fresh link of
    ``kind``; a re-dial gets a fresh link of the same base, and every end
    opened is closed before the loop ends."""
    wrapper, _, base = kind.rpartition("-")

    async def main():
        end, peer = ends = list(_bare(base, str(root)))
        if wrapper == "faulted":
            end = FaultInjectingTransport(end, FaultPlan())
        elif wrapper == "reconnecting":
            links = iter([end])

            def dial():  # the first link, then a fresh one per re-dial
                if (link := next(links, None)) is None:
                    link, far = _bare(base, str(root))
                    ends.extend((link, far))
                return link

            end = ReconnectingTransport(dial, policy=RetryPolicy(max_attempts=1))
        try:
            await case(end, peer)
        finally:
            for transport in (end, *ends):
                transport.close()

    asyncio.run(main())


async def value(result):
    return await result if inspect.isawaitable(result) else result


async def take(end, n):
    """``n`` frames off ``end``: a socket's may come over several ``recv_many``."""
    got = []
    while len(got) < n:
        got += await value(end.recv_many())
    return got


def has_probe(kind):
    """``pending()`` on pipes and the ring, and on a wrapper over one; ``None``
    on sockets, whose kernel bytes need a syscall."""
    return kind.rpartition("-")[2] in ("pipe", "simulated", "shm")


@pytest.mark.parametrize("kind", KINDS)
def test_an_idle_link(kind, tmp_path):
    """What per-link code reads without probing: generation 0, depth 0, a
    probe reading 0 or none, a poll and a drain that return at once — the
    drain a coroutine only on the async socket."""

    async def case(end, peer):
        assert isinstance(end, Transport) and end.generation == 0 and end.write_queue_depth == 0
        assert (end.pending is not None) == has_probe(kind)
        assert end.pending is None or end.pending() == 0
        assert end.poll_recv() is None
        drained = end.drain()
        assert inspect.isawaitable(drained) == (kind == "async") and await value(drained) is None
        for name in ("drain", "poll_recv", "recv_many_leased", "send_many", "send_segments", "set_timeout"):
            assert callable(getattr(type(end), name))

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_frames_arrive_whole_and_in_order(kind, tmp_path):
    """Both ways, by every send call — a run holding an empty frame and a
    :class:`SegmentedFrame`, ``send_segments`` — and every receive call."""
    head, body = b"h" * 16, bytes(range(256)) * 20

    async def case(end, peer):
        end.send(b"ping")
        end.send_many([b"", SegmentedFrame((head, memoryview(body)), 16 + len(body)), b"x"])
        end.send_segments([b"he", bytearray(b"l"), memoryview(b"lo")])
        assert await take(peer, 5) == [b"ping", b"", head + body, b"x", b"hello"]
        peer.send_many([b"pong", b"", b"bb"])
        assert await value(end.recv()) == b"pong"
        got = []
        while len(got) < 2:
            frames, loan = await value(end.recv_many_leased())
            got += [bytes(frame) for frame in frames]
            if loan is not None:
                loan.close()
        assert got == [b"", b"bb"]

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_pending_is_non_zero_exactly_while_a_frame_waits(kind, tmp_path):
    async def case(end, peer):
        probe = end.pending
        peer.send_many([b"one", b"two"])
        got = []
        deadline = time.monotonic() + 5.0
        while len(got) < 2 and time.monotonic() < deadline:
            assert probe is None or probe() > 0
            if (frame := end.poll_recv()) is not None:
                got.append(frame)
            await asyncio.sleep(0)  # a socket's bytes reach it in their own time
        assert got == [b"one", b"two"] and end.poll_recv() is None
        assert probe is None or probe() == 0

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_depth_counts_bytes_and_drain_empties_it(kind, tmp_path):
    """Depth is the bytes the peer has not yet taken, 4-byte prefixes
    included: the ring holds them until the peer reads, a socket or a pipe
    hands them over inside the send."""
    frames = [b"abc", b"de", b""]

    async def case(end, peer):
        end.send(frames[0])
        end.send_many(frames[1:])
        assert end.write_queue_depth == (sum(4 + len(f) for f in frames) if kind.endswith("shm") else 0)
        assert await take(peer, 3) == frames
        await drain(end)  # awaited or called, whichever this end's is
        assert end.write_queue_depth == 0

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_a_read_frame_leaves_nothing_behind(kind, tmp_path):
    """After N frames the peer has read, depth is 0 and the traced footprint
    is what it was at N = 10³: nothing is kept per frame sent."""

    async def case(end, peer):
        async def exchange(n):
            for _ in range(n // 100):
                end.send(b"f" * 32)
                end.send_many([b"f" * 32] * 99)
                await take(peer, 100)

        tracemalloc.start()
        try:
            await exchange(1000)
            gc.collect()
            footprint = tracemalloc.get_traced_memory()[0]
            await exchange(9000)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - footprint
        finally:
            tracemalloc.stop()
        assert end.write_queue_depth == 0 and grown < 16 * 1024

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_timeout(kind, tmp_path):
    """Nothing to read: a blocking link times out, a pipe says so at once."""

    async def case(end, peer):
        end.set_timeout(0.05)
        blocks = kind.rpartition("-")[2] in ("socket", "shm", "async")
        with pytest.raises(TransportTimeout if blocks else TransportError):
            await value(end.recv_many_leased())

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_close(kind, tmp_path):
    """What the peer sent before closing is read, then the close is reported,
    and a closed end refuses a send — where a re-dialling wrapper dials a
    new link instead, each time."""
    redials = kind.startswith("reconnecting")

    async def case(end, peer):
        peer.send(b"last words")
        peer.close()
        end.set_timeout(0.05)
        assert await value(end.recv()) == b"last words"
        with pytest.raises(TransportError) as raised:
            await value(end.recv())
        assert (end.generation == 1) if redials else isinstance(raised.value, PeerClosedError)
        end.close()
        assert end.pending is None or end.pending() == 0  # closed: nothing will ever be read
        if redials:
            end.send(b"x")
            assert end.generation == 2
        else:
            with pytest.raises(TransportError):
                end.send(b"x")

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", KINDS)
def test_a_relay_reads_what_a_closed_peer_sent(kind, tmp_path):
    """``Relay.heal`` harvests the pong a downstream's peer sent before
    closing — in one heal where ``pending()`` says it waits — and takes the
    closed peer for silence, not an error."""

    async def case(end, peer):
        relay = Relay()
        down = relay.attach(end)
        peer.send(enc.encode_pong(1))
        peer.close()
        relay.heal()
        while not (has_probe(kind) or down.pongs_received):
            await asyncio.sleep(0)
            relay.heal()
        assert down.pongs_received == 1 and (end.pending is None or end.pending() == 0)
        relay.heal()
        assert down.state == "active" and down.pongs_received == 1

    run(kind, tmp_path, case)


# -- a socket's timeout: the transport's, kept without CPython's timeout mode ---

SOCKET_KINDS = ["socket", "faulted-socket"]  # a re-dialling wrapper dials again instead of timing out


def _within(t, limit, action):
    """``action()`` raises :class:`TransportTimeout` no sooner than ``t`` and
    within ``limit``, in seconds."""
    start = time.monotonic()
    with pytest.raises(TransportTimeout):
        action()
    assert t * 0.9 <= time.monotonic() - start <= limit


@pytest.mark.parametrize("kind", SOCKET_KINDS)
def test_a_timeout_bounds_each_wait_and_none_blocks(kind, tmp_path):
    """``set_timeout(t)`` bounds a receive from a silent peer and a send
    into a full peer window — :class:`TransportTimeout` within 1.5 x t —;
    a poll of an idle link returns at once whatever the timeout; and
    ``set_timeout(None)`` blocks until the peer speaks."""
    t = 0.2

    async def case(end, peer):
        end.set_timeout(t)
        start = time.monotonic()
        assert end.poll_recv() is None and time.monotonic() - start < 0.05
        _within(t, 1.5 * t, end.recv)
        _within(t, 1.5 * t, lambda: end.recv_many_leased())
        end.set_timeout(None)
        late = threading.Timer(3 * t, peer.send, (b"late",))
        late.start()
        start = time.monotonic()
        assert end.recv() == b"late" and time.monotonic() - start >= 2 * t
        late.join(timeout=5)
        assert not late.is_alive()
        end.set_timeout(t)
        _within(t, 1.5 * t, lambda: end.send(bytes(32 << 20)))  # the peer never reads: its window fills

    run(kind, tmp_path, case)


@pytest.mark.parametrize("kind", SOCKET_KINDS)
@pytest.mark.parametrize("mid_frame", [False, True], ids=["clean", "mid-frame"])
def test_a_closing_peer_is_told_from_a_torn_frame(kind, mid_frame, tmp_path):
    """A peer that closes between frames is :class:`PeerClosedError`; one
    that closes inside a frame is a plain :class:`TransportError`."""

    async def case(end, peer):
        end.set_timeout(5.0)
        if mid_frame:
            peer._sock.send(struct.pack(">I", 10) + b"abc")  # 3 of the frame's 10 bytes
        peer.close()
        with pytest.raises(TransportError) as raised:
            end.recv()
        assert isinstance(raised.value, PeerClosedError) != mid_frame

    run(kind, tmp_path, case)


def test_a_socket_handed_in_keeps_its_timeout():
    """A socket in CPython's timeout mode becomes the transport's timeout on
    a non-blocking socket; a blocking one blocks on."""
    listener = socket.create_server(("127.0.0.1", 0))
    left = socket.create_connection(listener.getsockname(), timeout=0.2)
    right, _ = listener.accept()
    listener.close()
    assert (left.gettimeout(), right.gettimeout()) == (0.2, None)
    timed, blocking = SocketTransport(left), SocketTransport(right)
    try:
        assert left.gettimeout() == right.gettimeout() == 0.0  # non-blocking: one syscall a call
        _within(0.2, 0.3, timed.recv)
        late = threading.Timer(0.3, timed.send, (b"late",))
        late.start()
        start = time.monotonic()
        assert blocking.recv() == b"late" and time.monotonic() - start >= 0.25
        late.join(timeout=5)
        assert not late.is_alive()
    finally:
        timed.close()
        blocking.close()
