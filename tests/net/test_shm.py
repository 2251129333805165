"""Tests for the shared-memory ring transport.

The ring pair is the same-host fast path: length-prefixed frames in a
mapped SPSC ring, doorbell FIFOs for the park/wake discipline, and a
nonce handshake proving the attacher mapped the *right* files.  The
transport contract is ``tests/net/test_transport.py``'s, over the ring
too; this suite covers what is the ring's own (wrap, bursts past its
capacity, close semantics), cross-process delivery over ``fork``, the
``auto_connect`` upgrade-and-fallback negotiation, and substitution into
the higher planes (chaos wrapper, relay fan-out, event channel ingest).
"""

import multiprocessing as mp
import os
import threading

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, PbioConnection
from repro.net import (
    EventChannel,
    FaultInjectingTransport,
    FaultPlan,
    PeerClosedError,
    Relay,
    ShmRingTransport,
    TransportError,
    TransportTimeout,
    attach_endpoint,
    auto_connect,
    create_endpoint,
    loopback_pair,
    shm_pair,
)
from repro.net import shm

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)


@pytest.fixture
def ring(tmp_path):
    """``ring(capacity)``: a connected pair in ``tmp_path``, closed after the test."""
    pairs = []

    def make(capacity=shm.DEFAULT_CAPACITY):
        pairs.append(shm_pair(capacity, directory=str(tmp_path)))
        return pairs[-1]

    yield make
    for a, b in pairs:
        a.close()
        b.close()


class TestFraming:
    def test_round_trip(self, ring):
        a, b = ring()
        a.send(b"ping")
        assert b.recv() == b"ping"
        b.send(b"pong")
        assert a.recv() == b"pong"

    def test_empty_frame(self, ring):
        a, b = ring()
        a.send(b"")
        assert b.recv() == b""

    def test_send_segments_joins_buffers(self, ring):
        a, b = ring()
        a.send_segments([b"he", bytearray(b"l"), memoryview(b"lo")])
        assert b.recv() == b"hello"

    def test_fifo_order_and_recv_many(self, ring):
        a, b = ring()
        a.send_many([bytes([i]) * 8 for i in range(5)])
        frames = b.recv_many()
        assert frames == [bytes([i]) * 8 for i in range(5)]

    def test_wrap_around(self, ring):
        # A 4 KiB ring carrying 1 KiB frames wraps every few sends; the
        # payload pattern proves split write/read reassembly is exact.
        a, b = ring(4096)
        for i in range(64):
            payload = bytes([i % 251]) * (1000 + i)
            a.send(payload)
            assert b.recv() == payload

    def test_burst_larger_than_ring(self, ring):
        # send_many publishes runs and waits for ring space; a reader
        # thread drains, so a burst bigger than the ring still lands.
        a, b = ring(4096)
        frames = [bytes([i % 256]) * 512 for i in range(64)]  # 32 KiB total
        got = []

        def reader():
            for _ in range(len(frames)):
                got.append(b.recv())

        t = threading.Thread(target=reader)
        t.start()
        a.send_many(frames)
        t.join(timeout=10)
        assert not t.is_alive()
        assert got == frames

    def test_poll_recv(self, ring):
        a, b = ring()
        assert b.poll_recv() is None
        a.send(b"now")
        assert b.poll_recv() == b"now"
        assert b.poll_recv() is None

    def test_frame_too_large_for_ring(self, ring):
        a, b = ring(4096)
        with pytest.raises(TransportError):
            a.send(b"x" * 8192)


# -- a run equals its frames -----------------------------------------------------

RING = 64  # bytes: a handful of frames fill it, every few frames wrap it


def _through(sizes, skew, limit, many, directory):
    """Move ``len(sizes)`` patterned frames over a ``RING``-byte ring whose
    counters start ``skew`` bytes in, a reader thread draining — frame by
    frame, or ``send_many`` against ``recv_many(limit)``; returns what
    arrived and the writer's queue depth afterwards."""
    frames = [bytes([k % 251]) * n for k, n in enumerate(sizes)]
    a, b = shm_pair(capacity=RING, directory=directory)
    got: list[bytes] = []
    try:
        for end in (a, b):
            end.set_timeout(10.0)
        if skew >= 4:
            a.send(b"s" * (skew - 4))
            b.recv()

        def reader():
            while len(got) < len(frames):
                if many:
                    burst = b.recv_many(limit)
                    assert len(burst) <= limit or not limit
                    got.extend(burst)
                else:
                    got.append(b.recv())

        thread = threading.Thread(target=reader)
        thread.start()
        if many:
            a.send_many(frames)
        else:
            for frame in frames:
                a.send(frame)
        thread.join(timeout=20)
        assert not thread.is_alive()
        return frames, got, a.write_queue_depth
    finally:
        a.close()
        b.close()


@seed(CHAOS_SEED)
@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, RING - 4), max_size=40),
    skew=st.integers(0, RING - 1),
    limit=st.integers(0, 5),
)
@example(sizes=[8, 8], skew=RING - 2, limit=0)  # the first prefix wraps
@example(sizes=[20, 8], skew=RING - 10, limit=0)  # the first payload wraps
@example(sizes=[RING // 2 - 4, RING // 2 - 4], skew=0, limit=0)  # fills the ring exactly
@example(sizes=[RING - 4] * 6, skew=7, limit=2)  # overflows it six times over
def test_a_ring_run_equals_its_frames(sizes, skew, limit, tmp_path_factory):
    """``send_many`` / ``recv_many`` deliver what frame-by-frame ``send`` /
    ``recv`` deliver — the same frames in the same order, the write queue
    back to empty — wherever the frames fall on the ring."""
    directory = str(tmp_path_factory.mktemp("ring"))
    frames, got, depth = _through(sizes, skew, limit, False, directory)
    assert (got, depth) == (frames, 0)
    assert _through(sizes, skew, limit, True, directory) == (frames, frames, 0)


def test_a_ring_run_stops_at_a_frame_over_max_frame(ring, monkeypatch):
    """A run is sent up to the frame over ``MAX_FRAME``, which raises; and
    a receiver that meets a length prefix over it hands over the frames
    ahead of it, then raises — both as the frame-by-frame loop does."""
    a, b = ring(4096)
    monkeypatch.setattr(shm, "MAX_FRAME", 32)
    with pytest.raises(TransportError, match="frame too large: 33"):
        a.send_many([b"a" * 8, b"b" * 32, b"c" * 33, b"d"])
    monkeypatch.undo()
    a.send(b"e" * 33)
    monkeypatch.setattr(shm, "MAX_FRAME", 32)
    assert b.recv_many() == [b"a" * 8, b"b" * 32]
    for _ in range(2):
        with pytest.raises(TransportError, match="corrupt shm ring: frame length 33"):
            b.recv_many()


class TestLifecycle:
    def test_recv_timeout(self, ring):
        _, b = ring()
        b.set_timeout(0.05)
        with pytest.raises(TransportTimeout):
            b.recv()

    def test_close_drains_then_raises(self, ring):
        a, b = ring()
        a.send(b"last words")
        a.close()
        # In-flight frames survive the close; after the drain the
        # reader gets a crisp peer-closed error, not a hang.
        assert b.recv() == b"last words"
        with pytest.raises(PeerClosedError):
            b.recv()
        with pytest.raises(PeerClosedError):
            b.send(b"into the void")

    def test_send_after_own_close(self, ring):
        a, b = ring()
        b.close()
        a.close()
        with pytest.raises(TransportError):
            a.send(b"x")

    def test_write_queue_depth_and_drain(self, ring):
        a, b = ring()
        a.send(b"one")
        a.send(b"two")
        assert a.write_queue_depth == 14  # two frames of 3 bytes, each behind its 4-byte prefix
        assert b.recv() == b"one"
        assert b.recv() == b"two"
        a.drain()  # peer already consumed: returns immediately
        assert a.write_queue_depth == 0

    def test_drain_raises_when_peer_closes(self, ring):
        a, b = ring(4096)
        a.send(b"x" * 1024)
        b.close()
        with pytest.raises(PeerClosedError):
            a.drain()

    def test_no_files_left_behind(self, tmp_path):
        a, b = shm_pair(directory=str(tmp_path))
        # shm_pair unlinks eagerly: nothing on disk even while open.
        assert os.listdir(tmp_path) == []
        a.close()
        b.close()
        assert os.listdir(tmp_path) == []

    def test_endpoint_close_unlinks(self, tmp_path):
        server, offer = create_endpoint(directory=str(tmp_path))
        client = attach_endpoint(offer)
        assert len(os.listdir(tmp_path)) == 6  # 2 rings + 4 bell fifos
        client.send(b"hi")
        assert server.recv() == b"hi"
        client.close()
        server.close()  # owner: unlinks every file
        assert os.listdir(tmp_path) == []


class TestHandshake:
    def test_malformed_offer(self):
        with pytest.raises(TransportError):
            attach_endpoint({"s2c": "/nope"})  # missing keys

    def test_missing_files(self, tmp_path):
        with pytest.raises(TransportError):
            attach_endpoint(
                {
                    "s2c": str(tmp_path / "gone.s2c"),
                    "c2s": str(tmp_path / "gone.c2s"),
                    "nonce": "00" * 16,
                }
            )

    def test_nonce_mismatch(self, tmp_path):
        server, offer = create_endpoint(directory=str(tmp_path))
        try:
            bad = dict(offer, nonce="ff" * 16)
            with pytest.raises(TransportError):
                attach_endpoint(bad)
        finally:
            server.close()


class TestCrossProcess:
    def test_fork_echo(self, tmp_path):
        ctx = mp.get_context("fork")
        a, b = shm_pair(directory=str(tmp_path))

        def echo():
            while True:
                f = b.recv()
                if f == b"stop":
                    return
                b.send(f)

        child = ctx.Process(target=echo)
        child.start()
        try:
            for i in range(200):
                payload = bytes([i % 256]) * (1 + i % 900)
                a.send(payload)
                assert a.recv() == payload
            a.send(b"stop")
            child.join(timeout=10)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.terminate()
                child.join(timeout=5)
            a.close()
            b.close()


class TestAutoConnect:
    def test_upgrade_over_loopback(self, tmp_path):
        sock_a, sock_b = loopback_pair()
        result = {}

        def server():
            result["server"] = auto_connect(
                sock_a, "server", directory=str(tmp_path)
            )

        t = threading.Thread(target=server)
        t.start()
        shm_client = auto_connect(sock_b, "client")
        t.join(timeout=10)
        shm_server = result["server"]
        try:
            assert isinstance(shm_server, ShmRingTransport)
            assert isinstance(shm_client, ShmRingTransport)
            shm_client.send(b"upgraded")
            assert shm_server.recv() == b"upgraded"
            # Negotiation consumed its own frames: the original socket
            # pair is still clean for control traffic.
            sock_a.send(b"control")
            assert sock_b.recv() == b"control"
            assert os.listdir(tmp_path) == []  # unlinked after attach
        finally:
            shm_server.close()
            shm_client.close()
            sock_a.close()
            sock_b.close()

    def test_fallback_when_server_cannot_create(self, tmp_path):
        sock_a, sock_b = loopback_pair()
        result = {}

        def server():
            result["server"] = auto_connect(
                sock_a, "server", directory=str(tmp_path / "missing" / "dir")
            )

        t = threading.Thread(target=server)
        t.start()
        client_side = auto_connect(sock_b, "client")
        t.join(timeout=10)
        try:
            # Both ends fall back to the transport they already had.
            assert result["server"] is sock_a
            assert client_side is sock_b
            sock_a.send(b"still works")
            assert sock_b.recv() == b"still works"
        finally:
            sock_a.close()
            sock_b.close()

    def test_fallback_when_attach_fails(self, tmp_path):
        # Simulated different host: the client cannot map the offered
        # paths.  It must refuse, and both sides keep the socket.
        sock_a, sock_b = loopback_pair()
        result = {}

        def server():
            result["server"] = auto_connect(sock_a, "server", directory=str(tmp_path))

        def hostile_client():
            import json

            from repro.net.shm import _OFFER_TAG, _REPLY_NO

            frame = sock_b.recv()
            assert frame.startswith(_OFFER_TAG)
            # A peer on another machine sees paths that do not exist.
            offer = json.loads(frame[len(_OFFER_TAG):].decode())
            offer["s2c"] += ".elsewhere"
            with pytest.raises(TransportError):
                attach_endpoint(offer)
            sock_b.send(_REPLY_NO)

        t = threading.Thread(target=server)
        t.start()
        hostile_client()
        t.join(timeout=10)
        try:
            assert result["server"] is sock_a
        finally:
            sock_a.close()
            sock_b.close()

    def test_bad_role_rejected(self, ring):
        a, b = ring()
        with pytest.raises(ValueError):
            auto_connect(a, "sideways")


class TestPlaneSubstitution:
    """The higher planes run unchanged over a same-host ring."""

    def test_chaos_wrapper_composes(self, ring):
        a, b = ring()
        clean = FaultInjectingTransport(a, FaultPlan(), seed=CHAOS_SEED)
        clean.send(b"through")
        assert b.recv() == b"through"
        dropper = FaultInjectingTransport(
            a, FaultPlan(drop=1.0), seed=CHAOS_SEED
        )
        dropper.send(b"lost")
        assert b.poll_recv() is None

    def test_relay_fan_out_over_rings(self, ring):
        sender = IOContext(SPARC_V8)
        h = sender.register_format(TELEMETRY)
        messages = [sender.announce(h), sender.encode(h, {"unit": 3, "temperature": 9.5})]
        relay = Relay()
        pairs = [ring() for _ in range(3)]
        for up, _ in pairs:
            relay.attach(up)
        for m in messages:
            relay.forward(m)
        for _, down in pairs:
            rx = PbioConnection(IOContext(X86), down)
            rx.ctx.expect(TELEMETRY)
            assert rx.recv() == {"unit": 3, "temperature": 9.5}

    def test_channel_ingest_from_ring(self, ring):
        # Wire frames produced on one "host side" of the ring feed an
        # event channel on the other — the same-host subscriber path.
        sender = IOContext(SPARC_V8)
        h = sender.register_format(TELEMETRY)
        a, b = ring()
        a.send(sender.announce(h))
        a.send_many([sender.encode(h, {"unit": i, "temperature": i * 0.5}) for i in range(8)])
        channel = EventChannel()
        got = []
        sub_ctx = IOContext(X86)
        sub_ctx.expect(TELEMETRY)
        channel.subscribe(sub_ctx, lambda r: got.append(r["unit"]))
        channel.ingest_many(b.recv_many())
        assert got == list(range(8))
