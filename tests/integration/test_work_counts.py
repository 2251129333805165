"""Work counts per burst, per hop — the perf gate that cannot flake.

Each row of :data:`TABLE` is one topology of the reference benchmark
(``benchmarks/e2e/rigs.py``), rebuilt here from public parts, and what
one burst of ``n`` records may cost on it in calls, publishes and
syscalls.  Counting wrappers, no clock: an extra pass, copy or syscall on
a hop fails here on any host in any speed state.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro.abi import SPARC_V8, X86, codec_for, layout_record
from repro.core import IOContext, PbioConnection
from repro.core import encoder as enc
from repro.core.formats import IOFormat
from repro.core.registry import FormatRegistry
from repro.core.runtime import ConverterCache, DecodePipeline, Metrics
from repro.core.runtime.pool import BufferPool
from repro.net import (
    DurablePublisher,
    DurableSubscription,
    EventChannel,
    FabricDispatcher,
    FaultInjectingTransport,
    FaultPlan,
    InMemoryPipe,
    Relay,
    RelayWorker,
    ShmRingTransport,
    SocketTransport,
    loopback_pair,
    shm,
    shm_pair,
)
from repro.core.filters import RecordFilter
from repro.net import channel as channel_module, fabric as fabric_module, relay as relay_module
from repro.net import sockets, transport
from repro.workloads import mechanical, random_record


def counted(counts, name, fn):
    def counting(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counting


class CountingU64:
    """``shm._U64`` with each store of a watched ``(view, offset)`` counted:
    a ring's tail and head publishes."""

    def __init__(self, counts, watched):
        self.counts, self.watched = counts, watched
        self.unpack_from = shm._U64.unpack_from
        self._pack_into = shm._U64.pack_into

    def pack_into(self, view, offset, value):
        name = self.watched.get((id(view), offset))
        if name is not None:
            self.counts[name] += 1
        self._pack_into(view, offset, value)


def count_metric_bumps(monkeypatch, counts, contexts):
    """``Metrics.inc`` with each call on a receiving context's registry, or
    on its converter cache's, counted as ``metric_bumps``."""
    watched = {id(registry) for ctx in contexts for registry in (ctx.metrics, ctx.cache.metrics)}
    inc = Metrics.__dict__["inc"]

    def counting(registry, *args):
        counts["metric_bumps"] += id(registry) in watched
        return inc(registry, *args)

    monkeypatch.setattr(Metrics, "inc", counting)


def counted_within(counts, name, fn, inside):
    """``fn`` with each call counted as ``name`` only while ``inside[0]``."""

    def counting(*args, **kwargs):
        counts[name] += inside[0]
        return fn(*args, **kwargs)

    return counting


class DurableBurst:
    """``durable_burst``: publisher + WAL -> wire tap -> relay -> shm ring
    -> durable subscription, acks back over the ring and up to the WAL."""

    def __init__(self, root, monkeypatch):
        self.counts = counts = Counter()
        schema = mechanical.schema_for_size("1kb")
        rng = np.random.default_rng(21)
        self.codec = codec_for(layout_record(schema, SPARC_V8))
        self.records = [random_record(schema, rng) for _ in range(4)]
        tx = IOContext(SPARC_V8, context_id=0xD0B0)
        self.format = tx.register_format(schema)
        rx = IOContext(X86)
        rx.expect(schema)
        source, self.sink = EventChannel(), EventChannel()
        monkeypatch.setattr(Relay, "forward", counted(counts, "relay.forward", Relay.__dict__["forward"]))
        in_relay = [False]
        forward_batch = Relay.__dict__["forward_batch"]

        def counting_forward_batch(relay, *args, **kwargs):
            counts["relay.forward_batch"] += 1
            in_relay[0] = True
            try:
                return forward_batch(relay, *args, **kwargs)
            finally:
                in_relay[0] = False

        monkeypatch.setattr(Relay, "forward_batch", counting_forward_batch)
        for name in ("try_unpack_header", "unpack_header"):  # the 16-byte parse, at the relay
            monkeypatch.setattr(enc, name, counted_within(counts, "relay_header_parses", getattr(enc, name), in_relay))
        for name in ("send", "send_many", "poll_recv"):
            monkeypatch.setattr(
                ShmRingTransport, name, self._per_ring("." + name, ShmRingTransport.__dict__[name])
            )
        self.relay = Relay(ack_upstream=source.route_ack)
        self.ring_out, self.ring_in = shm_pair(capacity=1 << 17, directory=root)
        self.rings = {id(self.ring_out): "ring", id(self.ring_in): "ack_ring"}
        monkeypatch.setattr(
            shm,
            "_U64",
            CountingU64(
                counts,
                {
                    (id(self.ring_out._send_ring.view), shm._OFF_TAIL): "ring.tail_publishes",
                    (id(self.ring_in._recv_ring.view), shm._OFF_HEAD): "ring.head_publishes",
                    (id(self.ring_in._send_ring.view), shm._OFF_TAIL): "ack_ring.tail_publishes",
                    (id(self.ring_out._recv_ring.view), shm._OFF_HEAD): "ack_ring.head_publishes",
                },
            ),
        )
        self.relay.attach(self.ring_out)
        tap = source.attach_wire(self.relay.forward)
        tap.send = counted(counts, "tap.frame_calls", tap.send)
        tap.send_run = counted(counts, "tap.run_calls", tap.send_run)
        self.publisher = DurablePublisher(source, tx, wal_dir=os.path.join(root, "wal"))
        self.got = []
        self.subscription = DurableSubscription(
            self.sink,
            rx,
            self.got.append,
            cursor_path=os.path.join(root, "sub.cursors"),
            ack_sink=self.ring_in.send,
            on_error="suppress",
        )
        writev = os.writev

        def counting_writev(fd, buffers):
            written = writev(fd, buffers)
            if fd == self.publisher.wal._log.stream.fileno():
                counts["wal.writev"] += 1
                counts["wal.segment_bytes"] += written
            counts["log_bytes"] += written  # what the benchmark's wchar reading sees
            return written

        monkeypatch.setattr(os, "writev", counting_writev)

    def _per_ring(self, suffix, fn):
        def counting(ring, *args):
            self.counts[self.rings[id(ring)] + suffix] += 1
            return fn(ring, *args)

        return counting

    def burst(self, n):
        """One burst of ``n`` records end to end; the bytes of its natives."""
        natives = [self.codec.encode(dict(self.records[k % 4], node_id=k)) for k in range(n)]
        sent, acked = self.subscription.metrics.value("durable.acks_sent"), self.publisher.stats.acks_received
        del self.got[:]
        self.publisher.publish_native_batch(self.format, natives)
        while len(self.got) < n:
            self.sink.ingest_many(self.ring_in.recv_many())
        self.relay.heal()
        assert self.publisher.unacked_count == 0
        self.counts["acks"] += self.subscription.metrics.value("durable.acks_sent") - sent
        self.counts["acks_received"] += self.publisher.stats.acks_received - acked
        self.counts["back_channel_polls"] = self.counts["ring.poll_recv"]  # the relay's, on its downstream
        return sum(map(len, natives))

    def close(self):
        self.subscription.close()
        self.publisher.close()
        self.ring_out.close()
        self.ring_in.close()


class Stream:
    """``stream_hetero``: two ``PbioConnection`` s over a loopback socket,
    ``src`` -> x86, one ``send_batch_native`` a burst and ``recv_batch(lend=True)``
    until it is in.  sparc converts every record; x86 lends views."""

    src = SPARC_V8

    def __init__(self, root, monkeypatch):
        self.counts = counts = Counter()
        self.a, self.b = loopback_pair()
        tx, rx = IOContext(self.src), IOContext(X86)
        rng = np.random.default_rng(22)
        self.formats = {}
        for size in ("100b", "100kb"):
            schema = mechanical.schema_for_size(size)
            rx.expect(schema)
            codec = codec_for(layout_record(schema, self.src))
            self.formats[size] = (tx.register_format(schema), codec, random_record(schema, rng))
        self.sender, self.receiver = PbioConnection(tx, self.a), PbioConnection(rx, self.b)
        self.natives = []
        count_readiness_waits(monkeypatch, counts)
        monkeypatch.setattr(
            SocketTransport, "send_many", counted(counts, "send_many", SocketTransport.__dict__["send_many"])
        )
        sendv = SocketTransport.__dict__["_sendv"]

        def counting_sendv(transport, bufs, total):
            counts["sendv"] += 1
            counts["iovecs"] += len(bufs)
            # a record reaches the kernel as the caller's own buffer, or it was copied on the way
            counts["payload_copies"] += sum(not any(buf is native for buf in bufs) for native in self.natives)
            return sendv(transport, bufs, total)

        monkeypatch.setattr(SocketTransport, "_sendv", counting_sendv)
        for name in ("try_unpack_header", "unpack_header"):
            monkeypatch.setattr(enc, name, counted(counts, "header_unpacks", getattr(enc, name)))
        monkeypatch.setattr(BufferPool, "lease", counted(counts, "leases", BufferPool.__dict__["lease"]))
        monkeypatch.setattr(BufferPool, "acquire", counted(counts, "pool_acquisitions", BufferPool.__dict__["acquire"]))
        count_metric_bumps(monkeypatch, counts, (rx,))

    def burst(self, shape):
        n, size = shape
        self.counts["blocking_sockets"] = blocking_sockets((self.a, self.b))
        handle, codec, record = self.formats[size]
        self.natives = [codec.encode(dict(record, node_id=k)) for k in range(n)]
        buffer, views = self.b._framer._buf, []
        self.sender.send_batch_native(handle, self.natives)
        while len(views) < n:
            views += self.receiver.recv_batch(lend=True)
            self.counts["recv_batch"] += 1
        assert [view["node_id"] for view in views] == list(range(n))
        self.counts["receive_buffer_moves"] += self.b._framer._buf is not buffer
        return sum(map(len, self.natives))

    def close(self):
        self.a.close()
        self.b.close()


class StreamHomo(Stream):
    src = X86


def count_readiness_waits(monkeypatch, counts):
    """Each wait for readiness — a socket call that met ``EAGAIN`` — counted
    as ``readiness_waits``."""
    monkeypatch.setattr(
        SocketTransport, "_wait", counted(counts, "readiness_waits", SocketTransport.__dict__["_wait"])
    )


def blocking_sockets(ends):
    """How many of ``ends`` have a socket that is not in non-blocking mode:
    in CPython's timeout mode every socket call polls first, a second syscall."""
    return sum(end._sock.gettimeout() != 0.0 for end in ends)


class CountingSocket:
    """A transport's socket with its send and receive syscalls counted, and
    whether ``native`` reached the kernel as the caller's own buffer."""

    def __init__(self, sock, counts):
        self.sock, self.counts, self.native = sock, counts, None

    def sendall(self, data):  # undefined on a non-blocking socket: counted so its use shows
        self.counts["sendall"] += 1
        self.counts["payload_copies"] += data is not self.native
        return self.sock.sendall(data)

    def sendmsg(self, bufs):
        self.counts["sendmsg"] += 1
        self.counts["iovecs"] += len(bufs)
        self.counts["payload_copies"] += not any(buf is self.native for buf in bufs)
        return self.sock.sendmsg(bufs)

    def recv_into(self, *args):
        self.counts["recv_into"] += 1
        return self.sock.recv_into(*args)

    def __getattr__(self, name):
        return getattr(self.sock, name)


class CountingPrefix:
    """``transport._LEN`` with each ``unpack_from`` — a framer reading a
    length prefix — counted."""

    def __init__(self, counts):
        self.counts, self.real = counts, transport._LEN

    def unpack_from(self, buffer, offset=0):
        self.counts["prefix_unpacks"] += 1
        return self.real.unpack_from(buffer, offset)


class RttScalar:
    """``rtt_scalar``: two ``PbioConnection`` s over a loopback socket,
    sparc <-> x86, one record there (``send_native`` + ``recv_view``) and
    its reply back — every count is of the two records of one round trip."""

    def __init__(self, root, monkeypatch):
        self.counts = counts = Counter()
        self.a, self.b = loopback_pair()
        self.a._sock, self.b._sock = CountingSocket(self.a._sock, counts), CountingSocket(self.b._sock, counts)
        sparc, x86 = IOContext(SPARC_V8), IOContext(X86)
        rng = np.random.default_rng(23)
        self.formats = {}
        for size in ("1kb", "100kb"):
            schema = mechanical.schema_for_size(size)
            record = random_record(schema, rng)
            legs = []
            for ctx, peer, machine in ((sparc, x86, SPARC_V8), (x86, sparc, X86)):
                peer.expect(schema)
                legs.append((ctx.register_format(schema), codec_for(layout_record(schema, machine)).encode(record)))
            self.formats[size] = legs
        self.client, self.server = PbioConnection(sparc, self.a), PbioConnection(x86, self.b)
        count_readiness_waits(monkeypatch, counts)
        monkeypatch.setattr(transport, "_LEN", CountingPrefix(counts))
        for name in ("try_unpack_header", "unpack_header"):
            monkeypatch.setattr(enc, name, counted(counts, "header_unpacks", getattr(enc, name)))
        recv = SocketTransport.__dict__["recv"]

        def counting_recv(transport):
            self.frame = recv(transport)  # bytes: the one copy off the framer
            counts["frame_copies"] += 1
            return self.frame

        decode_view = DecodePipeline.__dict__["decode_view"]

        def counting_decode_view(pipeline, message, **kwargs):
            counts["frame_copies"] += message is not self.frame  # decoded where the transport left it
            return decode_view(pipeline, message, **kwargs)

        monkeypatch.setattr(SocketTransport, "recv", counting_recv)
        monkeypatch.setattr(DecodePipeline, "decode_view", counting_decode_view)
        for owner, name, key in (
            (DecodePipeline, "_run_converter", "converter_calls"),
            (FormatRegistry, "remote_format", "resolves"),
            (DecodePipeline, "native_for", "resolves"),
            (DecodePipeline, "entry_for", "resolves"),
            (ConverterCache, "resolve", "resolves"),
            (BufferPool, "acquire", "pool_acquisitions"),
            (BufferPool, "lease", "leases"),
        ):
            monkeypatch.setattr(owner, name, counted(counts, key, owner.__dict__[name]))
        monkeypatch.setattr(sockets, "Loan", counted(counts, "loans", transport.Loan))
        count_metric_bumps(monkeypatch, counts, (sparc, x86))

    def burst(self, size):
        self.counts["blocking_sockets"] = blocking_sockets((self.a, self.b))
        (there, request), (back, reply) = self.formats[size]
        self.a._sock.native, self.b._sock.native = request, reply
        self.client.send_native(there, request)
        got = self.server.recv_view()
        self.server.send_native(back, reply)
        assert got["node_id"] == self.client.recv_view()["node_id"]
        return len(request) + len(reply)

    def close(self):
        self.a.close()
        self.b.close()


class CountingRows(dict):
    """A role's column of the verdict table with each row lookup — one
    "what kind of frame is this" classification — counted."""

    counts = None

    def __getitem__(self, kind):
        self.counts["kind_classifications"] += 1
        return dict.__getitem__(self, kind)


class FanoutHomo:
    """``fanout_homo``: 8 channels x 4 subscribers (the last behind a
    push-down filter a quarter of the records pass) of 100 B x86 -> x86
    records through a 4-worker ``FabricDispatcher``; each leaf is a pipe
    into an ``EventChannel`` with one view subscriber.  A burst is ``n``
    records of one channel, so every count is per burst of one channel."""

    CHANNELS, SUBSCRIBERS = 8, 4

    def __init__(self, root, monkeypatch):
        self.counts = counts = Counter()
        schema = mechanical.schema_for_size("100b")
        self.codec = codec_for(layout_record(schema, X86))
        self.record = random_record(schema, np.random.default_rng(24))
        self.dispatcher = FabricDispatcher(4)
        self.publishers, self.leaves, self.got = [], [], []
        for c in range(self.CHANNELS):
            ctx = IOContext(X86, context_id=0x5000 + c)
            handle = ctx.register_format(schema)
            leaves = []
            for s in range(self.SUBSCRIBERS):
                filtered = s == self.SUBSCRIBERS - 1
                pipe = InMemoryPipe()
                self.dispatcher.subscribe(
                    (ctx.context_id, handle.format_id),
                    pipe.a,
                    format_name=schema.name if filtered else None,
                    filter_expr="timestep < 10" if filtered else None,
                )
                rx = IOContext(X86)
                rx.expect(schema)
                channel = EventChannel()
                channel.subscribe(rx, self.got.append, deliver="view")
                leaves.append((pipe.b, channel))
            self.publishers.append((ctx, handle))
            self.leaves.append(leaves)
            self.dispatcher.forward(ctx.announce(handle))
        for module, name in (
            (fabric_module, "FRONT_ROWS"),
            (fabric_module, "WORKER_ROWS"),
            (relay_module, "RELAY_ROWS"),
            (channel_module, "CHANNEL_ROWS"),
            (channel_module, "SUBSCRIPTION_ROWS"),
        ):
            rows = CountingRows(getattr(module, name))
            rows.counts = counts
            monkeypatch.setattr(module, name, rows)
        for name in ("try_unpack_header", "unpack_header"):
            monkeypatch.setattr(enc, name, counted(counts, "header_unpacks", getattr(enc, name)))
        pipe_end = type(pipe.a)
        for owner, name, key in (
            (FabricDispatcher, "forward_batch", "fabric.forward_batch"),
            (RelayWorker, "ingest_batch", "worker.ingest_batch"),
            (Relay, "forward_batch", "relay.forward_batch"),
            (Relay, "forward", "relay.forward"),
            (enc, "data_sequence", "admissions"),
            (RecordFilter, "matches", "filter_evaluations"),
            (RecordFilter, "matches_run", "filter_runs"),
            (pipe_end, "send_many", "send_many"),
            (pipe_end, "send", "send"),
            (pipe_end, "recv_many", "recv_many"),
            (pipe_end, "poll_recv", "back_channel_polls"),
            (EventChannel, "ingest_many", "channel.ingest_many"),
            (DecodePipeline, "decode_batch", "decode_batch"),
        ):
            monkeypatch.setattr(owner, name, counted(counts, key, owner.__dict__[name]))

    def burst(self, n):
        """``n`` records on one channel, every fourth passing the filter."""
        channel = self.counts["bursts"] % self.CHANNELS
        self.counts["bursts"] += 1
        ctx, handle = self.publishers[channel]
        natives = [self.codec.encode(dict(self.record, node_id=k, timestep=5 if k % 4 == 0 else 50)) for k in range(n)]
        frames = [ctx.encode_native(handle, native) for native in natives]
        del self.got[:]
        self.dispatcher.forward_batch(frames)
        for end, leaf in self.leaves[channel]:
            delivered = end.recv_many()
            # a frame reaches a leaf as the object that was published, or it was copied on the way
            self.counts["payload_copies"] += sum(not any(d is f for f in frames) for d in delivered)
            leaf.ingest_many(delivered)
        self.dispatcher.heal()
        assert len(self.got) == 3 * n + n // 4
        return sum(map(len, natives))

    def close(self):
        self.dispatcher.drain_and_stop()


class Publish:
    """A publisher on an in-process channel with a dict and a view
    subscriber (a durable one on a durable stream).  ``n`` records go out
    as one ``publish_native_batch``, one record through ``publish_native``:
    the scalar spelling of the same burst body."""

    durable = False

    def __init__(self, root, monkeypatch):
        self.counts = counts = Counter()
        schema = mechanical.schema_for_size("100b")
        self.codec = codec_for(layout_record(schema, X86))
        self.record = random_record(schema, np.random.default_rng(25))
        channel, self.got = EventChannel(), []
        ctx = IOContext(X86, context_id=0x9B)
        self.publisher = DurablePublisher(channel, ctx) if self.durable else channel.publisher(ctx)
        self.handle = ctx.register_format(schema)
        for deliver in ("dict", "view"):
            rx = IOContext(X86)
            rx.expect(schema)
            if self.durable and deliver == "dict":
                DurableSubscription(channel, rx, self.got.append, on_error="suppress", ack_sink=lambda ack: None)
            else:
                channel.subscribe(rx, self.got.append, deliver=deliver)
        for name in ("try_unpack_header", "unpack_header"):
            monkeypatch.setattr(enc, name, counted(counts, "header_unpacks", getattr(enc, name)))
        for owner, name, key in (
            (EventChannel, "_publish_batch", "channel.publish_batch"),
            (EventChannel, "_publish_message", "channel.publish_message"),
            (DecodePipeline, "decode_batch", "decode_batch"),
            (DecodePipeline, "_decode", "scalar_decodes"),
        ):
            monkeypatch.setattr(owner, name, counted(counts, key, owner.__dict__[name]))

    def burst(self, n):
        natives = [self.codec.encode(dict(self.record, node_id=k)) for k in range(n)]
        del self.got[:]
        if n == 1:
            self.publisher.publish_native(self.handle, natives[0])
        else:
            self.publisher.publish_native_batch(self.handle, natives)
        assert len(self.got) == 2 * n
        return sum(map(len, natives))

    def close(self):
        pass


class DurablePublish(Publish):
    durable = True


def publish_row(n, payload):
    """What ``n`` published records cost in-process: one batch fan-out and
    one batch decode a subscriber, and not one header parse — the
    publisher built the headers with the frames — whether the records went
    out as a burst or one alone.  A batch decode of one record is that
    record's scalar decode."""
    return {
        "channel.publish_batch": 1, "channel.publish_message": 0, "decode_batch": 2,
        "scalar_decodes": 2 if n == 1 else 0, "header_unpacks": 0,
    }  # fmt: skip


def fanout_row(n, payload):
    """What a burst of ``n`` records of one channel costs end to end: its
    frames share one header and one length, so each hop admits it once.
    The fabric front, the owning worker and the channel's relay each see
    it as one run: one call, one classification, no per-frame admission,
    and the front's one header parse the only one in the fabric.  The
    filter opens the run once for its one subscriber (one
    ``matches_run``, no per-record ``matches``).  Each of the four leaves
    gets one ``send_many`` of the published frames themselves, and pays
    one header parse and one classification for the run it is delivered
    (the channel's: its subscriber and batch decode take the run as it
    is).  The heal after the burst reads no back-channel: nothing came
    back on any of the fabric's 32."""
    return {
        "fabric.forward_batch": 1, "worker.ingest_batch": 1, "relay.forward_batch": 1, "relay.forward": 0,
        "admissions": 0, "filter_evaluations": 0, "filter_runs": 1, "send_many": 4, "send": 0, "recv_many": 4,
        "payload_copies": 0, "channel.ingest_many": 4, "decode_batch": 4,
        "header_unpacks": 1 + 4, "kind_classifications": 3 + 4, "back_channel_polls": 0,
    }  # fmt: skip


def rtt_row(size, payload):
    """What the two records of one warm round trip cost: each one send
    syscall — one iovec joined behind its prefix below ``GATHER_MIN_FRAME``,
    three and the caller's own buffer from it on —, no wait for readiness
    on either non-blocking socket, one header parse, one copy off the
    framer, one converter run, nothing resolved again, and two counter
    bumps: the decode's own and the converter cache's hit (the receiver's
    ``converter_cache_hits`` is derived on read)."""
    row = {
        "sendall": 0, "sendmsg": 2, "iovecs": 2, "payload_copies": 2, "recv_into": 2, "prefix_unpacks": 2,
        "readiness_waits": 0, "blocking_sockets": 0, "header_unpacks": 2, "frame_copies": 2,
        "converter_calls": 2, "resolves": 0, "pool_acquisitions": 0, "leases": 0, "loans": 0, "metric_bumps": 4,
    }  # fmt: skip
    if size == "100kb":  # gathered, and too large for one read: how many it takes is the kernel's business
        row.update(iovecs=6, payload_copies=0)
        del row["recv_into"], row["prefix_unpacks"]
    return row


def stream_row(lent):
    """What a burst of ``n`` records of a size class costs on the socket
    path; ``lent`` is 1 where the receiver's views borrow the receive
    buffer (x86 -> x86: one lease a burst) and 0 where every record is
    converted into bytes of its own (the buffer never leaves the framer).
    Neither non-blocking socket waits for readiness.  The one batch decode
    bumps each of its counters once, whatever ``n``: its group, how the
    records went (zero-copy, or a converted run's path:
    ``converted_decodes`` is derived from it) and the converter cache's
    hit — a burst of one is its scalar decode's two bumps and the group."""

    def row(shape, payload):
        n, size = shape
        gathered = size == "100kb"  # which side of GATHER_MIN_FRAME the frames are
        return {
            "send_many": 1,
            "sendv": 1,
            "iovecs": (3 if gathered else 2) * n,
            "payload_copies": 0 if gathered else n,
            "recv_batch": 1,
            "header_unpacks": n,
            "leases": lent,
            "pool_acquisitions": lent,
            "receive_buffer_moves": lent,
            "readiness_waits": 0,
            "blocking_sockets": 0,
            "metric_bumps": 3,
        }

    return row


#: topology -> (builder, what one burst of n records carrying `payload`
#: native bytes costs).  A WAL frame is 12 bytes around the burst's
#: messages (16-byte header + 8-byte sequence each); the two cursor
#: stores append one 28-byte frame each per burst — together the
#: ``durable.wal_bytes_per_payload_byte`` of the benchmark.  The relay
#: reads the headers the publisher built instead of parsing its run, and
#: takes the one ack off its back-channel with one poll: the ring says
#: when it is empty.
TABLE = {
    "durable_burst": (
        DurableBurst,
        lambda n, payload: {
            "tap.run_calls": 1,
            "tap.frame_calls": 0,
            "relay.forward_batch": 1,
            "relay.forward": 0,
            "relay_header_parses": 0,
            "back_channel_polls": 1,
            "ring.send_many": 1,
            "ring.send": 0,
            "ring.tail_publishes": 1,
            "ring.head_publishes": 1,
            "wal.writev": 1,
            "wal.segment_bytes": 12 + 24 * n + payload,
            "log_bytes": 12 + 24 * n + payload + 2 * 28,
            "acks": 1,
            "acks_received": 1,
            "ack_ring.send": 1,
            "ack_ring.send_many": 0,
            "ack_ring.tail_publishes": 1,
            "ack_ring.head_publishes": 1,
        },
    ),
    "stream_hetero": (Stream, stream_row(lent=0)),
    "stream_homo": (StreamHomo, stream_row(lent=1)),
    "rtt_scalar": (RttScalar, rtt_row),
    "fanout_homo": (FanoutHomo, fanout_row),
    "publish": (Publish, publish_row),
    "durable_publish": (DurablePublish, publish_row),
}

STREAM_BURSTS = [(1, "100kb"), (32, "100b")]
CASES = [("durable_burst", 8), ("durable_burst", 32)] + [
    (topology, shape) for topology in ("stream_hetero", "stream_homo") for shape in STREAM_BURSTS
] + [("rtt_scalar", "1kb"), ("rtt_scalar", "100kb"), ("fanout_homo", 8), ("fanout_homo", 32)] + [
    (topology, n) for topology in ("publish", "durable_publish") for n in (1, 32)
]


def case_id(value):
    return value if isinstance(value, (str, int)) else "%dx%s" % value


def test_an_idle_fabric_reads_no_back_channel(monkeypatch):
    """Heal on a 4-worker fabric with 32 downstreams and no traffic: every
    link is asked ``pending()``, none is polled."""
    counts = Counter()
    pipe_end = type(InMemoryPipe().a)
    for name in ("poll_recv", "pending"):
        monkeypatch.setattr(pipe_end, name, counted(counts, name, pipe_end.__dict__[name]))
    dispatcher = FabricDispatcher(4)
    for c in range(8):
        for _ in range(4):
            dispatcher.subscribe((0x5000 + c, 1), InMemoryPipe().a)
    for _ in range(3):
        dispatcher.heal()
    assert counts == {"pending": 3 * 32}


@pytest.mark.parametrize("link", ["pipe", "shm"])
def test_an_idle_wrapped_downstream_is_not_polled(link, tmp_path, monkeypatch):
    """Heal on a relay whose one downstream is a zero-plan fault wrapper with
    nothing waiting: the wrapper answers ``pending()`` as its link does, so
    its back-channel is never polled."""
    counts = Counter()
    end, peer = InMemoryPipe().endpoints() if link == "pipe" else shm_pair(directory=str(tmp_path))
    kind = type(end)
    monkeypatch.setattr(kind, "poll_recv", counted(counts, "poll_recv", kind.__dict__["poll_recv"]))
    relay = Relay()
    relay.attach(FaultInjectingTransport(end, FaultPlan()))
    for _ in range(3):
        relay.heal()
    assert counts["poll_recv"] == 0
    end.close()
    peer.close()


def test_a_fabric_join_costs_what_it_carries(tmp_path, monkeypatch):
    """Building the ring hashes each worker's 512 points once, and joining
    one worker hashes its own.  Setting up ``fanout_homo`` hands each
    channel's announcement to that channel's relay and four leaves only:
    32 announcement frames reach the leaves, and 8 relays and 32 leaves
    parse one meta each."""
    counts = Counter()
    monkeypatch.setattr(fabric_module, "_hash64", counted(counts, "ring_points", fabric_module._hash64))
    parse = counted(counts, "meta_parses", IOFormat.__dict__["from_meta_bytes"].__func__)
    monkeypatch.setattr(IOFormat, "from_meta_bytes", classmethod(parse))
    dispatcher = FabricDispatcher(4)
    assert counts == {"ring_points": 4 * 512}
    counts.clear()
    dispatcher.add_worker(RelayWorker("w4"))
    assert counts == {"ring_points": 512}
    counts.clear()
    rig = FanoutHomo(str(tmp_path), monkeypatch)
    try:
        announcements = sum(end.pending() for leaves in rig.leaves for end, _leaf in leaves)
        for _ in range(rig.CHANNELS):
            rig.burst(8)
        assert (announcements, counts["meta_parses"]) == (32, 8 + 32)
    finally:
        rig.close()


@pytest.mark.parametrize(("topology", "n"), CASES, ids=case_id)
def test_a_burst_costs_what_the_table_says(topology, n, tmp_path, monkeypatch):
    build, row = TABLE[topology]
    rig = build(str(tmp_path), monkeypatch)
    try:
        rig.burst(n)  # announcements, converter generation, first-use paths
        for _ in range(3):
            rig.counts.clear()
            payload = rig.burst(n)
            expected = row(n, payload)
            assert {name: rig.counts[name] for name in expected} == expected
    finally:
        rig.close()
