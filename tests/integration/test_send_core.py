"""The send core: every data frame is built by ``enc.data_frames``.

Two properties, over every public send path:

* **A record is its bytes.**  A record handed over as any buffer — a
  typed ``memoryview``, an ``array``, a ctypes struct, an ndarray of any
  shape, a non-contiguous view — leaves every send path as the very same
  wire bytes as the record given as ``bytes`` (a typed buffer's
  ``len()`` is its item count, and a ctypes struct has none).
* **A publisher has one burst body.**  Publishing records one at a time
  and publishing them as one burst are indistinguishable to everyone
  downstream: subscribers, their counters, wire taps, the WAL.
"""

import array
import ctypes
import io
import os

import numpy as np
import pytest

from repro.abi import X86, CType, FieldDecl, RecordSchema, layout_record
from repro.core import IOContext, PbioConnection, PbioFileWriter, PbioWire
from repro.core import encoder as enc
from repro.net import DurablePublisher, EventChannel, InMemoryPipe, PublisherWAL, loopback_pair

POINT = RecordSchema("point", [FieldDecl("x", CType.INT), FieldDecl("y", CType.INT)])
CID = 0x5E4D


class Point(ctypes.Structure):  # the application's own struct: x86 layout of POINT
    _fields_ = [("x", ctypes.c_int32), ("y", ctypes.c_int32)]


def _non_contiguous(raw: bytes):
    spread = np.zeros(2 * len(raw), dtype=np.uint8)
    spread[::2] = np.frombuffer(raw, dtype=np.uint8)
    return spread[::2]


#: name -> the record's bytes as that kind of buffer
SHAPES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "typed memoryview": lambda raw: memoryview(raw).cast("I"),
    "array": lambda raw: array.array("I", raw),
    "ctypes struct": Point.from_buffer_copy,
    "ndarray u32": lambda raw: np.frombuffer(raw, dtype=np.uint32),
    "ndarray 2-d": lambda raw: np.frombuffer(raw, dtype=np.uint8).reshape(2, -1),
    "non-contiguous": _non_contiguous,
}


def _pipe_frames(end):
    frames = []
    while (frame := end.poll_recv()) is not None:
        frames.append(frame)
    return frames


def _connection(method):
    def send(records):
        ctx = IOContext(X86, context_id=CID)
        handle = ctx.register_format(POINT)
        pipe = InMemoryPipe()
        conn = PbioConnection(ctx, pipe.a)
        if method == "send_native":
            for record in records:
                conn.send_native(handle, record)
        else:
            conn.send_batch_native(handle, records)
        return _pipe_frames(pipe.b)

    return send


def _publisher(durable, method):
    def send(records):
        channel, wire = EventChannel(), []
        channel.attach_wire(lambda frame: wire.append(bytes(frame)))
        ctx = IOContext(X86, context_id=CID)
        publisher = DurablePublisher(channel, ctx) if durable else channel.publisher(ctx)
        handle = ctx.register_format(POINT)
        if method == "publish_native":
            for record in records:
                publisher.publish_native(handle, record)
        else:
            publisher.publish_native_batch(handle, records)
        return wire

    return send


def _file(method):
    def send(records):
        ctx = IOContext(X86, context_id=CID)
        handle = ctx.register_format(POINT)
        stream = io.BytesIO()
        writer = PbioFileWriter(ctx, stream)
        if method == "write_native":
            for record in records:
                writer.write_native(handle, record)
        else:
            writer.append_batch_native(handle, records)
        return [stream.getvalue()]

    return send


def _context(records):
    ctx = IOContext(X86, context_id=CID)
    handle = ctx.register_format(POINT)
    return [ctx.encode_native(handle, record) for record in records]


BOUND = PbioWire().bind(layout_record(POINT, X86), layout_record(POINT, X86))


def _wire_system(records):
    return [b"".join(BOUND.encode_segments(record)) for record in records]


#: every public way a record becomes a data frame
PATHS = {
    "IOContext.encode_native": _context,
    "BoundPbio.encode_segments": _wire_system,
    "enc.encode_data_message": lambda records: [enc.encode_data_message(CID, 1, r) for r in records],
    "enc.encode_data_seq": lambda records: [enc.encode_data_seq(CID, 1, 1 + k, r) for k, r in enumerate(records)],
    "PbioConnection.send_native": _connection("send_native"),
    "PbioConnection.send_batch_native": _connection("send_batch_native"),
    "ChannelPublisher.publish_native": _publisher(False, "publish_native"),
    "ChannelPublisher.publish_native_batch": _publisher(False, "publish_native_batch"),
    "DurablePublisher.publish_native": _publisher(True, "publish_native"),
    "DurablePublisher.publish_native_batch": _publisher(True, "publish_native_batch"),
    "PbioFileWriter.write_native": _file("write_native"),
    "PbioFileWriter.append_batch_native": _file("append_batch_native"),
}

RAW = [bytes(Point(7, -3)), bytes(Point(1 << 20, 42))]


@pytest.mark.parametrize("shape", [name for name in SHAPES if name != "bytes"])
@pytest.mark.parametrize("path", PATHS)
def test_a_record_is_its_bytes_on_every_send_path(path, shape):
    """The wire bytes do not depend on the kind of buffer a record came in."""
    send = PATHS[path]
    assert send([SHAPES[shape](raw) for raw in RAW]) == send(RAW)


@pytest.mark.parametrize("size", [1024, 64 * 1024])
def test_a_typed_record_is_gathered_as_its_bytes_over_a_socket(size):
    """Either side of ``GATHER_MIN_FRAME``, a typed record crosses a real
    socket — packed or as the caller's buffer in an iovec — as its bytes."""
    raw = bytes(range(256)) * (size // 256)
    ctx = IOContext(X86, context_id=CID)
    handle = ctx.register_format(POINT)
    a, b = loopback_pair()
    try:
        conn = PbioConnection(ctx, a)
        conn.send_native(handle, np.frombuffer(raw, dtype=np.uint32))
        conn.send_batch_native(handle, [np.frombuffer(raw, dtype=np.uint32)])
        announcement, *frames = (b.recv() for _ in range(3))
        assert announcement == ctx.announce(handle)
        assert frames == [enc.encode_data_message(CID, handle.format_id, raw)] * 2
    finally:
        a.close()
        b.close()


# -- a publisher has one burst body ---------------------------------------------


class _Downstream:
    """A channel with a dict subscriber, a view subscriber, a durable
    subscriber and a wire tap — everything a publisher's records reach."""

    def __init__(self, durable, tmp):
        self.channel, self.wire, self.got = EventChannel(), [], {"dict": [], "view": [], "durable": []}
        for deliver in ("dict", "view"):
            ctx = IOContext(X86)
            ctx.expect(POINT)
            self.channel.subscribe(ctx, lambda r, k=deliver: self.got[k].append(dict(r)), deliver=deliver)
        ctx = IOContext(X86)
        ctx.expect(POINT)
        self.durable = self.channel.subscribe_durable(
            ctx, lambda r: self.got["durable"].append(dict(r)), on_error="suppress", ack_sink=lambda ack: None
        )
        self.channel.attach_wire(lambda frame: self.wire.append(bytes(frame)))
        ctx = IOContext(X86, context_id=CID)
        self.wal_dir = os.path.join(tmp, "wal") if durable else None
        self.publisher = DurablePublisher(self.channel, ctx, wal_dir=self.wal_dir) if durable else self.channel.publisher(ctx)
        self.handle = ctx.register_format(POINT)

    def seen(self):
        counters = [sub.metrics.counters() for sub in self.channel._subscribers]
        for kept in counters:  # cumulative: one ack a burst, whatever its length
            kept.pop("durable.acks_sent", None)
        backlog = None
        if self.wal_dir is not None:  # what the WAL journaled, message by message
            self.publisher.close()
            with PublisherWAL(self.wal_dir) as wal:
                backlog = wal.unacked()
        return self.got, counters, self.channel.messages_published, self.wire, backlog


@pytest.mark.parametrize("durable", [False, True], ids=["channel", "durable"])
@pytest.mark.parametrize("shape", ["native", "dict"])
def test_records_published_one_at_a_time_equal_their_burst(durable, shape, tmp_path):
    records = [{"x": k, "y": -k} for k in range(5)]
    natives = [bytes(Point(r["x"], r["y"])) for r in records]
    one, burst = _Downstream(durable, str(tmp_path / "one")), _Downstream(durable, str(tmp_path / "burst"))
    for record, native in zip(records, natives):
        if shape == "native":
            one.publisher.publish_native(one.handle, native)
        else:
            one.publisher.publish(one.handle, record)
    if shape == "native":
        burst.publisher.publish_native_batch(burst.handle, natives)
    else:
        burst.publisher.publish_batch(burst.handle, records)
    assert one.got["dict"] == one.got["view"] == one.got["durable"] == records
    assert one.seen() == burst.seen()
