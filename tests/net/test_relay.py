"""Tests for the PBIO message relay."""

import pytest

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, PbioConnection
from repro.net import InMemoryPipe
from repro.net.relay import Relay

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)


def upstream_with(records):
    """A sender context + the framed messages it would put on the wire."""
    sender = IOContext(SPARC_V8)
    h = sender.register_format(TELEMETRY)
    messages = [sender.announce(h)]
    messages += [sender.encode(h, r) for r in records]
    return messages


class TestForwarding:
    def test_verbatim_forwarding(self):
        messages = upstream_with([{"unit": 1, "temperature": 500.0}])
        relay = Relay()
        pipe = InMemoryPipe()
        relay.attach(pipe.a)
        for m in messages:
            relay.forward(m)
        assert pipe.b.recv() == bytes(messages[0])
        assert pipe.b.recv() == bytes(messages[1])  # bit-identical, no re-encode

    def test_downstream_decodes_on_its_own_machine(self):
        messages = upstream_with([{"unit": 2, "temperature": 450.5}])
        relay = Relay()
        pipe = InMemoryPipe()
        relay.attach(pipe.a)
        for m in messages:
            relay.forward(m)
        rx = PbioConnection(IOContext(X86), pipe.b)
        rx.ctx.expect(TELEMETRY)
        assert rx.recv() == {"unit": 2, "temperature": 450.5}

    def test_fan_out_to_multiple_downstreams(self):
        messages = upstream_with([{"unit": 1, "temperature": 1.0}] * 3)
        relay = Relay()
        pipes = [InMemoryPipe() for _ in range(3)]
        for pipe in pipes:
            relay.attach(pipe.a)
        for m in messages:
            relay.forward(m)
        for pipe in pipes:
            assert pipe.b.pending() == 4  # announcement + 3 records

    def test_relay_never_decodes(self):
        messages = upstream_with([{"unit": 1, "temperature": 1.0}])
        relay = Relay()
        relay.attach(InMemoryPipe().a)
        for m in messages:
            relay.forward(m)
        assert relay.ctx.stats.converted_decodes == 0
        assert relay.ctx.stats.zero_copy_decodes == 0


class TestFilteredDownstreams:
    def test_filter_splits_stream(self):
        records = [{"unit": i, "temperature": t} for i, t in enumerate((100.0, 800.0, 900.0))]
        messages = upstream_with(records)
        relay = Relay()
        all_pipe, hot_pipe = InMemoryPipe(), InMemoryPipe()
        relay.attach(all_pipe.a)
        hot = relay.attach(
            hot_pipe.a, format_name="telemetry", filter_expr="temperature > 700.0"
        )
        for m in messages:
            relay.forward(m)
        assert all_pipe.b.pending() == 4
        assert hot_pipe.b.pending() == 3  # announcement + 2 hot records
        assert hot.stats.forwarded == 2 and hot.stats.filtered_out == 1
        rx = PbioConnection(IOContext(X86), hot_pipe.b)
        rx.ctx.expect(TELEMETRY)
        assert rx.recv()["temperature"] == 800.0

    def test_filter_requires_format_name(self):
        relay = Relay()
        with pytest.raises(ValueError):
            relay.attach(InMemoryPipe().a, filter_expr="x > 1")


class TestLateAttach:
    def test_announcements_replayed(self):
        messages = upstream_with([{"unit": 1, "temperature": 2.0}])
        relay = Relay()
        for m in messages:
            relay.forward(m)  # nobody attached yet
        pipe = InMemoryPipe()
        downstream = relay.attach(pipe.a)
        assert downstream.stats.announcements == 1
        # The late downstream can decode subsequent records.
        sender = IOContext(SPARC_V8)
        h = sender.register_format(TELEMETRY)
        relay.forward(sender.announce(h))
        relay.forward(sender.encode(h, {"unit": 9, "temperature": 3.0}))
        rx = PbioConnection(IOContext(X86), pipe.b)
        rx.ctx.expect(TELEMETRY)
        assert rx.recv() == {"unit": 9, "temperature": 3.0}

    def test_pump_from_transport(self):
        messages = upstream_with([{"unit": 5, "temperature": 7.0}])
        up = InMemoryPipe()
        for m in messages:
            up.a.send(m)
        relay = Relay()
        down = InMemoryPipe()
        relay.attach(down.a)
        relay.pump(up.b, count=2)
        assert relay.messages_seen == 1
        assert down.b.pending() == 2


class _Recording(InMemoryPipe):
    """A pipe whose sending end counts vectored and scalar sends."""

    def __init__(self):
        super().__init__()
        self.calls = {"send": 0, "send_many": 0}
        for name in self.calls:
            self._count(name)

    def _count(self, name):
        inner = getattr(self.a, name)

        def counted(arg):
            self.calls[name] += 1
            return inner(arg)

        setattr(self.a, name, counted)


class TestSequencedBatch:
    """forward_batch treats a run of sequenced frames like a data run."""

    def _stream(self):
        from repro.core import encoder as enc

        sender = IOContext(SPARC_V8, context_id=0xA11CE)
        h = sender.register_format(TELEMETRY)
        cid, fid = sender.context_id, h.format_id

        def seq_frame(seq, unit, temperature):
            native = h.codec.encode({"unit": unit, "temperature": temperature})
            return enc.encode_data_seq(cid, fid, seq, native)

        good = [seq_frame(s, s, 100.0 * s) for s in range(1, 9)]
        torn = good[2][:-3]
        zero = bytearray(good[3])
        zero[enc.HEADER_SIZE : enc.SEQ_RECORD_OFFSET] = bytes(enc.SEQ_PREFIX_SIZE)
        other = enc.encode_data_seq(cid, fid + 1, 1, b"opaque to the relay")
        plain = sender.encode(h, {"unit": 99, "temperature": 999.0})
        return [
            sender.announce(h), *good[:4], torn, plain, bytes(zero), other,
            memoryview(good[4]), *good[5:], good[0],  # a leased view, a duplicate
        ]  # fmt: skip

    def _relay(self):
        relay = Relay(replay_window=4)
        pipes = [_Recording(), _Recording()]
        relay.attach(pipes[0].a)
        relay.attach(pipes[1].a, format_name="telemetry", filter_expr="temperature > 350.0")
        return relay, pipes

    def test_matches_the_scalar_loop_and_vectors_the_sends(self):
        frames = self._stream()
        scalar, scalar_pipes = self._relay()
        for frame in frames:
            scalar.forward(frame)
        batch, batch_pipes = self._relay()
        batch.forward_batch(frames)

        def received(pipe):
            return [pipe.b.recv() for _ in range(pipe.b.pending())]

        for a, b in zip(scalar_pipes, batch_pipes):
            assert received(a) == received(b)
        assert batch._replay == scalar._replay
        assert all(len(w) <= 4 for w in batch._replay.values())
        assert batch.messages_seen == scalar.messages_seen == 11
        assert batch.metrics.counters() == scalar.metrics.counters()
        assert batch.metrics.value("relay.rejected") == 2  # the torn frame, sequence 0
        for a, b in zip(scalar._downstreams, batch._downstreams):
            assert a.metrics.counters() == b.metrics.counters()
        assert batch._downstreams[1].stats.filtered_out > 0
        # the announcement goes out alone; everything behind it — rejects
        # do not break a run — is one send_many instead of a send per frame
        assert scalar_pipes[0].calls == {"send": 12, "send_many": 0}
        assert batch_pipes[0].calls == {"send": 1, "send_many": 1}
