"""Tests for the PBIO message relay."""

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, PbioConnection
from repro.core import encoder as enc
from repro.core.safety import DecodeLimits
from repro.net import FabricDispatcher, InMemoryPipe
from repro.net.relay import Relay

from .test_health import ChokedLink, FlakyLink

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

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


#: A predicate a record can fail: ``unit`` reads 0 in the second record below.
RATIO = "temperature / unit > 100.0"
RATIO_RECORDS = [{"unit": u, "temperature": 500.0 if u != 4 else 100.0} for u in (2, 0, 4, 1)]


class TestFilterErrors:
    @pytest.mark.parametrize("burst", [False, True], ids=["frames", "burst"])
    def test_a_record_its_filter_cannot_evaluate_is_withheld_from_that_downstream(self, burst):
        """A division by a field reading 0 is a ``filter_errors``, not an escape:
        the filtered peer misses that record alone (its run's siblings are
        still screened) and the plain peer gets every record."""
        messages = upstream_with(RATIO_RECORDS)
        relay = Relay()
        plain, ratio = InMemoryPipe(), InMemoryPipe()
        relay.attach(plain.a)
        screened = relay.attach(ratio.a, format_name="telemetry", filter_expr=RATIO)
        relay.forward(messages[0])
        if burst:
            relay.forward_batch(messages[1:])
        else:
            for message in messages[1:]:
                relay.forward(message)
        units = []
        for end in (plain.b, ratio.b):
            rx = PbioConnection(IOContext(X86), end)
            rx.ctx.expect(TELEMETRY)
            units.append([rx.recv()["unit"] for _ in range(end.pending() - 1)])
        assert units == [[2, 0, 4, 1], [2, 1]]
        counts = screened.metrics.counters()
        assert (counts["filter_errors"], counts["filtered_out"], counts["forwarded"]) == (1, 1, 2)
        assert screened.stats.filter_errors == 1


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
        relay.forward_batch(up.b.recv_many())
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


# -- a burst equals its frames -------------------------------------------------

LIMIT = 256  # DecodeLimits.max_message_size for the hubs below


def _frame_pool():
    """Everything an upstream can throw at a hub, over two streams."""
    frames = []
    streams = []
    for cid in (0xA11CE, 0xB0B0):  # the ring puts these on different workers
        sender = IOContext(SPARC_V8, context_id=cid)
        h = sender.register_format(TELEMETRY)
        streams.append((cid, h.format_id))
        native = [
            h.codec.encode({"unit": u, "temperature": t})
            for u, t in enumerate((100.0, 400.0, 900.0))
        ]
        frames.append(sender.announce(h))
        frames.append(enc.encode_token_message(cid, h.format_id + 7, b"f" * 20, 77))
        frames += [enc.encode_data_message(cid, h.format_id, n) for n in native]
        frames += [
            enc.encode_data_seq(cid, h.format_id, seq, native[seq % 3]) for seq in range(1, 7)
        ]
    (cid, fid), plain, sequenced = streams[0], frames[2], frames[5]
    zero = bytearray(sequenced)
    zero[enc.HEADER_SIZE : enc.SEQ_RECORD_OFFSET] = bytes(enc.SEQ_PREFIX_SIZE)
    frames += [
        bytes(zero),  # sequence 0
        plain[:-3],  # torn
        plain + b"pad",  # header contradicts length
        sequenced[: enc.HEADER_SIZE + 5],  # torn inside the sequence prefix
        enc.encode_data_message(cid, fid, b"x" * LIMIT),  # oversize data
        enc.encode_data_seq(cid, fid, 9, b"x" * LIMIT),
        enc.pack_header(enc.MSG_FORMAT, cid, fid + 9, LIMIT) + b"m" * LIMIT,  # … meta
        enc.pack_header(enc.MSG_FORMAT, cid, fid + 9, 8) + b"not meta",  # malformed meta
        enc.encode_data_message(cid, fid + 1, b"a stream nobody announced"),
        enc.encode_ping(3),
        enc.encode_pong(3),
        enc.encode_ack(cid, fid, 2),
        enc.encode_format_request(cid, b"f" * 20),
        b"not a pbio frame at all",
        b"",
        memoryview(frames[3]),  # a leased view
    ]
    return streams, frames


STREAMS, FRAME_POOL = _frame_pool()
SETUP = enc.encode_token_message(*STREAMS[0], b"s" * 20, 1)  # trips the flaky link


class _Hub:
    """A relay or a two-worker fabric behind one face: the same four
    downstreams (plain, filtered, quarantined, choked — its write queue
    full from the first frame on), and one snapshot of everything
    observable."""

    OPTIONS = dict(
        limits=DecodeLimits(max_message_size=LIMIT),
        quarantine_after=1,
        replay_window=4,
    )

    def __init__(self, kind):
        self.pipes = [InMemoryPipe() for _ in range(4)]
        plain, filtered, quarantined, choked = (pipe.a for pipe in self.pipes)
        self.flaky, self.choked = FlakyLink(quarantined), ChokedLink(choked)
        links = [
            (STREAMS[0], plain, {}),
            (STREAMS[0], filtered, dict(format_name="telemetry", filter_expr="temperature > 350.0")),
            (STREAMS[0], self.flaky, {}),
            (STREAMS[1], self.choked, {}),
        ]  # fmt: skip
        if kind == "relay":
            self.hub = Relay(**self.OPTIONS)
            self.fronts = []
            handles = [self.hub.attach(link, **how) for _key, link, how in links]
        else:
            self.hub = FabricDispatcher(2, **self.OPTIONS)
            self.fronts = [self.hub, *self.hub.workers]
            handles = [
                self.hub.subscribe(key, link, **how).downstream for key, link, how in links
            ]
        self.flaky.broken = True
        self.hub.forward(SETUP)
        self.flaky.broken = False
        self.choked.full = True
        self.downstreams = handles
        assert [d.quarantined for d in handles] == [False, False, True, False]

    def relays(self):
        if not self.fronts:
            return [self.hub]
        return [
            relay for worker in self.hub.workers for _key, relay in sorted(worker._relays.items())
        ]

    def snapshot(self):
        return {
            "received": [[p.b.recv() for _ in range(p.b.pending())] for p in self.pipes],
            "states": [(d.state, d.consecutive_errors) for d in self.downstreams],
            "downstream counters": [d.metrics.counters() for d in self.downstreams],
            "fronts": [(f.metrics.counters(), list(f._announcements)) for f in self.fronts],
            "relays": [
                (r.messages_seen, r.metrics.counters(), r._replay, list(r._announcements))
                for r in self.relays()
            ],
        }


@pytest.mark.parametrize("kind", ["relay", "fabric"])
@seed(CHAOS_SEED)
@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.sampled_from(FRAME_POOL), max_size=48), burst_at=st.integers(0, 48))
def test_a_burst_equals_its_frames(kind, frames, burst_at):
    """``forward_batch(frames)`` and ``for f in frames: forward(f)`` are
    indistinguishable from outside: per-downstream byte streams in
    order, quarantine states, replay windows, announcement backlogs,
    ``messages_seen`` and every counter at every level.  The choked
    link's first send — before the burst or inside it — raises
    ``WriteQueueFull``, which quarantines it in both spellings alike."""
    scalar, batch = _Hub(kind), _Hub(kind)
    for hub in (scalar, batch):
        for frame in frames[:burst_at]:
            hub.hub.forward(frame)
    for frame in frames[burst_at:]:
        scalar.hub.forward(frame)
    batch.hub.forward_batch(frames[burst_at:])
    assert batch.snapshot() == scalar.snapshot()
