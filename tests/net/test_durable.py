"""The durable delivery plane: sequenced frames, WAL, ack-cursor resume.

The headline property (seeded hypothesis) is the crash contract: kill
-9 any process at any frame boundary — publisher, subscriber, or the
frames in flight between them — and after recovery the subscriber has
observed every acknowledged record exactly once, in order.  "Crash" is
simulated the honest way: the in-memory objects are discarded without
any goodbye and rebuilt purely from their durable files.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abi import X86, CType, FieldDecl, RecordSchema
from repro.core import IOContext, PbioError
from repro.core import encoder as enc
from repro.net import (
    AckCursorStore,
    DurablePublisher,
    DurableSubscription,
    EventChannel,
    InMemoryPipe,
    PublisherWAL,
    Relay,
    SequenceWindow,
)

POINT = RecordSchema("point", [FieldDecl("x", CType.INT), FieldDecl("y", CType.DOUBLE)])
PUB_CONTEXT_ID = 0xD00D


def make_publisher(channel, wal_dir, **kw):
    """A publisher with a *stable* context id — the restart contract."""
    ctx = IOContext(X86, context_id=PUB_CONTEXT_ID)
    handle = ctx.register_format(POINT)
    return DurablePublisher(channel, ctx, wal_dir=wal_dir, **kw), handle


def sub_context():
    ctx = IOContext(X86)
    ctx.expect(POINT)
    return ctx


class TestWireTypes:
    def test_data_seq_round_trip(self):
        msg = enc.encode_data_seq(7, 3, 42, b"payload")
        cid, fid, seq, record = enc.parse_data_seq(msg)
        assert (cid, fid, seq, bytes(record)) == (7, 3, 42, b"payload")

    def test_seq_zero_rejected(self):
        with pytest.raises(PbioError):
            enc.encode_data_seq(1, 1, 0, b"x")

    def test_a_run_takes_any_bytes_like_native_and_is_its_messages(self):
        """``data_frames`` with a sequence is header + seq + ``bytes(native)`` per
        record, as the parent's per-record encoder built it, whatever buffer
        the native is (an ndarray would take ``+`` for itself)."""
        np = pytest.importorskip("numpy")
        raw = [b"", b"first", b"second record", b"\x00" * 9]
        kinds = (bytes, bytearray, memoryview, lambda b: np.frombuffer(b, dtype=np.uint8))
        run = enc.data_frames(7, 3, [kind(b) for kind, b in zip(kinds, raw)], 40)
        for k, (message, native) in enumerate(zip(run, raw)):
            header = enc.pack_header(enc.MSG_DATA_SEQ, 7, 3, enc.SEQ_PREFIX_SIZE + len(native))
            assert type(message) is bytes
            assert message == header + (40 + k).to_bytes(8, "big") + native
            assert message == enc.encode_data_seq(7, 3, 40 + k, native)
        with pytest.raises(PbioError):
            enc.data_frames(1, 1, raw, 0)

    def test_parse_rejects_short_payload(self):
        msg = bytearray(enc.encode_data_seq(1, 1, 5, b"abc"))
        with pytest.raises(PbioError):
            enc.parse_data_seq(bytes(msg[: enc.HEADER_SIZE + 4]))

    def test_open_data_reads_seq_frame_in_place(self):
        """A sequenced frame is a data frame whose record starts 8 bytes
        later: same format, a payload viewing the frame itself (nothing
        re-headered), and the strict prefix checks still in force."""
        tx = IOContext(X86, context_id=7)
        handle = tx.register_format(POINT)
        rx = sub_context()
        rx.receive(tx.announce(handle))
        native = handle.codec.encode({"x": 5, "y": 2.5})
        frame = bytearray(enc.encode_data_seq(7, handle.format_id, 42, native))
        for header in (None, enc.try_unpack_header(frame)):
            fmt, payload = rx.pipeline.open_data(frame, header=header)
            assert fmt.name == "point"
            assert payload.obj is frame and bytes(payload) == native
        assert rx.decode(frame) == rx.decode(tx.encode_native(handle, native))
        assert enc.read_seq(frame, len(frame) - enc.HEADER_SIZE) == 42
        rejected = rx.pipeline.metrics.value("decode.rejected")
        torn = frame[:-1]
        zero = bytearray(frame)
        zero[enc.HEADER_SIZE : enc.SEQ_RECORD_OFFSET] = bytes(enc.SEQ_PREFIX_SIZE)
        short = enc.pack_header(enc.MSG_DATA_SEQ, 7, handle.format_id, 4) + b"abcd"
        for bad in (torn, zero, short):
            with pytest.raises(PbioError):
                rx.pipeline.open_data(bad)
            assert rx.pipeline.decode_batch([bad], on_error="skip") == [None]
        assert rx.pipeline.metrics.value("decode.rejected") == rejected + 6

    def test_ack_round_trip(self):
        msg = enc.encode_ack(7, 3, 100, nack_base=101, nack_bits=0b101)
        assert len(msg) == enc.HEADER_SIZE + enc.ACK_PAYLOAD_SIZE
        assert enc.parse_ack(msg) == (7, 3, 100, 101, 0b101)

    def test_ack_strict_size(self):
        msg = enc.encode_ack(1, 1, 5)
        with pytest.raises(PbioError):
            enc.parse_ack(msg[:-1] )


class TestAckCursorStore:
    def test_memory_only(self):
        store = AckCursorStore(None)
        assert store.cursor((1, 1)) == 0
        assert store.advance((1, 1), 5)
        assert not store.advance((1, 1), 5)  # not ahead
        assert not store.advance((1, 1), 3)  # never regress
        assert store.cursor((1, 1)) == 5

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "cursors")
        with AckCursorStore(path) as store:
            store.advance((1, 1), 5)
            store.advance((2, 9), 7)
            store.advance((1, 1), 6)
        with AckCursorStore(path) as store:
            assert store.cursor((1, 1)) == 6
            assert store.cursor((2, 9)) == 7

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "cursors")
        with AckCursorStore(path) as store:
            store.advance((1, 1), 5)
            store.advance((1, 1), 6)
        with open(path, "r+b") as stream:
            stream.seek(0, os.SEEK_END)
            stream.truncate(stream.tell() - 3)
        with AckCursorStore(path) as store:
            assert store.cursor((1, 1)) == 5  # the torn entry is gone
            assert store.metrics.value("durable.wal_torn") == 1
            store.advance((1, 1), 9)  # and appending again works
        with AckCursorStore(path) as store:
            assert store.cursor((1, 1)) == 9

    def test_compaction_rewrite_preserves_cursors(self, tmp_path):
        path = str(tmp_path / "cursors")
        with AckCursorStore(path) as store:
            for cursor in range(1, 200):
                store.advance((1, 1), cursor)
            size = os.path.getsize(path)
        # One live stream, ~199 appends: the periodic rewrite must have
        # fired, keeping the file well under the full append history
        # (28 bytes per framed entry).
        assert size < 199 * 28 // 2
        with AckCursorStore(path) as store:
            assert store.cursor((1, 1)) == 199


class TestPublisherWAL:
    def _msg(self, seq, payload=b"data"):
        return enc.encode_data_seq(1, 1, seq, payload)

    def test_sequencing_enforced(self, tmp_path):
        with PublisherWAL(str(tmp_path / "wal")) as wal:
            assert wal.next_seq((1, 1)) == 1
            assert wal.append(self._msg(1)) == 1
            with pytest.raises(PbioError):
                wal.append(self._msg(3))  # gap
            with pytest.raises(PbioError):
                wal.append(self._msg(1))  # replay
            assert wal.append(self._msg(2)) == 2

    def test_recovery_restores_backlog_and_next_seq(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with PublisherWAL(wal_dir) as wal:
            for seq in range(1, 6):
                wal.append(self._msg(seq))
            wal.ack((1, 1), 3)
        with PublisherWAL(wal_dir) as wal:
            assert wal.next_seq((1, 1)) == 6
            assert [enc.parse_data_seq(m)[2] for m in wal.unacked()] == [4, 5]

    def test_ack_releases_and_is_cumulative(self, tmp_path):
        with PublisherWAL(str(tmp_path / "wal")) as wal:
            for seq in range(1, 6):
                wal.append(self._msg(seq))
            assert wal.ack((1, 1), 3) == 3
            assert wal.ack((1, 1), 2) == 0  # regression ignored
            assert wal.unacked_count == 2

    def test_rotation_and_compaction(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with PublisherWAL(wal_dir, segment_bytes=4096) as wal:
            for seq in range(1, 301):
                wal.append(self._msg(seq, b"x" * 64))
            assert wal.segment_count > 1
            before = wal.segment_count
            wal.ack((1, 1), 300)
            assert wal.segment_count < before
            assert wal.metrics.value("durable.segments_compacted") > 0
            assert sorted(os.listdir(wal_dir)) == sorted(
                [os.path.basename(p) for p, _ in wal._segments] + ["acked.cursors"]
            )

    def test_announcements_survive_rotation_and_recovery(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        announcement = enc.pack_header(enc.MSG_FORMAT, 1, 1, 4) + b"meta"
        with PublisherWAL(wal_dir, segment_bytes=4096) as wal:
            wal.announce(announcement)
            wal.announce(announcement)  # idempotent
            for seq in range(1, 301):
                wal.append(self._msg(seq, b"x" * 64))
            wal.ack((1, 1), 250)  # compacts the early segments away
        with PublisherWAL(wal_dir, segment_bytes=4096) as wal:
            backlog = wal.unacked()
            # The announcement leads the retransmission set even though
            # its original segment was compacted (it was re-journaled).
            assert backlog[0] == announcement
            assert [enc.parse_data_seq(m)[2] for m in backlog[1:]] == list(range(251, 301))

    def test_torn_tail_on_recovery(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with PublisherWAL(wal_dir) as wal:
            for seq in range(1, 4):
                wal.append(self._msg(seq))
        seg = os.path.join(wal_dir, "wal-00000001.seg")
        with open(seg, "r+b") as stream:
            stream.seek(0, os.SEEK_END)
            stream.truncate(stream.tell() - 5)
        with PublisherWAL(wal_dir) as wal:
            assert wal.metrics.value("durable.wal_torn") == 1
            assert wal.next_seq((1, 1)) == 3  # the torn record never happened
            assert wal.append(self._msg(3)) == 3

    @pytest.mark.parametrize("leftover", [0, 5, 12, 40])
    def test_kill_while_creating_a_segment_keeps_the_backlog(
        self, tmp_path, monkeypatch, leftover
    ):
        """A segment appears only by atomic replace, header included: a
        publisher killed mid-rotation leaves at most a ``.seg.tmp`` (of
        any length), which is not a segment, and the directory reopens
        with its full backlog."""
        wal_dir = str(tmp_path / "wal")
        wal = PublisherWAL(wal_dir, segment_bytes=4096)
        for seq in (1, 2):
            wal.append(self._msg(seq, b"x" * 2048))  # the next append rotates

        def killed(src, dst):
            with open(src, "r+b") as stream:
                stream.truncate(leftover)
            raise OSError("kill -9 before the replace")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError):
            wal.append(self._msg(3))  # dies creating wal-00000002.seg
        monkeypatch.undo()
        assert sorted(os.listdir(wal_dir)) == [
            "acked.cursors", "wal-00000001.seg", "wal-00000002.seg.tmp"
        ]
        with PublisherWAL(wal_dir, segment_bytes=4096) as wal:
            assert wal.segment_count == 1
            assert [enc.parse_data_seq(m)[2] for m in wal.unacked()] == [1, 2]
            assert wal.append(self._msg(3)) == 3  # rotation now succeeds,
        assert "wal-00000002.seg" in os.listdir(wal_dir)  # over the leftover

    def test_short_header_on_an_existing_segment_still_raises(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with PublisherWAL(wal_dir) as wal:
            wal.append(self._msg(1))
        open(os.path.join(wal_dir, "wal-00000002.seg"), "wb").close()
        with pytest.raises(PbioError, match="truncated header"):
            PublisherWAL(wal_dir)

    def test_memory_only_mode(self):
        with PublisherWAL(None) as wal:
            wal.append(self._msg(1))
            assert wal.unacked_count == 1
            wal.ack((1, 1), 1)
            assert wal.unacked_count == 0


class TestSequenceWindow:
    def test_in_order_flow(self):
        win = SequenceWindow()
        key = (1, 1)
        assert win.offer(key, 1, "a") == "ready"
        assert win.next_ready(key) == (1, "a")
        win.commit(key, 1)
        assert win.cursor(key) == 1
        assert win.next_ready(key) is None

    def test_duplicate_and_reorder(self):
        win = SequenceWindow()
        key = (1, 1)
        assert win.offer(key, 2, "b") == "buffered"
        assert win.offer(key, 2, "b") == "duplicate"
        assert win.offer(key, 1, "a") == "ready"
        win.commit(key, 1)
        win.commit(key, 2)
        assert win.offer(key, 1, "a") == "duplicate"
        assert win.metrics.value("durable.duplicates_dropped") == 2
        assert win.metrics.value("durable.reordered") == 1

    def test_window_refusal(self):
        win = SequenceWindow(window=4)
        key = (1, 1)
        assert win.offer(key, 5, "e") == "refused"  # 5 - 0 > 4
        assert win.offer(key, 4, "d") == "buffered"

    def test_missing_bitmap(self):
        win = SequenceWindow()
        key = (1, 1)
        win.offer(key, 2, "b")
        win.offer(key, 4, "d")
        base, bits = win.missing(key)
        assert base == 1
        assert bits == 0b101  # 1 and 3 absent, 2 and 4 held

    def test_commit_must_be_contiguous(self):
        win = SequenceWindow()
        win.offer((1, 1), 2, "b")
        with pytest.raises(PbioError):
            win.commit((1, 1), 2)

    def test_seed_resume(self):
        win = SequenceWindow()
        win.seed((1, 1), 10)
        assert win.offer((1, 1), 10, "old") == "duplicate"
        assert win.offer((1, 1), 11, "new") == "ready"


class TestDurableRoundTrip:
    def test_exactly_once_in_order(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        sub_ctx = sub_context()
        sub = channel.subscribe_durable(
            sub_ctx, lambda r: got.append(r["x"]), cursor_path=str(tmp_path / "cursors")
        )
        for i in range(5):
            pub.publish(handle, {"x": i, "y": i * 0.5})
        assert got == list(range(5))
        assert pub.unacked_count == 0  # acks flowed back in-process
        assert pub.stats.acked == 5
        # A full backlog resend is absorbed by the dedup window.
        pub.resend_unacked()
        assert got == list(range(5))
        pub.close()
        sub.close()

    def test_resends_do_not_grow_the_announcement_replay(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        pub.publish(handle, {"x": 0, "y": 0.0})  # nobody listening: stays unacked
        for _ in range(5):
            pub.resend_unacked()  # each one republishes the WAL's announcement first
        wired = []
        channel.attach_wire(wired.append)
        assert [enc.try_message_type(m) for m in wired] == [enc.MSG_FORMAT]
        late = sub_context()
        seen = []
        receive = late.receive
        late.receive = lambda m: (seen.append(enc.try_message_type(m)), receive(m))[1]
        got = []
        channel.subscribe(late, lambda r: got.append(r["x"]))
        assert seen == [enc.MSG_FORMAT]  # one replayed announcement per late joiner
        pub.resend_unacked()
        assert got == [0]  # and it was enough to decode the retransmission
        pub.close()

    def test_token_fallback_still_withdraws_the_token(self, tmp_path):
        from repro.fmtserv import FormatServer

        from ..fmtserv.test_negotiation import make_service

        channel = EventChannel(format_service=make_service(FormatServer()))
        # a subscriber on its own cold, offline service cannot resolve tokens
        stubborn = IOContext(X86, format_service=make_service())
        stubborn.expect(POINT)
        got = []
        channel.subscribe(stubborn, lambda r: got.append(r["x"]))
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        pub.publish(handle, {"x": 1, "y": 0.0})
        pub.resend_unacked()
        assert got == [1, 1]  # a plain subscriber has no dedup window
        assert [enc.try_message_type(a) for a in channel._announcements] == [enc.MSG_FORMAT]
        pub.close()

    def test_plain_subscriber_sees_sequenced_stream(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        channel.subscribe(sub_context(), lambda r: got.append(r["x"]))
        pub.publish(handle, {"x": 7, "y": 0.0})
        assert got == [7]  # sequencing stripped, no durability semantics
        pub.close()

    @pytest.mark.parametrize("filter_expr", [None, "x >= 0"])
    def test_plain_subscriber_counts_damaged_sequenced_frame(self, filter_expr):
        """A zero-sequence frame is damage whichever stage meets it
        first — the filter or the decode — on both ingest paths."""
        tx = IOContext(X86, context_id=PUB_CONTEXT_ID)
        handle = tx.register_format(POINT)
        native = handle.codec.encode({"x": 1, "y": 0.0})
        good = enc.encode_data_seq(PUB_CONTEXT_ID, handle.format_id, 1, native)
        zero = bytearray(good)
        zero[enc.HEADER_SIZE : enc.SEQ_RECORD_OFFSET] = bytes(enc.SEQ_PREFIX_SIZE)
        channel = EventChannel()
        got = []
        sub = channel.subscribe(
            sub_context(),
            lambda r: got.append(r["x"]),
            format_name="point" if filter_expr else None,
            filter_expr=filter_expr,
            on_error="suppress",
        )
        channel.ingest(tx.announce(handle))
        channel.ingest(bytes(zero))
        assert sub.metrics.value("decode_errors") == 1
        channel.ingest_many([good, bytes(zero), good])
        assert sub.metrics.value("decode_errors") == 2
        assert got == [1, 1]

    def test_subscriber_restart_resumes_from_cursor(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        cursor_path = str(tmp_path / "cursors")
        got = []
        sub = channel.subscribe_durable(
            sub_context(), lambda r: got.append(r["x"]), cursor_path=cursor_path
        )
        for i in range(3):
            pub.publish(handle, {"x": i, "y": 0.0})
        # Crash: discard without goodbye, rebuild from the cursor file.
        channel.unsubscribe(sub)
        got2 = []
        sub2 = channel.subscribe_durable(
            sub_context(), lambda r: got2.append(r["x"]), cursor_path=cursor_path
        )
        pub.resend_unacked()  # nothing unacked — but belt and braces
        pub.publish(handle, {"x": 3, "y": 0.0})
        assert got2 == [3]  # records 0..2 were acked before the crash
        pub.close()
        sub2.close()

    def test_publisher_crash_restart_retransmits(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        channel = EventChannel()
        pub, handle = make_publisher(channel, wal_dir)
        # No subscriber attached: these frames are lost in flight.
        for i in range(3):
            pub.publish(handle, {"x": i, "y": 0.0})
        assert pub.unacked_count == 3
        # Crash the publisher (no close), rebuild from the WAL alone.
        channel.remove_ack_listener(pub._on_ack)
        pub2, handle2 = make_publisher(channel, wal_dir)
        got = []
        sub = channel.subscribe_durable(
            sub_context(), lambda r: got.append(r["x"]), cursor_path=str(tmp_path / "c")
        )
        assert pub2.resend_unacked() == 3
        assert got == [0, 1, 2]
        assert pub2.unacked_count == 0
        # Sequencing continues where the dead incarnation stopped.
        pub2.publish(handle2, {"x": 3, "y": 0.0})
        assert got == [0, 1, 2, 3]
        pub2.close()
        sub.close()

    def test_handler_failure_redelivers_under_raise(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        fail = [True]

        def handler(record):
            if fail[0]:
                raise RuntimeError("transient")
            got.append(record["x"])

        sub = channel.subscribe_durable(
            sub_context(), handler, cursor_path=str(tmp_path / "c")
        )
        with pytest.raises(RuntimeError):
            pub.publish(handle, {"x": 0, "y": 0.0})
        assert got == []
        assert pub.unacked_count == 1  # not committed, not acked
        fail[0] = False
        pub.resend_unacked()  # retransmission delivers it — exactly once
        assert got == [0]
        assert pub.unacked_count == 0
        pub.close()
        sub.close()

    def test_gap_nack_triggers_selective_retransmit(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        sub = channel.subscribe_durable(sub_context(), lambda r: got.append(r["x"]))
        pub.publish(handle, {"x": 0, "y": 0.0})
        # Drop the next frame in flight by detaching the subscriber.
        channel.unsubscribe(sub)
        pub.publish(handle, {"x": 1, "y": 0.0})
        channel._attach(sub)
        pub.publish(handle, {"x": 2, "y": 0.0})
        # Frame 3 (seq) arrived out of order; the ack it provoked carried
        # a nack for seq 2, and the publisher re-sent it synchronously.
        assert got == [0, 1, 2]
        assert pub.stats.retransmitted >= 1
        assert sub.stats_durable.nacks_sent >= 1
        pub.close()
        sub.close()


class TestAckAdmission:
    """An ack for a sequence that was never journaled — or, at a relay,
    never forwarded — is refused and counted, and never persisted.  One
    such frame used to move the WAL's next sequence past every receiver's
    window for good, and through a relay to pin the upstream min-cursor so
    that every later real ack was swallowed."""

    BOGUS = 10**9

    def test_the_publisher_refuses_an_ack_past_its_journal(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        channel = EventChannel()
        pub, handle = make_publisher(channel, wal_dir)
        key = (PUB_CONTEXT_ID, handle.format_id)
        got = []
        sub = channel.subscribe_durable(sub_context(), lambda r: got.append(r["x"]), cursor_path=str(tmp_path / "c"))
        for i in range(3):
            pub.publish(handle, {"x": i, "y": 0.0})
        channel.route_ack(enc.encode_ack(*key, self.BOGUS))
        assert pub.stats.acks_rejected == 1 and pub.wal.next_seq(key) == 4
        for i in range(3, 6):
            pub.publish(handle, {"x": i, "y": 0.0})
        assert got == list(range(6)) and sub.metrics.value("durable.window_refused") == 0
        assert pub.unacked_count == 0
        pub.close()
        sub.close()
        with PublisherWAL(wal_dir) as wal:  # nothing bogus was persisted
            assert (wal.next_seq(key), wal.acked.cursor(key)) == (7, 6)

    def test_a_relay_refuses_an_ack_past_what_it_forwarded(self, tmp_path):
        source, sink = EventChannel(), EventChannel()
        relay = Relay(ack_upstream=source.route_ack)
        pipe = InMemoryPipe()
        relay.attach(pipe.a)
        source.attach_wire(relay.forward)
        pub, handle = make_publisher(source, str(tmp_path / "wal"))
        key = (PUB_CONTEXT_ID, handle.format_id)
        got = []
        sink.subscribe_durable(sub_context(), lambda r: got.append(r["x"]), ack_sink=pipe.b.send)

        def publish(xs):
            pub.publish_batch(handle, [{"x": x, "y": 0.0} for x in xs])
            sink.ingest_many(pipe.b.recv_many())
            relay.heal()

        publish(range(3))
        assert pub.unacked_count == 0
        pipe.b.send(enc.encode_ack(*key, self.BOGUS))  # past everything forwarded
        pipe.b.send(enc.encode_ack(key[0], key[1] + 1, 1))  # a stream never forwarded
        relay.heal()
        assert relay.metrics.value("durable.acks_rejected") == 2
        assert pub.stats.acks_rejected == 0  # it never got that far
        publish(range(3, 6))
        assert got == list(range(6))
        assert pub.unacked_count == 0  # the real ack still reaches the WAL
        assert pub.wal.acked.cursor(key) == 6
        pub.close()


class TestBatchPath:
    """The burst APIs: one journal write, one batch decode, one ack."""

    def test_publish_batch_round_trip(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        sub = channel.subscribe_durable(
            sub_context(),
            lambda r: got.append(r["x"]),
            cursor_path=str(tmp_path / "cursors"),
            on_error="suppress",  # the batched drain path
        )
        seqs = pub.publish_batch(handle, [{"x": i, "y": 0.0} for i in range(8)])
        assert seqs == list(range(1, 9))
        assert got == list(range(8))
        assert pub.unacked_count == 0
        assert pub.stats.journaled == 8
        # One ack per burst, not per record.
        assert sub.stats_durable.acks_sent == 1
        pub.close()
        sub.close()

    def test_batch_journal_recovers_after_crash(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        channel = EventChannel()
        pub, handle = make_publisher(channel, wal_dir)
        # No subscriber: the whole burst is lost in flight, and the
        # journal holds it as one container frame (split_wal_frame).
        pub.publish_batch(handle, [{"x": i, "y": 0.0} for i in range(6)])
        assert pub.unacked_count == 6
        channel.remove_ack_listener(pub._on_ack)
        pub2, handle2 = make_publisher(channel, wal_dir)
        assert pub2.unacked_count == 6  # recovered from the batch frame
        got = []
        sub = channel.subscribe_durable(
            sub_context(), lambda r: got.append(r["x"]), on_error="suppress"
        )
        assert pub2.resend_unacked() == 6
        assert got == list(range(6))
        # Sequencing continues across the batch boundary.
        assert pub2.publish_batch(handle2, [{"x": 6, "y": 0.0}]) == [7]
        assert got == list(range(7))
        pub2.close()
        sub.close()

    def test_batch_to_plain_subscriber_strips_sequencing(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        channel.subscribe(sub_context(), lambda r: got.append(r["x"]))
        pub.publish_batch(handle, [{"x": i, "y": 0.0} for i in range(4)])
        assert got == list(range(4))
        pub.close()

    def test_batch_drain_redelivers_across_gap(self, tmp_path):
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []
        sub = channel.subscribe_durable(
            sub_context(), lambda r: got.append(r["x"]), on_error="suppress"
        )
        pub.publish_batch(handle, [{"x": 0, "y": 0.0}])
        channel.unsubscribe(sub)
        pub.publish_batch(handle, [{"x": 1, "y": 0.0}])  # lost in flight
        channel._attach(sub)
        # The next burst arrives out of order; its ack nacks the gap and
        # the publisher's selective retransmit closes it synchronously.
        pub.publish_batch(handle, [{"x": 2, "y": 0.0}, {"x": 3, "y": 0.0}])
        assert got == [0, 1, 2, 3]
        assert pub.unacked_count == 0
        pub.close()
        sub.close()

    def test_detach_mid_burst_acks_only_the_delivered_prefix(self, tmp_path):
        """Regression: the batch drain committed and acked the whole ready
        run before delivering it, so a handler failing on record k left
        k+1..n acked and never delivered once the subscriber detached."""
        cursors = str(tmp_path / "cursors")
        channel = EventChannel()
        pub, handle = make_publisher(channel, str(tmp_path / "wal"))
        got = []

        def handler(record):
            if record["x"] == 2:
                raise RuntimeError("poison")
            got.append(record["x"])

        sub = channel.subscribe_durable(
            sub_context(), handler, cursor_path=cursors, on_error="detach"
        )
        key = (PUB_CONTEXT_ID, handle.format_id)
        pub.publish_batch(handle, [{"x": i, "y": 0.0} for i in range(6)])
        assert got == [0, 1]
        assert channel.subscriber_count == 0 and sub.stats.detached == 1
        # the failing record is consumed; the three behind it stay unacked
        assert sub.ack_cursor(key) == 3
        assert pub.unacked_count == 3
        sub.cursors.close()
        with AckCursorStore(cursors) as store:
            assert store.cursor(key) == 3  # persisted what was acked, no more
        # a replacement subscriber resumes exactly behind the poison record
        sub2 = channel.subscribe_durable(
            sub_context(), got.append, cursor_path=cursors, on_error="suppress"
        )
        assert pub.resend_unacked() == 3
        assert [r["x"] for r in got[2:]] == [3, 4, 5]
        assert pub.unacked_count == 0
        pub.close()
        sub2.close()

    def test_append_batch_rejects_gap(self, tmp_path):
        with PublisherWAL(str(tmp_path / "wal")) as wal:
            good = enc.encode_data_seq(1, 1, 1, b"a")
            skipped = enc.encode_data_seq(1, 1, 3, b"b")
            with pytest.raises(PbioError):
                wal.append_batch([good, skipped])


PAIR = RecordSchema("pair", [FieldDecl("x", CType.INT), FieldDecl("y", CType.DOUBLE)])
WINDOW = 8

ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from(
            ["next", "next", "run", "run", "dup", "swap", "skip", "fill", "far",
             "torn", "short", "plain", "announce", "cut"]
        ),  # fmt: skip
        st.integers(0, 1),  # which stream
        st.integers(2, 12),  # run length
    ),
    min_size=1,
    max_size=50,
)


class _Receiver:
    """One durable subscriber plus everything the equivalence compares."""

    def __init__(self, root, name, screen):
        self.records, self.acks = [], []
        self.cursor_path = os.path.join(root, name + ".cursors")
        ctx = IOContext(X86)
        ctx.expect(POINT)
        ctx.expect(PAIR)
        self.sub = DurableSubscription(
            EventChannel(),
            ctx,
            self._handle,
            cursor_path=self.cursor_path,
            on_error="suppress",
            window=WINDOW,
            ack_sink=self.acks.append,
            **screen,
        )

    def _handle(self, record):
        if record["x"] % 7 == 5:
            raise RuntimeError("a handler failure: consumed under suppress")
        self.records.append(record)

    def last_acks(self):
        """The burst's acks, collapsed to the last per stream — acks are
        cumulative, so the scalar path's ack-per-frame and the batch
        path's ack-per-burst must agree on exactly these."""
        last = {}
        for ack in self.acks:
            last[enc.parse_ack(ack)[:2]] = bytes(ack)
        del self.acks[:]
        return last

    def state(self, keys):
        window = self.sub.window
        return {
            "cursor": {k: window.cursor(k) for k in keys},
            "pending": {k: window.pending_count(k) for k in keys},
            "missing": {k: window.missing(k) for k in keys},
            "stored": self.sub.cursors.cursors(),
        }

    def counters(self):
        counters = self.sub.metrics.counters()
        # per drain on the scalar path, per burst on the batch path
        sent = [counters.pop(name, 0) for name in ("durable.acks_sent", "durable.nacks_sent")]
        return counters, sent


def _leased(frames):
    """``frames`` laid out in one receive buffer, as borrowed views."""
    buffer = bytearray(b"".join(frames))
    view, views, pos = memoryview(buffer), [], 0
    for frame in frames:
        views.append(view[pos : pos + len(frame)])
        pos += len(frame)
    return buffer, views


class TestBatchEquivalence:
    """Satellite of the run-granular window: whatever arrives, however it
    is cut into bursts, the batch path observes what the scalar
    reference loop observes."""

    @settings(max_examples=150, deadline=None)
    @given(
        arrivals=ARRIVALS,
        screen=st.sampled_from(
            [{}, {"format_name": "point"}, {"format_name": "point", "filter_expr": "x % 3 != 0"}]
        ),
    )
    def test_batch_path_matches_the_scalar_offer_loop(self, arrivals, screen):
        import tempfile

        tx = IOContext(X86, context_id=PUB_CONTEXT_ID)
        handles = [tx.register_format(POINT), tx.register_format(PAIR)]
        keys = [(PUB_CONTEXT_ID, h.format_id) for h in handles]
        counter = iter(range(1, 10_000))

        def seq_frame(stream, seq, keep=None):
            native = handles[stream].codec.encode({"x": next(counter), "y": seq + 0.5})
            fid = handles[stream].format_id
            return enc.encode_data_seq(PUB_CONTEXT_ID, fid, seq, native[:keep])

        # -- the arrival sequence, cut into bursts ----------------------------
        nxt, skipped = [1, 1], [[], []]
        bursts, burst = [], [tx.announce(handles[0])]  # stream 1 announces itself late, or never
        for op, stream, length in arrivals:
            n = nxt[stream]
            if op == "next" or op == "run":
                count = length if op == "run" else 1
                burst += [seq_frame(stream, n + i) for i in range(count)]
                nxt[stream] = n + count
            elif op == "dup" and n > 1:
                burst.append(seq_frame(stream, 1 + length % (n - 1)))
            elif op == "swap":
                burst += [seq_frame(stream, n + 1), seq_frame(stream, n)]
                nxt[stream] = n + 2
            elif op == "skip":  # a gap ...
                skipped[stream].append(n)
                nxt[stream] = n + 1
            elif op == "fill" and skipped[stream]:  # ... closed later
                burst.append(seq_frame(stream, skipped[stream].pop(0)))
            elif op == "far":  # beyond the reorder horizon
                burst.append(seq_frame(stream, n + WINDOW + length))
            elif op == "torn":
                burst.append(seq_frame(stream, n)[: -1 - length % 20])
            elif op == "short":  # well framed and in order, but not a whole record
                burst.append(seq_frame(stream, n, keep=-length))
                nxt[stream] = n + 1
            elif op == "plain":
                native = handles[stream].codec.encode({"x": next(counter), "y": 0.25})
                burst.append(tx.encode_native(handles[stream], native))
            elif op == "announce":
                burst.append(tx.announce(handles[stream]))
            elif op == "cut" and burst:
                bursts.append(burst)
                burst = []
        if burst:
            bursts.append(burst)

        with tempfile.TemporaryDirectory() as root:
            scalar = _Receiver(root, "scalar", screen)
            batch = _Receiver(root, "batch", screen)
            for burst in bursts:
                buffer, views = _leased(burst)
                for frame in views:
                    try:
                        scalar.sub._offer(frame)
                    except Exception:  # what EventChannel._deliver does under "suppress"
                        pass
                buffer[:] = b"\xee" * len(buffer)  # the lease is over
                buffer, views = _leased(burst)
                batch.sub._offer_batch(views, True, lease=object())
                buffer[:] = b"\xee" * len(buffer)

                assert batch.records == scalar.records
                assert batch.state(keys) == scalar.state(keys)
                assert batch.last_acks() == scalar.last_acks()
                (b_counters, b_sent), (s_counters, s_sent) = batch.counters(), scalar.counters()
                assert b_counters == s_counters
                assert all(b <= s for b, s in zip(b_sent, s_sent))
            for receiver in (scalar, batch):
                receiver.sub.close()
            with AckCursorStore(scalar.cursor_path) as a, AckCursorStore(batch.cursor_path) as b:
                assert a.cursors() == b.cursors() == scalar.state(keys)["stored"]


OPS = st.lists(
    st.sampled_from(["publish", "lose", "crash_pub", "crash_sub"]),
    min_size=1,
    max_size=40,
)


class TestCrashProperty:
    _example = 0  # tmp_path is reused across hypothesis examples

    # tmp_path reuse across examples is handled by the per-example
    # subdirectory below, so the function-scoped-fixture check is moot.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=OPS)
    def test_kill_minus_nine_anywhere_is_exactly_once_in_order(self, ops, tmp_path):
        """Crash any process at any frame boundary; acked records are
        observed exactly once, in order, after recovery."""
        TestCrashProperty._example += 1
        wal_dir = str(tmp_path / f"wal-{TestCrashProperty._example}")
        cursor_path = wal_dir + ".cursors"
        channel = EventChannel()
        pub, handle = make_publisher(channel, wal_dir)
        got = []

        def attach_subscriber():
            return channel.subscribe_durable(
                sub_context(), lambda r: got.append(r["x"]), cursor_path=cursor_path
            )

        sub = attach_subscriber()
        published = 0
        for op in ops:
            if op == "publish":
                pub.publish(handle, {"x": published, "y": 0.0})
                published += 1
            elif op == "lose":
                # In-flight loss: the frame leaves the WAL but no one
                # hears it (subscriber detached at send time).
                channel.unsubscribe(sub)
                pub.publish(handle, {"x": published, "y": 0.0})
                published += 1
                channel._attach(sub)
            elif op == "crash_pub":
                # kill -9: no close, no goodbye; recover from disk.
                channel.remove_ack_listener(pub._on_ack)
                pub, handle = make_publisher(channel, wal_dir)
                pub.resend_unacked()
            elif op == "crash_sub":
                channel.unsubscribe(sub)
                got_before_crash = len(got)
                sub = attach_subscriber()
                assert len(got) == got_before_crash
                pub.resend_unacked()
        # Quiesce: one final recovery pass flushes every gap.
        pub.resend_unacked()
        assert got == list(range(published)), (
            f"published {published}, observed {got}"
        )
        pub.close()
        sub.close()
