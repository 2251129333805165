"""Tests for the event channel (publish/subscribe over PBIO)."""

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.abi import ALPHA, SPARC_V8, X86, CType, FieldDecl, RecordSchema
from repro.core import IOContext
from repro.core import encoder as enc
from repro.core.errors import MessageError
from repro.core.safety import DecodeLimits
from repro.net import (
    DurableSubscription,
    EventChannel,
    FabricDispatcher,
    InMemoryPipe,
    Relay,
    Transport,
    TransportError,
    WriteQueueFull,
    shm_pair,
)

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)
STATUS = RecordSchema.from_pairs("status", [("job", "int"), ("done", "bool")])


def collector():
    records = []
    return records, records.append


class TestBasicPubSub:
    def test_single_publisher_single_subscriber(self):
        channel = EventChannel()
        got, handler = collector()
        sub_ctx = IOContext(SPARC_V8)
        sub_ctx.expect(TELEMETRY)
        channel.subscribe(sub_ctx, handler)
        pub = channel.publisher(IOContext(X86))
        h = pub.ctx.register_format(TELEMETRY)
        pub.publish(h, {"unit": 1, "temperature": 300.0})
        assert got == [{"unit": 1, "temperature": 300.0}]

    def test_heterogeneous_subscribers_each_decode_natively(self):
        channel = EventChannel()
        results = {}
        for machine in (X86, SPARC_V8, ALPHA):
            ctx = IOContext(machine)
            ctx.expect(TELEMETRY)
            records, handler = collector()
            results[machine.name] = (ctx, records)
            channel.subscribe(ctx, handler)
        pub = channel.publisher(IOContext(X86))
        h = pub.ctx.register_format(TELEMETRY)
        pub.publish(h, {"unit": 2, "temperature": 450.0})
        for name, (ctx, records) in results.items():
            assert records == [{"unit": 2, "temperature": 450.0}], name
        # The x86 subscriber shares the publisher's representation: zero-copy.
        assert results["i86"][0].stats.zero_copy_decodes == 1
        assert results["sparc"][0].stats.converted_decodes == 1

    def test_multiple_publishers(self):
        channel = EventChannel()
        got, handler = collector()
        sub = IOContext(X86)
        sub.expect(TELEMETRY)
        channel.subscribe(sub, handler)
        for machine in (X86, SPARC_V8):
            pub = channel.publisher(IOContext(machine))
            h = pub.ctx.register_format(TELEMETRY)
            pub.publish(h, {"unit": 9, "temperature": 1.0})
        assert len(got) == 2

    def test_unsubscribe_stops_delivery(self):
        channel = EventChannel()
        got, handler = collector()
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        sub = channel.subscribe(ctx, handler)
        pub = channel.publisher(IOContext(X86))
        h = pub.ctx.register_format(TELEMETRY)
        pub.publish(h, {"unit": 1, "temperature": 0.0})
        channel.unsubscribe(sub)
        pub.publish(h, {"unit": 2, "temperature": 0.0})
        assert len(got) == 1
        assert channel.subscriber_count == 0


class TestLateJoin:
    def test_late_subscriber_gets_replayed_announcements(self):
        channel = EventChannel()
        pub = channel.publisher(IOContext(SPARC_V8))
        h = pub.ctx.register_format(TELEMETRY)
        pub.publish(h, {"unit": 1, "temperature": 100.0})  # before anyone joins

        got, handler = collector()
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        channel.subscribe(ctx, handler)  # joins the ongoing stream
        pub.publish(h, {"unit": 2, "temperature": 200.0})
        # The late joiner missed the first record but decodes the second —
        # the announcement was replayed, no a priori knowledge needed.
        assert got == [{"unit": 2, "temperature": 200.0}]


class TestTypedSubscriptions:
    def test_format_name_scoping(self):
        channel = EventChannel()
        telemetry_got, telemetry_handler = collector()
        status_got, status_handler = collector()
        ctx1 = IOContext(X86)
        ctx1.expect(TELEMETRY)
        ctx2 = IOContext(X86)
        ctx2.expect(STATUS)
        sub1 = channel.subscribe(ctx1, telemetry_handler, format_name="telemetry")
        channel.subscribe(ctx2, status_handler, format_name="status")
        pub = channel.publisher(IOContext(SPARC_V8))
        ht = pub.ctx.register_format(TELEMETRY)
        hs = pub.ctx.register_format(STATUS)
        pub.publish(ht, {"unit": 1, "temperature": 1.0})
        pub.publish(hs, {"job": 7, "done": True})
        assert len(telemetry_got) == 1 and len(status_got) == 1
        assert sub1.stats.wrong_type == 1

    def test_filtered_subscription(self):
        channel = EventChannel()
        got, handler = collector()
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        sub = channel.subscribe(
            ctx, handler, format_name="telemetry", filter_expr="temperature > 500.0"
        )
        pub = channel.publisher(IOContext(SPARC_V8))
        h = pub.ctx.register_format(TELEMETRY)
        for temp in (100.0, 600.0, 300.0, 900.0):
            pub.publish(h, {"unit": 1, "temperature": temp})
        assert [r["temperature"] for r in got] == [600.0, 900.0]
        assert sub.stats.delivered == 2
        assert sub.stats.filtered_out == 2

    @pytest.mark.parametrize("burst", [False, True], ids=["frames", "burst"])
    def test_a_record_its_filter_cannot_evaluate_is_withheld_from_that_subscriber(self, burst):
        """A division by a field reading 0 under the ``"raise"`` policy: the
        record is counted ``filter_errors`` and withheld from the filtered
        subscriber alone; nothing escapes the channel, the rest of the run
        is screened, and a sibling gets every record."""
        channel = EventChannel()
        (got, handler), (every, sibling) = collector(), collector()
        ctxs = [IOContext(X86), IOContext(X86)]
        for ctx in ctxs:
            ctx.expect(TELEMETRY)
        sub = channel.subscribe(ctxs[0], handler, format_name="telemetry", filter_expr="temperature / unit > 100.0")
        channel.subscribe(ctxs[1], sibling)
        pub = channel.publisher(IOContext(SPARC_V8))
        h = pub.ctx.register_format(TELEMETRY)
        records = [{"unit": u, "temperature": 500.0 if u != 4 else 100.0} for u in (2, 0, 4, 1)]
        if burst:
            pub.publish_batch(h, records)
        else:
            for record in records:
                pub.publish(h, record)
        assert [r["unit"] for r in got] == [2, 1]
        assert [r["unit"] for r in every] == [2, 0, 4, 1]
        assert (sub.stats.delivered, sub.stats.filtered_out, sub.stats.filter_errors, sub.stats.decode_errors) == (2, 1, 1, 0)

    def test_filter_requires_format_name(self):
        channel = EventChannel()
        ctx = IOContext(X86)
        with pytest.raises(ValueError):
            channel.subscribe(ctx, lambda r: None, filter_expr="x > 1")

    def test_evolution_on_channel(self):
        # Upgraded publisher joins; old subscribers keep working.
        channel = EventChannel()
        got, handler = collector()
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        channel.subscribe(ctx, handler, format_name="telemetry")
        v2 = TELEMETRY.extended("telemetry", [FieldDecl("humidity", CType.DOUBLE)])
        pub = channel.publisher(IOContext(SPARC_V8))
        h = pub.ctx.register_format(v2)
        pub.publish(h, {"unit": 4, "temperature": 321.0, "humidity": 0.4})
        assert got == [{"unit": 4, "temperature": 321.0}]

    def test_messages_published_counter(self):
        channel = EventChannel()
        pub = channel.publisher(IOContext(X86))
        h = pub.ctx.register_format(TELEMETRY)
        pub.publish(h, {"unit": 1, "temperature": 0.0})
        pub.publish(h, {"unit": 2, "temperature": 0.0})
        assert channel.messages_published == 2  # announcements not counted


# -- a burst equals its frames -------------------------------------------------

LIMIT = 256  # the subscribers' DecodeLimits.max_message_size
POLICIES = ("raise", "suppress", "detach")
KINDS = ("view", "dict", "scoped", "filtered", "durable")
#: pipeline counters only the batch entry points keep, and the converter
#: cache's: it is consulted per group there, at the group's first frame
#: (valid or not), and per valid record on the scalar path
BATCH_ONLY = ("decode.batch.", "converter", "generation_time_s")


def _frame_pool():
    """Everything a wire can throw at a channel, over two streams: a
    converting one (sparc -> x86 telemetry) and a zero-copy one (x86 status)."""
    frames, streams = [], []
    telemetry = [{"unit": u, "temperature": t} for u, t in enumerate((100.0, 400.0, 900.0))]
    status = [{"job": j, "done": j % 2 == 0} for j in range(3)]
    for machine, cid, schema, records in (
        (SPARC_V8, 0xA11CE, TELEMETRY, telemetry),
        (X86, 0xB0B0, STATUS, status),
    ):
        sender = IOContext(machine, context_id=cid)
        h = sender.register_format(schema)
        streams.append((cid, h.format_id))
        natives = [h.codec.encode(r) for r in records]
        frames += [sender.announce(h), sender.announce(h)]  # and its repeat
        frames += [enc.encode_data_message(cid, h.format_id, n) for n in natives]
        frames += [enc.encode_data_seq(cid, h.format_id, s, natives[s % 3]) for s in range(1, 6)]
    (cid, fid), plain, sequenced = streams[0], frames[2], frames[5]
    zero = bytearray(sequenced)
    zero[enc.HEADER_SIZE : enc.SEQ_RECORD_OFFSET] = bytes(enc.SEQ_PREFIX_SIZE)
    frames += [
        bytes(zero),  # sequence 0
        plain[:-3],  # torn
        plain + b"pad",  # header contradicts length
        sequenced[: enc.HEADER_SIZE + 5],  # torn inside the sequence prefix
        enc.encode_data_message(cid, fid, b"x" * LIMIT),  # oversize
        enc.encode_data_message(cid, fid + 1, b"a stream nobody announced"),
        enc.encode_token_message(cid, fid + 7, b"f" * 20, 77),  # no service resolves it
        enc.encode_ack(cid, fid, 2),
        enc.encode_ping(3),
        enc.encode_format_request(cid, b"f" * 20),
        b"not a pbio frame at all",
        memoryview(frames[3]),  # a borrowed view
    ]
    return frames


FRAME_POOL = _frame_pool()


class _Burst:
    """One channel, the subscriber under test (failing on its ``fail_at``-th
    record), a bystander behind it, a wire tap and an ack listener — and
    everything the equivalence compares."""

    def __init__(self, kind, policy, fail_at):
        self.channel = EventChannel()
        self.delivered, self.calls, self.fail_at = [], 0, fail_at
        self.acks, self.wire, self.routed, self.behind = [], [], [], []
        self.ctx = IOContext(X86, limits=DecodeLimits(max_message_size=LIMIT))
        self.ctx.expect(TELEMETRY)
        self.ctx.expect(STATUS)
        screen = {}
        if kind in ("scoped", "filtered"):
            screen["format_name"] = "telemetry"
        if kind == "filtered":
            screen["filter_expr"] = "temperature > 350.0"
        if kind == "durable":
            self.sub = DurableSubscription(
                self.channel, self.ctx, self._handle, on_error=policy, window=4, ack_sink=self.acks.append
            )
        else:
            deliver = "view" if kind == "view" else "dict"
            self.sub = self.channel.subscribe(
                self.ctx, self._handle, on_error=policy, deliver=deliver, **screen
            )
        bystander = IOContext(X86)
        bystander.expect(TELEMETRY)
        bystander.expect(STATUS)
        self.channel.subscribe(bystander, self.behind.append, on_error="suppress")
        self.channel.attach_wire(lambda frame: self.wire.append(bytes(frame)))
        self.channel.add_ack_listener(self.routed.append)

    def _handle(self, record):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("the handler's own failure")
        self.delivered.append(dict(record.to_dict() if hasattr(record, "to_dict") else record))

    def run(self, ingest):
        try:
            ingest(self.channel)
        except Exception as exc:
            return type(exc)
        return None

    def subscriber_side(self):
        counters = self.sub.metrics.counters()
        # acks are cumulative: one per frame on the scalar path, one per burst here
        sent = {name: counters.pop(name, 0) for name in ("durable.acks_sent", "durable.nacks_sent")}
        last_acks = {enc.parse_ack(ack)[:2]: ack for ack in self.acks}
        attached = self.sub in self.channel._subscribers
        return self.delivered, counters, last_acks, attached, sent

    def pipeline_counters(self):
        return {
            name: value
            for name, value in self.ctx.metrics.counters().items()
            if not name.startswith(BATCH_ONLY)
        }

    def channel_side(self):
        channel = self.channel
        return (
            channel.messages_published,
            channel.metrics.counters(),
            list(channel._announcements),
            self.routed,
            self.wire,
            self.behind,
        )


@pytest.mark.parametrize(
    "kind,policy",
    # a durable subscriber's other two policies *are* the scalar loop
    [(k, p) for k in KINDS for p in POLICIES if k != "durable" or p == "suppress"],
)
@seed(CHAOS_SEED)
@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(st.sampled_from(FRAME_POOL), max_size=40),
    cut=st.integers(0, 40),
    fail_at=st.integers(0, 12),
)
def test_a_burst_equals_its_frames(kind, policy, frames, cut, fail_at):
    """``ingest_many(frames)`` and ``for f in frames: ingest(f)`` are
    indistinguishable to a subscriber: the records its handler gets and
    their order, the exception that escapes, every counter it keeps,
    whether it is still attached, its last ack per stream.  So are the
    channel's own side (``messages_published``, its counters, the
    announcement backlog, routed acks, the wire taps, a bystander
    subscribed behind) and the subscriber's pipeline counters — unless
    a failure cut the burst short (an exception escaped, or the
    subscriber was detached): the batch path works run by run, so by
    then it has published, fanned out and looked at frames behind the
    failure that the scalar loop never reached, and those compare
    ``>=``, never ``<``."""
    scalar, batch = _Burst(kind, policy, fail_at), _Burst(kind, policy, fail_at)
    for burst in (scalar, batch):  # a first part both take frame by frame
        burst.run(lambda ch: [ch.ingest(f) for f in frames[:cut]])
    rest = frames[cut:]
    escaped = scalar.run(lambda ch: [ch.ingest(f) for f in rest])
    assert batch.run(lambda ch: ch.ingest_many(rest)) == escaped
    s_side, b_side = scalar.subscriber_side(), batch.subscriber_side()
    assert b_side[:4] == s_side[:4]
    assert all(b_side[4][name] <= s_side[4][name] for name in s_side[4])
    cut_short = escaped is not None or not s_side[3]
    s_pipe, b_pipe = scalar.pipeline_counters(), batch.pipeline_counters()
    if not cut_short:
        assert b_pipe == s_pipe
        assert batch.channel_side() == scalar.channel_side()
    else:
        assert all(b_pipe.get(name, 0) >= value for name, value in s_pipe.items())
        assert batch.channel.messages_published >= scalar.channel.messages_published


@pytest.mark.parametrize("deliver", ["view", "dict"])
@pytest.mark.parametrize("policy", ["raise", "detach"])
def test_a_torn_frame_mid_burst_stops_where_the_scalar_loop_stops(policy, deliver):
    """``[r1, r2, torn r3, r4]``: the handler gets ``r1, r2``, then the
    torn frame raises (or detaches) — not *nothing*, which is what a
    batch decode that raises before any handler runs delivers."""
    sender = IOContext(X86)
    h = sender.register_format(TELEMETRY)
    records = [sender.encode(h, {"unit": u, "temperature": 1.0}) for u in range(1, 5)]
    records[2] = records[2][:-3]
    outcomes = []
    for ingest in (lambda ch: [ch.ingest(f) for f in records], lambda ch: ch.ingest_many(records)):
        channel, got = EventChannel(), []
        ctx = IOContext(X86)
        ctx.expect(TELEMETRY)
        sub = channel.subscribe(
            ctx, lambda r, got=got: got.append(r["unit"]), on_error=policy, deliver=deliver
        )
        channel.ingest(sender.announce(h))
        if policy == "raise":
            with pytest.raises(MessageError, match="payload length mismatch"):
                ingest(channel)
        else:
            ingest(channel)
        assert got == [1, 2]
        outcomes.append((sub.metrics.counters(), channel.subscriber_count))
    assert outcomes[0] == outcomes[1]
    counters, attached = outcomes[1]
    assert counters["delivered"] == 3 and counters["decode_errors"] == 1  # r4 never offered
    assert (counters.get("detached", 0), attached) == ((1, 0) if policy == "detach" else (0, 1))


OTHER = RecordSchema.from_pairs("other", [("unit", "int"), ("temperature", "double")])


def ingest_parses(monkeypatch, durable, mixed):
    """The header parses one 32-frame burst through ``ingest_many`` to one
    subscriber makes: one format, or two alternating."""
    sender = IOContext(X86, context_id=0xC0DE)
    h = sender.register_format(TELEMETRY)
    other = sender.register_format(OTHER)
    handles = [other if mixed and u % 2 else h for u in range(32)]
    seqs = {h.format_id: 0, other.format_id: 0}
    frames = []
    for u, handle in enumerate(handles):
        native = handle.codec.encode({"unit": u, "temperature": 2.0})
        seqs[handle.format_id] += 1
        if durable:
            frames.append(enc.encode_data_seq(0xC0DE, handle.format_id, seqs[handle.format_id], native))
        else:
            frames.append(sender.encode_native(handle, native))
    channel, got = EventChannel(), []
    ctx = IOContext(X86)
    ctx.expect(TELEMETRY)
    ctx.expect(OTHER)
    if durable:
        DurableSubscription(channel, ctx, lambda r: got.append(r["unit"]), on_error="suppress")
    else:
        channel.subscribe(ctx, lambda r: got.append(r["unit"]), deliver="view")
    channel.ingest(sender.announce(h))
    channel.ingest(sender.announce(other))

    parses = []

    def counting(parse):
        def counted(message, *args):
            parses.append(parse.__name__)
            return parse(message, *args)

        return counted

    monkeypatch.setattr(enc, "try_unpack_header", counting(enc.try_unpack_header))
    monkeypatch.setattr(enc, "unpack_header", counting(enc.unpack_header))
    channel.ingest_many(frames)
    assert got == list(range(32))
    return parses


@pytest.mark.parametrize("durable", [False, True])
def test_a_burst_is_scanned_once(monkeypatch, durable):
    """A 32-frame burst of one format and one length is one header parse,
    not 32 (the channel's scan a frame) nor 96 (channel, subscriber and
    pipeline each): its frames' first 16 bytes are equal."""
    assert ingest_parses(monkeypatch, durable, mixed=False) == ["try_unpack_header"]


@pytest.mark.parametrize("durable", [False, True])
def test_a_mixed_burst_parses_each_header_once(monkeypatch, durable):
    """A 32-frame burst of two formats parses each header once — the
    channel's scan — and nothing more."""
    assert ingest_parses(monkeypatch, durable, mixed=True) == ["try_unpack_header"] * 32


# -- a tap offered a run equals the tap offered its frames ----------------------

SINKS = ("lambda", "pipe", "shm", "relay", "fabric", "patched relay")
STREAMS = sorted(
    {h[1:3] for h in map(enc.try_unpack_header, FRAME_POOL) if h and h[0] in (enc.MSG_DATA, enc.MSG_DATA_SEQ)}
)
#: a wire's traffic: bursts (``ingest_many``) and single frames (``ingest``)
OPS = st.lists(
    st.one_of(st.sampled_from(FRAME_POOL), st.lists(st.sampled_from(FRAME_POOL), max_size=12)),
    max_size=12,
)


def _drain(end):
    frames = []
    while (frame := end.poll_recv()) is not None:
        frames.append(frame)
    return frames


def _offer(channel, ops):
    for op in ops:
        if isinstance(op, list):
            channel.ingest_many(op)
        else:
            channel.ingest(op)


class _Tapped:
    """One channel whose only tap is a sink of the given kind, attached by
    its bound method (``direct``: the tap is offered runs) or behind a
    lambda (the per-frame loop: the only path an opaque callable has)."""

    def __init__(self, kind, direct, directory):
        self.channel = EventChannel()
        self.ends, self.hub, self.closing = [], None, []
        if kind == "lambda":
            got = self.got = []
            sink = lambda frame: got.append(frame)
        elif kind == "pipe":
            pipe = InMemoryPipe()
            sink, self.ends = pipe.a.send, [pipe.b]
        elif kind == "shm":
            self.closing = a, b = shm_pair(capacity=1 << 16, directory=directory)
            sink, self.ends = a.send, [b]
        elif kind == "fabric":
            self.hub = FabricDispatcher(2)
            for key in STREAMS:
                pipe = InMemoryPipe()
                self.hub.subscribe(key, pipe.a)
                self.ends.append(pipe.b)
            sink = self.hub.forward
        else:
            self.hub = Relay()
            pipe = InMemoryPipe()
            self.hub.attach(pipe.a)
            sink, self.ends = self.hub.forward, [pipe.b]
        self.sink = sink
        self.tap = self.channel.attach_wire(sink if direct else lambda frame: sink(frame))

    def seen(self):
        far = [_drain(end) for end in self.ends] if self.ends else self.got
        hub = self.hub.metrics.counters() if self.hub is not None else None
        return far, hub, self.tap.metrics.counters(), self.tap in self.channel._taps

    def close(self):
        for end in self.closing:
            end.close()


@pytest.mark.parametrize("kind", SINKS)
@seed(CHAOS_SEED)
@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_a_tap_offered_a_run_equals_the_tap_offered_its_frames(kind, ops, tmp_path_factory):
    """A tap given the bound ``send`` of a transport, or the bound
    ``forward`` of a relay or dispatcher — also while a tracer has
    class-patched it — is offered each burst as one ``send_many`` /
    ``forward_batch``; its far end sees the frames, and the tap and its
    hub keep the counters, of the per-frame loop behind a lambda."""
    directory = str(tmp_path_factory.mktemp("taps"))
    original = Relay.__dict__["forward"]
    if kind == "patched relay":  # the way benchmarks/e2e/spans.py Tracer.patch does it

        def traced(self, message, *, header=None):
            return original(self, message, header=header)

        Relay.forward = traced
    try:
        direct, loop = _Tapped(kind, True, directory), _Tapped(kind, False, directory)
    finally:
        Relay.forward = original
    try:
        assert loop.tap.send_run is None
        owner = getattr(direct.sink, "__self__", None)
        entry = {"lambda": None, "pipe": "send_many", "shm": "send_many"}.get(kind, "forward_batch")
        assert direct.tap.send_run == (entry and getattr(owner, entry))
        for tapped in (direct, loop):
            _offer(tapped.channel, ops)
        assert direct.seen() == loop.seen()
    finally:
        direct.close()
        loop.close()


class _FailsAt(Transport):
    """Takes ``k - 1`` frames, then fails: frame by frame (a broken link),
    or — ``whole_runs`` — refusing the run that would reach ``k`` outright
    (an async transport's bounded write queue)."""

    def __init__(self, k, whole_runs):
        self.k, self.whole_runs, self.got = k, whole_runs, []

    def send(self, payload):
        if len(self.got) + 1 >= self.k:
            raise TransportError(f"no frame {self.k}")
        self.got.append(bytes(payload))

    def send_many(self, frames):
        if self.whole_runs and len(self.got) + len(frames) >= self.k:
            raise WriteQueueFull(f"no room for {len(frames)} frames")
        super().send_many(frames)

    def recv(self):
        raise TransportError("one-way")

    def close(self):
        pass


@pytest.mark.parametrize("whole_runs", [False, True])
@seed(CHAOS_SEED)
@settings(max_examples=40, deadline=None)
@given(ops=OPS, k=st.integers(1, 30))
def test_a_tap_that_fails_mid_run_is_detached_with_a_prefix(whole_runs, ops, k):
    """A sink failing at its ``k``-th frame is detached, counted once,
    whether it was offered runs or frames, and what it got is a prefix of
    the wire: the loop's own when its ``send_many`` is the loop, shorter
    by the shed run when ``send_many`` is all-or-nothing."""
    wire = []
    whole = EventChannel()
    whole.attach_wire(lambda frame: wire.append(frame))
    _offer(whole, ops)
    sinks = _FailsAt(k, whole_runs), _FailsAt(k, whole_runs)
    taps = []
    for sink, direct in zip(sinks, (True, False)):
        channel = EventChannel()
        taps.append(channel.attach_wire(sink.send if direct else lambda frame, sink=sink: sink.send(frame)))
        _offer(channel, ops)
        assert (taps[-1] in channel._taps) == (len(wire) < k)
    run, loop = (tap.metrics.counters() for tap in taps)
    assert sinks[1].got == wire[: k - 1] and loop.get("forwarded", 0) == len(sinks[1].got)
    assert sinks[0].got == wire[: len(sinks[0].got)]
    failed = {"send_errors": 1, "detached": 1} if len(wire) >= k else {}
    for counters in (run, loop):
        assert {name: n for name, n in counters.items() if name != "forwarded"} == failed
    if not whole_runs:
        assert sinks[0].got == sinks[1].got
    assert run.get("forwarded", 0) <= len(sinks[0].got) <= len(sinks[1].got)
