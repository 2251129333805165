"""Robustness property tests: corrupted and truncated input never decodes
silently wrong at the protocol layer — it raises a PbioError subclass.

(Payload *content* corruption below the protocol layer is undetectable by
design — PBIO carries no checksums, matching the original system and the
transports of its era — so these tests target the structures PBIO itself
interprets: message headers, meta-information, and framing.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.transport import Transport
from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, PbioError
from repro.core.files import PbioFileReader

SCHEMA = RecordSchema.from_pairs(
    "rec", [("i", "int"), ("d", "double[4]"), ("name", "char[8]")]
)


def linked():
    sender = IOContext(X86)
    receiver = IOContext(SPARC_V8)
    handle = sender.register_format(SCHEMA)
    receiver.expect(SCHEMA)
    announce = sender.announce(handle)
    message = sender.encode(
        handle, {"i": 1, "d": (1.0, 2.0, 3.0, 4.0), "name": b"abc"}
    )
    return receiver, announce, message


@settings(max_examples=80, deadline=None)
@given(cut=st.integers(min_value=0, max_value=60))
def test_truncated_data_message_raises(cut):
    receiver, announce, message = linked()
    receiver.receive(announce)
    truncated = message[: min(cut, len(message) - 1)]
    with pytest.raises(PbioError):
        receiver.receive(truncated)


@settings(max_examples=80, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=15),
    value=st.integers(min_value=0, max_value=255),
)
def test_header_byte_corruption_never_silently_succeeds(pos, value):
    """Flipping any header byte either still decodes the right record
    (e.g. touching a padding byte with the same value) or raises — it
    must never return a *different* record without error."""
    receiver, announce, message = linked()
    receiver.receive(announce)
    expected = receiver.receive(message)
    corrupted = bytearray(message)
    corrupted[pos] = value
    try:
        out = receiver.receive(bytes(corrupted))
    except PbioError:
        return
    assert out == expected or out is None


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=1, max_value=80))
def test_truncated_meta_message_raises(cut):
    receiver, announce, _ = linked()
    truncated = announce[: min(cut, len(announce) - 1)]
    with pytest.raises(PbioError):
        receiver.receive(truncated)


@settings(max_examples=60, deadline=None)
@given(junk=st.binary(min_size=0, max_size=64))
def test_arbitrary_bytes_never_crash_uncontrolled(junk):
    receiver, announce, _ = linked()
    receiver.receive(announce)
    try:
        receiver.receive(junk)
    except PbioError:
        pass  # the only acceptable failure mode


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cut=st.integers(min_value=13, max_value=200),
)
def test_truncated_pbio_file_raises(seed, cut):
    import io

    from repro.core.files import file_to_buffer

    import struct

    rng = np.random.default_rng(seed)
    ctx = IOContext(X86)
    blob = file_to_buffer(
        ctx, SCHEMA, [{"i": int(rng.integers(100)), "d": (0.0,) * 4, "name": b"x"}] * 2
    )
    # Message boundaries: cuts exactly there leave a VALID shorter file.
    # v2 frames are length-prefix + payload + 8-byte CRC/echo trailer.
    boundaries = {12}
    pos = 12
    while pos < len(blob):
        (n,) = struct.unpack_from(">I", blob, pos)
        pos += 4 + n + 8
        boundaries.add(pos)
    cut = min(cut, len(blob) - 1)
    truncated = blob[:cut]
    rctx = IOContext(X86)
    rctx.expect(SCHEMA)
    reader = PbioFileReader(rctx, io.BytesIO(truncated))
    if cut in boundaries:
        assert len(list(reader)) <= 2  # clean EOF, fewer records
    else:
        with pytest.raises(PbioError):
            list(reader)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=40))
def test_format_meta_parser_rejects_garbage(data):
    """Garbage meta never leaks a stdlib exception — only the PBIO
    taxonomy (FormatError for structure, LimitError for resources)."""
    from repro.core import IOFormat

    try:
        fmt = IOFormat.from_meta_bytes(data)
    except PbioError:
        return
    # If garbage happens to parse, it must at least be self-consistent.
    assert fmt.record_size >= 0


def test_cvt_f2f_instruction_executes():
    """The float-move opcode completes the ISA's coverage."""
    import struct

    from repro.vcode import VM, Emitter

    em = Emitter()
    em.ldf(0, "src", 0, 4, endian="big")
    em.cvt_f2f(1, 0)
    em.stf(1, "dst", 0, 8, endian="little")
    em.ret()
    dst = bytearray(8)
    VM().run(em.seal(), {"src": struct.pack(">f", 2.5), "dst": dst})
    assert struct.unpack("<d", dst)[0] == 2.5


# -- seeded chaos: the stack above the protocol layer degrades gracefully ----
#
# The fault-injection harness (repro.net.faults) perturbs the *transport*;
# these properties assert that PBIO's protocol-level guarantees (above)
# compose into end-to-end guarantees: lossy links never yield fabricated
# records, one bad peer never starves its siblings, and RPC retries never
# re-execute a servant.

from repro.core import RpcClient, RpcInterface, RpcOperation, RpcServer  # noqa: E402
from repro.net import (  # noqa: E402
    EventChannel,
    FaultInjectingTransport,
    FaultPlan,
    InMemoryPipe,
    Relay,
    RetryPolicy,
    TransportError,
)

CHAOS_RECORDS = [
    {"i": i, "d": (float(i), 0.0, -1.0, 0.5), "name": b"rec"} for i in range(30)
]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_chaos_lossy_stream_never_fabricates_records(seed):
    """Under drop + duplicate + delay + truncate chaos, everything that
    decodes is a record that was actually sent; all damage surfaces as
    PbioError (payload *corruption* is excluded: undetectable by design)."""
    sender = IOContext(X86)
    handle = sender.register_format(SCHEMA)
    announce = sender.announce(handle)
    messages = [sender.encode(handle, r) for r in CHAOS_RECORDS]

    clean_rx = IOContext(SPARC_V8)
    clean_rx.expect(SCHEMA)
    clean_rx.receive(announce)
    expected = [clean_rx.receive(m) for m in messages]

    pipe = InMemoryPipe()
    chaotic = FaultInjectingTransport(
        pipe.a,
        FaultPlan(drop=0.15, duplicate=0.15, delay=0.15, truncate=0.1),
        seed=seed,
    )
    chaotic.send(announce)
    for message in messages:
        chaotic.send(message)
    chaotic.flush()

    receiver = IOContext(SPARC_V8)
    receiver.expect(SCHEMA)
    decoded = []
    while pipe.b.pending():
        try:
            out = receiver.receive(pipe.b.recv())
        except PbioError:
            continue  # the only acceptable failure mode
        if out is not None:
            decoded.append(out)
    for record in decoded:
        assert record in expected


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_chaos_relay_healthy_downstream_gets_every_record(seed):
    """One chaotic downstream (drop + corrupt + disconnect): the healthy
    sibling still receives every record, verbatim and in order."""
    sender = IOContext(X86)
    handle = sender.register_format(SCHEMA)
    messages = [sender.announce(handle)]
    messages += [sender.encode(handle, r) for r in CHAOS_RECORDS]

    relay = Relay(quarantine_after=3)
    faulty_pipe = InMemoryPipe()
    relay.attach(
        FaultInjectingTransport(
            faulty_pipe.a,
            FaultPlan(drop=0.3, corrupt=0.3, disconnect=0.1),
            seed=seed,
        )
    )
    healthy_pipe = InMemoryPipe()
    relay.attach(healthy_pipe.a)
    for message in messages:
        relay.forward(message)
    delivered = [healthy_pipe.b.recv() for _ in range(healthy_pipe.b.pending())]
    assert delivered == [bytes(m) for m in messages]


@settings(max_examples=15, deadline=None)
@given(bad_every=st.integers(min_value=1, max_value=5))
def test_chaos_event_channel_bad_handler_isolated(bad_every):
    """A handler that throws on every Nth record never costs the healthy
    subscriber a single delivery (suppress policy)."""
    channel = EventChannel()
    calls = {"n": 0}

    def sometimes_explodes(record):
        calls["n"] += 1
        if calls["n"] % bad_every == 0:
            raise RuntimeError("handler bug")

    bad_ctx = IOContext(SPARC_V8)
    bad_ctx.expect(SCHEMA)
    bad = channel.subscribe(bad_ctx, sometimes_explodes, on_error="suppress")
    received = []
    good_ctx = IOContext(SPARC_V8)
    good_ctx.expect(SCHEMA)
    channel.subscribe(good_ctx, received.append)

    sender = IOContext(X86)
    handle = sender.register_format(SCHEMA)
    publisher = channel.publisher(sender)
    for record in CHAOS_RECORDS:
        publisher.publish(handle, record)
    assert len(received) == len(CHAOS_RECORDS)
    assert bad.stats.handler_errors == len(CHAOS_RECORDS) // bad_every


_RPC_REQ = RecordSchema.from_pairs("chaos_req", [("x", "double")])
_RPC_REP = RecordSchema.from_pairs("chaos_rep", [("y", "double")])
_RPC_IFACE = RpcInterface("Chaos", [RpcOperation("twice", _RPC_REQ, _RPC_REP)])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_chaos_rpc_retry_executes_servant_exactly_once(seed):
    """Reply loss + retransmission: the servant sees each request exactly
    once; the dedup window answers every retry from cache."""
    executed = []

    def twice(req):
        executed.append(req["x"])
        return {"y": req["x"] * 2.0}

    server = RpcServer(SPARC_V8, _RPC_IFACE)
    server.register(b"obj", {"twice": twice})
    client = RpcClient(X86, _RPC_IFACE)
    pipe = InMemoryPipe()
    rng = np.random.default_rng(seed)

    class FlakyLoop(Transport):
        def set_timeout(self, timeout_s):
            pass

        def send(self, data):
            pipe.a.send(data)

        def recv(self):
            while pipe.b.pending() and not pipe.a.pending():
                server.serve_one(pipe.b)
            if pipe.a.pending() and float(rng.random()) < 0.25:
                while pipe.a.pending():
                    pipe.a.recv()
                raise TransportError("injected reply loss")
            return pipe.a.recv()

        def close(self):
            pass

    loop = FlakyLoop()
    policy = RetryPolicy(max_attempts=16, base_delay_s=0.0)
    for i in range(10):
        result = client.invoke(
            loop, b"obj", "twice", {"x": float(i)},
            retry=policy, sleep=lambda _s: None,
        )
        assert result == {"y": float(i) * 2.0}
    assert executed == [float(i) for i in range(10)]
    assert server.metrics.value("dedup_hits") == client.metrics.value("retries")
