"""Extension benchmark — what zero-copy receive is worth.

The paper's homogeneous-exchange claim is that "received data [can] be
used directly from the message buffer".  This bench quantifies the
ladder of receive-side options on a homogeneous exchange:

* ``decode_view`` — zero-copy: a RecordView over the message buffer;
* field access through the view — pay only for the fields you touch;
* ``decode_native`` — materialize the record bytes (one memcpy);
* ``decode`` — materialize every field into a Python dict (the
  convenience ceiling, closest to what object systems always pay).

And the relay tier: forwarding a message through a Relay is independent
of record size (header inspection only).
"""

import multiprocessing
import statistics
import time

import pytest

import support
from repro.abi import RecordSchema, codec_for, layout_record
from repro.core import IOContext
from repro.net import InMemoryPipe, loopback_pair, shm_pair
from repro.wire.timing import best_of
from repro.net.relay import Relay
from repro.workloads import mechanical

SIZES = ["1kb", "100kb"]


def homogeneous(size):
    schema = mechanical.schema_for_size(size)
    sender = IOContext(support.SPARC)
    receiver = IOContext(support.SPARC)
    h = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(h))
    message = sender.encode_native(h, mechanical.native_bytes(size, support.SPARC))
    receiver.decode_view(message)  # warm caches
    return receiver, message


def homogeneous_batch(size, n):
    """n same-format data frames on a homogeneous (zero-copy) exchange."""
    schema = mechanical.schema_for_size(size)
    sender = IOContext(support.SPARC)
    receiver = IOContext(support.SPARC)
    h = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(h))
    native = mechanical.native_bytes(size, support.SPARC)
    messages = [sender.encode_native(h, native) for _ in range(n)]
    receiver.pipeline.decode_batch(messages, native=True)  # warm caches
    return receiver, messages


@pytest.mark.parametrize("size", SIZES)
def test_decode_view_zero_copy(benchmark, size):
    receiver, message = homogeneous(size)
    benchmark.group = f"receive options {size}"
    benchmark(receiver.decode_view, message)


@pytest.mark.parametrize("size", SIZES)
def test_view_single_field_access(benchmark, size):
    receiver, message = homogeneous(size)
    view = receiver.decode_view(message)
    benchmark.group = f"receive options {size}"
    benchmark(lambda: view["temperature"])


@pytest.mark.parametrize("size", SIZES)
def test_decode_native_materializes(benchmark, size):
    receiver, message = homogeneous(size)
    benchmark.group = f"receive options {size}"
    benchmark(receiver.decode_native, message)


@pytest.mark.parametrize("size", SIZES)
def test_decode_full_dict(benchmark, size):
    receiver, message = homogeneous(size)
    benchmark.group = f"receive options {size}"
    benchmark(receiver.decode, message)


def test_relay_forward_cost(benchmark):
    schema = mechanical.schema_for_size("100kb")
    sender = IOContext(support.SPARC)
    h = sender.register_format(schema)
    relay = Relay()
    pipe = InMemoryPipe()
    relay.attach(pipe.a)
    relay.forward(sender.announce(h))
    message = sender.encode_native(h, mechanical.native_bytes("100kb", support.SPARC))

    def forward_and_drain():
        relay.forward(message)
        pipe.b.recv()

    benchmark.group = "relay"
    benchmark(forward_and_drain)


def test_shape_zero_copy_ladder():
    for size in SIZES:
        receiver, message = homogeneous(size)
        t_view = best_of(lambda: receiver.decode_view(message), repeats=7, inner=20)
        t_native = best_of(lambda: receiver.decode_native(message), repeats=7, inner=20)
        t_dict = best_of(lambda: receiver.decode(message), repeats=7, inner=5)
        # Materializing every field always costs the most...
        assert t_native < t_dict, size
        # ...and the view stays within a small constant of the bulk copy
        # even at sizes where a 1 KB memcpy is nearly free (the view's
        # fixed object-construction cost dominates there).
        assert t_view < 3 * t_native, size
    # Where zero-copy matters — large records — the view beats the copy.
    receiver_big, message_big = homogeneous("100kb")
    t_view_big = best_of(lambda: receiver_big.decode_view(message_big), repeats=7, inner=20)
    t_native_big = best_of(lambda: receiver_big.decode_native(message_big), repeats=7, inner=20)
    assert t_view_big < t_native_big
    # And the zero-copy view is size-independent while the dict is not.
    r1, m1 = homogeneous("1kb")
    r2, m2 = homogeneous("100kb")
    t_view_small = best_of(lambda: r1.decode_view(m1), repeats=7, inner=20)
    t_view_big = best_of(lambda: r2.decode_view(m2), repeats=7, inner=20)
    assert t_view_big < 3 * t_view_small


def test_shape_relay_independent_of_size():
    times = {}
    for size in SIZES:
        schema = mechanical.schema_for_size(size)
        sender = IOContext(support.SPARC)
        h = sender.register_format(schema)
        relay = Relay()
        pipe = InMemoryPipe()
        relay.attach(pipe.a)
        relay.forward(sender.announce(h))
        message = sender.encode_native(h, mechanical.native_bytes(size, support.SPARC))

        def fwd():
            relay.forward(message)
            pipe.b.recv()

        times[size] = best_of(fwd, repeats=7, inner=20)
    assert times["100kb"] < 3 * times["1kb"]


# ---------------------------------------------------------------------------
# ISSUE 10 CI gates: the zero-copy steady state must actually be cheap.
# ---------------------------------------------------------------------------


def test_gate_lend_batch_100kb_within_2x_memcpy():
    """Homogeneous 100 KB batch decode with lend=True stays within 2x of
    a plain ``bytes()`` copy of the same payloads — i.e. the borrow path
    costs at most header parsing on top of (not even) a memcpy."""
    receiver, messages = homogeneous_batch("100kb", 8)
    views = [memoryview(m) for m in messages]
    repeats = support.default_repeats()
    t_lend = best_of(
        lambda: receiver.pipeline.decode_batch(messages, native=True, lend=True),
        repeats=repeats,
        inner=5,
    )
    t_copy = best_of(lambda: [bytes(v) for v in views], repeats=repeats, inner=5)
    payload = sum(len(m) for m in messages)
    support.append_trajectory(
        "zero_copy_lend_100kb",
        [
            support.trajectory_point(
                records=len(messages),
                payload_bytes=payload,
                samples_s=[t_lend],
                extra={"memcpy_s": t_copy, "ratio": t_lend / t_copy},
            )
        ],
    )
    assert t_lend < 2 * t_copy, (t_lend, t_copy)


def test_gate_lend_stream_beats_copy_mode_32x1kb():
    """On the 32x1kb workload, lend-mode decode (leased views) must beat
    copy-mode decode (materialized records) by >= 1.3x."""
    receiver, messages = homogeneous_batch("1kb", 32)
    receiver.pipeline.decode_batch(messages)  # warm the view/dict caches
    repeats = support.default_repeats()
    t_lend = best_of(
        lambda: receiver.pipeline.decode_batch(messages, lend=True),
        repeats=repeats,
        inner=20,
    )
    t_copy = best_of(
        lambda: receiver.pipeline.decode_batch(messages), repeats=repeats, inner=20
    )
    payload = sum(len(m) for m in messages)
    support.append_trajectory(
        "zero_copy_lend_stream",
        [
            support.trajectory_point(
                records=len(messages),
                payload_bytes=payload,
                samples_s=[t_lend],
                extra={"copy_mode_s": t_copy, "speedup": t_copy / t_lend},
            )
        ],
    )
    assert t_copy / t_lend >= 1.3, (t_lend, t_copy)


VAR_SCHEMA = RecordSchema.from_pairs(
    "var_gate", [(f"f{j}", "string") for j in range(8)] + [("i", "int")]
)


def var_length_exchange(n=1000):
    """Cross-machine string-heavy exchange: the var-length columnar gate
    workload (strings dominate the record, as in event/log streams)."""
    sender = IOContext(support.SPARC)
    receiver = IOContext(support.I86)
    h = sender.register_format(VAR_SCHEMA)
    receiver.expect(VAR_SCHEMA)
    receiver.receive(sender.announce(h))
    messages = [
        sender.encode(
            h,
            {**{f"f{j}": f"value-{k}-{j}" * (1 + (k + j) % 3) for j in range(8)}, "i": k},
        )
        for k in range(n)
    ]
    receiver.pipeline.decode_batch(messages, native=True)  # warm converter caches
    return receiver, messages


def test_gate_var_batch_2x_scalar_1k_records():
    """Var-length columnar decode >= 2x the scalar fallback on a
    1k-record string-bearing run, with byte-identical output."""
    import repro.core.runtime.pipeline as pipeline_mod

    receiver, messages = var_length_exchange(1000)
    engaged0 = receiver.metrics.value("decode.batch.converted")
    vec = [bytes(b) for b in receiver.pipeline.decode_batch(messages, native=True, lend=True)]
    assert receiver.metrics.value("decode.batch.converted") - engaged0 == 1000

    repeats = support.default_repeats()
    t_vec = best_of(
        lambda: receiver.pipeline.decode_batch(messages, native=True, lend=True),
        repeats=repeats,
        inner=3,
    )
    # Force the scalar fallback by lifting the engagement threshold out
    # of reach; same messages, same entry, only the columnar pass off.
    saved = pipeline_mod.NUMPY_THRESHOLD
    try:
        pipeline_mod.NUMPY_THRESHOLD = 1 << 30
        scalar = [
            bytes(b) for b in receiver.pipeline.decode_batch(messages, native=True, lend=True)
        ]
        t_scalar = best_of(
            lambda: receiver.pipeline.decode_batch(messages, native=True, lend=True),
            repeats=repeats,
            inner=3,
        )
    finally:
        pipeline_mod.NUMPY_THRESHOLD = saved

    assert vec == scalar  # byte-identical, frame for frame
    payload = sum(len(m) for m in messages)
    support.append_trajectory(
        "var_batch_decode",
        [
            support.trajectory_point(
                records=1000,
                payload_bytes=payload,
                samples_s=[t_vec],
                extra={"scalar_s": t_scalar, "speedup": t_scalar / t_vec},
            )
        ],
    )
    assert t_scalar / t_vec >= 2.0, (t_vec, t_scalar)


def _echo_until_sentinel(transport):
    """Child process body: echo frames back until the empty sentinel."""
    try:
        while True:
            frame = transport.recv()
            if frame == b"":
                return
            transport.send(frame)
    except Exception:
        pass  # parent tore down mid-echo; nothing to report


def _rtt_p50_us(transport, payload, rounds):
    samples = []
    send, recv = transport.send, transport.recv
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        send(payload)
        recv()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / 1e3, samples


def test_gate_shm_ring_rtt_below_socket_loopback():
    """Same-host shm ring round-trip must beat TCP loopback on the same
    workload (64 B and 1 KB echo against a real peer process)."""
    ctx = multiprocessing.get_context("fork")
    rounds = 300
    results = {}
    for name, make in (("socket", loopback_pair), ("shm", shm_pair)):
        a, b = make()
        child = ctx.Process(target=_echo_until_sentinel, args=(b,), daemon=True)
        child.start()
        try:
            per_size = {}
            for size in (64, 1024):
                payload = bytes(size)
                for _ in range(20):  # warm the path and the child
                    a.send(payload)
                    a.recv()
                best = None
                for _ in range(3):
                    p50, samples = _rtt_p50_us(a, payload, rounds)
                    if best is None or p50 < best[0]:
                        best = (p50, samples)
                per_size[size] = best
            results[name] = per_size
        finally:
            try:
                a.send(b"")
            except Exception:
                pass
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
            a.close()
    points = []
    for size in (64, 1024):
        shm_p50, shm_samples = results["shm"][size]
        sock_p50, _ = results["socket"][size]
        points.append(
            support.trajectory_point(
                records=rounds,
                payload_bytes=size * rounds,
                samples_s=[s / 1e9 for s in shm_samples],
                extra={
                    "payload": size,
                    "shm_p50_us": shm_p50,
                    "socket_p50_us": sock_p50,
                },
            )
        )
        assert shm_p50 < sock_p50, (size, shm_p50, sock_p50)
    support.append_trajectory("shm_rtt", points)
