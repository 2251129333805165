"""Ablation — cost of PBIO's self-description: meta-information once +
format ids thereafter.

PBIO messages carry only a 16-byte header in steady state; the full
format description crosses the wire once per (writer, format).  This
ablation quantifies the first-message penalty (announce + absorb +
converter generation) against the steady-state per-message cost, and the
wire overhead of the meta message itself.
"""

import pytest

import support
from repro.abi import codec_for, layout_record
from repro.core import IOContext
from repro.wire.timing import best_of
from repro.workloads import mechanical


def fresh_pair(size):
    schema = mechanical.schema_for_size(size)
    sender = IOContext(support.I86)
    receiver = IOContext(support.SPARC)
    handle = sender.register_format(schema)
    receiver.expect(schema)
    return sender, receiver, handle


@pytest.mark.parametrize("size", ["100b", "10kb"])
def test_first_message_cost(benchmark, size):
    """announce + absorb + first decode (includes converter generation)."""
    schema = mechanical.schema_for_size(size)
    native = mechanical.native_bytes(size, support.I86)

    def first_exchange():
        sender = IOContext(support.I86)
        receiver = IOContext(support.SPARC)
        handle = sender.register_format(schema)
        receiver.expect(schema)
        receiver.receive(sender.announce(handle))
        receiver.receive(sender.encode_native(handle, native))

    benchmark.group = "ablation: meta first message"
    benchmark(first_exchange)


@pytest.mark.parametrize("size", ["100b", "10kb"])
def test_steady_state_message_cost(benchmark, size):
    sender, receiver, handle = fresh_pair(size)
    native = mechanical.native_bytes(size, support.I86)
    receiver.receive(sender.announce(handle))
    message = sender.encode_native(handle, native)
    receiver.decode_native(message)  # warm
    benchmark.group = "ablation: meta steady state"
    benchmark(receiver.decode_native, message)


def test_shape_meta_amortizes(capsys):
    size = "1kb"
    sender, receiver, handle = fresh_pair(size)
    native = mechanical.native_bytes(size, support.I86)
    announce = sender.announce(handle)
    message = sender.encode_native(handle, native)

    import time

    t0 = time.perf_counter()
    receiver.receive(announce)
    receiver.decode_native(message)
    first = time.perf_counter() - t0
    steady = best_of(lambda: receiver.decode_native(message), repeats=7, inner=20)
    with capsys.disabled():
        print(
            f"  meta overhead {size}: first message {first * 1e3:.3f} ms, "
            f"steady state {steady * 1e3:.4f} ms, announce {len(announce)} B, "
            f"per-message header 16 B"
        )
    # The one-time cost is bounded (well under 100 steady messages)...
    assert first < 100 * steady + 0.05
    # ...and per-message wire overhead is a constant 16-byte header.
    assert len(message) - layout_record(mechanical.schema_for_size(size), support.I86).size == 16
    # The meta message is small relative to even one 1 KB record.
    assert len(announce) < 1024


def test_shape_announcement_count_is_one_per_format():
    sender, receiver, handle = fresh_pair("100b")
    native = mechanical.native_bytes("100b", support.I86)
    receiver.receive(sender.announce(handle))
    for _ in range(50):
        receiver.decode_native(sender.encode_native(handle, native))
    assert receiver.registry.announcements_received == 1
    assert receiver.stats.converters_generated == 1
    assert receiver.stats.converter_cache_hits >= 49
