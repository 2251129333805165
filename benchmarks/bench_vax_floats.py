"""Extension benchmark — non-IEEE float heterogeneity (VAX <-> IEEE).

PBIO's meta-information carries the sender's float format, so exchanges
with a pre-IEEE machine work exactly like any other heterogeneous
exchange: the receiver's generated converter calls the float-format
subroutines for float runs and handles everything else as usual.  The
canonical-format baselines cannot express the exchange at all (they
assume IEEE hosts) — which is itself a result: the self-describing
format degrades gracefully where fixed formats simply stop.

Measures decode cost for VAX->x86 and x86->VAX at the paper's sizes, and
the raw codec throughput of the F/D conversion kernels.
"""

import numpy as np
import pytest

import support
from repro.abi import VAX, codec_for, layout_record
from repro.abi.floats import ieee_to_vax_d, vax_d_to_ieee
from repro.core import IOContext
from repro.workloads import mechanical

SIZES = ["1kb", "100kb"]


def vax_exchange(size, src, dst):
    schema = mechanical.schema_for_size(size)
    sender = IOContext(src)
    receiver = IOContext(dst)
    handle = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(handle))
    native = codec_for(layout_record(schema, src)).encode(mechanical.sample_record(size))
    message = sender.encode_native(handle, native)
    receiver.decode_native(message)  # warm converter
    return receiver, message


@pytest.mark.parametrize("size", SIZES)
def test_decode_vax_to_x86(benchmark, size):
    receiver, message = vax_exchange(size, VAX, support.I86)
    benchmark.group = f"vax exchange {size}"
    benchmark(receiver.decode_native, message)


@pytest.mark.parametrize("size", SIZES)
def test_decode_x86_to_vax(benchmark, size):
    receiver, message = vax_exchange(size, support.I86, VAX)
    benchmark.group = f"vax exchange {size}"
    benchmark(receiver.decode_native, message)


def test_codec_kernel_throughput(benchmark):
    values = np.random.default_rng(1).uniform(-1e6, 1e6, 8192)
    raw = ieee_to_vax_d(values)
    benchmark.group = "vax codec kernels"
    benchmark(vax_d_to_ieee, raw)


def test_shape_vax_decode_cost_bounded():
    """VAX float conversion is several vectorized passes (bit-field
    extraction + rebias) instead of one byteswap, and the byte-packed VAX
    layout defeats run coalescing — so it costs a multiple of a plain
    byte-order decode, but must stay within the interpreted converter's
    neighbourhood (i.e. conversion remains a per-message cost, not a
    cliff)."""
    from repro.wire.timing import best_of

    receiver_vax, message_vax = vax_exchange("100kb", VAX, support.I86)
    t_vax = best_of(lambda: receiver_vax.decode_native(message_vax), repeats=5, inner=5)

    receiver_swap, message_swap = vax_exchange("100kb", support.SPARC, support.I86)
    t_swap = best_of(lambda: receiver_swap.decode_native(message_swap), repeats=5, inner=5)
    assert t_vax < 50 * t_swap
    # ...and well below a millisecond-per-record regime on a 100 KB record.
    assert t_vax < 5e-3


def test_shape_round_trip_preserves_values():
    from repro.abi import records_equal

    schema = mechanical.schema_for_size("1kb")
    rec = mechanical.sample_record("1kb")
    for src, dst in ((VAX, support.I86), (support.SPARC, VAX)):
        sender = IOContext(src)
        receiver = IOContext(dst)
        h = sender.register_format(schema)
        receiver.expect(schema)
        receiver.receive(sender.announce(h))
        out = receiver.receive(sender.encode(h, rec))
        assert records_equal(rec, out, rel_tol=1e-5)
