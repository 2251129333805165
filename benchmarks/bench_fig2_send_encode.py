"""Figure 2 — sender-side encode times on the SPARC.

Paper: XML dramatically most expensive; MPICH and CORBA linear in record
size (34 µs to 13 ms for MPICH); PBIO flat (~3 µs) at every size because
NDR transmits the sender's bytes as-is.

The shape assertions check exactly those relations on our measurements:
PBIO flat and orders of magnitude below MPICH at 100 KB; XML the most
expensive; MPICH/CORBA linear.

Two self-consistency guidelines (in the sense of "MPI Derived Datatypes:
Performance Expectations and Status Quo", PAPERS.md) sit beside them,
best-of figures from alternating rounds:

* the flat-sender claim on our *batch* path — ``send_batch_native`` of
  ``n`` 100 KB records costs at most 1.5 x what it costs for ``n`` 100 B
  records (x the 1.25 noise margin of ``bench_batch_throughput.py``),
  the transport stubbed out: a record is a header pack and, by frame
  size, a small concatenation or a reference to the caller's buffer;
* ``send_many(n) <= n x send`` on the loopback socket at 100 B and
  10 KB frames — a burst is no dearer than its frames.
"""

import pytest

import support
from bench_ablation_iovec_crossover import OwnDrain, send_inner
from bench_batch_throughput import _alternating_best, _guideline_inner
from repro.abi import codec_for, layout_record
from repro.core import IOContext, PbioConnection
from repro.net import Transport
from repro.workloads import mechanical
from repro.workloads.generators import record_stream

SYSTEMS = ["XML", "MPICH", "CORBA", "PBIO"]


@pytest.fixture(scope="module")
def exchanges():
    return {
        (name, size): support.build_exchange(name, size, support.SPARC, support.I86)
        for name in SYSTEMS
        for size in support.SIZES
    }


@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_send_encode(benchmark, exchanges, system, size):
    ex = exchanges[(system, size)]
    benchmark.group = f"fig2 encode {size}"
    if system == "PBIO":
        benchmark(ex.bound.encode_segments, ex.native)
    else:
        benchmark(ex.bound.encode, ex.native)


def test_shape_pbio_flat_and_cheapest(exchanges):
    times = {
        key: support.measure_encode_ms(ex) for key, ex in exchanges.items()
    }
    # PBIO's encode cost is flat: 100 KB costs no more than 5x 100 B
    # (the paper reports a constant 3 µs; ours is constant header work).
    assert times[("PBIO", "100kb")] < 5 * times[("PBIO", "100b")]
    # 2-3 orders of magnitude under MPICH at 100 KB (paper: 13 ms vs 3 µs).
    assert times[("MPICH", "100kb")] / times[("PBIO", "100kb")] > 100
    for size in support.SIZES:
        # XML is the most expensive encode at every size.
        assert times[("XML", size)] > times[("MPICH", size)]
        assert times[("XML", size)] > times[("PBIO", size)]
        # PBIO is the cheapest at every size.
        assert times[("PBIO", size)] == min(times[(s, size)] for s in SYSTEMS)
    # MPICH and CORBA grow roughly linearly (100kb/1kb size ratio = 100x).
    for linear_system in ("MPICH", "CORBA"):
        growth = times[(linear_system, "100kb")] / times[(linear_system, "1kb")]
        assert 20 < growth < 500


class _NoSink(Transport):
    """Takes a burst and does nothing with it: what is left is the encode."""

    def send(self, payload) -> None:
        pass

    def send_many(self, frames) -> None:
        pass

    def recv(self) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _native_burst(size: str, n: int):
    """A SPARC connection into :class:`_NoSink`, a format handle and
    ``n`` native records of one mechanical size, the format announced."""
    schema = mechanical.schema_for_size(size)
    codec = codec_for(layout_record(schema, support.SPARC))
    ctx = IOContext(support.SPARC)
    handle = ctx.register_format(schema)
    natives = [codec.encode(record) for record in record_stream(schema, count=n, seed=2)]
    connection = PbioConnection(ctx, _NoSink())
    connection.send_batch_native(handle, natives)
    return connection, handle, natives


@pytest.mark.parametrize("n", (1, 4))
def test_guideline_batch_encode_is_flat_in_record_size(n):
    """Paper Fig 2 on the batch path: per record, ``send_batch_native`` at
    100 KB <= 1.5 x at 100 B for bursts of equal length (x 6-100 while
    every frame was ``header + bytes(native)``)."""
    loops = []
    for size in ("100b", "100kb"):
        connection, handle, natives = _native_burst(size, n)
        loops.append(lambda c=connection, h=handle, ns=natives: c.send_batch_native(h, ns))
    t_small, t_large = _alternating_best(loops, _guideline_inner())
    ratio = t_large / t_small
    print(f"burst of {n}: {t_small / n * 1e6:.2f} us a 100 B record, {t_large / n * 1e6:.2f} us a 100 KB record: {ratio:.2f}")
    assert ratio <= 1.25 * 1.5, (
        f"batch encode of {n} x 100 KB {t_large * 1e6:.1f} us vs {n} x 100 B {t_small * 1e6:.1f} us "
        f"(ratio {ratio:.2f}, guideline 1.5 x noise margin 1.25)"
    )


@pytest.mark.parametrize("size", ("100b", "10kb"))
def test_guideline_send_many_costs_at_most_n_sends(size):
    """``send_many(n) <= n x send`` on the loopback socket, n = 8: one
    vectored burst against eight framed sends of the same frames."""
    n = 8
    frames = [bytes([k + 1]) * {"100b": 100, "10kb": 10 * 1024}[size] for k in range(n)]
    rig = OwnDrain(sum(4 + len(frame) for frame in frames))
    try:
        send, send_many = rig.tx.send, rig.tx.send_many

        def one_by_one():
            for frame in frames:
                send(frame)

        t_many, t_loop = rig.alternating_best([lambda: send_many(frames), one_by_one], send_inner())
    finally:
        rig.close()
    print(f"{size}: send_many({n}) {t_many * 1e6:.1f} us, {n} x send {t_loop * 1e6:.1f} us: {t_many / t_loop:.2f}")
    assert t_many <= t_loop, (
        f"send_many of {n} x {size} {t_many * 1e6:.1f} us vs {n} sends {t_loop * 1e6:.1f} us"
    )
