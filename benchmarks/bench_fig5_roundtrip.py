"""Figure 5 — end-to-end round-trip: PBIO (DCG) vs MPICH.

The paper composes the measured segment costs into full round-trips
(sparc -> i86 -> sparc) and finds PBIO completes the 100 KB exchange in
45 % of MPICH's time; at small sizes the gap narrows because the wire
time dominates.

CPU segments are measured; the network term comes from the calibrated
100 Mbps model (see repro.net.simulated).  The per-message benchmarks
below time the full local round trip (encode + decode both directions,
no network) so pytest-benchmark tracks the CPU totals; the shape test
checks the composed (network-inclusive) ratio.

Two self-consistency guidelines ("MPI Derived Datatypes: Performance
Expectations and Status Quo", PAPERS.md: the specialised call must not
lose to the general one composed) sit beside the figure, over a real
loopback pair, best-of figures from alternating rounds:

* the scalar one-way ``send_native`` + ``recv_view`` and the burst of one
  ``send_batch_native([r])`` + ``recv_batch(lend=True)`` at 100 B and 1 KB:
  the scalar lane does not lose to the burst (the specialised call to the
  general one) beyond a 5 % timing tolerance, and the burst costs at most
  1.2 x the scalar lane (a burst costs its records).  The batch decode
  takes a lone frame through the scalar decode, so the two differ by the
  burst's send and receive frames only: 1.03-1.13 on a 2-vCPU x86 host,
  where the group path made it 1.23-1.40;
* ``SocketTransport.send_segments`` — joined below ``GATHER_MIN_FRAME``,
  gathered from it on — costs at most 1.1 x the cheaper of always joining
  and always gathering (the same method with the constant forced), timed
  in the same rounds at 100 B, 1 KB and 100 KB: it never picks the wrong
  side by more than noise.
"""

import pytest

import support
from bench_ablation_iovec_crossover import SIZES as SIZE_BYTES, OwnDrain, send_inner
from bench_batch_throughput import _alternating_best, _guideline_inner
from repro.abi import codec_for, layout_record
from repro.core import IOContext, PbioConnection
from repro.core import encoder as enc
from repro.net import loopback_pair, sockets
from repro.workloads import mechanical
from repro.workloads.generators import record_stream


@pytest.fixture(scope="module")
def exchanges():
    out = {}
    for name, conv in (("MPICH", None), ("PBIO", "dcg")):
        for size in support.SIZES:
            fwd = support.build_exchange(name, size, support.SPARC, support.I86, conversion=conv)
            back = support.build_exchange(name, size, support.I86, support.SPARC, conversion=conv)
            out[(name, size)] = (fwd, back)
    return out


def _cpu_roundtrip(fwd, back):
    # sparc encode -> i86 decode -> i86 encode -> sparc decode
    message = fwd.bound.encode(fwd.native)
    fwd.bound.decode(message)
    reply = back.bound.encode(back.native)
    back.bound.decode(reply)


@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("system", ["MPICH", "PBIO"])
def test_cpu_roundtrip(benchmark, exchanges, system, size):
    fwd, back = exchanges[(system, size)]
    benchmark.group = f"fig5 roundtrip {size}"
    benchmark(_cpu_roundtrip, fwd, back)


def test_shape_pbio_wins_and_gap_grows(exchanges):
    totals = {}
    for (name, size), (fwd, back) in exchanges.items():
        totals[(name, size)] = support.composed_roundtrip_ms(fwd, back)["total"]
    ratios = {size: totals[("PBIO", size)] / totals[("MPICH", size)] for size in support.SIZES}
    # PBIO no slower anywhere, and clearly faster for large messages.
    for size in support.SIZES:
        assert ratios[size] < 1.05
    # Paper: 45% at 100 KB.  Accept a band around it: the win must be
    # substantial (<85%) and bounded below by the incompressible network
    # share (>25%).
    assert 0.25 < ratios["100kb"] < 0.85
    # The relative gap widens with size (conversion cost scales, PBIO's
    # does much less).
    assert ratios["100kb"] < ratios["100b"]


@pytest.mark.parametrize("size", ("100b", "1kb"))
def test_guideline_scalar_lane_beats_a_burst_of_one(size):
    """One record sparc -> x86 over a loopback socket: the scalar pair
    against the burst pair carrying the same one record — 0.95 x scalar <=
    burst <= 1.2 x scalar (the lower bound: the scalar lane does not lose,
    within the best-of timing's spread)."""
    schema = mechanical.schema_for_size(size)
    tx, rx = IOContext(support.SPARC), IOContext(support.I86)
    rx.expect(schema)
    handle = tx.register_format(schema)
    (record,) = record_stream(schema, count=1, seed=5)
    native = codec_for(layout_record(schema, support.SPARC)).encode(record)
    a, b = loopback_pair()
    sender, receiver = PbioConnection(tx, a), PbioConnection(rx, b)

    def scalar():
        sender.send_native(handle, native)
        receiver.recv_view()

    def burst_of_one():
        sender.send_batch_native(handle, [native])
        receiver.recv_batch(lend=True)

    try:
        t_scalar, t_burst = _alternating_best([scalar, burst_of_one], _guideline_inner())
    finally:
        a.close()
        b.close()
    ratio = t_burst / t_scalar
    print(f"{size}: scalar {t_scalar * 1e6:.1f} us, burst of one {t_burst * 1e6:.1f} us: {ratio:.2f}")
    assert 0.95 <= ratio <= 1.2, (
        f"a burst of one at {size} {t_burst * 1e6:.1f} us vs the scalar one-way {t_scalar * 1e6:.1f} us "
        f"(ratio {ratio:.2f}, guideline 0.95-1.2)"
    )


@pytest.mark.parametrize("size", ("100b", "1kb", "100kb"))
def test_guideline_send_segments_picks_the_cheaper_side(size):
    """``send_segments`` of a header and a record with its constant as it
    is, and forced to either side: the same code three times over, so what
    differs is the side taken."""
    head = enc.pack_header(enc.MSG_DATA, 7, 1, SIZE_BYTES[size])
    body = bytes(SIZE_BYTES[size])
    rig = OwnDrain(4 + len(head) + len(body))
    constant = sockets.GATHER_MIN_FRAME

    def sending(threshold):
        def send():
            sockets.GATHER_MIN_FRAME = threshold
            rig.tx.send_segments((head, body))

        return send

    try:
        t_select, t_pack, t_gather = rig.alternating_best(
            [sending(constant), sending(1 << 31), sending(0)], send_inner()
        )
    finally:
        sockets.GATHER_MIN_FRAME = constant
        rig.close()
    print(f"{size}: send_segments {t_select * 1e6:.2f} us, pack {t_pack * 1e6:.2f} us, gather {t_gather * 1e6:.2f} us")
    assert t_select <= 1.1 * min(t_pack, t_gather), (
        f"send_segments at {size} {t_select * 1e6:.2f} us: always packing costs {t_pack * 1e6:.2f} us, "
        f"always gathering {t_gather * 1e6:.2f} us (noise margin 1.1)"
    )
