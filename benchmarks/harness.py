"""Regenerate every table/figure of the paper in one run.

Usage::

    python benchmarks/harness.py            # everything
    python benchmarks/harness.py fig2 fig5  # selected figures

Output is the text form of each figure: the same rows/series the paper
reports, with our measured values (CPU segments measured on this host,
network segments from the calibrated 100 Mbps model).  EXPERIMENTS.md
records one full run next to the paper's numbers.
"""

from __future__ import annotations

import sys

import support
from repro.abi import CType, FieldDecl, codec_for, layout_record
from repro.core import IOContext
from repro.wire.network import paper_network_times_ms
from repro.wire.timing import TimingTable, best_of
from repro.wire import PbioWire
from repro.workloads import mechanical

SIZES = list(support.SIZES)


def fig1() -> None:
    print("=" * 78)
    print("Figure 1: MPICH round-trip cost breakdown (sparc <-> i86, 100 Mbps model)")
    print("=" * 78)
    paper_totals = {"100b": 0.66, "1kb": 1.11, "10kb": 8.43, "100kb": 80.0}
    for size in SIZES:
        fwd = support.build_exchange("MPICH", size, support.SPARC, support.I86)
        back = support.build_exchange("MPICH", size, support.I86, support.SPARC)
        seg = support.composed_roundtrip_ms(fwd, back)
        cpu_frac = (
            seg["fwd_encode"] + seg["fwd_decode"] + seg["back_encode"] + seg["back_decode"]
        ) / seg["total"]
        print(
            f"{size:>6}: sparc-enc {seg['fwd_encode']:.4f} | net {seg['fwd_network']:.3f} | "
            f"i86-dec {seg['fwd_decode']:.4f} | i86-enc {seg['back_encode']:.4f} | "
            f"net {seg['back_network']:.3f} | sparc-dec {seg['back_decode']:.4f}  "
            f"=> total {seg['total']:.3f} ms (enc+dec {cpu_frac * 100:.0f}%)"
        )
        print(
            f"        paper total {paper_totals[size]:.2f} ms; paper one-way net "
            f"{paper_network_times_ms()[size]:.3f} ms"
        )
    print()


def fig2() -> None:
    print("=" * 78)
    print("Figure 2: sender-side encode times on the sparc (ms)")
    print("=" * 78)
    table = TimingTable("send encode (ms)", SIZES)
    for name in ("XML", "MPICH", "CORBA", "PBIO"):
        row = []
        for size in SIZES:
            ex = support.build_exchange(name, size, support.SPARC, support.I86)
            row.append(support.measure_encode_ms(ex))
        table.add(name, row)
    print(table.render())
    print("paper: XML >> MPICH ~ CORBA (linear); PBIO flat ~0.003 ms at all sizes")
    print()


def fig3() -> None:
    print("=" * 78)
    print("Figure 3: receiver-side decode times on the sparc, interpreted (ms)")
    print("=" * 78)
    table = TimingTable("recv decode (ms)", SIZES)
    for name in ("XML", "MPICH", "CORBA", "PBIO"):
        conv = "interpreted" if name == "PBIO" else None
        row = []
        for size in SIZES:
            ex = support.build_exchange(name, size, support.I86, support.SPARC, conversion=conv)
            row.append(support.measure_decode_ms(ex))
        table.add(name if name != "PBIO" else "PBIO(interp)", row)
    print(table.render())
    print("paper: XML 1-2 orders above the rest; PBIO interpreted below MPICH/CORBA")
    print()


def fig4() -> None:
    print("=" * 78)
    print("Figure 4: receiver decode, interpreted vs DCG (ms)")
    print("=" * 78)
    table = TimingTable("recv decode (ms)", SIZES)
    for label, name, conv in (
        ("MPICH", "MPICH", None),
        ("PBIO(interp)", "PBIO", "interpreted"),
        ("PBIO(DCG)", "PBIO", "dcg"),
    ):
        row = []
        for size in SIZES:
            ex = support.build_exchange(name, size, support.I86, support.SPARC, conversion=conv)
            row.append(support.measure_decode_ms(ex))
        table.add(label, row)
    print(table.render())
    print("paper at 100Kb: MPICH 11.63, PBIO interp 3.32, PBIO DCG 1.16 (ms)")
    print()


def fig5() -> None:
    print("=" * 78)
    print("Figure 5: round-trip comparison, PBIO DCG vs MPICH (ms)")
    print("=" * 78)
    paper = {
        "MPICH": {"100b": 0.66, "1kb": 1.11, "10kb": 8.43, "100kb": 80.0},
        "PBIO": {"100b": 0.62, "1kb": 0.87, "10kb": 4.3, "100kb": 35.27},
    }
    totals: dict[tuple[str, str], float] = {}
    for name, conv in (("MPICH", None), ("PBIO", "dcg")):
        for size in SIZES:
            fwd = support.build_exchange(name, size, support.SPARC, support.I86, conversion=conv)
            back = support.build_exchange(name, size, support.I86, support.SPARC, conversion=conv)
            seg = support.composed_roundtrip_ms(fwd, back)
            totals[(name, size)] = seg["total"]
            print(
                f"{name:>6} {size:>6}: enc {seg['fwd_encode']:.4f} net {seg['fwd_network']:.3f} "
                f"dec {seg['fwd_decode']:.4f} | enc {seg['back_encode']:.4f} "
                f"net {seg['back_network']:.3f} dec {seg['back_decode']:.4f} "
                f"=> {seg['total']:.3f} ms (paper {paper[name][size]:.2f} ms)"
            )
    for size in SIZES:
        ratio = totals[("PBIO", size)] / totals[("MPICH", size)]
        paper_ratio = paper["PBIO"][size] / paper["MPICH"][size]
        print(f"  PBIO/MPICH at {size}: measured {ratio:.2f}, paper {paper_ratio:.2f}")
    print()


def _extension_case(size, src_machine, dst_machine, mismatched):
    expected = mechanical.schema_for_size(size)
    sent = (
        expected.extended(expected.name, [FieldDecl("unexpected", CType.INT)], prepend=True)
        if mismatched
        else expected
    )
    src_layout = layout_record(sent, src_machine)
    dst_layout = layout_record(expected, dst_machine)
    bound = PbioWire("dcg").bind(src_layout, dst_layout)
    record = mechanical.sample_record(size)
    if mismatched:
        record = dict(record, unexpected=7)
    wire = bound.encode(codec_for(src_layout).encode(record))
    bound.decode(wire)
    return bound, wire


def _extension_figure(title, src_machine, dst_machine, note):
    print("=" * 78)
    print(title)
    print("=" * 78)
    table = TimingTable("decode (ms)", SIZES)
    for mismatched, label in ((False, "matched"), (True, "mismatched")):
        row = []
        for size in SIZES:
            bound, wire = _extension_case(size, src_machine, dst_machine, mismatched)
            row.append(best_of(lambda: bound.decode(wire), repeats=7, inner=5) * 1e3)
        table.add(label, row)
    print(table.render())
    print(note)
    print()


def fig6() -> None:
    _extension_figure(
        "Figure 6: heterogeneous receive, with/without unexpected field (ms)",
        support.I86,
        support.SPARC,
        "paper: the extra field has no effect on heterogeneous receive cost",
    )


def fig7() -> None:
    _extension_figure(
        "Figure 7: homogeneous receive, with/without unexpected field (ms)",
        support.SPARC,
        support.SPARC,
        "paper: mismatch overhead non-negligible but ~ a memcpy of the record",
    )


def sizes() -> None:
    print("=" * 78)
    print("Wire sizes (bytes) and the XML expansion factor (Section 4.2)")
    print("=" * 78)
    table = TimingTable("wire bytes", SIZES, unit="bytes")
    for name in ("XML", "MPICH", "CORBA", "PBIO"):
        row = []
        for size in SIZES:
            ex = support.build_exchange(name, size, support.SPARC, support.I86)
            row.append(float(len(ex.wire)))
        table.add(name, row)
    print(table.render())
    for size in SIZES:
        ex = support.build_exchange("XML", size, support.SPARC, support.I86)
        print(f"  XML expansion at {size}: {len(ex.wire) / mechanical.nominal_bytes(size):.1f}x")
    print("paper: ASCII expansion factor of 6-8 'not unusual'")
    print()


def extensions() -> None:
    """Summaries for the beyond-the-paper capabilities (EXPERIMENTS.md)."""
    print("=" * 78)
    print("Extensions: filters, zero-copy ladder, VAX exchange, codegen cost")
    print("=" * 78)
    from repro.abi import VAX
    from repro.core import IOContext, RecordFilter
    from repro.core.conversion import InterpretedConverter, generate_converter
    from repro.core import IOFormat, build_plan

    # filter vs decode on 100 KB
    sender = IOContext(support.SPARC)
    receiver = IOContext(support.I86)
    schema = mechanical.schema_for_size("100kb")
    handle = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(handle))
    message = sender.encode_native(handle, mechanical.native_bytes("100kb", support.SPARC))
    receiver.decode_native(message)
    flt = RecordFilter(receiver, schema.name, "temperature > 200.0")
    flt.matches(message)
    t_filter = best_of(lambda: flt.matches(message), repeats=7, inner=20) * 1e3
    t_decode = best_of(lambda: receiver.decode_native(message), repeats=7, inner=5) * 1e3
    print(f"filter vs decode (100kb): filter {t_filter:.4f} ms, full decode {t_decode:.4f} ms")

    # zero-copy ladder on 100 KB homogeneous
    s2 = IOContext(support.SPARC)
    r2 = IOContext(support.SPARC)
    h2 = s2.register_format(schema)
    r2.expect(schema)
    r2.receive(s2.announce(h2))
    msg2 = s2.encode_native(h2, mechanical.native_bytes("100kb", support.SPARC))
    t_view = best_of(lambda: r2.decode_view(msg2), repeats=7, inner=20) * 1e3
    t_native = best_of(lambda: r2.decode_native(msg2), repeats=7, inner=20) * 1e3
    t_dict = best_of(lambda: r2.decode(msg2), repeats=7, inner=5) * 1e3
    print(
        f"zero-copy ladder (100kb homogeneous): view {t_view:.4f} ms, "
        f"native copy {t_native:.4f} ms, full dict {t_dict:.4f} ms"
    )

    # VAX exchange
    s3 = IOContext(VAX)
    r3 = IOContext(support.I86)
    h3 = s3.register_format(schema)
    r3.expect(schema)
    r3.receive(s3.announce(h3))
    msg3 = s3.encode(h3, mechanical.sample_record("100kb"))
    r3.decode_native(msg3)
    t_vax = best_of(lambda: r3.decode_native(msg3), repeats=5, inner=5) * 1e3
    print(f"VAX->x86 decode (100kb, float format conversion): {t_vax:.4f} ms")

    # codegen one-time cost amortization
    for size in SIZES:
        sch = mechanical.schema_for_size(size)
        plan = build_plan(
            IOFormat.from_layout(layout_record(sch, support.I86)),
            IOFormat.from_layout(layout_record(sch, support.SPARC)),
        )
        native = mechanical.native_bytes(size, support.I86)
        gen = generate_converter(plan)
        interp = InterpretedConverter(plan)
        t_dcg = best_of(lambda: gen.convert(native), repeats=5, inner=5)
        t_int = best_of(lambda: interp(native), repeats=5, inner=5)
        breakeven = gen.generation_time_s / max(t_int - t_dcg, 1e-12)
        print(
            f"codegen {size}: generation {gen.generation_time_s * 1e3:.3f} ms, "
            f"per-record saving {(t_int - t_dcg) * 1e6:.2f} us -> break-even {breakeven:.0f} records"
        )
    print()


def metrics() -> None:
    """Decode-runtime metrics: shared converter cache + per-context counters."""
    print("=" * 78)
    print("Decode runtime metrics: shared cache, per-subscriber counters")
    print("=" * 78)
    from repro.core import ConverterCache
    from repro.net import EventChannel

    cache = ConverterCache()
    channel = EventChannel(cache=cache)
    schema = mechanical.schema_for_size("1kb")
    subscribers = []
    for _ in range(8):
        ctx = IOContext(support.SPARC)
        ctx.expect(schema)
        subscribers.append(channel.subscribe(ctx, lambda r: None))
    sender = IOContext(support.I86)
    handle = sender.register_format(schema)
    pub = channel.publisher(sender)
    record = mechanical.sample_record("1kb")
    for _ in range(50):
        pub.publish(handle, record)
    print(f"subscribers: {len(subscribers)}, records published: 50")
    print(f"shared cache: {cache.metrics.snapshot()['counters']}")
    print(f"subscriber[0] counters: {subscribers[0].ctx.metrics.snapshot()['counters']}")
    print("all 8 same-machine subscribers share one generated converter")
    print()


def faults() -> None:
    """Graceful degradation: relay fan-out with one chaotic downstream."""
    print("=" * 78)
    print("Robustness: relay with a faulty downstream (seeded chaos, docs/robustness.md)")
    print("=" * 78)
    from repro.net import FaultInjectingTransport, FaultPlan, InMemoryPipe, Relay

    relay = Relay(quarantine_after=3)
    healthy_pipes = [InMemoryPipe() for _ in range(2)]
    for pipe in healthy_pipes:
        relay.attach(pipe.a)
    faulty_pipe = InMemoryPipe()
    plan = FaultPlan(drop=0.2, corrupt=0.2, disconnect=0.05)
    injector = FaultInjectingTransport(faulty_pipe.a, plan, seed=0)
    faulty = relay.attach(injector)

    sender = IOContext(support.SPARC)
    schema = mechanical.schema_for_size("1kb")
    handle = sender.register_format(schema)
    relay.forward(sender.announce(handle))
    record = mechanical.sample_record("1kb")
    total = 100
    for _ in range(total):
        relay.forward(sender.encode(handle, record))

    receiver = IOContext(support.SPARC)
    receiver.expect(schema)
    delivered = 0
    pipe = healthy_pipes[0]
    while True:
        try:
            message = pipe.b.recv()
        except Exception:
            break
        if receiver.receive(message) is not None:
            delivered += 1
    print(f"records forwarded: {total}; healthy downstream decoded: {delivered}")
    print(f"faulty downstream quarantined: {faulty.quarantined}")
    print(f"injector counters: {injector.metrics.snapshot()['counters']}")
    print(f"faulty downstream counters: {faulty.metrics.snapshot()['counters']}")
    print(f"healthy downstream counters: {relay.active_downstreams[0].metrics.snapshot()['counters']}")
    print("one bad peer never starves the healthy ones: delivery to them is 100%")
    print()


def batch() -> None:
    """Record-batch fast path: batched vs per-message stream throughput."""
    print("=" * 78)
    print("Batching: 32 x 1kb same-format stream, sparc -> i86 (records/second)")
    print("=" * 78)
    from repro.net import InMemoryPipe
    from repro.workloads.generators import record_stream

    n = 32
    schema = mechanical.schema_for_size("1kb")
    codec = codec_for(layout_record(schema, support.SPARC))
    natives = [codec.encode(r) for r in record_stream(schema, count=n, seed=3)]
    sender = IOContext(support.SPARC)
    receiver = IOContext(support.I86, conversion="dcg")
    handle = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(handle))
    frames = [sender.encode_native(handle, native) for native in natives]
    receiver.pipeline.decode_batch(frames, native=True)  # warm converters + batch plan

    def loop_pump():
        pipe = InMemoryPipe()
        for frame in frames:
            pipe.a.send(frame)
        for _ in frames:
            receiver.pipeline.decode_native(pipe.b.recv())

    def batch_pump():
        pipe = InMemoryPipe()
        pipe.a.send_many(frames)
        receiver.pipeline.decode_batch(pipe.b.recv_many(), native=True)

    t_loop = best_of(loop_pump, repeats=7)
    t_batch = best_of(batch_pump, repeats=7)
    print(f"per-message loop: {n / t_loop:12,.0f} rec/s  ({t_loop * 1e6:8.1f} us/burst)")
    print(f"batched path:     {n / t_batch:12,.0f} rec/s  ({t_batch * 1e6:8.1f} us/burst)")
    print(f"speedup: {t_loop / t_batch:.2f}x (CI gate: >= 2x, bench_batch_throughput.py)")
    counters = receiver.metrics.snapshot()["counters"]
    batch_counters = {k: v for k, v in counters.items() if k.startswith("decode.batch.")}
    print(f"decode.batch.* counters: {batch_counters}")
    print("one columnar converter call per same-format run; byte-identical output")
    print()


def fabric() -> None:
    """Sharded relay fabric: throughput vs worker count, filter push-down."""
    print("=" * 78)
    print("Fabric: sharded relays (rec/s vs workers) and edge filter push-down")
    print("=" * 78)
    import os

    from bench_fabric_scaling import measure_pushdown, measure_scaling

    rates = measure_scaling((1, 2, 4))
    base = rates[1]
    cpus = os.cpu_count() or 1
    for workers, rate in rates.items():
        print(f"{workers} worker(s): {rate:12,.0f} rec/s  ({rate / base:4.2f}x)")
    print(
        f"({cpus} CPU(s) on this host; the >= 1.8x 1->4 gate runs in "
        f"bench_fabric_scaling.py on >= 4 CPUs)"
    )
    print()
    print("edge filter push-down vs subscriber-side full decode (1kb records):")
    for pct, (t_push, t_full) in measure_pushdown().items():
        print(
            f"selectivity {pct:3d}%: push-down {t_push * 1e3:8.2f} ms | "
            f"full decode {t_full * 1e3:8.2f} ms -> {t_full / t_push:5.2f}x"
        )
    print("the 1% row is gated >= 5x in bench_fabric_scaling.py")
    print()


def zerocopy() -> None:
    """Homogeneous-extension figure taken to its limit: decode cost per
    record for full-copy vs lend-mode (borrowed views) vs shm-ring
    delivery, 1 KB to 1 MB."""
    print("=" * 78)
    print("Zero-copy ladder: full-copy vs lend vs shm-ring, homogeneous (ms/record)")
    print("=" * 78)
    from repro.abi import RecordSchema
    from repro.net import shm_pair

    cases = [
        ("1kb", mechanical.schema_for_size("1kb"), 32),
        ("10kb", mechanical.schema_for_size("10kb"), 16),
        ("100kb", mechanical.schema_for_size("100kb"), 8),
        ("1mb", RecordSchema.from_pairs("blob1mb", [("a", "double[131072]")]), 2),
    ]
    points = []
    for label, schema, n in cases:
        sender = IOContext(support.SPARC)
        receiver = IOContext(support.SPARC)
        handle = sender.register_format(schema)
        receiver.expect(schema)
        receiver.receive(sender.announce(handle))
        if label == "1mb":
            message = sender.encode(handle, {"a": [0.0] * 131072})
        else:
            message = sender.encode_native(
                handle, mechanical.native_bytes(label, support.SPARC)
            )
        frames = [message] * n
        pipeline = receiver.pipeline
        pipeline.decode_batch(frames, native=True)  # warm converters
        pipeline.decode_batch(frames, native=True, lend=True)
        t_copy = best_of(lambda: pipeline.decode_batch(frames, native=True), repeats=5) / n
        t_lend = (
            best_of(lambda: pipeline.decode_batch(frames, native=True, lend=True), repeats=5)
            / n
        )
        # Same-host delivery *through the ring* plus the lend decode:
        # what a subscriber on this host actually pays per record.
        ring_cap = max(1 << 20, 4 * (len(message) + 16))
        a, b = shm_pair(capacity=ring_cap)
        try:

            def ring_pump():
                a.send_many(frames)
                pipeline.decode_batch(b.recv_many(), native=True, lend=True)

            ring_pump()  # warm the ring pages
            t_ring = best_of(ring_pump, repeats=5) / n
        finally:
            a.close()
            b.close()
        print(
            f"{label:>6}: full-copy {t_copy * 1e3:8.4f} | lend {t_lend * 1e3:8.4f} "
            f"({t_copy / t_lend:4.1f}x) | shm-ring {t_ring * 1e3:8.4f} ms/record"
        )
        points.append(
            support.trajectory_point(
                records=n,
                payload_bytes=len(message) * n,
                samples_s=[t_copy * n],
                extra={
                    "size": label,
                    "copy_ms_per_record": t_copy * 1e3,
                    "lend_ms_per_record": t_lend * 1e3,
                    "ring_ms_per_record": t_ring * 1e3,
                },
            )
        )
    support.append_trajectory("zerocopy_figure", points)
    print("paper shape: homogeneous receive ~ memcpy; lend removes even that copy")
    print()


FIGURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "sizes": sizes,
    "ext": extensions,
    "metrics": metrics,
    "faults": faults,
    "batch": batch,
    "fabric": fabric,
    "zerocopy": zerocopy,
}


def main(argv: list[str]) -> None:
    wanted = argv or list(FIGURES)
    unknown = [w for w in wanted if w not in FIGURES]
    if unknown:
        raise SystemExit(f"unknown figures {unknown}; available: {list(FIGURES)}")
    for name in wanted:
        FIGURES[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
