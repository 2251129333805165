#!/usr/bin/env python
"""Mechanical-engineering exchange over real TCP sockets, comparing wire
formats — a miniature of the paper's evaluation on the workload its
figures use.

A simulated SPARC "solver" streams mesh-node update records (the paper's
1 KB mixed-field structures) to a simulated x86 "coupler" over a real
loopback socket, once with each wire system.  The script reports per-
system sender CPU, receiver CPU, and bytes on the wire, and verifies all
systems deliver identical physics.

Run: python examples/heterogeneous_mesh.py
"""

import time

from repro import abi
from repro.abi import codec_for, layout_record, records_equal
from repro.net import loopback_pair
from repro.wire import IiopWire, MpiWire, PbioWire, XmlWire
from repro.workloads import mechanical
from repro.workloads.generators import record_stream

SIZE = "1kb"
N_RECORDS = 200


def run_system(name, system, records, src_layout, dst_layout):
    bound = system.bind(src_layout, dst_layout)
    src_codec = codec_for(src_layout)
    dst_codec = codec_for(dst_layout)
    natives = [src_codec.encode(r) for r in records]  # app-side data

    client, server = loopback_pair()
    try:
        send_cpu = recv_cpu = 0.0
        wire_bytes = 0
        decoded = []
        for native in natives:
            t0 = time.perf_counter()
            message = bound.encode(native)
            send_cpu += time.perf_counter() - t0
            wire_bytes += len(message)
            client.send(message)
            incoming = server.recv()
            t0 = time.perf_counter()
            out = bound.decode(incoming)
            recv_cpu += time.perf_counter() - t0
            decoded.append(dst_codec.decode(out))
        return send_cpu, recv_cpu, wire_bytes, decoded
    finally:
        client.close()
        server.close()


def main() -> None:
    schema = mechanical.schema_for_size(SIZE)
    src_layout = layout_record(schema, abi.SPARC_V8)
    dst_layout = layout_record(schema, abi.X86)
    records = list(record_stream(schema, count=N_RECORDS, seed=42))

    systems = [
        ("PBIO (DCG)", PbioWire("dcg")),
        ("PBIO (interp)", PbioWire("interpreted")),
        ("MPICH", MpiWire()),
        ("CORBA", IiopWire()),
        ("XML", XmlWire()),
    ]
    print(
        f"streaming {N_RECORDS} x {SIZE} mesh records, "
        f"{src_layout.machine.name} -> {dst_layout.machine.name}, real TCP loopback\n"
    )
    print(f"{'system':14s} {'send CPU':>10s} {'recv CPU':>10s} {'wire KB':>9s}")
    reference = None
    for name, system in systems:
        send_cpu, recv_cpu, wire_bytes, decoded = run_system(
            name, system, records, src_layout, dst_layout
        )
        print(
            f"{name:14s} {send_cpu * 1e3:8.2f} ms {recv_cpu * 1e3:8.2f} ms "
            f"{wire_bytes / 1024:8.1f}"
        )
        if reference is None:
            reference = decoded
        else:
            for want, got in zip(reference, decoded):
                assert records_equal(want, got, rel_tol=1e-5)
    print("\nall systems delivered identical records; only the costs differ.")


if __name__ == "__main__":
    main()
