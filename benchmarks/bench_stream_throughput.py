"""Throughput benchmark: sustained record streams per wire system.

The paper's applications stream records continuously (monitoring,
visualization feeds).  This bench measures steady-state records/second
over a batch of pre-encoded application records, full path (encode ->
in-memory transport -> decode), per wire system, plus the event-channel
fan-out cost per subscriber.
"""

import pytest

import support
from repro.abi import codec_for, layout_record
from repro.core import IOContext
from repro.net import EventChannel, InMemoryPipe
from repro.wire import IiopWire, MpiWire, PbioWire, XmlWire
from repro.workloads import mechanical
from repro.workloads.generators import record_stream

N_RECORDS = 32
SIZE = "1kb"

SYSTEMS = {
    "PBIO": lambda: PbioWire("dcg"),
    "MPICH": MpiWire,
    "CORBA": IiopWire,
    "XML": XmlWire,
}


@pytest.fixture(scope="module")
def stream_setup():
    schema = mechanical.schema_for_size(SIZE)
    src = layout_record(schema, support.SPARC)
    dst = layout_record(schema, support.I86)
    codec = codec_for(src)
    natives = [codec.encode(r) for r in record_stream(schema, count=N_RECORDS, seed=3)]
    return src, dst, natives


@pytest.mark.parametrize("system_name", list(SYSTEMS))
def test_stream_full_path(benchmark, stream_setup, system_name):
    src, dst, natives = stream_setup
    bound = SYSTEMS[system_name]().bind(src, dst)
    bound.decode(bound.encode(natives[0]))  # warm converters

    def pump():
        pipe = InMemoryPipe()
        for native in natives:
            pipe.a.send(bound.encode(native))
        for _ in natives:
            bound.decode(pipe.b.recv())

    benchmark.group = f"stream throughput ({N_RECORDS} x {SIZE})"
    benchmark(pump)


@pytest.mark.parametrize("n_subscribers", [1, 4, 16])
def test_channel_fanout(benchmark, n_subscribers):
    schema = mechanical.schema_for_size("100b")
    channel = EventChannel()
    sink = []
    for _ in range(n_subscribers):
        ctx = IOContext(support.I86)
        ctx.expect(schema)
        channel.subscribe(ctx, sink.append)
    pub = channel.publisher(IOContext(support.SPARC))
    handle = pub.ctx.register_format(schema)
    native = mechanical.native_bytes("100b", support.SPARC)
    pub.publish_native(handle, native)  # warm announcements + converters

    benchmark.group = "channel fan-out (100b record)"
    benchmark(pub.publish_native, handle, native)


def test_shape_throughput_ordering(stream_setup):
    from repro.wire.timing import best_of

    src, dst, natives = stream_setup
    times = {}
    for name, factory in SYSTEMS.items():
        bound = factory().bind(src, dst)
        bound.decode(bound.encode(natives[0]))

        def pump(bound=bound):
            pipe = InMemoryPipe()
            for native in natives:
                pipe.a.send(bound.encode(native))
            for _ in natives:
                bound.decode(pipe.b.recv())

        times[name] = best_of(pump, repeats=5)
    assert times["PBIO"] < times["MPICH"] < times["XML"]
    assert times["PBIO"] < times["CORBA"]
