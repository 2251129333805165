"""Benchmarks for the extension features: DCG filters and PBIO files.

* Filters: evaluating a predicate over two scalar fields must cost far
  less than fully decoding the record — the point of placing "selected
  message operations" into the message path (Section 5).
* Files: write/read throughput for self-describing record files, where
  write cost is NDR-flat per record and read cost is one conversion.
"""

import io

import pytest

import support
from repro.abi import codec_for, layout_record
from repro.core import IOContext, RecordFilter
from repro.core.files import PbioFileReader, PbioFileWriter
from repro.wire.timing import best_of
from repro.workloads import mechanical


def filtered_stream(size):
    sender = IOContext(support.SPARC)
    receiver = IOContext(support.I86)
    schema = mechanical.schema_for_size(size)
    handle = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(handle))
    message = sender.encode_native(handle, mechanical.native_bytes(size, support.SPARC))
    flt = RecordFilter(receiver, schema.name, "temperature > 200.0 and pressure > 0.0")
    flt.matches(message)  # compile
    return receiver, flt, message


@pytest.mark.parametrize("size", ["1kb", "100kb"])
def test_filter_evaluation(benchmark, size):
    _, flt, message = filtered_stream(size)
    benchmark.group = f"filters vs decode {size}"
    benchmark(flt.matches, message)


@pytest.mark.parametrize("size", ["1kb", "100kb"])
def test_full_decode_for_comparison(benchmark, size):
    receiver, _, message = filtered_stream(size)
    benchmark.group = f"filters vs decode {size}"
    benchmark(receiver.decode_native, message)


def test_shape_filter_independent_of_record_size():
    times = {}
    for size in ("1kb", "100kb"):
        _, flt, message = filtered_stream(size)
        times[size] = best_of(lambda: flt.matches(message), repeats=7, inner=20)
    # Reading 2 scalars costs the same whether the record is 1 KB or
    # 100 KB; allow generous noise.
    assert times["100kb"] < 4 * times["1kb"]


def test_shape_filter_cheaper_than_decode_on_large_records():
    receiver, flt, message = filtered_stream("100kb")
    t_filter = best_of(lambda: flt.matches(message), repeats=7, inner=20)
    t_decode = best_of(lambda: receiver.decode_native(message), repeats=7, inner=5)
    assert t_filter < t_decode / 3


# --- files ------------------------------------------------------------------


def make_records(n=50):
    return [mechanical.sample_record("1kb", seed=s) for s in range(n)]


def test_file_write_throughput(benchmark):
    schema = mechanical.schema_for_size("1kb")
    ctx = IOContext(support.SPARC)
    handle = ctx.register_format(schema)
    natives = [codec_for(handle.layout).encode(r) for r in make_records()]

    def write_all():
        writer = PbioFileWriter(ctx, io.BytesIO())
        for native in natives:
            writer.write_native(handle, native)

    benchmark.group = "pbio files"
    benchmark(write_all)


def test_file_read_throughput(benchmark):
    schema = mechanical.schema_for_size("1kb")
    wctx = IOContext(support.SPARC)
    handle = wctx.register_format(schema)
    buf = io.BytesIO()
    writer = PbioFileWriter(wctx, buf)
    for record in make_records():
        writer.write(handle, record)
    blob = buf.getvalue()

    rctx = IOContext(support.I86)
    rctx.expect(schema)

    def read_all():
        return PbioFileReader(rctx, io.BytesIO(blob)).read_all()

    assert len(read_all()) == 50
    benchmark.group = "pbio files"
    benchmark(read_all)
