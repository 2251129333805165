"""The compiled record reader is the op loop, mechanically.

``NativeCodec.decode`` lowers eligible layouts to one generated routine
(a single ``Struct.unpack_from`` plus ``np.frombuffer`` wraps); the
per-field loop ``_decode_ops`` stays as the reference.  Reading the
packed record in one pass is only acceptable if it is shown equal to
reading it field by field — over every machine ABI, every field shape
(bool, char arrays, tuple-path and numpy-path arrays, padding holes),
any offset, borrowed sources that are overwritten afterwards, and short
buffers — and the layouts the generator declines (strings, VAX floats,
nested paths) must really take the loop.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abi import MACHINES, X86, CType, FieldDecl, NativeCodec, RecordSchema, layout_record
from repro.workloads import mechanical
from repro.workloads.generators import random_record

#: what a reader may raise on a buffer too short for the layout: the
#: family the decode pipeline folds into ConversionError (the generated
#: reader only ever raises the first; the loop's VAX and string ops add
#: the others)
SHORT_BUFFER_ERRORS = (struct.error, ValueError, IndexError, OverflowError)

FIXED_CTYPES = [c for c in CType if c is not CType.STRING]
#: scalars, tuple-path arrays, and both sides of the numpy threshold (16)
COUNTS = st.sampled_from([1, 1, 1, 2, 3, 8, 15, 16, 17, 40])


@st.composite
def schemas(draw):
    """``(schema, kind)``: fixed layouts, or one with a string / a nested
    record spliced in (which the generator must decline)."""
    fields = [
        FieldDecl(f"f{i}", draw(st.sampled_from(FIXED_CTYPES)), draw(COUNTS))
        for i in range(draw(st.integers(1, 10)))
    ]
    kind = draw(st.sampled_from(["fixed", "fixed", "fixed", "string", "nested"]))
    at = draw(st.integers(0, len(fields)))
    if kind == "string":
        fields.insert(at, FieldDecl("s", CType.STRING))
    elif kind == "nested":
        sub = RecordSchema("sub", [FieldDecl("a", CType.SHORT), FieldDecl("b", CType.DOUBLE, 2)])
        fields.insert(at, FieldDecl.nested("sub", sub, draw(st.integers(1, 2))))
    return RecordSchema("r", fields), kind


def assert_same(got, ref, path="record"):
    """Equal values *and* equal Python shapes, recursively."""
    assert type(got) is type(ref), path
    if isinstance(ref, dict):
        assert list(got) == list(ref), path  # same fields, same order
        for name in ref:
            assert_same(got[name], ref[name], f"{path}.{name}")
    elif isinstance(ref, (list, tuple)):
        assert len(got) == len(ref), path
        for i, (a, b) in enumerate(zip(got, ref)):
            assert_same(a, b, f"{path}[{i}]")
    elif isinstance(ref, np.ndarray):
        assert got.dtype == ref.dtype and got.shape == ref.shape, path
        assert got.flags.writeable == ref.flags.writeable, path
        assert got.tobytes() == ref.tobytes(), path  # bit-exact, NaNs included
    elif isinstance(ref, float):
        assert struct.pack("d", got) == struct.pack("d", ref), path
    else:
        assert got == ref, path


def takes_the_loop(codec) -> bool:
    return getattr(codec._reader, "__self__", None) is codec


@pytest.mark.parametrize("machine", sorted(MACHINES))
@settings(max_examples=40, deadline=None)
@given(drawn=schemas(), seed=st.integers(0, 2**31 - 1), offset=st.sampled_from([0, 0, 1, 7, 24]))
def test_compiled_reader_equals_the_op_loop(machine, drawn, seed, offset):
    schema, kind = drawn
    layout = layout_record(schema, MACHINES[machine])
    codec = NativeCodec(layout)
    assert codec._reader is None  # nothing is generated until a decode asks
    native = codec.encode(random_record(schema, np.random.default_rng(seed)))
    framed = bytes(offset) + native + b"\x5a" * 3

    # a borrowed source, overwritten once the call returns
    buffer = bytearray(framed)
    got = codec.decode(memoryview(buffer), offset)
    buffer[:] = b"\xee" * len(buffer)
    assert_same(got, codec._decode_ops(framed, offset))

    vax_floats = MACHINES[machine].float_format == "vax" and any(
        decl.ctype in (CType.FLOAT, CType.DOUBLE) for decl in schema
    )
    assert takes_the_loop(codec) == (kind != "fixed" or vax_floats)

    # short buffers: wherever the loop raises, so does the reader, in the
    # same family; where the loop tolerates the cut (inside tail padding,
    # or a numpy field it silently truncates) the reader may be stricter
    for cut in {0, layout.size // 2, max(layout.size - 1, 0)}:
        short = native[:cut]
        try:
            ref = codec._decode_ops(short)
        except SHORT_BUFFER_ERRORS:
            with pytest.raises(SHORT_BUFFER_ERRORS):
                codec.decode(short)
        else:
            try:
                assert_same(codec.decode(short), ref)
            except SHORT_BUFFER_ERRORS:
                pass


def test_benchmark_record_layouts_compile():
    """The layouts the e2e benchmark delivers as dicts get the generated
    reader — one unpack over holes, scalars, a char array, tuple arrays
    and numpy arrays — not the loop."""
    for size in ("100b", "1kb", "10kb"):
        schema = mechanical.schema_for_size(size)
        codec = NativeCodec(layout_record(schema, X86))
        record = random_record(schema, np.random.default_rng(7))
        native = codec.encode(record)
        assert_same(codec.decode(native), codec._decode_ops(native))
        assert not takes_the_loop(codec)
        assert codec._reader.__code__.co_filename == f"<pbio-reader:{schema.name}>"


def test_out_of_order_layout_keeps_the_loop():
    """A layout whose fields do not ascend (nothing in the tree builds one
    today; meta from the wire could) cannot be one struct format."""
    layout = layout_record(RecordSchema("two", [FieldDecl("a", CType.INT), FieldDecl("b", CType.INT)]), X86)
    codec = NativeCodec(layout)
    codec._ops.reverse()
    assert codec.decode(codec.encode({"a": 1, "b": 2})) == {"b": 2, "a": 1}
    assert takes_the_loop(codec)
