"""Tests for conversion plans and all three converter backends."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abi import (
    ALPHA,
    MACHINES,
    PrimKind,
    SPARC_V8,
    SPARC_V9_64,
    X86,
    X86_64,
    RecordSchema,
    codec_for,
    layout_record,
    records_equal,
)
from repro.core import IOFormat, OpKind, build_plan
from repro.core.conversion import (
    InterpretedConverter,
    generate_converter,
    generate_python_converter,
    generate_vcode_converter,
)
from repro.core.conversion.vectorized import NUMPY_THRESHOLD
from repro.core.errors import ConversionError
from repro.workloads import mechanical

from .test_batch import MACHINE_NAMES, field_pairs, hostile_natives, linked, schema_pair, seeds


def make_pair(src_machine, dst_machine, src_pairs, dst_pairs=None, name="t"):
    src_schema = RecordSchema.from_pairs(name, list(src_pairs))
    dst_schema = RecordSchema.from_pairs(name, list(dst_pairs or src_pairs))
    src_layout = layout_record(src_schema, src_machine)
    dst_layout = layout_record(dst_schema, dst_machine)
    plan = build_plan(IOFormat.from_layout(src_layout), IOFormat.from_layout(dst_layout))
    return src_layout, dst_layout, plan


BACKENDS = ["interpreted", "python", "vcode"]


def converter_for(plan, backend):
    if backend == "interpreted":
        return InterpretedConverter(plan)
    return generate_converter(plan, backend=backend).convert


def round_trip(src_machine, dst_machine, pairs, record, backend, dst_pairs=None):
    src_layout, dst_layout, plan = make_pair(src_machine, dst_machine, pairs, dst_pairs)
    native = codec_for(src_layout).encode(record)
    out = converter_for(plan, backend)(native)
    return codec_for(dst_layout).decode(out)


class TestPlanShape:
    def test_identical_layout_coalesces_to_single_copy(self):
        _, _, plan = make_pair(X86, X86, [("a", "int"), ("b", "int"), ("c", "double")])
        assert plan.is_identity
        assert plan.op_histogram() == {"copy": 1}

    def test_coalesce_spans_padding_gaps(self):
        # char + pad + int on both sides: padding advances in lockstep.
        _, _, plan = make_pair(SPARC_V8, SPARC_V8, [("c", "char"), ("i", "int")])
        assert plan.is_identity

    def test_swap_op_for_byte_order(self):
        _, _, plan = make_pair(X86, SPARC_V8, [("d", "double[4]")])
        assert [op.kind for op in plan.ops] == [OpKind.SWAP]
        assert plan.ops[0].count == 4

    def test_single_byte_fields_copy_across_orders(self):
        _, _, plan = make_pair(X86, SPARC_V8, [("c", "char[8]"), ("b", "uint8[4]")])
        assert all(op.kind is OpKind.COPY for op in plan.ops)

    def test_cvt_int_for_size_change(self):
        _, _, plan = make_pair(SPARC_V8, SPARC_V9_64, [("l", "long")])
        assert [op.kind for op in plan.ops] == [OpKind.CVT_INT]

    def test_zero_op_for_missing_field(self):
        _, _, plan = make_pair(X86, X86, [("a", "int")], [("a", "int"), ("b", "double")])
        kinds = {op.kind for op in plan.ops}
        assert OpKind.ZERO in kinds

    def test_describe_renders(self):
        _, _, plan = make_pair(X86, SPARC_V8, [("a", "int"), ("d", "double")])
        assert "swap" in plan.describe()


@pytest.mark.parametrize("backend", BACKENDS)
class TestConverterCorrectness:
    def test_byte_order_only(self, backend):
        rec = {"i": -123456, "d": 3.25, "f": 1.5, "s": -7}
        out = round_trip(X86, SPARC_V8, [("i", "int"), ("d", "double"), ("f", "float"), ("s", "short")], rec, backend)
        assert records_equal(rec, out)

    def test_reverse_direction(self, backend):
        rec = {"i": 42, "d": -2.5}
        out = round_trip(SPARC_V8, X86, [("i", "int"), ("d", "double")], rec, backend)
        assert records_equal(rec, out)

    def test_same_order_different_offsets(self, backend):
        rec = {"i": 7, "d": 9.75}
        out = round_trip(X86, ALPHA, [("i", "int"), ("d", "double")], rec, backend)
        assert records_equal(rec, out)

    def test_long_widening_with_sign(self, backend):
        rec = {"l": -5, "u": 4000000000}
        out = round_trip(SPARC_V8, SPARC_V9_64, [("l", "long"), ("u", "unsigned long")], rec, backend)
        assert records_equal(rec, out)

    def test_long_narrowing(self, backend):
        rec = {"l": -123456}
        out = round_trip(SPARC_V9_64, SPARC_V8, [("l", "long")], rec, backend)
        assert records_equal(rec, out)

    def test_arrays_large_and_small(self, backend):
        rec = {"small": (1.5, -2.5, 3.5), "big": tuple(float(i) for i in range(100))}
        out = round_trip(X86, SPARC_V8, [("small", "double[3]"), ("big", "double[100]")], rec, backend)
        assert records_equal(rec, out)

    def test_int_array_swap(self, backend):
        rec = {"v": tuple(range(-50, 50))}
        out = round_trip(SPARC_V8, X86, [("v", "int[100]")], rec, backend)
        assert records_equal(rec, out)

    def test_char_arrays_copied(self, backend):
        rec = {"name": b"hello\x00\x00\x00", "x": 3}
        out = round_trip(X86, SPARC_V8, [("name", "char[8]"), ("x", "int")], rec, backend)
        assert records_equal(rec, out)

    def test_bool_conversion(self, backend):
        rec = {"flag": True, "n": 9}
        out = round_trip(X86, SPARC_V8, [("flag", "bool"), ("n", "int")], rec, backend)
        assert out["flag"] == 1 and out["n"] == 9

    def test_missing_field_zeroed(self, backend):
        out = round_trip(X86, SPARC_V8, [("a", "int")], {"a": 5}, backend, dst_pairs=[("a", "int"), ("b", "double")])
        assert out == {"a": 5, "b": 0.0}

    def test_extra_field_ignored(self, backend):
        out = round_trip(
            X86, SPARC_V8, [("z", "int"), ("a", "int")], {"z": 99, "a": 5}, backend, dst_pairs=[("a", "int")]
        )
        assert out == {"a": 5}

    def test_int_to_float_cross_kind(self, backend):
        out = round_trip(X86, SPARC_V8, [("x", "int")], {"x": -3}, backend, dst_pairs=[("x", "double")])
        assert out["x"] == -3.0

    def test_float_to_int_cross_kind(self, backend):
        out = round_trip(X86, SPARC_V8, [("x", "double")], {"x": 9.75}, backend, dst_pairs=[("x", "int")])
        assert out["x"] == 9

    def test_float_to_double_widening(self, backend):
        out = round_trip(X86, SPARC_V8, [("x", "float")], {"x": 1.5}, backend, dst_pairs=[("x", "double")])
        assert out["x"] == 1.5

    def test_mixed_record_all_op_kinds(self, backend):
        pairs = [
            ("c", "char"),
            ("i", "int"),
            ("l", "long"),
            ("d", "double[20]"),
            ("f", "float[3]"),
            ("u", "unsigned short"),
            ("name", "char[12]"),
        ]
        rec = {
            "c": b"q",
            "i": -1,
            "l": 123456,
            "d": tuple(float(i) * 0.5 for i in range(20)),
            "f": (0.25, 0.5, 0.75),
            "u": 65535,
            "name": b"converter",
        }
        out = round_trip(SPARC_V8, ALPHA, pairs, rec, backend)
        assert records_equal(rec, out)


class TestStrings:
    # The vcode backend models fixed-size records; strings are tested on
    # the interpreted and python backends.
    @pytest.mark.parametrize("backend", ["interpreted", "python"])
    def test_string_relocation(self, backend):
        rec = {"tag": "hello world", "n": 5}
        out = round_trip(X86, SPARC_V8, [("tag", "string"), ("n", "int")], rec, backend)
        assert out == {"tag": "hello world", "n": 5}

    @pytest.mark.parametrize("backend", ["interpreted", "python"])
    def test_null_string(self, backend):
        out = round_trip(X86, SPARC_V8, [("tag", "string")], {"tag": None}, backend)
        assert out == {"tag": None}

    @pytest.mark.parametrize("backend", ["interpreted", "python"])
    def test_pointer_width_change(self, backend):
        rec = {"tag": "x" * 40, "n": 1}
        out = round_trip(X86, X86_64, [("tag", "string"), ("n", "int")], rec, backend)
        assert out == rec

    def test_vcode_backend_rejects_strings(self):
        _, _, plan = make_pair(X86, SPARC_V8, [("tag", "string")])
        with pytest.raises(ConversionError):
            generate_vcode_converter(plan)


class TestGeneratedCode:
    def test_source_is_returned_and_specialized(self):
        _, _, plan = make_pair(X86, SPARC_V8, [("i", "int"), ("d", "double[50]")])
        gen = generate_python_converter(plan)
        assert "def convert" in gen.source
        assert gen.generation_time_s > 0
        assert gen.backend == "python"
        # offsets are baked in as literals, no loops over ops
        assert "for op" not in gen.source

    def test_identity_plan_single_statement(self):
        _, _, plan = make_pair(X86, X86, [("a", "int"), ("b", "double")])
        gen = generate_python_converter(plan)
        copies = [l for l in gen.source.splitlines() if "src[" in l]
        # adjacent same-representation fields coalesce into one copy
        assert len(copies) == 1

    def test_vcode_source_is_disassembly(self):
        _, _, plan = make_pair(X86, SPARC_V8, [("i", "int")])
        gen = generate_vcode_converter(plan)
        assert "ld" in gen.source

    def test_unknown_backend_rejected(self):
        _, _, plan = make_pair(X86, X86, [("a", "int")])
        with pytest.raises(ValueError):
            generate_converter(plan, backend="llvm")

    def test_converter_accepts_memoryview(self):
        src_layout, dst_layout, plan = make_pair(X86, SPARC_V8, [("i", "int")])
        native = codec_for(src_layout).encode({"i": 77})
        out = generate_python_converter(plan).convert(memoryview(native))
        assert codec_for(dst_layout).decode(out)["i"] == 77


class TestCSemantics:
    """Conversion edge semantics must match what C casts would do."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_narrowing_truncates_like_c(self, backend):
        # 0x1_0000_0001 narrowed to 32 bits -> 1
        src_layout, dst_layout, plan = make_pair(
            SPARC_V9_64, SPARC_V8, [("l", "long")]
        )
        native = codec_for(src_layout).encode({"l": 0x100000001})
        out = converter_for(plan, backend)(native)
        assert codec_for(dst_layout).decode(out)["l"] == 1

    @pytest.mark.parametrize("backend", ["interpreted", "python"])
    def test_double_to_float_overflow_is_inf(self, backend):
        src_layout, dst_layout, plan = make_pair(
            X86, X86, [("x", "double")], [("x", "float")]
        )
        native = codec_for(src_layout).encode({"x": 1e300})
        out = converter_for(plan, backend)(native)
        assert codec_for(dst_layout).decode(out)["x"] == float("inf")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_float_to_int_truncates(self, backend):
        src_layout, dst_layout, plan = make_pair(X86, X86, [("x", "double")], [("x", "int")])
        native = codec_for(src_layout).encode({"x": -2.9})
        out = converter_for(plan, backend)(native)
        assert codec_for(dst_layout).decode(out)["x"] == -2


# -- fused runs vs the per-field reference -----------------------------------

#: Field pairs (wire decl, native decl) that pad, split or end a fused
#: run, mixed into ``test_batch.field_pairs`` draws.
RUN_SHAPERS = [
    (None, "int"),  # missing on the wire: a ZERO inside a run stays zero
    ("long long", None),  # unexpected on the wire: a gap on the source side
    ("char[12]", "char[5]"),  # CHARS longer than the target ...
    ("char[5]", "char[12]"),  # ... and shorter
    (f"int[{NUMPY_THRESHOLD - 1}]", f"int[{NUMPY_THRESHOLD - 1}]"),  # the longest struct run
    (f"int[{NUMPY_THRESHOLD}]", f"int[{NUMPY_THRESHOLD}]"),  # the shortest numpy run
    (f"short[{NUMPY_THRESHOLD}]", f"double[{NUMPY_THRESHOLD}]"),
    ("long long", "short"),  # narrowing int: masks every value
    ("double", "float"),  # narrowing float: numpy, for C overflow
    ("double", "int"),  # float -> int: truncates, raises on NaN/inf
    ("float", "long long"),
    ("char[64]", "char[64]"),  # the largest move that joins a run
    ("char[65]", "char[65]"),  # one byte more: a slice assignment
]
shaped_fields = st.lists(st.one_of(field_pairs(), st.sampled_from(RUN_SHAPERS)), min_size=1, max_size=8)


def planted_records(schema, machine, seed, count):
    """``hostile_natives`` plus what random bytes hardly ever hit: a
    signalling NaN in some float element, INT_MIN in some integer."""
    rng = np.random.default_rng(seed)
    layout = layout_record(schema, machine)
    elements = [
        (f.kind, f.offset + k * f.elem_size, f.elem_size)
        for f in layout.fields
        if f.kind in (PrimKind.FLOAT, PrimKind.INTEGER) and f.elem_size in (4, 8)
        for k in range(f.count)
    ]
    out = []
    for raw in hostile_natives(schema, machine, seed, count):
        raw = bytearray(raw)
        for j in rng.integers(len(elements), size=2) if elements else ():
            kind, pos, size = elements[j]
            if kind is PrimKind.INTEGER:
                bits = 1 << (8 * size - 1)
            elif machine.float_format == "vax":
                continue  # hostile_natives keeps VAX floats at 0.0
            else:
                bits = 0x7FA00001 if size == 4 else 0x7FF4000000000001
            raw[pos : pos + size] = bits.to_bytes(size, machine.byte_order)
        out.append(bytes(raw))
    return out


def outcome(convert, *args):
    """The converted bytes, or the family of error a hostile value
    (NaN to an integer, a float VAX cannot hold) raises."""
    try:
        return bytes(convert(*args))
    except (struct.error, ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("dst", MACHINE_NAMES)
@pytest.mark.parametrize("src", MACHINE_NAMES)
@settings(max_examples=3, deadline=None)
@given(pairs=shaped_fields, order=st.randoms(use_true_random=False), seed=seeds)
def test_generated_converter_matches_interpreted(src, dst, pairs, order, seed):
    """Fused or not, in place or not, the generated converter writes the
    bytes the per-field interpreter writes — for any buffer type, with
    the destination passed or owned."""
    wire_schema, native_schema = schema_pair(pairs)
    fields = list(wire_schema.fields)
    order.shuffle(fields)  # reordered on the wire: source offsets may descend
    wire_layout = layout_record(RecordSchema(wire_schema.name, fields), MACHINES[src])
    native_layout = layout_record(native_schema, MACHINES[dst])
    try:
        plan = build_plan(IOFormat.from_layout(wire_layout), IOFormat.from_layout(native_layout))
    except ConversionError:
        return  # an int <-> VAX float pair: no plan, nothing to compare
    reference = InterpretedConverter(plan)
    generated = generate_python_converter(plan).convert
    size = native_layout.size
    for record in planted_records(wire_layout.schema, MACHINES[src], seed, 6):
        want = outcome(reference, record)
        shifted = memoryview(b"\xa5" * 3 + record)[3:]
        for source in (record, bytearray(record), shifted):
            assert outcome(generated, source) == want
            dst_buf = bytearray(size)
            got = outcome(generated, source, dst_buf)
            assert got == want
            if isinstance(want, bytes):
                assert dst_buf == want  # filled in place, not replaced


def statements(source):
    """The conversion statements of a generated fixed-size converter."""
    return source.splitlines()[3:-1]


def mech_plan(size):
    """The paper's mechanical record, SPARC wire to x86 native."""
    schema = mechanical.schema_for_size(size)
    return build_plan(
        IOFormat.from_layout(layout_record(schema, SPARC_V8)),
        IOFormat.from_layout(layout_record(schema, X86)),
    )


class TestFusedRuns:
    def test_mech_100b_is_one_pack_into_line(self):
        gen = generate_python_converter(mech_plan("100b"))
        (line,) = statements(gen.source)
        assert "pack_into(dst, 0, *" in line and "unpack_from(src, 0)" in line
        assert gen.statements == 1

    def test_mech_1kb_is_one_take(self):
        """sparc -> x86 only moves bytes: within GATHER_MAX_BYTES a record
        that would fuse to more than one statement is one gather straight
        into the destination."""
        gen = generate_python_converter(mech_plan("1kb"))
        (line,) = statements(gen.source)
        assert line.strip().startswith("_w.take(") and "out=np.frombuffer(dst" in line
        assert gen.statements == 1 and gen.gather is not None
        assert "pack_into" not in gen.source and ".astype(" not in gen.source
        small = generate_python_converter(mech_plan("100b"))  # one struct pair: the index is for groups
        assert "pack_into" in small.source and small.gather is not None

    def test_mech_10kb_keeps_its_fused_runs_without_a_copy(self):
        """Past GATHER_MAX_BYTES: struct pairs and in-place numpy casts."""
        gen = generate_python_converter(mech_plan("10kb"))
        assert gen.gather is None and len(statements(gen.source)) == gen.statements == 5
        assert "pack_into" in gen.source and "np.frombuffer(dst" in gen.source
        assert "tobytes" not in gen.source and ".astype(" not in gen.source

    def test_what_pads_and_what_splits_a_run(self):
        wire = [
            ("a", "int"), ("gone", "double"), ("b", "short"),  # "gone": a source gap
            ("tag", "char[9]"), ("c", "double"),  # CHARS truncated to 4
            ("wide", "long long"),  # narrowing: alone
            ("d", "int"), ("e", "int[31]"),
            ("big", "int[32]"),  # numpy: alone
            ("blob", "char[65]"),  # too long for an s item: alone
            ("f", "float"),
        ]
        native = [
            ("a", "int"), ("fresh", "int"), ("b", "short"),  # "fresh": ZERO inside the run
            ("tag", "char[4]"), ("c", "double"),
            ("wide", "short"),
            ("d", "int"), ("e", "int[31]"),
            ("big", "int[32]"),
            ("blob", "char[65]"),
            ("f", "double"),
        ]
        _, dst_layout, plan = make_pair(SPARC_V8, X86, wire, native)
        gen = generate_python_converter(plan)
        kinds = ["pack_into" if "pack_into" in l else "cast" if "np." in l else "slice" for l in statements(gen.source)]
        # a..c | wide | d,e | big | blob | f
        assert kinds == ["pack_into", "pack_into", "pack_into", "cast", "slice", "pack_into"]
        assert "& 65535" in statements(gen.source)[1]
        src_layout = layout_record(RecordSchema.from_pairs("t", wire), SPARC_V8)
        record = codec_for(src_layout).encode(
            {"a": 1, "gone": 2.0, "b": 3, "tag": "abcdefgh", "c": 4.0, "wide": -2, "d": 5,
             "e": list(range(31)), "big": list(range(32)), "blob": "x" * 64, "f": 0.5}
        )
        out = gen.convert(record)
        assert out == InterpretedConverter(plan)(record)
        decoded = codec_for(dst_layout).decode(out)
        assert decoded["fresh"] == 0 and decoded["wide"] == -2 and decoded["tag"] == b"abcd"

    def test_reordered_fields_end_the_run(self):
        # c widens, so the plan does more than move bytes and is not one gather
        _, _, plan = make_pair(
            SPARC_V8, X86, [("b", "int"), ("a", "int"), ("c", "int")], [("a", "int"), ("b", "int"), ("c", "long long")]
        )
        # a reads src 4, b reads src 0: backwards, so b starts a new run, which c joins
        assert len(statements(generate_python_converter(plan).source)) == 2

    def test_short_buffer_surfaces_as_conversion_error(self):
        """struct.error (fused run) and ValueError (in-place cast) still
        leave the pipeline as ConversionError."""
        for spec, value, keep in (("int", 2, 10), (f"double[{NUMPY_THRESHOLD}]", [0.0] * NUMPY_THRESHOLD, 100)):
            schema = RecordSchema.from_pairs("rec", [("i", "int"), ("v", spec), ("j", "int")])
            sender, receiver, handle = linked(schema)
            pipeline = receiver.pipeline
            pipeline.ingest(sender.announce(handle))
            wire_fmt, payload = pipeline.open_data(sender.encode(handle, {"i": 1, "v": value, "j": 3}))
            entry, _ = pipeline.entry_for(wire_fmt, pipeline.native_for(wire_fmt))
            with pytest.raises(ConversionError):
                pipeline._run_converter(entry, wire_fmt, payload[:keep])
            with pytest.raises(ConversionError):
                pipeline._run_converter(entry, wire_fmt, payload[:keep], bytearray(entry.native_size))
