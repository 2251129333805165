"""Batch decode: byte-identity with the sequential path, under chaos too.

The record-batch fast path (columnar conversion, consecutive-run
grouping) is only allowed to be *faster* than a sequential
``ingest``/``decode`` loop — never observably different.  These tests
pin that down over random schemas, mixed-format interleavings, fault-
injected streams and DecodeLimits rejections.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abi import (
    MACHINES,
    SPARC_V8,
    VAX,
    X86,
    FieldDecl,
    PrimKind,
    RecordSchema,
    codec_for,
    layout_record,
    records_equal,
)
from repro.core import IOContext, PbioError
from repro.core import encoder as enc
from repro.core.conversion import GATHER_MAX_BYTES, build_batch_converter, build_plan, gather_index
from repro.core.safety import DecodeLimits
from repro.net.faults import FaultInjectingTransport, FaultPlan
from repro.net.transport import InMemoryPipe
from repro.workloads.generators import random_record, random_schema

MACHINE_NAMES = sorted(MACHINES)

machines = st.sampled_from(MACHINE_NAMES)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def fresh_receiver(dst, schemas, conversion="dcg", limits=None):
    kwargs = {"conversion": conversion}
    if limits is not None:
        kwargs["limits"] = limits
    receiver = IOContext(MACHINES[dst] if isinstance(dst, str) else dst, **kwargs)
    for schema in schemas:
        receiver.expect(schema)
    return receiver


def assert_same_decodes(batched, reference):
    """Slot-for-slot equality; record dicts may hold numpy array fields."""
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        if want is None or got is None:
            assert got is None and want is None
        else:
            assert records_equal(got, want)


def sequential_ingest(receiver, frames):
    """The reference loop: one slot per frame, None for absorbed/rejected."""
    out = []
    for frame in frames:
        try:
            out.append(receiver.pipeline.ingest(frame))
        except PbioError:
            out.append(None)
    return out


def build_stream(seed, src):
    """Two random formats, their announcements, and interleaved data —
    plain and sequenced frames mixed: to a decode path the sequence
    prefix is framing, and a group may hold both."""
    rng = np.random.default_rng(seed)
    schema_a = random_schema(rng, name="fmt_a", allow_strings=True, allow_nested=True)
    schema_b = random_schema(rng, name="fmt_b", allow_strings=True, allow_nested=True)
    sender = IOContext(MACHINES[src] if isinstance(src, str) else src)
    ha = sender.register_format(schema_a)
    hb = sender.register_format(schema_b)
    frames = [sender.announce(ha), sender.announce(hb)]
    for _ in range(int(rng.integers(3, 20))):
        handle, schema = (ha, schema_a) if rng.random() < 0.6 else (hb, schema_b)
        frame = sender.encode(handle, random_record(schema, rng))
        if rng.random() < 0.3:  # the same record, travelling as a sequenced frame
            seq = int(rng.integers(1, 1 << 40))
            record = frame[enc.HEADER_SIZE :]
            frame = enc.encode_data_seq(sender.context_id, handle.format_id, seq, record)
        frames.append(frame)
    return (schema_a, schema_b), frames


@settings(max_examples=40, deadline=None)
@given(seed=seeds, src=machines, dst=machines)
def test_decode_batch_matches_sequential_over_mixed_streams(seed, src, dst):
    schemas, frames = build_stream(seed, src)
    reference = sequential_ingest(fresh_receiver(dst, schemas), frames)
    batched = fresh_receiver(dst, schemas).pipeline.decode_batch(frames)
    assert_same_decodes(batched, reference)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, src=machines, dst=machines)
def test_decode_batch_native_is_byte_identical(seed, src, dst):
    schemas, frames = build_stream(seed, src)
    scalar = fresh_receiver(dst, schemas)
    reference = []
    for frame in frames:
        try:
            scalar.pipeline.ingest(frame)
        except PbioError:
            reference.append(None)
            continue
        try:
            reference.append(scalar.pipeline.decode_native(frame))
        except PbioError:
            reference.append(None)
    # Announcements decode as None on both sides; data frames must match
    # byte for byte (ingest above decoded them once already, so replace
    # the double-decoded announcements with None explicitly).
    reference[0] = reference[1] = None
    batched = fresh_receiver(dst, schemas).pipeline.decode_batch(frames, native=True)
    assert batched == reference


@settings(max_examples=25, deadline=None)
@given(seed=seeds, chaos_seed=st.integers(min_value=0, max_value=2**16))
def test_decode_batch_matches_sequential_under_chaos(seed, chaos_seed):
    """A fault-perturbed stream decodes identically batched or looped —
    and a damaged frame rejects only itself under on_error="skip"."""
    schemas, frames = build_stream(seed, "sparc")
    pipe = InMemoryPipe()
    chaotic = FaultInjectingTransport(
        pipe.a,
        FaultPlan(drop=0.1, truncate=0.1, corrupt=0.15, duplicate=0.1, delay=0.1),
        seed=chaos_seed,
    )
    for frame in frames:
        chaotic.send(frame)
    chaotic.flush()
    received = [pipe.b.recv() for _ in range(pipe.b.pending())]
    reference = sequential_ingest(fresh_receiver("i86", schemas), received)
    batched = fresh_receiver("i86", schemas).pipeline.decode_batch(
        received, on_error="skip"
    )
    assert_same_decodes(batched, reference)


# -- the compiled record kernel vs the interpreted converter -----------------
#
# One (wire type, native type) pair per plan-op flavour the kernel lowers;
# the machine pair decides whether "same type" is a COPY or a SWAP and
# how wide a ``long`` is.
SCALAR_PAIRS = [
    ("int", "int"),
    ("double", "double"),
    ("unsigned short", "short"),
    ("bool", "int"),
    ("signed char", "long long"),  # widening, sign-extended
    ("unsigned char", "unsigned long"),
    ("short", "long"),
    ("long long", "short"),  # narrowing: out-of-range values truncate
    ("unsigned long long", "unsigned char"),
    ("long", "signed char"),
    ("float", "double"),
    ("double", "float"),  # overflow -> inf, NaN stays NaN
    ("int", "double"),
    ("long long", "float"),
    ("unsigned int", "float"),
]
FLOAT_SPECIALS = [float("nan"), float("inf"), float("-inf"), 1e300, -1e300, -0.0, 1e-310]


@st.composite
def field_pairs(draw, nested_ok=True):
    """One field as ``(wire decl or None, native decl or None)`` builders."""
    flavours = ["scalar", "array", "chars", "missing", "extension"]
    flavour = draw(st.sampled_from(flavours + ["nested"] * nested_ok))
    if flavour == "nested":
        inner = draw(st.lists(field_pairs(nested_ok=False), min_size=1, max_size=3))
        count = draw(st.integers(1, 3))
        return ("nested", inner, count)
    if flavour == "chars":
        # equal lengths copy; longer wire truncates; shorter wire NUL-pads
        return (f"char[{draw(st.integers(1, 12))}]", f"char[{draw(st.integers(1, 12))}]")
    wire, native = draw(st.sampled_from(SCALAR_PAIRS))
    if flavour == "missing":
        return (None, native)
    if flavour == "extension":
        return (wire, None)
    if flavour == "array":
        wire_n = draw(st.integers(2, 40))
        cross_kind = ("float" in wire or "double" in wire) != ("float" in native or "double" in native)
        # array lengths may differ within a kind (extra elements zero or
        # dropped); a cross-kind length mismatch is a plan error
        native_n = wire_n if cross_kind else draw(st.integers(2, 40))
        return (f"{wire}[{wire_n}]", f"{native}[{native_n}]")
    return (wire, native)


def schema_pair(pairs, name="rec"):
    """(wire schema, native schema) from :func:`field_pairs` draws; a
    leading ``tag`` keeps both sides non-empty."""
    sides = ([FieldDecl.parse("tag", "int")], [FieldDecl.parse("tag", "int")])
    for i, pair in enumerate(pairs):
        fname = f"f{i}"
        if pair[0] == "nested":
            inner = schema_pair(pair[1], name=f"{name}_{fname}")
            decls = [FieldDecl.nested(fname, sub, pair[2]) for sub in inner]
        else:
            decls = [spec and FieldDecl.parse(fname, spec) for spec in pair]
        for side, decl in zip(sides, decls):
            if decl is not None:
                side.append(decl)
    return RecordSchema(name, sides[0]), RecordSchema(name, sides[1])


def hostile_natives(schema, machine, seed, count):
    """``count`` records of random bytes in ``machine``'s layout of
    ``schema`` — every integer range, padding garbage — with a few float
    specials planted per record so NaN/inf/overflow/denormal casts occur."""
    rng = np.random.default_rng(seed)
    layout = layout_record(schema, machine)
    spots = [  # (offset, size) of every float element
        (f.offset + k * f.elem_size, f.elem_size)
        for f in layout.fields
        if f.kind is PrimKind.FLOAT
        for k in range(f.count)
    ]
    out = []
    for _ in range(count):
        raw = bytearray(rng.bytes(layout.size))
        if machine.float_format == "vax":
            # random bits include VAX reserved operands, which are not
            # the kernel's business (VAX plans never lift): use 0.0
            for pos, size in spots:
                raw[pos : pos + size] = bytes(size)
        elif spots:
            for j in rng.integers(len(spots), size=4):
                pos, size = spots[j]
                value = FLOAT_SPECIALS[int(rng.integers(len(FLOAT_SPECIALS)))]
                if size == 4 and 1e38 < abs(value) < float("inf"):
                    value = 3e38 if value > 0 else -3e38  # still finite as a float32
                struct.pack_into(machine.struct_endian + "fd"[size == 8], raw, pos, value)
        out.append(bytes(raw))
    return out


def decode_or_none(decode, frame):
    try:
        return decode(frame)
    except PbioError:
        return None


def moves_bytes(pair):
    """Whether a :func:`field_pairs` draw is a byte move on every machine
    pair (the same type both sides, or a field on one side only)."""
    if pair[0] == "nested":
        return all(map(moves_bytes, pair[1]))
    if pair[0] is None or pair[1] is None:
        return True
    wire, native = (spec.split("[")[0] for spec in pair)
    return wire == native and wire in ("char", "int", "double", "short", "unsigned short", "float", "long long")


#: Doubles appended to a drawn schema: none, a record within
#: ``GATHER_MAX_BYTES`` whose groups of two are past it, a record past it.
BULK = [0, GATHER_MAX_BYTES // 16, GATHER_MAX_BYTES // 8 + 1]


@pytest.mark.parametrize("dst", MACHINE_NAMES)
@pytest.mark.parametrize("src", MACHINE_NAMES)
@settings(max_examples=3, deadline=None)
@given(
    pairs=st.lists(field_pairs(), min_size=1, max_size=8),
    moves=st.booleans(),
    bulk=st.sampled_from(BULK),
    seed=seeds,
)
def test_kernel_matches_interpreted_converter(src, dst, pairs, moves, bulk, seed):
    """Every group size x every output shape is byte-identical to the
    interpreted converter run one frame at a time (a frame it rejects —
    a value with no VAX representation — is ``None`` on both sides).
    With ``moves`` the plan only moves bytes, so records and groups within
    the gather's bound are one gather; ``bulk`` puts them on both sides."""
    if moves:
        pairs = [pair for pair in pairs if moves_bytes(pair)]
    if bulk:
        pairs = [*pairs, (f"double[{bulk}]", f"double[{bulk}]")]
    wire_schema, native_schema = schema_pair(pairs)
    sender = IOContext(MACHINES[src])
    handle = sender.register_format(wire_schema)
    announce = sender.announce(handle)
    frames = [
        sender.encode_native(handle, native)
        for native in hostile_natives(wire_schema, MACHINES[src], seed, 32)
    ]
    reference = fresh_receiver(dst, [native_schema], conversion="interpreted")
    reference.pipeline.ingest(announce)
    want = [decode_or_none(reference.pipeline.decode_native, frame) for frame in frames]
    codec = codec_for(layout_record(native_schema, MACHINES[dst]))
    want_dicts = [None if record is None else codec.decode(record) for record in want]

    pipeline = fresh_receiver(dst, [native_schema]).pipeline
    pipeline.ingest(announce)
    for n in (1, 2, 3, 32):
        group, expect = frames[:n], want[:n]
        assert pipeline.decode_batch(group, native=True, on_error="skip") == expect
        lent = pipeline.decode_batch(group, native=True, on_error="skip", lend=True)
        assert [m and bytes(m) for m in lent] == expect
        views = pipeline.decode_batch(group, on_error="skip", lend=True)
        assert [v and bytes(v.buffer) for v in views] == expect
        np.testing.assert_equal(pipeline.decode_batch(group, on_error="skip"), want_dicts[:n])


def test_zero_only_plan_is_a_kernel_with_no_fields():
    """No wire field matches: every native byte is an uncovered byte."""
    wire = RecordSchema.from_pairs("rec", [("gone", "int"), ("also_gone", "double")])
    native = RecordSchema.from_pairs("rec", [("fresh", "double[3]"), ("new", "short")])
    sender = IOContext(SPARC_V8)
    handle = sender.register_format(wire)
    receiver = fresh_receiver(X86, [native])
    plan = build_plan(handle.iofmt, receiver.expect(native))
    kernel = build_batch_converter(plan)
    assert kernel is not None and kernel.dst_dtype.names == ()
    frames = [sender.announce(handle)] + [
        sender.encode(handle, {"gone": k, "also_gone": 0.5}) for k in range(3)
    ]
    out = receiver.pipeline.decode_batch(frames, native=True)
    assert out[1:] == [bytes(plan.native.record_size)] * 3
    assert receiver.metrics.value("decode.batch.converted") == 3


def linked(sch, src=SPARC_V8, dst=X86, **kwargs):
    sender = IOContext(src)
    receiver = IOContext(dst, **kwargs)
    handle = sender.register_format(sch)
    receiver.expect(sch)
    return sender, receiver, handle


class TestBatchRejectionIsolation:
    SCHEMA = RecordSchema.from_pairs("rec", [("i", "int"), ("d", "double[4]")])

    def frames(self, sender, handle, n=8):
        out = [sender.announce(handle)]
        out += [
            sender.encode(handle, {"i": k, "d": [k * 0.5] * 4}) for k in range(n)
        ]
        return out

    def test_bad_frame_rejects_only_itself(self):
        sender, receiver, handle = linked(self.SCHEMA)
        frames = self.frames(sender, handle)
        frames[4] = frames[4][:-3]  # torn payload: length mismatch
        out = receiver.pipeline.decode_batch(frames, on_error="skip")
        assert out[4] is None
        assert [o is not None for o in out[1:]] == [
            True, True, True, False, True, True, True, True,
        ]
        assert receiver.metrics.value("decode.batch.rejected") == 1
        assert receiver.metrics.value("decode.rejected") == 1

    @pytest.mark.parametrize("lend", [False, True])
    @pytest.mark.parametrize("native_out", [False, True])
    def test_length_mismatch_inside_a_group_matches_the_sequential_loop(
        self, native_out, lend
    ):
        """A frame longer than its header says, mid-group: only it is
        rejected and every counter agrees with a frame-at-a-time loop."""
        sender, receiver, handle = linked(self.SCHEMA)
        frames = self.frames(sender, handle)
        frames[5] = frames[5] + b"\x00" * 8
        out = receiver.pipeline.decode_batch(frames, on_error="skip", lend=lend, native=native_out)
        assert [o is None for o in out] == [True] + [False] * 4 + [True] + [False] * 3
        _, looped, _ = linked(self.SCHEMA)
        looped.pipeline.ingest(sender.announce(handle))
        sequential_ingest(looped, frames[1:])
        for counter in ("decode.rejected", "converted_decodes", "zero_copy_decodes"):
            assert receiver.metrics.value(counter) == looped.metrics.value(counter), counter
        assert receiver.metrics.value("decode.batch.rejected") == 1
        assert receiver.metrics.value("decode.batch.converted") == 7

    def test_oversized_frame_rejected_by_limits(self):
        limits = DecodeLimits(max_message_size=256)
        sender, receiver, handle = linked(self.SCHEMA, limits=limits)
        frames = self.frames(sender, handle, n=4)
        frames.insert(3, frames[3] + b"\x00" * 512)  # blows max_message_size
        out = receiver.pipeline.decode_batch(frames, on_error="skip")
        assert out[3] is None
        assert sum(o is not None for o in out) == 4
        assert receiver.metrics.value("decode.rejected") == 1

    def test_on_error_raise_propagates_first_rejection(self):
        sender, receiver, handle = linked(self.SCHEMA)
        frames = self.frames(sender, handle)
        frames[2] = b"\x00" * 40
        with pytest.raises(PbioError):
            receiver.pipeline.decode_batch(frames)

    def test_invalid_on_error_rejected(self):
        _, receiver, _ = linked(self.SCHEMA)
        with pytest.raises(ValueError, match="on_error"):
            receiver.pipeline.decode_batch([], on_error="ignore")


class TestParsedHeaders:
    """``decode_batch(headers=...)``: a frame whose header a stage upstream
    parsed is not parsed again — and is checked against itself all the
    same, so a header that lies is rejected like a frame that lies."""

    SCHEMA = TestBatchRejectionIsolation.SCHEMA
    WIDER = RecordSchema.from_pairs("wider", [("i", "int"), ("d", "double[9]")])

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, src=machines, dst=machines, lend=st.booleans(), share=st.floats(0, 1))
    def test_same_results_and_counters_with_any_share_of_headers(self, seed, src, dst, lend, share):
        schemas, frames = build_stream(seed, src)
        frames.insert(len(frames) // 2, frames[-1][:-2])  # and a torn one
        rng = np.random.default_rng(seed)
        headers = [enc.try_unpack_header(f) if rng.random() < share else None for f in frames]
        plain, threaded = fresh_receiver(dst, schemas), fresh_receiver(dst, schemas)
        want = plain.pipeline.decode_batch(frames, on_error="skip", lend=lend)
        got = threaded.pipeline.decode_batch(frames, on_error="skip", lend=lend, headers=headers)
        if lend:
            want, got = ([v and v.to_dict() for v in out] for out in (want, got))
        assert_same_decodes(got, want)
        assert threaded.metrics.counters().keys() == plain.metrics.counters().keys()
        for name, value in plain.metrics.counters().items():
            if name != "generation_time_s":
                assert threaded.metrics.value(name) == value, name

    @pytest.mark.parametrize("src", [SPARC_V8, X86], ids=["converting", "zero-copy"])
    def test_a_lying_header_is_rejected_like_a_lying_frame(self, src):
        sender, receiver, handle = linked(self.SCHEMA, src=src, limits=DecodeLimits(max_message_size=256))
        wider = sender.register_format(self.WIDER)
        receiver.expect(self.WIDER)
        receiver.pipeline.decode_batch([sender.announce(handle), sender.announce(wider)])
        good = sender.encode(handle, {"i": 7, "d": [0.5] * 4})
        cid, fid, size = sender.context_id, handle.format_id, len(good) - enc.HEADER_SIZE
        sequenced = enc.encode_data_seq(cid, fid, 3, good[enc.HEADER_SIZE :])
        zero = bytearray(sequenced)
        zero[enc.HEADER_SIZE : enc.SEQ_RECORD_OFFSET] = bytes(enc.SEQ_PREFIX_SIZE)
        lies = [
            (good, (enc.MSG_DATA, cid, fid, size + 8)),  # more payload than there is
            (good, (enc.MSG_DATA, cid, fid, size - 8)),  # less
            (good, (enc.MSG_DATA, cid, wider.format_id, size)),  # a format with a longer record
            (good, (enc.MSG_DATA_SEQ, cid, fid, size + 8)),  # a sequence prefix it has not got
            (good, (enc.MSG_DATA, cid, fid + 9, size)),  # a format nobody announced
            (good[: enc.HEADER_SIZE], (enc.MSG_DATA, cid, fid, size)),  # a record that is not there
            (bytes(zero), (enc.MSG_DATA_SEQ, cid, fid, size + 8)),  # true header, sequence 0
            (good + bytes(300), (enc.MSG_DATA, cid, fid, size)),  # over the size limit
        ]
        decode = receiver.pipeline.decode_batch
        for lend in (False, True):
            for frame, header in lies:
                assert decode([frame], on_error="skip", lend=lend, headers=[header]) == [None]
                with pytest.raises(PbioError):
                    decode([good, frame], lend=lend, headers=[None, header])
        assert receiver.metrics.value("decode.rejected") == 4 * len(lies)
        # a true header — and a sequenced frame's — decodes, and the view is over the payload
        frames, headers = [good, sequenced], [enc.try_unpack_header(good), enc.try_unpack_header(sequenced)]
        assert decode(frames, headers=headers) == [{"i": 7, "d": (0.5,) * 4}] * 2
        if src is X86:
            views = decode(frames, lend=True, headers=headers)
            assert [bytes(v.buffer) for v in views] == [good[enc.HEADER_SIZE :]] * 2

    @pytest.mark.parametrize("lend", [False, True])
    @pytest.mark.parametrize("src", [SPARC_V8, X86], ids=["converting", "zero-copy"])
    def test_a_strict_failure_carries_what_a_loop_would_have_decoded(self, src, lend):
        """``on_error="raise"`` stops where a sequential loop stops: the
        frames ahead of the failure are decoded and counted, the result
        list so far travels on the exception as ``partial``."""
        sender, receiver, handle = linked(self.SCHEMA, src=src)
        frames = TestBatchRejectionIsolation.frames(self, sender, handle, n=12)
        frames[10] = frames[10][:-3]  # mid-group: frames 1..9 precede it
        with pytest.raises(PbioError, match="payload length mismatch") as caught:
            receiver.pipeline.decode_batch(frames, lend=lend)
        partial = caught.value.partial
        assert len(partial) == len(frames) and partial[0] is None and partial[10:] == [None] * 3
        got = [v.to_dict() if lend else v for v in partial[1:10]]
        assert got == [{"i": k, "d": (k * 0.5,) * 4} for k in range(9)]
        _, looped, _ = linked(self.SCHEMA, src=src)
        sequential_ingest(looped, frames[:11])
        for counter in ("decode.rejected", "converted_decodes", "zero_copy_decodes"):
            assert receiver.metrics.value(counter) == looped.metrics.value(counter), counter


class TestBatchConverterDispatch:
    def test_liftable_schema_uses_columnar_converter(self):
        sch = RecordSchema.from_pairs("rec", [("i", "int"), ("d", "double[4]")])
        sender, receiver, handle = linked(sch)
        frames = [sender.announce(handle)] + [
            sender.encode(handle, {"i": k, "d": [float(k)] * 4}) for k in range(6)
        ]
        receiver.pipeline.decode_batch(frames)
        assert receiver.metrics.value("decode.batch.converted") == 6
        assert receiver.metrics.value("decode.batch.fallback") == 0
        assert receiver.metrics.value("decode.batch.groups") == 1

    def test_string_schema_falls_back_to_scalar_loop(self):
        sch = RecordSchema.from_pairs("rec", [("i", "int"), ("s", "string")])
        sender, receiver, handle = linked(sch)
        frames = [sender.announce(handle)] + [
            sender.encode(handle, {"i": k, "s": f"v{k}"}) for k in range(5)
        ]
        out = receiver.pipeline.decode_batch(frames)
        assert [o for o in out if o is not None] == [
            {"i": k, "s": f"v{k}"} for k in range(5)
        ]
        assert receiver.metrics.value("decode.batch.fallback") == 5
        assert receiver.metrics.value("decode.batch.converted") == 0

    def test_zero_copy_pairs_stay_zero_copy(self):
        sch = RecordSchema.from_pairs("rec", [("i", "int"), ("d", "double")])
        sender, receiver, handle = linked(sch, src=X86, dst=X86)
        frames = [sender.announce(handle)] + [
            sender.encode(handle, {"i": k, "d": 0.5}) for k in range(4)
        ]
        receiver.pipeline.decode_batch(frames)
        assert receiver.metrics.value("zero_copy_decodes") == 4
        assert receiver.metrics.value("decode.batch.converted") == 0
        assert receiver.metrics.value("converted_decodes") == 0

    def test_float_to_int_plans_are_not_lifted(self):
        # CVT_FLOAT_INT's scalar semantics (raise on NaN, truncate toward
        # zero) are not reproducible with astype: the builder must refuse.
        wire = IOContext(SPARC_V8).expect(
            RecordSchema.from_pairs("r", [("x", "double")])
        )
        native = IOContext(X86).expect(RecordSchema.from_pairs("r", [("x", "int")]))
        plan = build_plan(wire, native)
        assert build_batch_converter(plan) is None


@pytest.mark.parametrize(
    "src, wire, native, lifted",
    [
        (SPARC_V8, "string", "string", False),  # variable-size output: VarBatchConverter's business
        (VAX, "float", "float", False),  # no numpy dtype reads a VAX F float
        (SPARC_V8, "int", "long long", True),  # CVT_INT
        (SPARC_V8, "float", "double", True),  # CVT_FLOAT
        (SPARC_V8, "int", "double", True),  # CVT_INT_FLOAT
        (SPARC_V8, "double", "int", False),  # CVT_FLOAT_INT
        (VAX, "double", "double", False),  # VAX D float -> IEEE
    ],
    ids=["strings", "vax_floats", "cvt_int", "cvt_float", "cvt_int_float", "cvt_float_int", "vax_doubles"],
)
def test_string_and_vax_plans_are_not_lifted_either(src, wire, native, lifted):
    """With float->int above: the three plan kinds the kernel refuses.  And
    a plan with a ``CVT_*``, a ``STRING`` op or a VAX float gets no byte
    gather, though its other field — an ``int`` — only moves bytes."""
    wire_schema = RecordSchema.from_pairs("r", [("x", wire), ("y", "int")])
    native_schema = RecordSchema.from_pairs("r", [("x", native), ("y", "int")])
    plan = build_plan(IOContext(src).expect(wire_schema), IOContext(X86).expect(native_schema))
    assert gather_index(plan) is None
    if not lifted:
        assert build_batch_converter(plan) is None
    # the same record less the field that converts is one gather
    moved = RecordSchema.from_pairs("r", [("y", "int")])
    assert gather_index(build_plan(IOContext(SPARC_V8).expect(moved), IOContext(X86).expect(moved))) is not None
