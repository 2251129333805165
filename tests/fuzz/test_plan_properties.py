"""A warm format plan == a cold pipeline == the interpreted reference.

``DecodePipeline`` remembers, per ``(context id, format id)``, what a data
frame resolves to (``DecodePipeline._resolve``).  Remembering must be
invisible: a long-lived pipeline returns byte for byte — and counts, in
every counter, exactly — what a new pipeline per call over the same
registry, expected table and cache returns and counts, and what the
table-driven interpreter returns; whatever changes what a frame resolves
to (``expect()`` replacing a native layout, another cache, a cache
overflowing, a re-announcement, a second context using the same format
ids) shows on the very next decode; and a frame that is rejected is
rejected the same way, warm or cold.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.abi import MACHINES, SPARC_V8, X86, CType, FieldDecl, RecordSchema, layout_record
from repro.core import DecodeLimits, IOContext, IOFormat, PbioError
from repro.core import encoder as enc
from repro.core.registry import FormatRegistry
from repro.core.runtime import ConverterCache, DecodePipeline, Metrics
from repro.workloads.generators import random_record, random_schema

from .common import CORPUS_DIR

SHAPES = ("decode", "decode_view", "decode_native", "ingest")
BATCH_SHAPES = ("batch", "batch_lend", "batch_native", "batch_native_lend")  # decode_batch(lend=, native=)


def new_cache(limits):
    return ConverterCache(max_entries=limits.max_cache_entries)


class Cold:
    """The reference receiver: the registry, expected table, cache, limits
    and counters of an ``IOContext`` — and a new ``DecodePipeline``, which
    remembers nothing, for every call."""

    def __init__(self, machine, limits):
        self.machine, self.limits = machine, limits
        self.registry, self.expected = FormatRegistry(), {}
        self.metrics, self.cache = Metrics(), new_cache(limits)

    def expect(self, schema):
        self.expected[schema.name] = IOFormat.from_layout(layout_record(schema, self.machine))

    def use_cache(self, cache):
        self.cache = cache

    @property
    def pipeline(self):
        return DecodePipeline(
            registry=self.registry,
            expected=self.expected,
            machine=self.machine,
            cache=self.cache,
            metrics=self.metrics,
            limits=self.limits,
        )


def canon(value):
    """``value`` with floats by bit pattern (NaN equals itself) and views by
    their bytes and their fields."""
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, (np.ndarray, np.generic)):
        return (value.dtype.str, value.tobytes())
    if isinstance(value, dict):
        return tuple((key, canon(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canon(item) for item in value)
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    if hasattr(value, "to_dict"):  # a RecordView: lazy, so hostile content shows only when it is read
        try:
            fields = canon(value.to_dict())
        except (ValueError, IndexError, struct.error, UnicodeDecodeError) as exc:
            fields = (type(exc), str(exc))
        return (bytes(value.buffer), fields)
    return value


def outcome(world, shape, messages):
    """What ``shape`` makes of ``messages`` in ``world``: the result, or the
    rejection — type, text and what a batch had decoded before it."""
    pipeline = world.pipeline
    try:
        if shape in SHAPES:
            return "ok", canon(getattr(pipeline, shape)(messages[0]))
        on_error = "skip" if shape.endswith("skip") else "raise"
        lend, native = "lend" in shape, "native" in shape
        return "ok", canon(pipeline.decode_batch(messages, on_error=on_error, lend=lend, native=native))
    except PbioError as exc:
        return type(exc), str(exc), canon(getattr(exc, "partial", None))


def counters(world):
    """Every counter of the world's pipeline and of its cache (but the one
    that is a wall-clock sum)."""
    out = {("pipeline", name): n for name, n in world.metrics.counters().items()}
    out.update({("cache", name): n for name, n in world.cache.metrics.counters().items()})
    return {key: n for key, n in out.items() if key[1] != "generation_time_s"}, len(world.cache)


def schemas_for(seed):
    """A fixed-size, a string-bearing and a nested schema."""
    rng = np.random.default_rng(seed)
    fixed = random_schema(rng, name="fixed", max_fields=6)
    stringy = random_schema(rng, name="stringy", max_fields=4)
    stringy = RecordSchema("stringy", [*stringy.fields, FieldDecl("tail", CType.STRING)])
    inner = random_schema(rng, name="inner", max_fields=3, max_array=4)
    nested = random_schema(rng, name="nested", max_fields=4, allow_nested=True)
    nested = RecordSchema("nested", [*nested.fields, FieldDecl.nested("sub", inner, 2)])
    return [fixed, stringy, nested]


def variant(schema, which):
    """The schema itself, or the same record with its fields the other way
    round: another native layout under the same name."""
    return schema if which == 0 else RecordSchema(schema.name, schema.fields[::-1])


machines = st.sampled_from(sorted(MACHINES))
formats = st.tuples(st.integers(0, 1), st.integers(0, 2))  # (sender, schema)
steps = st.one_of(
    st.tuples(st.sampled_from(SHAPES), st.lists(formats, min_size=1, max_size=1)),
    st.tuples(st.sampled_from(BATCH_SHAPES), st.lists(formats, min_size=1, max_size=5)),
    st.tuples(st.just("expect"), st.integers(0, 2), st.integers(0, 1)),
    st.tuples(st.just("set_cache")),
    st.tuples(st.just("reannounce"), formats),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sources=st.tuples(machines, machines),
    destination=machines,
    tight=st.booleans(),
    script=st.lists(steps, min_size=1, max_size=24),
)
@example(  # two contexts sending one format, and a third pair evicting theirs from a cache of two
    seed=0,
    sources=("i86", "i86"),
    destination="sparc",
    tight=True,
    script=[("decode", [pick]) for pick in ((0, 0), (0, 1), (1, 0), (0, 2), (1, 0))],
)
def test_a_warm_plan_decodes_and_counts_like_a_cold_pipeline(seed, sources, destination, tight, script):
    rng = np.random.default_rng(seed)
    schemas = schemas_for(seed)
    limits = DecodeLimits(max_cache_entries=2) if tight else DecodeLimits()
    machine = MACHINES[destination]
    warm = IOContext(machine, limits=limits)
    cold = Cold(machine, limits)
    reference = IOContext(machine, conversion="interpreted", limits=limits)
    worlds = (warm, cold, reference)
    # two senders whose format ids name different schemas: 1, 2, 3 and 3, 2, 1
    senders, handles = [], []
    for k, source in enumerate(sources):
        sender = IOContext(MACHINES[source], context_id=0xA0 + k)
        order = schemas if k == 0 else schemas[::-1]
        by_name = {schema.name: sender.register_format(schema) for schema in order}
        senders.append(sender)
        handles.append([by_name[schema.name] for schema in schemas])
    for world in worlds:
        for schema in schemas:
            world.expect(schema)
        for sender, row in zip(senders, handles):
            for handle in row:
                world.pipeline.ingest(sender.announce(handle))

    for step in script:
        if step[0] == "expect":
            for world in worlds:
                world.expect(variant(schemas[step[1]], step[2]))
        elif step[0] == "set_cache":
            for world in worlds:
                world.use_cache(new_cache(limits))
        elif step[0] == "reannounce":
            k, which = step[1]
            for world in worlds:
                world.pipeline.ingest(senders[k].announce(handles[k][which]))
        else:
            shape, picks = step
            messages = [
                senders[k].encode(handles[k][which], random_record(schemas[which], rng)) for k, which in picks
            ]
            got = outcome(warm, shape, messages)
            assert got == outcome(cold, shape, messages)
            assert got == outcome(reference, shape, messages)
        assert counters(warm) == counters(cold)


STRINGY = RecordSchema.from_pairs("stringy", [("n", "int"), ("label", "string")])
FIXED = RecordSchema.from_pairs("fixed", [("i", "int"), ("d", "double[4]"), ("name", "char[8]")])
STRAY = RecordSchema.from_pairs("stray", [("x", "int")])  # announced, never expected
RECORDS = {
    "fixed": {"i": 7, "d": (1.0, -2.0, 3.5, 0.0), "name": b"abc"},
    "stringy": {"n": 3, "label": "a label with a tail"},
    "stray": {"x": 1},
}


def reframed(message, *, kind=None, context_id=None, format_id=None, payload_len=None, body=None):
    """``message`` with header fields (or its body, the declared length
    following unless given) replaced."""
    old_kind, old_cid, old_fid, _ = enc.unpack_header(message)
    body = message[enc.HEADER_SIZE :] if body is None else body
    return (
        enc.pack_header(
            old_kind if kind is None else kind,
            old_cid if context_id is None else context_id,
            old_fid if format_id is None else format_id,
            len(body) if payload_len is None else payload_len,
        )
        + body
    )


def damage_shapes(sender, handles, max_message):
    """name -> frame, one per way a data frame can be refused."""
    fixed = sender.encode(handles["fixed"], RECORDS["fixed"])
    stringy = sender.encode(handles["stringy"], RECORDS["stringy"])
    native = fixed[enc.HEADER_SIZE :]
    sequenced = enc.encode_data_seq(sender.context_id, handles["fixed"].format_id, 5, native)
    pointer = bytearray(stringy)
    pointer[-len(RECORDS["stringy"]["label"]) - 8 : -len(RECORDS["stringy"]["label"]) - 4] = b"\xff" * 4
    shapes = {
        "short header": fixed[:7],
        "bad magic": b"\x00" + fixed[1:],
        "bad version": fixed[:1] + b"\x09" + fixed[2:],
        "not a data message": reframed(fixed, kind=enc.MSG_PING),
        "length lies up": reframed(fixed, payload_len=len(native) + 4),
        "length lies down": reframed(fixed, payload_len=len(native) - 4),
        "unknown format": reframed(fixed, format_id=99),
        "unknown context": reframed(fixed, context_id=0x77),
        "record too short": reframed(fixed, body=native[:-4]),
        "record too long": reframed(fixed, body=native + b"\0\0\0\0"),
        "string record too short": reframed(stringy, body=stringy[enc.HEADER_SIZE : enc.HEADER_SIZE + 4]),
        "no expected format": sender.encode(handles["stray"], RECORDS["stray"]),
        "string tail cut": reframed(stringy, body=stringy[enc.HEADER_SIZE : -6]),
        "string pointer wild": bytes(pointer),
        "sequence zero": sequenced[: enc.HEADER_SIZE] + bytes(8) + sequenced[enc.SEQ_RECORD_OFFSET :],
        "sequence prefix cut": reframed(sequenced, body=sequenced[enc.HEADER_SIZE : enc.HEADER_SIZE + 5]),
        "sequenced length lies": reframed(sequenced, payload_len=len(native)),
        "sequenced record too short": reframed(sequenced, body=sequenced[enc.HEADER_SIZE : -4]),
        "oversize": reframed(fixed, body=native + bytes(max_message)),
    }
    for path in sorted(CORPUS_DIR.glob("*.bin")):
        shapes["corpus " + path.name] = path.read_bytes()
    return shapes


@pytest.mark.parametrize("shape", SHAPES + BATCH_SHAPES + ("batch_skip", "batch_native_skip"))
@pytest.mark.parametrize("pair", [(X86, SPARC_V8), (X86, X86)], ids=["converted", "zero-copy"])
def test_a_warm_plan_rejects_like_a_cold_pipeline(pair, shape):
    source, machine = pair
    limits = DecodeLimits(max_message_size=512)
    sender = IOContext(source, context_id=0x51)
    handles = {schema.name: sender.register_format(schema) for schema in (FIXED, STRINGY, STRAY)}
    warm, cold = IOContext(machine, limits=limits), Cold(machine, limits)
    good = [sender.encode(handles[name], RECORDS[name]) for name in ("fixed", "stringy")]
    good.append(enc.encode_data_seq(sender.context_id, handles["fixed"].format_id, 9, good[0][enc.HEADER_SIZE :]))
    stray = sender.encode(handles["stray"], RECORDS["stray"])
    for world in (warm, cold):
        for schema in (FIXED, STRINGY):
            world.expect(schema)
        for handle in handles.values():
            world.pipeline.ingest(sender.announce(handle))
        for _ in range(3):  # every plan this test meets is warm: both halves, or the wire half alone
            for message in good:
                for entry in SHAPES + BATCH_SHAPES:
                    assert outcome(world, entry, [message])[0] == "ok"
            world.pipeline.open_data(stray)
    assert counters(warm) == counters(cold)
    for name, frame in damage_shapes(sender, handles, limits.max_message_size).items():
        messages = [good[0], frame, good[1]] if shape.startswith("batch") else [frame]
        rejected = warm.metrics.value("decode.rejected")
        got = outcome(warm, shape, messages)
        assert got == outcome(cold, shape, messages), name
        assert counters(warm) == counters(cold), name
        if not shape.endswith("skip"):  # a rejection is counted once, and nothing else is
            assert warm.metrics.value("decode.rejected") - rejected == (got[0] != "ok"), name
        if shape == "decode" and source is not machine and not name.startswith("corpus"):
            assert got[0] != "ok", name  # the shapes are damage: a converting decode to a dict meets all of it
