"""Property-based tests (hypothesis): core invariants over random schemas.

The central invariant of the whole system: for ANY record schema and ANY
pair of simulated machines, a record encoded on the sender round-trips
bit-meaningfully through every wire system — and through every PBIO
conversion backend — to the receiver's native representation.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.abi import (
    MACHINES,
    CType,
    FieldDecl,
    RecordSchema,
    codec_for,
    layout_record,
    records_equal,
)
from repro.core import IOContext, IOFormat, build_plan, match_formats
from repro.core.conversion import GATHER_MAX_BYTES, InterpretedConverter, generate_converter
from repro.vcode import generate_vcode_converter
from repro.workloads.generators import random_record, random_schema

MACHINE_NAMES = sorted(MACHINES)

machines = st.sampled_from(MACHINE_NAMES)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def build_schema_and_record(seed: int, allow_strings: bool = False, allow_nested: bool = False):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, allow_strings=allow_strings, allow_nested=allow_nested)
    record = random_record(schema, rng)
    return schema, record


@settings(max_examples=60, deadline=None)
@given(seed=seeds, src=machines, dst=machines)
def test_pbio_dcg_round_trips_any_schema(seed, src, dst):
    schema, record = build_schema_and_record(seed, allow_strings=True, allow_nested=True)
    sender = IOContext(MACHINES[src])
    receiver = IOContext(MACHINES[dst])
    h = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(h))
    out = receiver.receive(sender.encode(h, record))
    assert records_equal(record, out, rel_tol=1e-5)


#: Doubles appended to a drawn schema: none, a record under
#: ``GATHER_MAX_BYTES`` (a byte move is one gather), one past it.
BULK = [0, GATHER_MAX_BYTES // 16, GATHER_MAX_BYTES // 8 + 1]


@settings(max_examples=30, deadline=None)
@given(seed=seeds, src=machines, dst=machines, strings=st.booleans(), bulk=st.sampled_from(BULK))
def test_interpreted_and_dcg_agree_bit_for_bit(seed, src, dst, strings, bulk):
    """Whatever the lowering — one gather, fused runs, numpy casts — on
    both sides of the gather's bound."""
    schema, _ = build_schema_and_record(seed, allow_strings=strings, allow_nested=True)
    if bulk:
        schema = RecordSchema(schema.name, [*schema.fields, FieldDecl("bulk", CType.DOUBLE, bulk)])
    record = random_record(schema, np.random.default_rng(seed))
    src_layout = layout_record(schema, MACHINES[src])
    dst_layout = layout_record(schema, MACHINES[dst])
    plan = build_plan(IOFormat.from_layout(src_layout), IOFormat.from_layout(dst_layout))
    native = codec_for(src_layout).encode(record)
    interpreted = InterpretedConverter(plan)(native)
    generated = generate_converter(plan).convert(native)
    assert interpreted == generated


ieee_machines = st.sampled_from([m for m in MACHINE_NAMES if MACHINES[m].float_format == "ieee754"])


@settings(max_examples=20, deadline=None)
@given(seed=seeds, src=ieee_machines, dst=ieee_machines)
def test_vcode_backend_agrees_with_python(seed, src, dst):
    schema, record = build_schema_and_record(seed, allow_strings=False)
    src_layout = layout_record(schema, MACHINES[src])
    dst_layout = layout_record(schema, MACHINES[dst])
    plan = build_plan(IOFormat.from_layout(src_layout), IOFormat.from_layout(dst_layout))
    native = codec_for(src_layout).encode(record)
    py = generate_converter(plan).convert(native)
    vc = generate_vcode_converter(plan).convert(native)
    assert py == vc


@settings(max_examples=60, deadline=None)
@given(seed=seeds, machine=machines)
def test_format_meta_round_trips(seed, machine):
    schema, _ = build_schema_and_record(seed, allow_strings=True)
    fmt = IOFormat.from_layout(layout_record(schema, MACHINES[machine]))
    assert IOFormat.from_meta_bytes(fmt.to_meta_bytes()) == fmt


@settings(max_examples=60, deadline=None)
@given(seed=seeds, machine=machines)
def test_layout_invariants(seed, machine):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, allow_strings=True)
    layout = layout_record(schema, MACHINES[machine])
    # offsets are aligned, non-overlapping, inside the record
    pos = 0
    for f in layout.fields:
        align = layout.machine.align_of(f.ctype)
        assert f.offset % align == 0
        assert f.offset >= pos
        pos = f.end
    assert layout.size >= pos
    assert layout.size % layout.alignment == 0
    assert layout.padding_bytes() == sum(g for _, g in layout.gaps())


@settings(max_examples=40, deadline=None)
@given(seed=seeds, machine=machines)
def test_native_codec_round_trip(seed, machine):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng, allow_strings=True)
    record = random_record(schema, rng)
    codec = codec_for(layout_record(schema, MACHINES[machine]))
    assert records_equal(record, codec.decode(codec.encode(record)), rel_tol=1e-5)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, src=machines, dst=machines)
def test_same_machine_match_is_zero_copy(seed, src, dst):
    schema, _ = build_schema_and_record(seed)
    wire = IOFormat.from_layout(layout_record(schema, MACHINES[src]))
    native = IOFormat.from_layout(layout_record(schema, MACHINES[dst]))
    match = match_formats(wire, native)
    if src == dst:
        assert match.zero_copy
        assert match.mismatch_count == 0
    # No fields ever go missing between identical schemas.
    assert not match.missing_names and not match.ignored_wire_fields


@settings(max_examples=40, deadline=None)
@given(seed=seeds, src=machines, dst=machines)
def test_plan_ops_stay_in_bounds(seed, src, dst):
    schema, _ = build_schema_and_record(seed)
    wire = IOFormat.from_layout(layout_record(schema, MACHINES[src]))
    native = IOFormat.from_layout(layout_record(schema, MACHINES[dst]))
    plan = build_plan(wire, native)
    for op in plan.ops:
        assert 0 <= op.dst_off and op.dst_end <= native.record_size
        if op.kind.value != "zero":
            assert 0 <= op.src_off and op.src_end <= wire.record_size


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_wire_systems_round_trip_random_schemas(seed):
    from repro.wire import IiopWire, MpiWire, XdrWire, XmlWire

    rng = np.random.default_rng(seed)
    schema = random_schema(rng, allow_strings=False)
    record = random_record(schema, rng)
    src = layout_record(schema, MACHINES["i86"])
    dst = layout_record(schema, MACHINES["sparc"])
    native = codec_for(src).encode(record)
    for system in (MpiWire(), XdrWire(), IiopWire(), XmlWire()):
        bound = system.bind(src, dst)
        out = codec_for(dst).decode(bound.decode(bound.encode(native)))
        assert records_equal(record, out, rel_tol=1e-5), system.name
