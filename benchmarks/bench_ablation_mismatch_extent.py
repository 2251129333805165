"""Ablation — conversion overhead vs extent of the layout mismatch.

Section 4.4: "the overhead imposed by a mismatch varies proportionally
with the extent of the mismatch", which is why the paper recommends
appending new fields rather than prepending them.  We sweep the position
of one added field through a homogeneous record and measure the decode
cost as a function of how many expected fields get relocated.
"""

import pytest

import support
from repro.abi import CType, FieldDecl, RecordSchema, codec_for, layout_record
from repro.wire.timing import best_of
from repro.wire import PbioWire

N_FIELDS = 16


def base_schema():
    return RecordSchema.from_pairs(
        "sweep", [(f"f{i}", "double[32]") for i in range(N_FIELDS)]
    )


def exchange_with_insertion(position: int):
    """Sender schema = base with one int field inserted at ``position``."""
    expected = base_schema()
    fields = list(expected.fields)
    fields.insert(position, FieldDecl("inserted", CType.INT))
    sent = RecordSchema("sweep", fields)
    src_layout = layout_record(sent, support.SPARC)
    dst_layout = layout_record(expected, support.SPARC)
    bound = PbioWire("dcg").bind(src_layout, dst_layout)
    record = {f"f{i}": tuple(float(j) for j in range(32)) for i in range(N_FIELDS)}
    record["inserted"] = 1
    wire = bound.encode(codec_for(src_layout).encode(record))
    bound.decode(wire)
    return bound, wire


POSITIONS = [0, N_FIELDS // 4, N_FIELDS // 2, 3 * N_FIELDS // 4, N_FIELDS]


@pytest.mark.parametrize("position", POSITIONS)
def test_decode_with_insertion_at(benchmark, position):
    bound, wire = exchange_with_insertion(position)
    benchmark.group = "ablation: mismatch extent"
    benchmark(bound.decode, wire)


def test_shape_mismatch_extent_is_proportional():
    """The *structural* mismatch (relocated fields) is proportional to how
    early the insertion lands — the paper's proportionality claim at the
    plan level (wall time is a step function here because the DCG plan
    coalesces relocated runs into bulk moves)."""
    from repro.abi import layout_record
    from repro.core import IOFormat, match_formats

    expected_fmt = IOFormat.from_layout(layout_record(base_schema(), support.SPARC))
    relocated = {}
    for position in POSITIONS:
        fields = list(base_schema().fields)
        fields.insert(position, FieldDecl("inserted", CType.INT))
        sent = RecordSchema("sweep", fields)
        wire_fmt = IOFormat.from_layout(layout_record(sent, support.SPARC))
        relocated[position] = match_formats(wire_fmt, expected_fmt).mismatch_count
    # Inserting at position k relocates exactly the N_FIELDS - k fields
    # after it.
    for position in POSITIONS:
        assert relocated[position] == N_FIELDS - position
    assert relocated[N_FIELDS] == 0


def test_shape_appending_preserves_zero_copy(capsys):
    """Wall-clock view of the same advice: append -> zero-copy decode;
    any interior insertion -> a conversion (~memcpy)."""
    times = {}
    for position in POSITIONS:
        bound, wire = exchange_with_insertion(position)
        times[position] = best_of(lambda: bound.decode_view(wire), repeats=9, inner=20)
    with capsys.disabled():
        for pos, t in times.items():
            print(f"  insertion at {pos:2d}: decode_view {t * 1e6:.2f} us")
    # The appended case is zero-copy and beats every interior insertion.
    assert times[N_FIELDS] < min(times[p] for p in POSITIONS if p != N_FIELDS)
