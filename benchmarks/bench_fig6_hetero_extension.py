"""Figure 6 — receiver-side decode with and without an unexpected field,
heterogeneous exchange (x86 sender, sparc receiver).

Setup follows the paper's worst case: the unexpected field is *prepended*
so every expected field's offset shifts.  The paper finds the extra field
has "no effect upon the receive-side performance" in the heterogeneous
case: the receiver was converting every field anyway, so one more ignored
field and shifted offsets change nothing.
"""

import pytest

import support
from repro.abi import CType, FieldDecl, codec_for, layout_record
from repro.wire import PbioWire
from repro.workloads import mechanical


def build_extension_exchange(size, src_machine, dst_machine, *, mismatched: bool):
    expected = mechanical.schema_for_size(size)
    if mismatched:
        sent = expected.extended(
            expected.name, [FieldDecl("unexpected", CType.INT)], prepend=True
        )
    else:
        sent = expected
    src_layout = layout_record(sent, src_machine)
    dst_layout = layout_record(expected, dst_machine)
    bound = PbioWire("dcg").bind(src_layout, dst_layout)
    record = mechanical.sample_record(size)
    if mismatched:
        record = dict(record, unexpected=7)
    native = codec_for(src_layout).encode(record)
    wire = bound.encode(native)
    bound.decode(wire)  # warm converter cache
    return bound, wire


@pytest.fixture(scope="module")
def cases():
    return {
        (size, mismatched): build_extension_exchange(
            size, support.I86, support.SPARC, mismatched=mismatched
        )
        for size in support.SIZES
        for mismatched in (False, True)
    }


@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("mismatched", [False, True], ids=["matched", "mismatched"])
def test_hetero_receive(benchmark, cases, size, mismatched):
    bound, wire = cases[(size, mismatched)]
    benchmark.group = f"fig6 hetero extension {size}"
    benchmark(bound.decode, wire)


def test_shape_extension_is_free_heterogeneous(cases):
    """The unexpected field must add no significant receive cost."""
    from repro.wire.timing import best_of

    for size in support.SIZES:
        matched_bound, matched_wire = cases[(size, False)]
        mis_bound, mis_wire = cases[(size, True)]
        t_matched = best_of(lambda: matched_bound.decode(matched_wire), repeats=7, inner=5)
        t_mis = best_of(lambda: mis_bound.decode(mis_wire), repeats=7, inner=5)
        # Within 30% (measurement noise) — the paper shows no effect.
        assert t_mis < 1.3 * t_matched + 5e-6, size
