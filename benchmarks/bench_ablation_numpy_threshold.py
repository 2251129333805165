"""Ablation — where should generated code switch from struct batching to
numpy lowering?

The DCG backend lowers element runs of >= NUMPY_THRESHOLD onto numpy
(one frombuffer-to-frombuffer cast into the destination); below that it
emits batched struct calls.
This ablation sweeps array lengths across the boundary and verifies the
configured threshold is sane: struct wins for tiny runs (numpy has fixed
per-call overhead), numpy wins decisively for long runs.
"""

import struct as struct_mod

import pytest

import support
from repro.abi import RecordSchema, codec_for, layout_record
from repro.core import IOFormat, build_plan
from repro.core.conversion import generate_converter
from repro.core.conversion.vectorized import NUMPY_THRESHOLD
from repro.wire.timing import best_of

COUNTS = [2, 8, NUMPY_THRESHOLD, 64, 1024, 8192]


def converter_for_count(count, *, force):
    """Build a double[count] swap converter with a chosen lowering."""
    import repro.core.conversion.vectorized as vec
    import repro.core.conversion.codegen as cg

    schema = RecordSchema.from_pairs("t", [("v", f"double[{count}]")])
    plan = build_plan(
        IOFormat.from_layout(layout_record(schema, support.I86)),
        IOFormat.from_layout(layout_record(schema, support.SPARC)),
    )
    original = (vec.NUMPY_THRESHOLD, cg.NUMPY_THRESHOLD, cg.GATHER_MAX_BYTES)
    try:
        forced = 1 if force == "numpy" else 10**9
        vec.NUMPY_THRESHOLD = forced
        cg.NUMPY_THRESHOLD = forced
        cg.GATHER_MAX_BYTES = 0  # a swap is one gather within the bound: compare the other two
        gen = generate_converter(plan)
    finally:
        vec.NUMPY_THRESHOLD, cg.NUMPY_THRESHOLD, cg.GATHER_MAX_BYTES = original
    payload = codec_for(layout_record(schema, support.I86)).encode(
        {"v": tuple(float(i) for i in range(count))}
    )
    return gen.convert, payload


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("force", ["struct", "numpy"])
def test_swap_lowering(benchmark, count, force):
    convert, payload = converter_for_count(count, force=force)
    benchmark.group = f"numpy threshold, double[{count}]"
    benchmark(convert, payload)


def test_shape_both_lowerings_agree():
    for count in COUNTS:
        a, payload = converter_for_count(count, force="struct")
        b, _ = converter_for_count(count, force="numpy")
        assert a(payload) == b(payload)


def test_shape_numpy_wins_for_long_runs():
    t_struct = {}
    t_numpy = {}
    for count in (8, 8192):
        conv_s, payload = converter_for_count(count, force="struct")
        conv_n, _ = converter_for_count(count, force="numpy")
        t_struct[count] = best_of(lambda: conv_s(payload), repeats=7, inner=20)
        t_numpy[count] = best_of(lambda: conv_n(payload), repeats=7, inner=20)
    # At 8192 elements numpy must win by a wide margin...
    assert t_numpy[8192] < t_struct[8192] / 5
    # ...while at 8 elements it must not (struct within 3x either way).
    assert t_struct[8] < 3 * t_numpy[8]
