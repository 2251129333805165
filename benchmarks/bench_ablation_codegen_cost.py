"""Ablation — one-time DCG generation cost vs per-record savings.

The paper (Section 3, citing [6]) argues "the one-time costs of
generating binary code coupled with the performance gains by then being
able to use compiled code far outweigh the costs of continually
interpreting data formats".  This ablation measures both sides: converter
generation time, and the per-record gap between interpreted and generated
conversion, giving the break-even record count.
"""

import pytest

import support
from repro.abi import layout_record
from repro.core import IOFormat, build_plan
from repro.core.conversion import InterpretedConverter, generate_converter
from repro.wire.timing import best_of
from repro.workloads import mechanical


def make_plan(size):
    schema = mechanical.schema_for_size(size)
    wire = IOFormat.from_layout(layout_record(schema, support.I86))
    native = IOFormat.from_layout(layout_record(schema, support.SPARC))
    return build_plan(wire, native)


@pytest.mark.parametrize("size", support.SIZES)
def test_generation_cost(benchmark, size):
    plan = make_plan(size)
    benchmark.group = "ablation: codegen one-time cost"
    benchmark(generate_converter, plan)


@pytest.mark.parametrize("size", support.SIZES)
def test_interpreter_table_build_cost(benchmark, size):
    plan = make_plan(size)
    benchmark.group = "ablation: interpreter table one-time cost"
    benchmark(InterpretedConverter, plan)


def test_shape_breakeven_quickly(capsys):
    """Generation amortizes within a modest number of records."""
    for size in support.SIZES:
        plan = make_plan(size)
        native = mechanical.native_bytes(size, support.I86)
        gen = generate_converter(plan)
        interp = InterpretedConverter(plan)
        t_gen = gen.generation_time_s
        t_dcg = best_of(lambda: gen.convert(native), repeats=5, inner=5)
        t_int = best_of(lambda: interp(native), repeats=5, inner=5)
        saving = t_int - t_dcg
        assert saving > 0, size
        breakeven = t_gen / saving
        with capsys.disabled():
            print(
                f"  codegen break-even {size}: generation {t_gen * 1e3:.3f} ms, "
                f"saving {saving * 1e6:.2f} us/record -> {breakeven:.0f} records"
            )
        # For array-heavy records DCG pays for itself within ~1000 records;
        # the paper's use case streams thousands to millions of records.
        if size in ("10kb", "100kb"):
            assert breakeven < 2000
