"""Ablation — conversion backend comparison: interpreted vs generated
Python vs the vcode virtual-RISC VM.

Mechanism-fidelity check (DESIGN.md): in the paper, DCG emits *native*
instructions, so generated code is the fastest path.  Under Python, the
structurally faithful vcode route executes on an interpreted VM and is
therefore the *slowest* — the performance role of native DCG transfers to
the generated-Python backend.  This ablation documents that inversion and
verifies all three backends agree bit-for-bit.
"""

import pytest

import support
from repro.abi import layout_record
from repro.core import IOFormat, build_plan
from repro.core.conversion import InterpretedConverter, generate_converter
from repro.vcode import generate_vcode_converter
from repro.workloads import mechanical

SIZES = ["100b", "1kb"]  # the VM is too slow for array-heavy 100 KB records


def make(size):
    schema = mechanical.schema_for_size(size)
    wire = IOFormat.from_layout(layout_record(schema, support.I86))
    native = IOFormat.from_layout(layout_record(schema, support.SPARC))
    plan = build_plan(wire, native)
    payload = mechanical.native_bytes(size, support.I86)
    return plan, payload


@pytest.mark.parametrize("size", SIZES)
def test_backend_interpreted(benchmark, size):
    plan, payload = make(size)
    conv = InterpretedConverter(plan)
    benchmark.group = f"ablation backends {size}"
    benchmark(conv.convert, payload)


@pytest.mark.parametrize("size", SIZES)
def test_backend_generated_python(benchmark, size):
    plan, payload = make(size)
    conv = generate_converter(plan)
    benchmark.group = f"ablation backends {size}"
    benchmark(conv.convert, payload)


@pytest.mark.parametrize("size", SIZES)
def test_backend_vcode_vm(benchmark, size):
    plan, payload = make(size)
    conv = generate_vcode_converter(plan)
    benchmark.group = f"ablation backends {size}"
    benchmark(conv.convert, payload)


def test_shape_backends_agree_and_rank():
    from repro.wire.timing import best_of

    for size in SIZES:
        plan, payload = make(size)
        interp = InterpretedConverter(plan)
        python = generate_converter(plan)
        vcode = generate_vcode_converter(plan)
        out = python.convert(payload)
        assert interp.convert(payload) == out
        assert vcode.convert(payload) == out
        t_int = best_of(lambda: interp.convert(payload), repeats=5, inner=5)
        t_py = best_of(lambda: python.convert(payload), repeats=5, inner=5)
        t_vc = best_of(lambda: vcode.convert(payload), repeats=5, inner=2)
        # Generated Python is the fastest backend; the VM route is the
        # slowest (the documented Python-world inversion).
        assert t_py <= t_int
        assert t_vc > t_py
