"""Ablation — runtime binary code optimization (Section 5 future work).

PBIO's plan builder already coalesces relocated runs before code
generation, so its vcode programs arrive near-optimal.  The peephole
passes therefore earn their keep on *naively generated* code — one
load/store pair per field, the straightforward thing a first-cut code
generator emits.  This ablation measures exactly that: a 64-field
homogeneous relocation generated naively, with and without the passes,
by static size, dynamic instruction count, and VM wall time.  It also
verifies the passes are safe no-ops on swap-heavy heterogeneous programs
(nothing to coalesce) and that plan-level coalescing indeed leaves no
headroom (the two optimization layers are redundant, not conflicting).
"""

import struct

import pytest

import support
from repro.abi import RecordSchema, codec_for, layout_record
from repro.core import IOFormat, build_plan
from repro.wire.timing import best_of
from repro.vcode import VM, ConversionEmitter, generate_vcode_converter, optimize
from repro.workloads import mechanical

N_FIELDS = 64


def naive_relocation_program():
    """One ld/st pair per int field, every field shifted by 4 bytes —
    what a generator without run coalescing emits for the Figure 7
    mismatch case."""
    ce = ConversionEmitter("big", "big")
    for i in range(N_FIELDS):
        ce.convert_int(i * 4, 4, 4 + i * 4, 4, signed=True)
    return ce.finish()


def payload_for_relocation():
    return struct.pack(f">{N_FIELDS + 1}i", *range(N_FIELDS + 1))


def run(program, payload, *, stats=False):
    vm = VM(collect_stats=stats)
    dst = bytearray(N_FIELDS * 4)
    vm.run(program, {"src": payload, "dst": dst})
    return bytes(dst), vm


@pytest.mark.parametrize("optimized", [False, True], ids=["naive", "optimized"])
def test_vm_naive_relocation(benchmark, optimized):
    program = naive_relocation_program()
    if optimized:
        program, _ = optimize(program)
    payload = payload_for_relocation()
    benchmark.group = "vcode optimizer (naive relocation)"
    benchmark(run, program, payload)


def test_shape_optimizer_collapses_naive_code(capsys):
    program = naive_relocation_program()
    opt, stats = optimize(program)
    payload = payload_for_relocation()
    out_u, vm_u = run(program, payload, stats=True)
    out_o, vm_o = run(opt, payload, stats=True)
    assert out_u == out_o  # behaviour preserved
    with capsys.disabled():
        print(
            f"  naive relocation: static {len(program)} -> {len(opt)} instrs, "
            f"dynamic {vm_u.steps} -> {vm_o.steps} executed, "
            f"{stats.memcpys_created} memcpy(s) created"
        )
    # 64 ld/st pairs + ret collapse to one memcpy + ret.
    assert stats.memcpys_created == 1
    assert len(opt) <= 3
    assert vm_o.steps < vm_u.steps / 10


def test_shape_wall_time_improves():
    program = naive_relocation_program()
    opt, _ = optimize(program)
    payload = payload_for_relocation()
    t_naive = best_of(lambda: run(program, payload), repeats=5, inner=5)
    t_opt = best_of(lambda: run(opt, payload), repeats=5, inner=5)
    assert t_opt < t_naive / 3


def test_shape_swap_programs_unchanged():
    """Byte-swapping loads/stores cannot coalesce; the passes must leave
    behaviour (and essentially the program) alone."""
    ce = ConversionEmitter("little", "big")
    ce.convert_int(0, 4, 0, 4, signed=True, count=32)
    program = ce.finish()
    opt, stats = optimize(program)
    assert stats.memcpys_created == 0
    payload = struct.pack("<32i", *range(32))
    dst_a = bytearray(128)
    dst_b = bytearray(128)
    VM().run(program, {"src": payload, "dst": dst_a})
    VM().run(opt, {"src": payload, "dst": dst_b})
    assert dst_a == dst_b


def test_shape_plan_coalescing_leaves_no_headroom():
    """PBIO's plan-level coalescing makes the vcode passes redundant on
    its own relocation programs — the two layers agree."""
    expected = mechanical.schema_for_size("1kb")
    from repro.abi import CType, FieldDecl

    sent = expected.extended(expected.name, [FieldDecl("v", CType.INT)], prepend=True)
    plan = build_plan(
        IOFormat.from_layout(layout_record(sent, support.SPARC)),
        IOFormat.from_layout(layout_record(expected, support.SPARC)),
    )
    gen = generate_vcode_converter(plan, optimize=True)
    assert gen.vcode_stats.memcpys_created == 0  # already bulk moves
    record = dict(mechanical.sample_record("1kb"), v=1)
    payload = codec_for(layout_record(sent, support.SPARC)).encode(record)
    unopt = generate_vcode_converter(plan, optimize=False)
    assert gen.convert(payload) == unopt.convert(payload)
