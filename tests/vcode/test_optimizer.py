"""Tests for the vcode peephole optimizer."""

import struct

import numpy as np
import pytest

from repro.vcode import VM, ConversionEmitter, Emitter, Op, optimize


def run_program(program, src, dst_len):
    dst = bytearray(dst_len)
    VM().run(program, {"src": bytearray(src), "dst": dst})
    return bytes(dst)


def ops_of(program):
    return [i.op for i in program.instrs]


class TestMoveCoalescing:
    def build_moves(self, n, elem=4):
        em = Emitter()
        for i in range(n):
            em.ld(2, "src", i * elem, elem, signed=False, endian="little")
            em.st(2, "dst", i * elem, elem, endian="little")
        em.ret()
        return em.seal()

    def test_contiguous_moves_become_memcpy(self):
        program = self.build_moves(8)
        opt, stats = optimize(program)
        assert stats.memcpys_created == 1
        assert stats.moves_coalesced == 8
        assert Op.MEMCPY in ops_of(opt)
        assert len(opt) < len(program)

    def test_coalesced_program_equivalent(self):
        program = self.build_moves(8)
        opt, _ = optimize(program)
        src = bytes(range(32))
        assert run_program(opt, src, 32) == run_program(program, src, 32)

    def test_swapping_moves_not_coalesced(self):
        em = Emitter()
        for i in range(4):
            em.ld(2, "src", i * 4, 4, signed=False, endian="big")
            em.st(2, "dst", i * 4, 4, endian="little")  # byte swap
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.memcpys_created == 0

    def test_non_contiguous_moves_not_coalesced(self):
        em = Emitter()
        em.ld(2, "src", 0, 4, signed=False, endian="little")
        em.st(2, "dst", 0, 4, endian="little")
        em.ld(2, "src", 12, 4, signed=False, endian="little")  # gap
        em.st(2, "dst", 12, 4, endian="little")
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.memcpys_created == 0

    def test_relocating_run_coalesces(self):
        # src offset != dst offset but both advance in lockstep.
        em = Emitter()
        for i in range(4):
            em.ld(2, "src", 8 + i * 4, 4, signed=False, endian="little")
            em.st(2, "dst", i * 4, 4, endian="little")
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.memcpys_created == 1
        src = bytes(range(24))
        assert run_program(opt, src, 16) == src[8:24]


class TestAddiFolding:
    def test_chain_folds(self):
        em = Emitter()
        em.movi(2, 0)
        em.addi(2, 2, 4)
        em.addi(2, 2, 4)
        em.addi(2, 2, 8)
        em.mov(1, 2)
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.addis_folded == 2
        assert VM().run(opt, {}) == 16

    def test_different_registers_not_folded(self):
        em = Emitter()
        em.movi(2, 0)
        em.movi(3, 0)
        em.addi(2, 2, 4)
        em.addi(3, 3, 4)
        em.ret()
        _, stats = optimize(em.seal())
        assert stats.addis_folded == 0


class TestDeadMovi:
    def test_overwritten_movi_removed(self):
        em = Emitter()
        em.movi(1, 111)  # dead: overwritten before any read
        em.movi(1, 42)
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.dead_movis_removed == 1
        assert VM().run(opt, {}) == 42

    def test_read_movi_kept(self):
        em = Emitter()
        em.movi(2, 21)
        em.addi(1, 2, 21)
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.dead_movis_removed == 0
        assert VM().run(opt, {}) == 42

    def test_movi_before_branch_kept(self):
        em = Emitter()
        em.movi(1, 5)  # may be observed by code after the label
        em.label("x")
        em.movi(1, 9)
        em.ret()
        # emit a user of the label so it isn't pruned
        _, stats = optimize(em.seal())
        assert stats.dead_movis_removed == 0


class TestLabelPruning:
    def test_untargeted_labels_removed(self):
        em = Emitter()
        em.label("unused")
        em.movi(1, 1)
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.labels_pruned == 1
        assert Op.LABEL not in ops_of(opt)

    def test_targeted_labels_kept_and_remapped(self):
        em = Emitter()
        em.movi(1, 0)
        em.movi(2, 3)
        em.label("dead1")  # prunable
        em.label("top")  # branch target, must survive resealing
        em.addi(1, 1, 10)
        em.addi(2, 2, -1)
        em.movi(3, 0)
        em.bne(2, 3, "top")
        em.ret()
        opt, stats = optimize(em.seal())
        assert stats.labels_pruned == 1
        assert VM().run(opt, {}) == 30


class TestOnRealConversionPrograms:
    @pytest.mark.parametrize("same_order", [True, False])
    def test_differential_against_unoptimized(self, same_order):
        src_endian = "little"
        dst_endian = "little" if same_order else "big"
        ce = ConversionEmitter(src_endian, dst_endian)
        ce.convert_int(0, 4, 0, 4, signed=True, count=6)
        ce.convert_float(24, 8, 24, 8, count=4)
        ce.copy_bytes(56, 56, 8)
        program = ce.finish()
        opt, stats = optimize(program)
        rng = np.random.default_rng(3)
        payload = struct.pack(
            f"{'<' if src_endian == 'little' else '>'}6i4d8s",
            *rng.integers(-1000, 1000, 6),
            *rng.uniform(-1, 1, 4),
            b"tailtail",
        )
        assert run_program(opt, payload, 64) == run_program(program, payload, 64)
        if same_order:
            # pure moves: the unrolled loop collapses
            assert stats.memcpys_created >= 1

    def test_stats_total_removed_counts(self):
        em = Emitter()
        em.movi(1, 1)
        em.movi(1, 2)
        em.label("gone")
        em.ret()
        _, stats = optimize(em.seal())
        assert stats.total_removed == 2
        assert "prune_labels" in stats.passes


class TestIntegrationWithCodegen:
    def test_vcode_converter_optimized_by_default(self):
        from repro.abi import SPARC_V8, MIPS_O32, RecordSchema, layout_record
        from repro.core import IOFormat, build_plan
        from repro.vcode import generate_vcode_converter

        # same byte order, different layout -> offset moves -> coalescible
        schema_a = RecordSchema.from_pairs("t", [("pad", "int"), ("a", "int"), ("b", "int")])
        schema_b = RecordSchema.from_pairs("t", [("a", "int"), ("b", "int")])
        plan = build_plan(
            IOFormat.from_layout(layout_record(schema_a, SPARC_V8)),
            IOFormat.from_layout(layout_record(schema_b, MIPS_O32)),
        )
        gen = generate_vcode_converter(plan)
        assert gen.vcode_stats is not None
        unopt = generate_vcode_converter(plan, optimize=False)
        assert unopt.vcode_stats is None
        payload = struct.pack(">3i", 0, 7, 9)
        assert gen.convert(payload) == unopt.convert(payload)
