"""Unit tests for C struct layout computation."""

import gc
import weakref

import pytest

from repro.abi import (
    ALPHA,
    SPARC_V8,
    SPARC_V9_64,
    X86,
    X86_64,
    CType,
    FieldDecl,
    RecordSchema,
    codec_for,
    layout_record,
)


def schema(*pairs):
    return RecordSchema.from_pairs("t", list(pairs))


class TestBasicPlacement:
    def test_single_int(self):
        lay = layout_record(schema(("a", "int")), X86)
        assert lay.size == 4
        assert lay["a"].offset == 0

    def test_char_then_int_pads_to_alignment(self):
        lay = layout_record(schema(("c", "char"), ("i", "int")), X86)
        assert lay["c"].offset == 0
        assert lay["i"].offset == 4
        assert lay.size == 8
        assert lay.padding_bytes() == 3

    def test_tail_padding_for_array_stride(self):
        # struct { double d; char c; } must be 16 on sparc (12 on x86 ILP32)
        s = schema(("d", "double"), ("c", "char"))
        assert layout_record(s, SPARC_V8).size == 16
        assert layout_record(s, X86).size == 12

    def test_fields_in_declaration_order(self):
        lay = layout_record(schema(("a", "int"), ("b", "short"), ("c", "double")), SPARC_V8)
        offs = [f.offset for f in lay.fields]
        assert offs == sorted(offs)


class TestAbiDifferences:
    def test_double_alignment_differs_x86_vs_sparc(self):
        # struct { int i; double d; }: x86 i386 ABI packs double at 4,
        # sparc at 8 — the classic layout mismatch the paper targets.
        s = schema(("i", "int"), ("d", "double"))
        assert layout_record(s, X86)["d"].offset == 4
        assert layout_record(s, SPARC_V8)["d"].offset == 8
        assert layout_record(s, X86).size == 12
        assert layout_record(s, SPARC_V8).size == 16

    def test_long_size_differs_ilp32_vs_lp64(self):
        s = schema(("l", "long"))
        assert layout_record(s, SPARC_V8).size == 4
        assert layout_record(s, SPARC_V9_64).size == 8
        assert layout_record(s, ALPHA).size == 8

    def test_same_schema_same_machine_is_cached(self):
        s = schema(("i", "int"))
        assert layout_record(s, X86) is layout_record(s, X86)

    def test_a_dropped_schema_frees_its_layouts_and_codec(self):
        s = schema(("i", "int"), ("d", "double[4]"))
        layouts = [weakref.ref(layout_record(s, m)) for m in (X86, SPARC_V8)]
        codec = weakref.ref(codec_for(layout_record(s, X86)))
        assert codec_for(layout_record(s, X86)) is codec()
        del s
        gc.collect()
        assert [ref() for ref in layouts] == [None, None] and codec() is None

    def test_x86_64_natural_alignment(self):
        s = schema(("c", "char"), ("d", "double"))
        lay = layout_record(s, X86_64)
        assert lay["d"].offset == 8
        assert lay.size == 16


class TestArraysAndGaps:
    def test_array_total_size(self):
        lay = layout_record(schema(("v", "double[10]")), X86)
        f = lay["v"]
        assert f.count == 10 and f.elem_size == 8 and f.total_size == 80

    def test_array_aligns_like_element(self):
        lay = layout_record(schema(("c", "char"), ("v", "int[4]")), SPARC_V8)
        assert lay["v"].offset == 4

    def test_gaps_reported(self):
        lay = layout_record(schema(("c", "char"), ("i", "int"), ("c2", "char")), X86)
        gaps = lay.gaps()
        assert (1, 3) in gaps  # pad between c and i
        assert sum(g[1] for g in gaps) == lay.padding_bytes()

    def test_contiguous_runs_split_on_padding(self):
        lay = layout_record(schema(("a", "int"), ("b", "int"), ("c", "char"), ("d", "double")), SPARC_V8)
        runs = lay.contiguous_runs()
        names = [[f.name for f in run] for run in runs]
        assert names == [["a", "b", "c"], ["d"]]

    def test_packed_struct_has_no_gaps(self):
        lay = layout_record(schema(("a", "int"), ("b", "int")), X86)
        assert lay.gaps() == []
        assert lay.padding_bytes() == 0


class TestSchemaValidation:
    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            schema(("a", "int"), ("a", "double"))

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            RecordSchema("t", [])

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValueError):
            FieldDecl("not an ident", CType.INT)

    def test_parse_array_spec(self):
        f = FieldDecl.parse("v", "unsigned int[7]")
        assert f.ctype is CType.UNSIGNED_INT and f.count == 7

    def test_parse_aliases(self):
        assert FieldDecl.parse("v", "uint32").ctype is CType.UNSIGNED_INT
        assert FieldDecl.parse("v", "int64").ctype is CType.LONG_LONG

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            FieldDecl.parse("v", "quaternion")

    def test_string_array_rejected(self):
        with pytest.raises(ValueError):
            FieldDecl("s", CType.STRING, count=3)

    def test_extension_append_and_prepend(self):
        s = schema(("a", "int"))
        s2 = s.extended("t2", [FieldDecl("z", CType.DOUBLE)])
        assert s2.field_names() == ["a", "z"]
        s3 = s.extended("t3", [FieldDecl("z", CType.DOUBLE)], prepend=True)
        assert s3.field_names() == ["z", "a"]


class TestDescribe:
    def test_describe_mentions_padding(self):
        lay = layout_record(schema(("c", "char"), ("i", "int")), X86)
        text = lay.describe()
        assert "pad" in text and "int i" in text
