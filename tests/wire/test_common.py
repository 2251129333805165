"""Tests for the shared WireSystem interface and cross-system parity."""

import pytest

from repro.abi import SPARC_V8, X86, layout_record
from repro.wire import IiopWire, MpiWire, PbioWire, WireFormatError, XdrWire, XmlWire
from repro.wire.common import check_same_schema
from repro.workloads import mechanical

ALL_SYSTEMS = [PbioWire, MpiWire, IiopWire, XdrWire, XmlWire]


class TestBoundFormatInterface:
    @pytest.mark.parametrize("factory", ALL_SYSTEMS)
    def test_wire_size_reports_encoded_length(self, factory):
        schema = mechanical.schema_for_size("100b")
        src = layout_record(schema, X86)
        dst = layout_record(schema, SPARC_V8)
        bound = factory().bind(src, dst)
        native = mechanical.native_bytes("100b", X86)
        assert bound.wire_size(native) == len(bound.encode(native))

    @pytest.mark.parametrize("factory", ALL_SYSTEMS)
    def test_system_attribute_set(self, factory):
        schema = mechanical.schema_for_size("100b")
        src = layout_record(schema, X86)
        bound = factory().bind(src, src)
        assert isinstance(bound.system, str) and bound.system

    @pytest.mark.parametrize("factory", ALL_SYSTEMS)
    def test_decode_of_encode_is_dst_record_size(self, factory):
        schema = mechanical.schema_for_size("100b")
        src = layout_record(schema, X86)
        dst = layout_record(schema, SPARC_V8)
        bound = factory().bind(src, dst)
        out = bound.decode(bound.encode(mechanical.native_bytes("100b", X86)))
        assert len(out) == dst.size


class TestAPrioriAgreement:
    def test_check_same_schema_accepts_size_differences(self):
        # Same field names/kinds/counts but different machine sizes: the
        # agreement is at the type level, not the representation level.
        from repro.abi import SPARC_V9_64, RecordSchema

        schema = RecordSchema.from_pairs("t", [("l", "long")])
        check_same_schema(
            layout_record(schema, SPARC_V8), layout_record(schema, SPARC_V9_64), "test"
        )

    def test_check_same_schema_rejects_count_change(self):
        from repro.abi import RecordSchema

        a = layout_record(RecordSchema.from_pairs("t", [("v", "int[3]")]), X86)
        b = layout_record(RecordSchema.from_pairs("t", [("v", "int[4]")]), X86)
        with pytest.raises(WireFormatError):
            check_same_schema(a, b, "test")

    def test_pbio_is_the_only_system_accepting_schema_drift(self):
        from repro.abi import RecordSchema

        src = layout_record(
            RecordSchema.from_pairs("t", [("a", "int"), ("extra", "int")]), X86
        )
        dst = layout_record(RecordSchema.from_pairs("t", [("a", "int")]), X86)
        for factory in (MpiWire, IiopWire, XdrWire):
            with pytest.raises(WireFormatError):
                factory().bind(src, dst)
        # XML and PBIO both tolerate drift (name matching).
        assert XmlWire().bind(src, dst) is not None
        assert PbioWire().bind(src, dst) is not None


class TestPbioWireNames:
    def test_conversion_mode_in_name(self):
        assert PbioWire().name == "PBIO"
        assert PbioWire("interpreted").name == "PBIO-interpreted"
        assert PbioWire("vcode").name == "PBIO-vcode"

    def test_decode_view_available(self):
        schema = mechanical.schema_for_size("100b")
        src = layout_record(schema, X86)
        bound = PbioWire().bind(src, src)
        native = mechanical.native_bytes("100b", X86)
        view = bound.decode_view(bound.encode(native))
        assert view.node_id == mechanical.sample_record("100b")["node_id"]
