"""Tests for nested record types ("complex subtypes", Section 3)."""

import pytest

from repro.abi import (
    ALPHA,
    SPARC_V8,
    X86,
    CType,
    FieldDecl,
    RecordSchema,
    codec_for,
    layout_record,
    records_equal,
)
from repro.core import IOContext
from repro.vcode import generate_vcode_converter
from repro.wire import IiopWire, MpiWire, PbioWire, XdrWire, XmlWire

VEC3 = RecordSchema.from_pairs("vec3", [("x", "double"), ("y", "double"), ("z", "double")])
HEADER = RecordSchema.from_pairs("hdr", [("step", "int"), ("flag", "char")])

BODY = RecordSchema(
    "body",
    [
        FieldDecl("id", CType.INT),
        FieldDecl.nested("hdr", HEADER),
        FieldDecl.nested("pos", VEC3),
        FieldDecl.nested("trail", VEC3, count=3),
        FieldDecl("mass", CType.DOUBLE),
    ],
)


def body_record():
    return {
        "id": 5,
        "hdr": {"step": 9, "flag": b"Q"},
        "pos": {"x": 1.0, "y": 2.0, "z": 3.0},
        "trail": [{"x": float(i), "y": i + 0.5, "z": float(-i)} for i in range(3)],
        "mass": 70.5,
    }


class TestDeclarations:
    def test_nested_decl_properties(self):
        f = FieldDecl.nested("pos", VEC3)
        assert f.is_nested and f.schema is VEC3 and f.ctype is None

    def test_nested_with_ctype_rejected(self):
        with pytest.raises(ValueError, match="no ctype"):
            FieldDecl("pos", CType.INT, schema=VEC3)

    def test_missing_ctype_rejected(self):
        with pytest.raises(ValueError, match="ctype required"):
            FieldDecl("pos", None)

    def test_flattening_explosion_guarded(self):
        with pytest.raises(ValueError, match="limit"):
            layout_record(
                RecordSchema("t", [FieldDecl.nested("a", VEC3, count=2000)]), X86
            )


class TestLayout:
    def test_substruct_alignment(self):
        # hdr is {int, char} (size 8, align 4); pos is 3 doubles.
        lay = layout_record(BODY, SPARC_V8)
        assert lay["hdr.step"].offset == 4
        assert lay["hdr.flag"].offset == 8
        assert lay["pos.x"].offset == 16  # sparc aligns doubles to 8
        assert layout_record(BODY, X86)["pos.x"].offset == 12  # i386: 4

    def test_array_of_structs_strides_by_padded_size(self):
        lay = layout_record(BODY, SPARC_V8)
        stride = lay["trail.1.x"].offset - lay["trail.0.x"].offset
        assert stride == layout_record(VEC3, SPARC_V8).size

    def test_deeply_nested(self):
        inner = RecordSchema("i", [FieldDecl("v", CType.INT)])
        mid = RecordSchema("m", [FieldDecl.nested("inner", inner), FieldDecl("w", CType.INT)])
        outer = RecordSchema("o", [FieldDecl.nested("mid", mid)])
        lay = layout_record(outer, X86)
        assert lay["mid.inner.v"].offset == 0
        assert lay["mid.w"].offset == 4


class TestCodecRoundTrip:
    @pytest.mark.parametrize("machine", [X86, SPARC_V8, ALPHA])
    def test_nested_encode_decode(self, machine):
        codec = codec_for(layout_record(BODY, machine))
        rec = body_record()
        assert records_equal(rec, codec.decode(codec.encode(rec)))

    def test_missing_nested_branch_zeroed(self):
        codec = codec_for(layout_record(BODY, X86))
        out = codec.decode(codec.encode({"id": 1, "mass": 2.0}))
        assert out["id"] == 1
        assert out["pos"] == {"x": 0.0, "y": 0.0, "z": 0.0}
        assert out["trail"][2]["z"] == 0.0


class TestExchanges:
    @pytest.mark.parametrize(
        "mode", ["dcg", "interpreted", pytest.param(generate_vcode_converter, id="vcode")]
    )
    def test_pbio_heterogeneous_nested(self, mode):
        sender = IOContext(SPARC_V8, conversion=mode)
        receiver = IOContext(X86, conversion=mode)
        h = sender.register_format(BODY)
        receiver.expect(BODY)
        receiver.receive(sender.announce(h))
        out = receiver.receive(sender.encode(h, body_record()))
        assert records_equal(body_record(), out)

    def test_nested_rename_inner_field_is_a_mismatch(self):
        # Renaming pos.x breaks the match for that leaf only.
        other_vec = RecordSchema.from_pairs("vec3", [("x2", "double"), ("y", "double"), ("z", "double")])
        v2 = RecordSchema(
            "body",
            [FieldDecl("id", CType.INT), FieldDecl.nested("pos", other_vec)],
        )
        v1 = RecordSchema(
            "body",
            [FieldDecl("id", CType.INT), FieldDecl.nested("pos", VEC3)],
        )
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(v2)
        receiver.expect(v1)
        receiver.receive(sender.announce(h))
        out = receiver.receive(
            sender.encode(h, {"id": 1, "pos": {"x2": 9.0, "y": 2.0, "z": 3.0}})
        )
        assert out["pos"]["x"] == 0.0  # defaulted: no pos.x on the wire
        assert out["pos"]["y"] == 2.0

    @pytest.mark.parametrize(
        "system_factory", [MpiWire, XmlWire, IiopWire, XdrWire, PbioWire]
    )
    def test_baselines_carry_nested_records(self, system_factory):
        src = layout_record(BODY, SPARC_V8)
        dst = layout_record(BODY, X86)
        bound = system_factory().bind(src, dst)
        native = codec_for(src).encode(body_record())
        out = codec_for(dst).decode(bound.decode(bound.encode(native)))
        assert records_equal(body_record(), out)

    def test_projection_of_nested_scalar(self):
        from repro.core import RecordProjector

        sender = IOContext(SPARC_V8)
        receiver = IOContext(X86)
        h = sender.register_format(BODY)
        receiver.receive(sender.announce(h))
        msg = sender.encode(h, body_record())
        projector = RecordProjector(receiver, "body", ["pos.x", "hdr.step"])
        assert projector.project(msg) == {"pos.x": 1.0, "hdr.step": 9}

    def test_reflection_sees_flattened_names(self):
        from repro.core import incoming_format

        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(BODY)
        fmt = incoming_format(receiver, sender.announce(h))
        assert "pos.x" in fmt.field_names()
        assert "trail.2.z" in fmt.field_names()
