"""A record view reads a field through a getter compiled once per layout.

``NativeCodec.getters`` is the one per-field implementation:
``decode_field``, ``RecordView`` access and the ``_decode_ops`` loop all
call it.  Reading a field where it lies is only acceptable if it is the
field a full ``decode()`` yields — the generated reader where one
exists, an independent implementation — and the value that was encoded:
for every field kind, on every machine ABI, at a non-zero offset, over
every kind of buffer a frame arrives in.  And a view stays what it was:
four slots, read-only, unknown names refused.
"""

import pytest

from repro.abi import MACHINES, X86, CType, FieldDecl, RecordSchema, RecordView, codec_for, layout_record

from .test_reader_equivalence import assert_same, takes_the_loop

POINT = RecordSchema("point", [FieldDecl("x", CType.SHORT), FieldDecl("w", CType.DOUBLE, 2)])
#: a fixed layout (the generated reader decodes it) and one with
#: everything that reader declines: strings, nested (dotted) names
FIXED = RecordSchema(
    "fixed",
    [
        FieldDecl("flag", CType.BOOL),
        FieldDecl("tag", CType.CHAR, 6),
        FieldDecl("letter", CType.CHAR),
        FieldDecl("n", CType.INT),
        FieldDecl("big", CType.UNSIGNED_LONG_LONG),
        FieldDecl("f", CType.FLOAT),
        FieldDecl("d", CType.DOUBLE),
        FieldDecl("trio", CType.SHORT, 3),  # tuple path
        FieldDecl("halves", CType.FLOAT, 4),
        FieldDecl("grid", CType.INT, 20),  # numpy path
        FieldDecl("series", CType.DOUBLE, 17),
        FieldDecl("off", CType.BOOL),
    ],
)
MIXED = RecordSchema(
    "mixed",
    [
        FieldDecl("id", CType.INT),
        FieldDecl("name", CType.STRING),
        FieldDecl.nested("origin", POINT),
        FieldDecl("missing", CType.STRING),  # a null pointer
        FieldDecl.nested("path", POINT, 2),
        FieldDecl("d", CType.DOUBLE),
        FieldDecl("note", CType.STRING),
    ],
)
RECORDS = {
    "fixed": {
        "flag": True, "tag": b"abc\x00\x00\x00", "letter": b"q", "n": -7, "big": 2**63 + 5,
        "f": 1.5, "d": -2.25, "trio": (1, -2, 3), "halves": (0.5, -0.25, 8.0, 0.0),
        "grid": tuple(range(-10, 10)), "series": tuple(k / 4 for k in range(17)), "off": False,
    },
    "mixed": {
        "id": 9, "name": "héllo", "origin": {"x": -3, "w": (0.5, 1.5)}, "missing": None,
        "path": [{"x": 1, "w": (2.0, 4.0)}, {"x": 2, "w": (-8.0, 0.125)}], "d": 6.5, "note": "",
    },
}  # fmt: skip
OFFSET = 13
SOURCES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda framed: memoryview(bytearray(framed)),
}


def walk(record, dotted):
    """The value a dotted (flattened) field name selects in a nested record."""
    for step in dotted.split("."):
        record = record[int(step)] if step.isdigit() else record[step]
    return record


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("schema", [FIXED, MIXED], ids=lambda s: s.name)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_getter_is_decode_field_is_the_decoded_field(machine, schema, source):
    layout = layout_record(schema, MACHINES[machine])
    codec = codec_for(layout)
    record = RECORDS[schema.name]
    native = codec.encode(record)
    data = SOURCES[source](bytes(OFFSET) + native + b"\x5a" * 3)
    full = codec.decode(data, OFFSET)
    vax = MACHINES[machine].float_format == "vax"
    assert takes_the_loop(codec) == (schema is MIXED or vax)  # else `full` is the generated reader's
    view = RecordView(codec, data, OFFSET)
    assert list(codec.getters) == layout.field_names() == list(view)
    if schema is MIXED:
        assert any("." in name for name in codec.getters)  # origin.x, path.1.w, ...
    for name, getter in codec.getters.items():
        got = getter(data, OFFSET)
        assert_same(got, walk(full, name), name)
        assert_same(codec.decode_field(data, name, OFFSET), got, name)
        assert_same(view[name], got, name)
        if "." not in name:
            assert_same(getattr(view, name), got, name)
        # and it is what was encoded (every value above is exact in IEEE and VAX floats)
        want = walk(record, name)
        assert (tuple(got) if isinstance(want, tuple) else got) == want, name


class TestAViewStaysAView:
    codec = codec_for(layout_record(POINT, X86))

    def view(self):
        return RecordView(self.codec, self.codec.encode({"x": 4, "w": (1.0, 2.0)}))

    def test_read_only_through_every_name(self):
        view = self.view()
        for name in ("x", "_data", "_codec", "_offset", "_lease", "anything"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(view, name, b"")
        assert view.x == 4 and view["w"] == (1.0, 2.0)

    def test_slots_unchanged(self):
        assert RecordView.__slots__ == ("_codec", "_data", "_offset", "_lease")
        assert not hasattr(self.view(), "__dict__")

    def test_unknown_names_are_refused(self):
        view = self.view()
        with pytest.raises(KeyError):
            view["nope"]
        with pytest.raises(AttributeError, match="nope"):
            view.nope
        with pytest.raises(KeyError):
            self.codec.decode_field(b"", "nope")

    def test_accepts_a_layout_or_its_codec(self):
        native = self.codec.encode({"x": 1, "w": (0.0, 0.0)})
        assert RecordView(self.codec.layout, native)._codec is self.codec
        lease = object()
        leased = RecordView(self.codec, native, 0, lease=lease)
        assert leased.lease is lease and leased.buffer is native and leased.detach().lease is None
