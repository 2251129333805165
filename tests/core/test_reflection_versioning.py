"""Tests for reflection and application-evolution helpers."""

import pytest

from repro.abi import SPARC_V8, X86, CType, FieldDecl, RecordSchema, layout_record
from repro.core import (
    IOContext,
    IOFormat,
    check_evolution,
    generic_decode,
    incoming_format,
    peek_message,
)
from repro.core import encoder as enc


def schema(*pairs, name="rec"):
    return RecordSchema.from_pairs(name, list(pairs))


def fmt(machine, sch):
    return IOFormat.from_layout(layout_record(sch, machine))


class TestReflection:
    def test_peek_format_message(self):
        ctx = IOContext(X86)
        h = ctx.register_format(schema(("i", "int")))
        info = peek_message(ctx.announce(h))
        assert info.is_format and info.msg_type == enc.MSG_FORMAT
        assert info.context_id == ctx.context_id

    def test_peek_data_message(self):
        ctx = IOContext(X86)
        h = ctx.register_format(schema(("i", "int")))
        info = peek_message(ctx.encode(h, {"i": 1}))
        assert info.msg_type == enc.MSG_DATA and not info.is_format
        assert info.format_id == h.format_id

    def test_incoming_format_from_announcement(self):
        sender = IOContext(SPARC_V8)
        receiver = IOContext(X86)
        h = sender.register_format(schema(("i", "int"), ("d", "double")))
        wire_fmt = incoming_format(receiver, sender.announce(h))
        assert wire_fmt.name == "rec"
        assert wire_fmt.byte_order == "big"
        assert wire_fmt.field_names() == ["i", "d"]

    def test_incoming_format_from_data_after_announcement(self):
        sender = IOContext(SPARC_V8)
        receiver = IOContext(X86)
        h = sender.register_format(schema(("i", "int")))
        receiver.receive(sender.announce(h))
        wire_fmt = incoming_format(receiver, sender.encode(h, {"i": 1}))
        assert wire_fmt.name == "rec"

    def test_generic_decode_without_expectations(self):
        # A generic component decodes a record it has never heard of.
        sender = IOContext(SPARC_V8)
        receiver = IOContext(X86)  # never calls expect()
        sch = schema(("i", "int"), ("v", "float[3]"), ("name", "char[4]"), ("ok", "bool"))
        h = sender.register_format(sch)
        receiver.receive(sender.announce(h))
        message = sender.encode(h, {"i": -9, "v": (1.0, 2.0, 3.0), "name": b"ab", "ok": True})
        out = generic_decode(receiver, message)
        assert out["i"] == -9
        assert out["v"] == (1.0, 2.0, 3.0)
        assert out["name"].startswith(b"ab")
        assert out["ok"] is True

    def test_generic_decode_with_string(self):
        sender = IOContext(X86)
        receiver = IOContext(X86)
        sch = schema(("tag", "string"), ("n", "int"))
        h = sender.register_format(sch)
        receiver.receive(sender.announce(h))
        out = generic_decode(receiver, sender.encode(h, {"tag": "report", "n": 2}))
        assert out == {"tag": "report", "n": 2}

    def test_generic_decode_rejects_format_message(self):
        from repro.core import MessageError

        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(schema(("i", "int")))
        with pytest.raises(MessageError):
            generic_decode(receiver, sender.announce(h))

    def test_generic_decode_admits_like_every_decode(self):
        """A frame reaches the record only through the pipeline's admission
        check: a short frame, one longer than its header says and a wild
        string pointer are PbioErrors, and a sequenced frame is data."""
        from repro.core import ConversionError, PbioError

        sender, receiver = IOContext(SPARC_V8), IOContext(X86)
        h = sender.register_format(schema(("n", "int"), ("tag", "string")))
        receiver.receive(sender.announce(h))
        record = {"n": 7, "tag": "seven"}
        message = sender.encode(h, record)
        native = bytearray(message[enc.HEADER_SIZE :])
        tag = h.iofmt.fields[1]
        native[tag.offset : tag.offset + tag.size] = (len(native) + 64).to_bytes(tag.size, "big")
        for damaged in (message[:-6], message + bytes(4)):
            with pytest.raises(PbioError):
                generic_decode(receiver, damaged)
        with pytest.raises(ConversionError):
            generic_decode(receiver, sender.encode_native(h, native))
        assert receiver.metrics.value("decode.rejected") == 3
        sequenced = enc.encode_data_seq(sender.context_id, h.format_id, 1, message[enc.HEADER_SIZE :])
        assert generic_decode(receiver, sequenced) == generic_decode(receiver, message) == record


class TestEvolution:
    def test_appended_field_is_zero_cost(self):
        old_s = schema(("i", "int"), ("d", "double"))
        new_s = old_s.extended("rec", [FieldDecl("extra", CType.INT)])
        report = check_evolution(fmt(X86, old_s), fmt(X86, new_s))
        assert report.compatible
        assert report.added == ("extra",)
        assert not report.removed and not report.relocated
        assert report.zero_cost_for_old_readers

    def test_prepended_field_relocates_everything(self):
        old_s = schema(("i", "int"), ("d", "double"))
        new_s = old_s.extended("rec", [FieldDecl("extra", CType.INT)], prepend=True)
        report = check_evolution(fmt(X86, old_s), fmt(X86, new_s))
        assert report.compatible
        assert set(report.relocated) == {"i", "d"}
        assert not report.zero_cost_for_old_readers
        assert any("appending" in n for n in report.notes)

    def test_removed_field_noted(self):
        old_s = schema(("i", "int"), ("gone", "double"))
        new_s = schema(("i", "int"))
        report = check_evolution(fmt(X86, old_s), fmt(X86, new_s))
        assert report.removed == ("gone",)
        assert any("zero" in n for n in report.notes)

    def test_incompatible_kind_change(self):
        old_s = schema(("x", "int"))
        new_s = schema(("x", "char[4]"))
        report = check_evolution(fmt(X86, old_s), fmt(X86, new_s))
        assert not report.compatible

    def test_describe_readable(self):
        old_s = schema(("i", "int"))
        new_s = old_s.extended("rec", [FieldDecl("z", CType.INT)])
        text = check_evolution(fmt(X86, old_s), fmt(X86, new_s)).describe()
        assert "compatible" in text and "z" in text

    def test_cross_machine_evolution(self):
        # Upgraded x86 writers, old sparc readers: conversion anyway, but
        # the change must remain compatible.
        old_s = schema(("i", "int"), ("d", "double"))
        new_s = old_s.extended("rec", [FieldDecl("extra", CType.DOUBLE)])
        report = check_evolution(fmt(SPARC_V8, old_s), fmt(X86, new_s))
        assert report.compatible
        assert not report.zero_cost_for_old_readers  # byte order differs
