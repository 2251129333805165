"""Tests for IOContext: the public PBIO encode/decode API."""

import pytest

from repro.abi import ALPHA, SPARC_V8, X86, FieldDecl, CType, RecordSchema, layout_record, records_equal
from repro.core import (
    FormatError,
    IOContext,
    MessageError,
    UnknownFormatError,
)
from repro.core import encoder as enc


def schema(*pairs, name="rec"):
    return RecordSchema.from_pairs(name, list(pairs))


def linked_pair(src_machine, dst_machine, sch, **kwargs):
    sender = IOContext(src_machine, **kwargs)
    receiver = IOContext(dst_machine, **kwargs)
    handle = sender.register_format(sch)
    receiver.expect(sch)
    receiver.receive(sender.announce(handle))
    return sender, receiver, handle


class TestHeaders:
    def test_header_round_trip(self):
        h = enc.pack_header(enc.MSG_DATA, 0xDEADBEEF, 42, 100)
        assert enc.unpack_header(h) == (enc.MSG_DATA, 0xDEADBEEF, 42, 100)

    def test_bad_magic(self):
        with pytest.raises(MessageError, match="magic"):
            enc.unpack_header(b"\x00" * enc.HEADER_SIZE)

    def test_short_message(self):
        with pytest.raises(MessageError, match="shorter"):
            enc.unpack_header(b"\xb1\x01")

    def test_bad_message_type(self):
        h = bytearray(enc.pack_header(enc.MSG_DATA, 1, 1, 0))
        h[2] = 99
        with pytest.raises(MessageError, match="message type"):
            enc.unpack_header(bytes(h))

    def test_segments_avoid_copying_payload(self):
        native = bytearray(b"\x01\x02\x03\x04")
        segments = enc.data_frames(1, 2, (native,), gather=0)[0].segments
        assert segments[1] is native  # the caller's buffer, not a copy


class TestHomogeneousExchange:
    def test_round_trip_dict(self):
        s, r, h = linked_pair(X86, X86, schema(("i", "int"), ("d", "double")))
        out = r.receive(s.encode(h, {"i": 5, "d": 2.5}))
        assert out == {"i": 5, "d": 2.5}

    def test_zero_copy_stat_increments(self):
        s, r, h = linked_pair(X86, X86, schema(("i", "int")))
        r.receive(s.encode(h, {"i": 1}))
        r.receive(s.encode(h, {"i": 2}))
        assert r.stats.zero_copy_decodes == 2
        assert r.stats.converted_decodes == 0
        assert r.stats.converters_generated == 0

    def test_view_references_message_buffer(self):
        s, r, h = linked_pair(X86, X86, schema(("i", "int")))
        message = s.encode(h, {"i": 7})
        view = r.decode_view(message)
        raw = view.raw_bytes()
        # The view's bytes are a window into the message itself.
        assert bytes(raw) == message[enc.HEADER_SIZE :]


class TestHeterogeneousExchange:
    @pytest.mark.parametrize("mode", ["dcg", "interpreted", "vcode"])
    def test_x86_to_sparc(self, mode):
        sch = schema(("i", "int"), ("d", "double[10]"), ("name", "char[8]"))
        s, r, h = linked_pair(X86, SPARC_V8, sch, conversion=mode)
        rec = {"i": -3, "d": tuple(float(i) for i in range(10)), "name": b"abc"}
        out = r.receive(s.encode(h, rec))
        assert records_equal(rec, out)
        assert r.stats.converted_decodes == 1

    def test_converter_cached_across_messages(self):
        s, r, h = linked_pair(X86, SPARC_V8, schema(("i", "int")))
        for i in range(5):
            r.receive(s.encode(h, {"i": i}))
        assert r.stats.converters_generated == 1
        assert r.stats.converter_cache_hits == 4

    def test_three_way_heterogeneous(self):
        sch = schema(("i", "int"), ("d", "double"))
        sender = IOContext(ALPHA)
        h = sender.register_format(sch)
        announce = sender.announce(h)
        message = sender.encode(h, {"i": 1, "d": 2.0})
        for machine in (X86, SPARC_V8):
            r = IOContext(machine)
            r.expect(sch)
            r.receive(announce)
            assert r.receive(message) == {"i": 1, "d": 2.0}


class TestProtocolErrors:
    def test_data_before_announcement(self):
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(schema(("i", "int")))
        receiver.expect(schema(("i", "int")))
        with pytest.raises(UnknownFormatError):
            receiver.receive(sender.encode(h, {"i": 1}))

    def test_no_expected_format(self):
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(schema(("i", "int")))
        receiver.receive(sender.announce(h))
        with pytest.raises(FormatError, match="no expected format"):
            receiver.receive(sender.encode(h, {"i": 1}))

    def test_truncated_payload(self):
        s, r, h = linked_pair(X86, X86, schema(("i", "int")))
        message = s.encode(h, {"i": 1})
        with pytest.raises(MessageError, match="length mismatch"):
            r.receive(message[:-2])

    def test_bad_conversion_mode(self):
        with pytest.raises(ValueError):
            IOContext(X86, conversion="jit")


class TestTypeExtensionSemantics:
    def test_new_field_ignored_by_old_receiver(self):
        old = schema(("i", "int"), ("d", "double"))
        new = old.extended("rec", [FieldDecl("extra", CType.INT)])
        sender = IOContext(X86)
        receiver = IOContext(SPARC_V8)
        h = sender.register_format(new)
        receiver.expect(old)
        receiver.receive(sender.announce(h))
        out = receiver.receive(sender.encode(h, {"i": 1, "d": 2.0, "extra": 99}))
        assert out == {"i": 1, "d": 2.0}

    def test_appended_field_homogeneous_stays_zero_copy(self):
        old = schema(("i", "int"), ("d", "double"))
        new = old.extended("rec", [FieldDecl("extra", CType.INT)])
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(new)
        receiver.expect(old)
        receiver.receive(sender.announce(h))
        receiver.receive(sender.encode(h, {"i": 1, "d": 2.0, "extra": 9}))
        assert receiver.stats.zero_copy_decodes == 1

    def test_prepended_field_homogeneous_forces_conversion(self):
        old = schema(("i", "int"), ("d", "double"))
        new = old.extended("rec", [FieldDecl("extra", CType.INT)], prepend=True)
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(new)
        receiver.expect(old)
        receiver.receive(sender.announce(h))
        out = receiver.receive(sender.encode(h, {"i": 1, "d": 2.0, "extra": 9}))
        assert out == {"i": 1, "d": 2.0}
        assert receiver.stats.converted_decodes == 1

    def test_old_sender_new_receiver_missing_defaulted(self):
        old = schema(("i", "int"))
        new = old.extended("rec", [FieldDecl("extra", CType.DOUBLE)])
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(old)
        receiver.expect(new)
        receiver.receive(sender.announce(h))
        out = receiver.receive(sender.encode(h, {"i": 1}))
        assert out == {"i": 1, "extra": 0.0}


class TestStringsEndToEnd:
    @pytest.mark.parametrize("mode", ["dcg", "interpreted"])
    def test_string_fields_heterogeneous(self, mode):
        sch = schema(("tag", "string"), ("n", "int"))
        s, r, h = linked_pair(X86, SPARC_V8, sch, conversion=mode)
        out = r.receive(s.encode(h, {"tag": "status update", "n": 3}))
        assert out == {"tag": "status update", "n": 3}

    def test_string_zero_copy_homogeneous(self):
        sch = schema(("tag", "string"), ("n", "int"))
        s, r, h = linked_pair(X86, X86, sch)
        view = r.decode_view(s.encode(h, {"tag": "zc", "n": 1}))
        assert view.tag == "zc"
        assert r.stats.zero_copy_decodes == 1


class TestRegistrationIdempotence:
    def test_register_same_schema_twice_same_id(self):
        ctx = IOContext(X86)
        sch = schema(("i", "int"))
        h1 = ctx.register_format(sch)
        h2 = ctx.register_format(sch)
        assert h1.format_id == h2.format_id

    def test_context_ids_differ(self):
        assert IOContext(X86).context_id != IOContext(X86).context_id
