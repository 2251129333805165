"""Edge-case coverage across the PBIO core."""

import pytest

from repro.abi import ALPHA, SPARC_V8, VAX, X86, RecordSchema, codec_for, layout_record, records_equal
from repro.core import (
    IOContext,
    IOFormat,
    OpKind,
    PbioConnection,
    build_plan,
)
from repro.net import InMemoryPipe


def schema(*pairs, name="rec"):
    return RecordSchema.from_pairs(name, list(pairs))


def fmt(machine, sch):
    return IOFormat.from_layout(layout_record(sch, machine))


class TestArrayLengthMismatch:
    """Field matching tolerates arrays whose lengths changed between
    versions: extra wire elements are ignored, extra native elements are
    defaulted (same rule as whole fields)."""

    def run(self, src_spec, dst_spec, value):
        sender = IOContext(X86)
        receiver = IOContext(X86)
        h = sender.register_format(schema((("v"), src_spec)))
        receiver.expect(schema((("v"), dst_spec)))
        receiver.receive(sender.announce(h))
        return receiver.receive(sender.encode(h, {"v": value}))

    def test_wire_array_longer(self):
        out = self.run("int[6]", "int[4]", (1, 2, 3, 4, 5, 6))
        assert tuple(out["v"]) == (1, 2, 3, 4)

    def test_wire_array_shorter(self):
        out = self.run("int[3]", "int[5]", (1, 2, 3))
        assert tuple(out["v"]) == (1, 2, 3, 0, 0)

    def test_char_buffer_shrinks(self):
        out = self.run("char[12]", "char[4]", b"abcdefgh")
        assert out["v"] == b"abcd"

    def test_char_buffer_grows(self):
        out = self.run("char[4]", "char[12]", b"abcd")
        assert out["v"].rstrip(b"\x00") == b"abcd"

    def test_scalar_to_array_is_prefix(self):
        out = self.run("int", "int[3]", 7)
        assert tuple(out["v"]) == (7, 0, 0)


class TestPlanEdges:
    def test_empty_overlap_all_zeroed(self):
        # Completely disjoint field sets: every target defaulted.
        plan = build_plan(fmt(X86, schema(("a", "int"))), fmt(X86, schema(("b", "double"), name="rec")))
        assert [op.kind for op in plan.ops] == [OpKind.ZERO]

    def test_plan_histogram_and_describe(self):
        plan = build_plan(
            fmt(X86, schema(("a", "int"), ("d", "double"))),
            fmt(SPARC_V8, schema(("a", "int"), ("d", "double"))),
        )
        hist = plan.op_histogram()
        assert hist.get("swap", 0) >= 1
        assert "swap" in plan.describe()

    def test_is_identity_detects_exact_copy(self):
        sch = schema(("a", "int"), ("b", "int"))
        plan = build_plan(fmt(X86, sch), fmt(X86, sch))
        assert plan.is_identity
        plan2 = build_plan(fmt(X86, sch), fmt(SPARC_V8, sch))
        assert not plan2.is_identity

    def test_coalesce_does_not_merge_across_unequal_gaps(self):
        # sender: a@0, b@8 (gap 4); receiver: a@0, b@4 (no gap): two copies
        wire = IOFormat(
            "rec",
            fmt(X86, schema(("a", "int"), ("pad", "int"), ("b", "int"))).fields,
            "little",
            12,
        )
        native = fmt(X86, schema(("a", "int"), ("b", "int")))
        plan = build_plan(wire, native)
        copies = [op for op in plan.ops if op.kind is OpKind.COPY]
        assert len(copies) == 2


class TestConnectionEdges:
    def test_recv_view_and_buffer_identity(self):
        pipe = InMemoryPipe()
        tx = PbioConnection(IOContext(ALPHA), pipe.a)
        rx = PbioConnection(IOContext(ALPHA), pipe.b)
        sch = schema(("x", "double"))
        h = tx.ctx.register_format(sch)
        rx.ctx.expect(sch)
        tx.send(h, {"x": 1.25})
        view = rx.recv_view()
        assert view.x == 1.25

    def test_send_native_fast_path(self):
        pipe = InMemoryPipe()
        tx = PbioConnection(IOContext(X86), pipe.a)
        rx = PbioConnection(IOContext(SPARC_V8), pipe.b)
        sch = schema(("i", "int"))
        h = tx.ctx.register_format(sch)
        rx.ctx.expect(sch)
        tx.send_native(h, h.codec.encode({"i": 5}))
        assert rx.recv() == {"i": 5}

    def test_multiple_connections_share_context(self):
        ctx = IOContext(X86)
        sch = schema(("i", "int"))
        h = ctx.register_format(sch)
        for _ in range(2):
            pipe = InMemoryPipe()
            tx = PbioConnection(ctx, pipe.a)
            rx = PbioConnection(IOContext(X86), pipe.b)
            rx.ctx.expect(sch)
            tx.send(h, {"i": 1})
            assert rx.recv() == {"i": 1}


class TestContextEdges:
    @pytest.mark.parametrize("sender_machine", [SPARC_V8, X86], ids=["sparc", "x86"])
    @pytest.mark.parametrize("entry", ["decode", "decode_view", "decode_native", "decode_batch"])
    def test_re_expecting_same_name_replaces_target(self, entry, sender_machine):
        """A steady plan (decoded twice) still sees a replacing ``expect()``
        at once, on every decode entry point, converted (sparc: one gather
        either way) or not (x86: a copy, then zero-copy)."""
        sender = IOContext(sender_machine)
        receiver = IOContext(X86)
        h = sender.register_format(schema(("a", "int"), ("b", "int")))
        receiver.receive(sender.announce(h))
        msg = sender.encode(h, {"a": 1, "b": 2})

        def decoded(expected):
            pipeline = receiver.pipeline
            if entry == "decode_native":
                return codec_for(layout_record(expected, X86)).decode(pipeline.decode_native(msg))
            if entry == "decode_batch":
                (record,) = pipeline.decode_batch([msg])
                return record
            record = getattr(pipeline, entry)(msg)
            return record if entry == "decode" else record.to_dict()

        narrow = schema(("a", "int"))
        receiver.expect(narrow)
        assert decoded(narrow) == decoded(narrow) == {"a": 1}
        # The application upgrades its expectations at run time.
        wide = schema(("a", "int"), ("b", "int"))
        receiver.expect(wide)
        assert decoded(wide) == decoded(wide) == {"a": 1, "b": 2}

    def test_decode_view_converted_path(self):
        sender = IOContext(SPARC_V8)
        receiver = IOContext(X86)
        sch = schema(("i", "int"), ("d", "double"))
        h = sender.register_format(sch)
        receiver.expect(sch)
        receiver.receive(sender.announce(h))
        view = receiver.decode_view(sender.encode(h, {"i": 4, "d": 0.5}))
        assert view.i == 4 and view.d == 0.5
        assert receiver.stats.converted_decodes == 1

    def test_interleaved_formats_from_one_sender(self):
        sender = IOContext(X86)
        receiver = IOContext(SPARC_V8)
        s1, s2 = schema(("a", "int"), name="r1"), schema(("b", "double"), name="r2")
        h1, h2 = sender.register_format(s1), sender.register_format(s2)
        receiver.expect(s1)
        receiver.expect(s2)
        receiver.receive(sender.announce(h1))
        receiver.receive(sender.announce(h2))
        assert receiver.receive(sender.encode(h1, {"a": 1})) == {"a": 1}
        assert receiver.receive(sender.encode(h2, {"b": 2.0})) == {"b": 2.0}
        assert receiver.stats.converters_generated == 2

    def test_two_senders_same_format_name_different_layouts(self):
        # Two writers of the same record type on different machines: the
        # receiver keeps a converter per wire format.
        receiver = IOContext(X86)
        sch = schema(("i", "int"), ("d", "double"))
        receiver.expect(sch)
        for machine in (SPARC_V8, ALPHA, VAX):
            sender = IOContext(machine)
            h = sender.register_format(sch)
            receiver.receive(sender.announce(h))
            out = receiver.receive(sender.encode(h, {"i": 3, "d": 1.5}))
            assert records_equal(out, {"i": 3, "d": 1.5})
        assert receiver.stats.converters_generated == 3


class TestTimingHelpers:
    def test_calibrated_inner_bounds(self):
        from repro.wire.timing import calibrated_inner

        inner = calibrated_inner(lambda: None, target_s=1e-4)
        assert 1 <= inner <= 10_000
