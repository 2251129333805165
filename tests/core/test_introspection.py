"""Tests for converter source introspection."""

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext
from repro.vcode import generate_vcode_converter


def schema(name="t"):
    # x86 -> SPARC only moves bytes, so the DCG source is one numpy gather
    # (a double array past conversion.NUMPY_THRESHOLD would be a numpy cast).
    return RecordSchema.from_pairs(name, [("i", "int"), ("d", "double[40]")])


def exchange(receiver):
    sender = IOContext(X86)
    h = sender.register_format(schema())
    receiver.expect(schema())
    receiver.receive(sender.announce(h))
    receiver.receive(sender.encode(h, {"i": 1, "d": tuple(float(x) for x in range(40))}))


class TestConverterSources:
    def test_dcg_source_is_specialized_python(self):
        receiver = IOContext(SPARC_V8, conversion="dcg")
        exchange(receiver)
        sources = receiver.converter_sources()
        assert len(sources) == 1
        source = next(iter(sources.values()))
        assert "def convert" in source
        assert "np.frombuffer" in source and "_w.take(" in source  # the record: one numpy gather

    def test_vcode_source_is_disassembly(self):
        receiver = IOContext(SPARC_V8, conversion=generate_vcode_converter)
        exchange(receiver)
        source = next(iter(receiver.converter_sources().values()))
        assert "ldf" in source or "ld " in source

    def test_interpreted_source_is_plan_description(self):
        receiver = IOContext(SPARC_V8, conversion="interpreted")
        exchange(receiver)
        source = next(iter(receiver.converter_sources().values()))
        assert "plan" in source and "swap" in source

    def test_filter_by_format_name(self):
        receiver = IOContext(SPARC_V8)
        exchange(receiver)
        assert receiver.converter_sources("t")
        assert not receiver.converter_sources("nonexistent")

    def test_zero_copy_exchange_generates_nothing(self):
        receiver = IOContext(X86)
        exchange(receiver)
        assert receiver.converter_sources() == {}
