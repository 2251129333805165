"""Tests for VAX F/D floating codecs and the VAX machine model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abi import VAX, X86, RecordSchema, codec_for, layout_record, records_equal
from repro.abi.floats import (
    VAX_F_MAX,
    VaxFloatError,
    convert_float_bytes,
    ieee_to_vax_d,
    ieee_to_vax_f,
    vax_d_to_ieee,
    vax_f_to_ieee,
)


class TestVaxF:
    def test_known_encoding_of_one(self):
        # The canonical check: VAX F 1.0 is bytes 80 40 00 00 in memory.
        assert ieee_to_vax_f([1.0]) == bytes.fromhex("80400000")

    def test_zero(self):
        assert ieee_to_vax_f([0.0]) == b"\x00\x00\x00\x00"
        assert vax_f_to_ieee(b"\x00\x00\x00\x00")[0] == 0.0

    @pytest.mark.parametrize("value", [1.0, -1.0, 0.5, 3.14159, 1e-10, 1e37, -2.5e-20])
    def test_round_trip(self, value):
        back = vax_f_to_ieee(ieee_to_vax_f([value]))[0]
        assert back == pytest.approx(np.float32(value), rel=1e-6)

    def test_array_round_trip(self):
        values = np.linspace(-100.0, 100.0, 64)
        back = vax_f_to_ieee(ieee_to_vax_f(values))
        np.testing.assert_allclose(back, values.astype(np.float32), rtol=1e-6)

    def test_inf_rejected(self):
        with pytest.raises(VaxFloatError):
            ieee_to_vax_f([float("inf")])

    def test_nan_rejected(self):
        with pytest.raises(VaxFloatError):
            ieee_to_vax_f([float("nan")])

    def test_overflow_rejected(self):
        with pytest.raises(VaxFloatError, match="overflow"):
            ieee_to_vax_f([VAX_F_MAX * 2])

    def test_reserved_operand_rejected(self):
        # sign=1, exponent=0: conceptual bits 0x80000000; the sign lives in
        # the first memory word (stored LE), so memory is 00 80 00 00.
        with pytest.raises(VaxFloatError, match="reserved"):
            vax_f_to_ieee(bytes.fromhex("00800000"))

    def test_denormal_flushes_to_zero(self):
        tiny = float(np.float32(1e-44))  # IEEE denormal
        assert vax_f_to_ieee(ieee_to_vax_f([tiny]))[0] == 0.0


class TestVaxD:
    def test_round_trip_exact(self):
        # D floating has 55 fraction bits >= IEEE's 52: exact round trip.
        values = np.array([0.0, 1.0, -3.141592653589793, 2.5e-30, 1.5e38, 1 / 3])
        np.testing.assert_array_equal(vax_d_to_ieee(ieee_to_vax_d(values)), values)

    def test_known_encoding_of_one(self):
        assert ieee_to_vax_d([1.0]).hex() == "8040000000000000"

    def test_range_narrower_than_ieee(self):
        with pytest.raises(VaxFloatError):
            ieee_to_vax_d([1e300])  # fits IEEE double, not VAX D

    def test_underflow_flushes(self):
        assert vax_d_to_ieee(ieee_to_vax_d([1e-300]))[0] == 0.0

    def test_exponent_zero_is_underflow_not_a_reserved_operand(self):
        """±1.x · 2⁻¹²⁹ maps to VAX exponent 0: it was stored with its sign
        and fraction, which reads back as a reserved operand when negative
        (found by ``test_kernel_matches_interpreted_converter``)."""
        edge = 2.0**-129 * 1.25
        assert ieee_to_vax_d([edge, -edge]) == bytes(16)
        np.testing.assert_array_equal(vax_d_to_ieee(ieee_to_vax_d([-edge, -2 * edge])), [0.0, -2 * edge])


class TestConvertFloatBytes:
    def test_ieee_to_vax_run(self):
        raw = np.array([1.5, -2.25], dtype=">f8").tobytes()
        out = convert_float_bytes(raw, 0, 2, 8, "ieee754", ">", 4, "vax", "")
        np.testing.assert_allclose(vax_f_to_ieee(out), [1.5, -2.25])

    def test_vax_to_ieee_run(self):
        vax = ieee_to_vax_d([7.75, -0.125])
        out = convert_float_bytes(vax, 0, 2, 8, "vax", "", 8, "ieee754", "<")
        np.testing.assert_array_equal(np.frombuffer(out, "<f8"), [7.75, -0.125])

    def test_ieee_to_ieee_is_plain_conversion(self):
        raw = np.array([1.0, 2.0], dtype=">f4").tobytes()
        out = convert_float_bytes(raw, 0, 2, 4, "ieee754", ">", 8, "ieee754", "<")
        np.testing.assert_array_equal(np.frombuffer(out, "<f8"), [1.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False
            # magnitudes below VAX D's smallest normal flush to zero by
            # design; keep the property on representable values
            ).filter(lambda v: v == 0.0 or abs(v) > 1e-35),
            min_size=1,
            max_size=16,
        )
    )
    def test_property_vax_d_round_trip(self, values):
        arr = np.array(values)
        np.testing.assert_array_equal(vax_d_to_ieee(ieee_to_vax_d(arr)), arr)


class TestVaxMachine:
    def test_structs_are_byte_packed(self):
        schema = RecordSchema.from_pairs("t", [("c", "char"), ("d", "double"), ("i", "int")])
        lay = layout_record(schema, VAX)
        assert lay["d"].offset == 1  # no padding on VAX C
        assert lay.size == 13
        assert lay.padding_bytes() == 0

    def test_native_codec_round_trip(self):
        schema = RecordSchema.from_pairs("t", [("f", "float"), ("d", "double[3]"), ("i", "int")])
        codec = codec_for(layout_record(schema, VAX))
        rec = {"f": 0.25, "d": (1.0, -2.0, 3.5), "i": 9}
        assert records_equal(rec, codec.decode(codec.encode(rec)))

    def test_baselines_reject_vax_hosts(self):
        from repro.wire import IiopWire, MpiWire, WireFormatError, XdrWire, XmlWire

        schema = RecordSchema.from_pairs("t", [("f", "float")])
        lv = layout_record(schema, VAX)
        for system in (MpiWire(), XmlWire(), IiopWire(), XdrWire()):
            with pytest.raises(WireFormatError, match="IEEE"):
                system.bind(lv, lv)

    def test_pbio_bridges_vax_and_ieee(self):
        # The point: PBIO carries the float format in its meta-information
        # and converts at the receiver; no canonical format needed.
        from repro.core import IOContext

        schema = RecordSchema.from_pairs("t", [("f", "float"), ("d", "double[4]")])
        rec = {"f": 0.5, "d": (1.0, 2.5, -3.25, 1e10)}
        for src, dst in ((VAX, X86), (X86, VAX)):
            sender = IOContext(src)
            receiver = IOContext(dst)
            h = sender.register_format(schema)
            receiver.expect(schema)
            receiver.receive(sender.announce(h))
            out = receiver.receive(sender.encode(h, rec))
            assert records_equal(rec, out, rel_tol=1e-6), (src.name, dst.name)

    def test_meta_carries_float_format(self):
        from repro.core import IOFormat

        schema = RecordSchema.from_pairs("t", [("f", "float")])
        fmt = IOFormat.from_layout(layout_record(schema, VAX))
        back = IOFormat.from_meta_bytes(fmt.to_meta_bytes())
        assert back.float_format == "vax"
        assert "vax" in back.describe()

    def test_same_layout_different_float_format_not_zero_copy(self):
        from repro.core import IOFormat, match_formats

        schema = RecordSchema.from_pairs("t", [("f", "float")])
        lv = layout_record(schema, VAX)
        fmt_vax = IOFormat.from_layout(lv)
        # Forge an IEEE format with the identical geometry.
        fmt_ieee = IOFormat(
            fmt_vax.name, fmt_vax.fields, fmt_vax.byte_order, fmt_vax.record_size
        )
        match = match_formats(fmt_vax, fmt_ieee)
        assert not match.zero_copy
        assert match.mismatch_count == 1

    def test_cross_kind_vax_conversion_rejected(self):
        from repro.core import ConversionError, IOContext

        sender = IOContext(X86)
        receiver = IOContext(VAX)
        src = RecordSchema.from_pairs("t", [("x", "int")])
        dst = RecordSchema.from_pairs("t", [("x", "double")])
        h = sender.register_format(src)
        receiver.expect(dst)
        receiver.receive(sender.announce(h))
        with pytest.raises(ConversionError, match="not supported"):
            receiver.receive(sender.encode(h, {"x": 1}))

    def test_generic_decode_vax_records(self):
        from repro.core import IOContext, generic_decode

        schema = RecordSchema.from_pairs("t", [("f", "float"), ("n", "int")])
        sender = IOContext(VAX)
        receiver = IOContext(X86)
        h = sender.register_format(schema)
        receiver.receive(sender.announce(h))
        out = generic_decode(receiver, sender.encode(h, {"f": 2.5, "n": 3}))
        assert out == {"f": 2.5, "n": 3}
