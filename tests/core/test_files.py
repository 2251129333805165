"""Tests for PBIO self-describing files."""

import io

import pytest

from repro.abi import ALPHA, SPARC_V8, X86, RecordSchema, records_equal
from repro.core import IOContext, MessageError, read_records, write_records
from repro.core.files import (
    FILE_MAGIC,
    PbioFileReader,
    PbioFileWriter,
    file_to_buffer,
)
from repro.workloads.generators import record_stream


def schema(*pairs, name="rec"):
    return RecordSchema.from_pairs(name, list(pairs))


SIMPLE = schema(("i", "int"), ("d", "double"), ("name", "char[8]"))


class TestWriteRead:
    def test_round_trip_same_machine(self, tmp_path):
        path = str(tmp_path / "data.pbio")
        records = [{"i": k, "d": k * 0.5, "name": b"n%d" % k} for k in range(10)]
        write_records(IOContext(X86), path, SIMPLE, records)
        out = read_records(IOContext(X86), path, SIMPLE)
        assert len(out) == 10
        for want, got in zip(records, out):
            assert records_equal(want, got)

    def test_cross_machine_file(self, tmp_path):
        # Written on sparc, read on x86: the file carries its own format.
        path = str(tmp_path / "data.pbio")
        records = [{"i": 1, "d": 2.5, "name": b"abc"}]
        write_records(IOContext(SPARC_V8), path, SIMPLE, records)
        out = read_records(IOContext(X86), path, SIMPLE)
        assert records_equal(records[0], out[0])

    def test_read_by_three_different_machines(self, tmp_path):
        path = str(tmp_path / "data.pbio")
        records = list(record_stream(SIMPLE, count=4, seed=5))
        write_records(IOContext(ALPHA), path, SIMPLE, records)
        for machine in (X86, SPARC_V8, ALPHA):
            out = read_records(IOContext(machine), path, SIMPLE)
            for want, got in zip(records, out):
                assert records_equal(want, got, rel_tol=1e-5)

    def test_meta_written_once_per_format(self):
        ctx = IOContext(X86)
        buf = io.BytesIO()
        writer = PbioFileWriter(ctx, buf)
        h = ctx.register_format(SIMPLE)
        for k in range(5):
            writer.write(h, {"i": k, "d": 0.0, "name": b"x"})
        assert writer.records_written == 5
        reader_ctx = IOContext(X86)
        reader_ctx.expect(SIMPLE)
        reader = PbioFileReader(reader_ctx, io.BytesIO(buf.getvalue()))
        assert len(reader.read_all()) == 5
        assert reader_ctx.registry.announcements_received == 1

    def test_multiple_formats_interleaved(self, tmp_path):
        path = str(tmp_path / "multi.pbio")
        s1 = schema(("a", "int"), name="r1")
        s2 = schema(("b", "double"), name="r2")
        ctx = IOContext(X86)
        with PbioFileWriter.open(ctx, path) as writer:
            h1, h2 = ctx.register_format(s1), ctx.register_format(s2)
            writer.write(h1, {"a": 1})
            writer.write(h2, {"b": 2.0})
            writer.write(h1, {"a": 3})
        rctx = IOContext(SPARC_V8)
        rctx.expect(s1)
        rctx.expect(s2)
        with PbioFileReader.open(rctx, path) as reader:
            out = reader.read_all()
        assert out == [{"a": 1}, {"b": 2.0}, {"a": 3}]

    def test_empty_file_has_no_records(self, tmp_path):
        path = str(tmp_path / "empty.pbio")
        ctx = IOContext(X86)
        PbioFileWriter.open(ctx, path).close()
        rctx = IOContext(X86)
        with PbioFileReader.open(rctx, path) as reader:
            assert reader.read_all() == []

    def test_file_to_buffer(self):
        blob = file_to_buffer(IOContext(X86), SIMPLE, [{"i": 1, "d": 1.0, "name": b"z"}])
        assert blob.startswith(FILE_MAGIC)


class TestCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(MessageError, match="magic"):
            PbioFileReader(IOContext(X86), io.BytesIO(b"NOTPBIO!" + b"\x00" * 4))

    def test_truncated_header_rejected(self):
        with pytest.raises(MessageError, match="truncated"):
            PbioFileReader(IOContext(X86), io.BytesIO(b"PB"))

    def test_truncated_body_rejected(self):
        blob = file_to_buffer(IOContext(X86), SIMPLE, [{"i": 1, "d": 1.0, "name": b"z"}])
        rctx = IOContext(X86)
        rctx.expect(SIMPLE)
        reader = PbioFileReader(rctx, io.BytesIO(blob[:-5]))
        with pytest.raises(MessageError, match="truncated"):
            reader.read_all()

    def test_truncated_length_prefix_rejected(self):
        blob = file_to_buffer(IOContext(X86), SIMPLE, [{"i": 1, "d": 1.0, "name": b"z"}])
        rctx = IOContext(X86)
        rctx.expect(SIMPLE)
        # cut inside the final record's length prefix
        header_plus = blob[: len(blob) - 1]
        # find a cut that leaves 1-3 bytes of a length prefix: cut to the
        # last message boundary + 2
        reader = PbioFileReader(rctx, io.BytesIO(header_plus))
        with pytest.raises(MessageError):
            reader.read_all()


class TestCrashSafety:
    """v2 framing: CRC trailers, recover policies, append, v1 compat."""

    RECORDS = [{"i": k, "d": k * 1.5, "name": b"r%d" % k} for k in range(4)]

    def reader_for(self, blob, recover="raise"):
        rctx = IOContext(X86)
        rctx.expect(SIMPLE)
        return rctx, PbioFileReader(rctx, io.BytesIO(blob), recover=recover)

    def frame_boundaries(self, blob):
        import struct as _struct

        boundaries, pos = [12], 12
        while pos < len(blob):
            (n,) = _struct.unpack_from(">I", blob, pos)
            pos += 4 + n + 8
            boundaries.append(pos)
        return boundaries

    def test_kill_minus_nine_mid_append_recovers_prefix(self):
        """Simulated crash: the file truncated at EVERY possible byte is
        readable up to the last intact record with recover="skip"."""
        blob = file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS)
        boundaries = self.frame_boundaries(blob)
        for cut in range(12, len(blob)):
            intact_frames = sum(1 for b in boundaries if b <= cut) - 1
            expected = max(0, intact_frames - 1)  # first frame is the meta
            rctx, reader = self.reader_for(blob[:cut], recover="skip")
            out = [r["i"] for r in reader]
            assert out == [r["i"] for r in self.RECORDS[:expected]]
            if cut not in boundaries:
                assert rctx.metrics.value("file.torn_tails") == 1

    def test_corrupt_record_raise_policy(self):
        blob = bytearray(file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS))
        second_record = self.frame_boundaries(blob)[2]
        blob[second_record + 4 + 16 + 2] ^= 0xFF  # payload byte of record 2
        _, reader = self.reader_for(bytes(blob))
        with pytest.raises(MessageError, match="CRC"):
            reader.read_all()

    def test_corrupt_record_skip_policy_salvages_the_rest(self):
        blob = bytearray(file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS))
        second_record = self.frame_boundaries(blob)[2]
        blob[second_record + 4 + 16 + 2] ^= 0xFF
        rctx, reader = self.reader_for(bytes(blob), recover="skip")
        assert [r["i"] for r in reader] == [0, 2, 3]  # record 1 dropped
        assert rctx.metrics.value("file.corrupt_records") == 1
        assert rctx.metrics.value("file.recovered_records") == 2

    def test_corrupt_record_stop_policy(self):
        blob = bytearray(file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS))
        second_record = self.frame_boundaries(blob)[2]
        blob[second_record + 4 + 16 + 2] ^= 0xFF
        rctx, reader = self.reader_for(bytes(blob), recover="stop")
        assert [r["i"] for r in reader] == [0]

    def test_v1_file_still_reads(self):
        blob = file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS, version=1)
        _, reader = self.reader_for(blob)
        assert reader.version == 1
        assert [r["i"] for r in reader] == [0, 1, 2, 3]

    def test_v1_torn_tail_skip_policy_stops_cleanly(self):
        blob = file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS, version=1)
        rctx, reader = self.reader_for(blob[:-3], recover="skip")
        assert [r["i"] for r in reader] == [0, 1, 2]
        assert rctx.metrics.value("file.torn_tails") == 1

    def test_append_continues_the_file(self, tmp_path):
        path = str(tmp_path / "grow.pbio")
        ctx = IOContext(X86)
        with PbioFileWriter.open(ctx, path) as writer:
            writer.write(ctx.register_format(SIMPLE), self.RECORDS[0])
        ctx2 = IOContext(X86)
        with PbioFileWriter.append(ctx2, path) as writer:
            assert writer.version == 2
            writer.write(ctx2.register_format(SIMPLE), self.RECORDS[1])
        out = read_records(IOContext(SPARC_V8), path, SIMPLE)
        assert [r["i"] for r in out] == [0, 1]

    @pytest.mark.parametrize("recover", ["raise", "skip", "stop"])
    def test_append_after_a_torn_tail_buries_nothing(self, tmp_path, recover):
        """A crash tore the last frame; ``append`` truncates it (counted)
        instead of writing behind it, so every policy reads all six
        intact records — the torn one never happened."""
        path = str(tmp_path / "torn.pbio")
        write_records(IOContext(X86), path, SIMPLE, self.RECORDS[:3])
        with open(path, "r+b") as stream:
            stream.truncate(stream.seek(0, io.SEEK_END) - 5)
        ctx = IOContext(X86)
        with PbioFileWriter.append(ctx, path) as writer:
            assert ctx.metrics.value("file.torn_tails") == 1
            handle = ctx.register_format(SIMPLE)
            for k in range(10, 14):
                writer.write(handle, {"i": k, "d": 0.0, "name": b"new"})
        out = read_records(IOContext(X86), path, SIMPLE, recover=recover)
        assert [r["i"] for r in out] == [0, 1, 10, 11, 12, 13]

    @pytest.mark.parametrize("byte, bit", [(3, 0x40), (1, 0x10)], ids=["framing", "looks-torn"])
    def test_append_refuses_to_cut_damage_that_is_not_the_tail(self, tmp_path, byte, bit):
        """One flipped bit in a mid-file length prefix — record 1 claims
        64 more bytes, or a megabyte more, which points past the end and
        reads as torn.  Records 2 and 3 lie intact behind it, so
        ``append`` must not truncate there: it raises, leaves the bytes
        alone, and ``pbio-fsck --repair`` salvages what it would have cut."""
        from repro.tools import fsck_tool

        path, repaired = str(tmp_path / "rot.pbio"), str(tmp_path / "repaired.pbio")
        blob = bytearray(file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS))
        blob[self.frame_boundaries(blob)[2] + byte] ^= bit
        with open(path, "wb") as stream:
            stream.write(blob)
        with pytest.raises(MessageError, match="pbio-fsck --repair"):
            PbioFileWriter.append(IOContext(X86), path)
        with open(path, "rb") as stream:
            assert stream.read() == blob
        assert fsck_tool.main(["--quiet", "--repair", repaired, path]) == 1
        ctx = IOContext(X86)
        with PbioFileWriter.append(ctx, repaired) as writer:
            writer.write(ctx.register_format(SIMPLE), {"i": 10, "d": 0.0, "name": b"new"})
        assert [r["i"] for r in read_records(IOContext(X86), repaired, SIMPLE)] == [0, 2, 3, 10]

    def test_append_cut_does_not_depend_on_the_appenders_limits(self, tmp_path):
        from repro.core.safety import DecodeLimits

        path = str(tmp_path / "big.pbio")
        write_records(IOContext(X86), path, SIMPLE, self.RECORDS)
        ctx = IOContext(X86, limits=DecodeLimits(max_message_size=8))  # every frame is larger
        with PbioFileWriter.append(ctx, path) as writer:
            writer.write(ctx.register_format(SIMPLE), {"i": 10, "d": 0.0, "name": b"new"})
        assert [r["i"] for r in read_records(IOContext(X86), path, SIMPLE)] == [0, 1, 2, 3, 10]

    def test_append_preserves_v1_framing(self, tmp_path):
        path = str(tmp_path / "old.pbio")
        ctx = IOContext(X86)
        with PbioFileWriter.open(ctx, path, version=1) as writer:
            writer.write(ctx.register_format(SIMPLE), self.RECORDS[0])
        ctx2 = IOContext(X86)
        with PbioFileWriter.append(ctx2, path) as writer:
            assert writer.version == 1
            writer.write(ctx2.register_format(SIMPLE), self.RECORDS[1])
        out = read_records(IOContext(X86), path, SIMPLE)
        assert [r["i"] for r in out] == [0, 1]

    def test_bogus_length_prefix_cannot_demand_gigabytes(self):
        import struct as _struct

        blob = bytearray(file_to_buffer(IOContext(X86), SIMPLE, self.RECORDS[:1]))
        _struct.pack_into(">I", blob, 12, 0x7FFFFFFF)
        _, reader = self.reader_for(bytes(blob))
        with pytest.raises(MessageError):
            reader.read_all()

    def test_invalid_recover_policy_rejected(self):
        with pytest.raises(ValueError):
            PbioFileReader(IOContext(X86), io.BytesIO(b""), recover="maybe")


class TestReflectionOverFiles:
    def test_iter_raw_with_generic_decode(self, tmp_path):
        from repro.core import generic_decode

        path = str(tmp_path / "gen.pbio")
        write_records(IOContext(SPARC_V8), path, SIMPLE, [{"i": 7, "d": 1.5, "name": b"q"}])
        # Reader never calls expect(): pure reflection.
        rctx = IOContext(X86)
        with PbioFileReader.open(rctx, path) as reader:
            records = [generic_decode(rctx, m) for m in reader.iter_raw()]
        assert records[0]["i"] == 7
        assert records[0]["d"] == 1.5

    def test_versioned_file_read_by_old_reader(self, tmp_path):
        from repro.abi import CType, FieldDecl

        path = str(tmp_path / "v2.pbio")
        v2 = SIMPLE.extended("rec", [FieldDecl("extra", CType.INT)])
        write_records(
            IOContext(X86), path, v2, [{"i": 1, "d": 2.0, "name": b"a", "extra": 9}]
        )
        out = read_records(IOContext(X86), path, SIMPLE)  # old reader
        assert out[0] == {"i": 1, "d": 2.0, "name": b"a\x00" * 1 + b"\x00" * 6}
        assert "extra" not in out[0]
