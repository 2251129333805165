"""The storage plane (:mod:`repro.core.framing`) as executable properties.

* one table: each damage shape -> :func:`read_frame`'s verdict, with the
  reaction of its three consumers beside it (the ``iter_frames`` skip
  ladder every loader uses, ``PbioFileReader``'s recover policies,
  ``pbio-fsck``'s resync walk);
* the kill -9 property, once, for every artefact kept on disk in this
  format: whatever byte a crash cut the file at, opening it for append
  recovers exactly the intact prefix, says so, and appends cleanly.
"""

import errno
import io
import os
import random
import struct

import pytest

from repro.abi import X86, X86_64, RecordSchema, layout_record
from repro.core import IOContext, IOFormat, MessageError, PbioError, read_records, write_records
from repro.core import encoder as enc
from repro.core.files import PbioFileReader, PbioFileWriter, file_to_buffer
from repro.core.framing import FILE_HEADER, FramedLog, heal, pack_frame, read_frame
from repro.fmtserv import FormatCache
from repro.net import AckCursorStore, PublisherWAL
from repro.tools import fsck_tool

SIMPLE = RecordSchema.from_pairs("rec", [("i", "int"), ("d", "double"), ("name", "char[8]")])
#: Zero runs on purpose: any twelve zero bytes read as an intact empty frame
#: (length 0, CRC 0, echo 0), which neither ``append``'s tail check nor
#: ``pbio-fsck``'s resync may mistake for a record behind the damage.
RECORDS = [{"i": k, "d": 0.0, "name": b""} for k in range(3)]


def boundaries(blob: bytes) -> list[int]:
    """Offsets at which a v2 frame of ``blob`` ends (the header's end first)."""
    out, pos = [FILE_HEADER.size], FILE_HEADER.size
    while pos < len(blob):
        (n,) = struct.unpack_from(">I", blob, pos)
        pos += 4 + n + 8
        out.append(pos)
    return out


# -- the verdict table ---------------------------------------------------------

#: A record file of meta + records 0, 1, 2; every shape damages record 1.
BLOB = file_to_buffer(IOContext(X86), SIMPLE, RECORDS)
_, _, R1, R2, END = boundaries(BLOB)  # record 1 is BLOB[R1:R2]


def damaged(edit) -> bytes:
    blob = bytearray(BLOB)
    edit(blob)
    return bytes(blob)


def flip(*offsets):
    def edit(blob):
        for offset in offsets:
            blob[offset] ^= 0xFF

    return edit


# shape -> (file image, verdict at record 1, what the heal ladder reports, how
#           many payloads it loads and where it cuts, records under skip / stop,
#           fsck verdicts, where ``PbioFileWriter.append`` cuts; None = it refuses)
TABLE = {
    "clean": (BLOB, "ok", [], 4, END, [0, 1, 2], [0, 1, 2], ["ok"] * 4, END),
    "echo byte flipped, CRC fine": (
        damaged(flip(R2 - 1)), "ok", [], 4, END, [0, 1, 2], [0, 1, 2], ["ok"] * 4, END,
    ),
    "payload byte flipped": (
        damaged(flip(R1 + 20)), "corrupt", ["corrupt"], 3, END, [0, 2], [0],
        ["ok", "ok", "corrupt", "ok"], END,
    ),
    "payload and echo flipped": (
        damaged(flip(R1 + 20, R2 - 1)), "framing", ["corrupt"], 2, R1, [0], [0],
        ["ok", "ok", "framing", "ok"], None,
    ),
    "length prefix absurd": (
        damaged(lambda blob: struct.pack_into(">I", blob, R1, 0x7FFFFFFF)),
        "oversize", ["corrupt"], 2, R1, [0], [0], ["ok", "ok", "framing", "ok"], None,
    ),
    "length prefix points past the end": (
        damaged(lambda blob: struct.pack_into(">I", blob, R1, 0x1000)),
        "torn", ["torn"], 2, R1, [0], [0], ["ok", "ok", "framing", "ok"], None,
    ),
    "cut inside the length prefix": (
        BLOB[: R1 + 2], "torn", ["torn"], 2, R1, [0], [0], ["ok", "ok", "torn"], R1,
    ),
    "cut inside the payload": (
        BLOB[: R1 + 20], "torn", ["torn"], 2, R1, [0], [0], ["ok", "ok", "torn"], R1,
    ),
    "cut inside the trailer": (
        BLOB[: R2 - 3], "torn", ["torn"], 2, R1, [0], [0], ["ok", "ok", "torn"], R1,
    ),
    "cut at the frame boundary": (BLOB[:R1], "eof", [], 2, R1, [0], [0], ["ok", "ok"], R1),
    "last frame's payload and echo flipped": (
        damaged(flip(R2 + 20, END - 1)), "ok", ["corrupt"], 3, R2, [0, 1], [0, 1],
        ["ok", "ok", "ok", "framing"], None,
    ),
}


@pytest.mark.parametrize("shape", TABLE)
def test_each_damage_shape_has_one_verdict_and_four_reactions(shape, tmp_path):
    blob, verdict, reported, loaded, cut, skipped, stopped, fsck, appended = TABLE[shape]
    limit = IOContext(X86).limits.max_message_size

    stream = io.BytesIO(blob)
    stream.seek(R1)
    assert read_frame(stream.read, 2, limit)[0] == verdict

    # heal, as the format cache, WAL segments and cursor stores run it: the
    # skip ladder, then cut back to the last intact frame
    stream.seek(FILE_HEADER.size)
    reports: list[str] = []
    payloads: list[bytes] = []
    assert heal(stream, max_size=limit, load=payloads.append, on_damage=reports.append) == cut
    assert (reports, len(payloads), stream.getvalue()) == (reported, loaded, blob[:cut])

    # PbioFileReader's recover policies
    def read(recover, image=blob):
        ctx = IOContext(X86)
        ctx.expect(SIMPLE)
        reader = PbioFileReader(ctx, io.BytesIO(image), recover=recover)
        return [r["i"] - RECORDS[0]["i"] for r in reader]

    assert read("skip") == skipped
    assert read("stop") == stopped
    if reported:
        with pytest.raises(PbioError):
            read("raise")
    else:
        assert read("raise") == skipped

    # pbio-fsck: resync past what the classifier cannot trust
    report = fsck_tool.scan_bytes(blob)
    assert [f.verdict for f in report.frames] == fsck
    for frame in report.frames:  # the payload is the classifier's, trailer excluded
        intact = frame.verdict == "ok"
        assert frame.payload == (blob[frame.offset + 4 : frame.end - 8] if intact else None)

    # PbioFileWriter.append: heal as a record file runs it -- cut a torn tail and
    # nothing else; refuse, bytes untouched, what pbio-fsck --repair could salvage
    path = tmp_path / "data.pbio"
    path.write_bytes(blob)
    ctx = IOContext(X86)
    if appended is None:
        with pytest.raises(MessageError, match="pbio-fsck --repair"):
            PbioFileWriter.append(ctx, str(path))
        assert path.read_bytes() == blob
        return
    with PbioFileWriter.append(ctx, str(path)) as writer:
        writer.write(ctx.register_format(SIMPLE), dict(RECORDS[0], i=RECORDS[0]["i"] + 99))
    image = path.read_bytes()
    # the kept bytes, then exactly the two new frames (announcement, record)
    assert image[:appended] == blob[:appended] and boundaries(image)[-3] == appended
    assert fsck_tool.repair_bytes(image).startswith(fsck_tool.repair_bytes(blob))  # nothing lost
    assert read("skip", image) == skipped + [99]
    assert ctx.metrics.value("file.torn_tails") == reported.count("torn")
    assert ctx.metrics.value("file.corrupt_records") == reported.count("corrupt")


def test_append_never_removes_a_byte_fsck_repair_would_keep(tmp_path):
    """Random damage (bit flips, cuts, insertions; v2 and v1): ``append``
    either refuses and leaves the file untouched, or cuts a suffix in which
    ``pbio-fsck`` finds no intact frame."""
    rng = random.Random(20)
    path = tmp_path / "data.pbio"
    healed = refused = 0
    for trial in range(400):
        blob = bytearray(BLOB if trial % 4 else file_to_buffer(IOContext(X86), SIMPLE, RECORDS, version=1))
        for _ in range(rng.randrange(1, 3)):
            if len(blob) == FILE_HEADER.size:
                break
            at = rng.randrange(FILE_HEADER.size, len(blob))
            op = rng.randrange(3)
            if op == 0:
                blob[at] ^= 1 << rng.randrange(8)
            elif op == 1:
                del blob[at:]
            else:
                blob[at:at] = rng.randbytes(rng.randrange(1, 6))
        path.write_bytes(blob)
        try:
            PbioFileWriter.append(IOContext(X86), str(path)).close()
        except MessageError:
            assert path.read_bytes() == blob
            refused += 1
            continue
        after = path.read_bytes()
        assert blob.startswith(after)
        assert fsck_tool.repair_bytes(after) == fsck_tool.repair_bytes(bytes(blob))
        healed += len(after) < len(blob)
    assert healed > 50 and refused > 50  # both branches were exercised


def test_v1_frames_are_only_ever_ok_or_torn():
    frames = pack_frame(b"abc", version=1) + pack_frame(b"defg", version=1)
    stream = io.BytesIO(frames[:-2])
    assert read_frame(stream.read, 1) == ("ok", b"abc")
    assert read_frame(stream.read, 1) == ("torn", None)
    assert read_frame(stream.read, 1) == ("eof", None)


# -- kill -9, for every artefact -----------------------------------------------


def _fmt(k: int) -> IOFormat:
    schema = RecordSchema.from_pairs(f"fmt{k}", [("a", "int"), (f"f{k}", "double")])
    return IOFormat.from_layout(layout_record(schema, X86_64))


def _seq(seq: int) -> bytes:
    return enc.encode_data_seq(1, 1, seq, b"data%d" % seq)


# One class per artefact: ``write`` a pristine copy under ``root``; ``open`` it
# for append -> (handle, metrics); ``add`` one entry; ``read`` everything back;
# ``expected(n)`` is what the first ``n`` intact frames hold.


class RecordFile:
    torn_counter = "file.torn_tails"

    def file(self, root):
        return os.path.join(root, "data.pbio")

    def write(self, root):
        write_records(IOContext(X86), self.file(root), SIMPLE, RECORDS)

    def expected(self, frames):
        return [r["i"] for r in RECORDS[: max(0, frames - 1)]]  # frame 1 is the meta

    def open(self, root):
        ctx = IOContext(X86)
        return PbioFileWriter.append(ctx, self.file(root)), ctx.metrics

    def add(self, writer):
        writer.write(writer.ctx.register_format(SIMPLE), {"i": 99, "d": 0.0, "name": b"new"})
        return 99

    def read(self, root):
        return [r["i"] for r in read_records(IOContext(X86), self.file(root), SIMPLE)]


class CacheFile:
    torn_counter = "fmtserv.cache_torn"

    def file(self, root):
        return os.path.join(root, "formats.pbfc")

    def write(self, root):
        with FormatCache(self.file(root)) as cache:
            for k in range(3):
                cache.put(_fmt(k).to_meta_bytes(), token=k + 1)

    def expected(self, frames):
        return [_fmt(k).fingerprint for k in range(frames)]

    def open(self, root):
        cache = FormatCache(self.file(root))
        return cache, cache.metrics

    def add(self, cache):
        return cache.put(_fmt(99).to_meta_bytes()).fingerprint

    def read(self, root):
        with FormatCache(self.file(root)) as cache:
            return [entry.fingerprint for entry in cache.entries()]


class WalSegment:
    torn_counter = "durable.wal_torn"

    def file(self, root):
        return os.path.join(root, "wal-00000001.seg")

    def write(self, root):
        with PublisherWAL(root) as wal:
            for seq in (1, 2, 3):
                wal.append(_seq(seq))

    def expected(self, frames):
        return list(range(1, frames + 1))

    def open(self, root):
        wal = PublisherWAL(root)
        return wal, wal.metrics

    def add(self, wal):
        return wal.append(_seq(wal.next_seq((1, 1))))

    def read(self, root):
        with PublisherWAL(root) as wal:
            return [enc.parse_data_seq(m)[2] for m in wal.unacked()]


class CursorStore:
    torn_counter = "durable.wal_torn"

    def file(self, root):
        return os.path.join(root, "sub.cursors")

    def write(self, root):
        with AckCursorStore(self.file(root)) as store:
            for key in (1, 2, 3):
                store.advance((key, 1), 10 * key)

    def expected(self, frames):
        return [((key, 1), 10 * key) for key in range(1, frames + 1)]

    def open(self, root):
        store = AckCursorStore(self.file(root))
        return store, store.metrics

    def add(self, store):
        store.advance((99, 1), 7)
        return ((99, 1), 7)

    def read(self, root):
        with AckCursorStore(self.file(root)) as store:
            return sorted(store.cursors().items())


@pytest.mark.parametrize("artefact", [RecordFile(), CacheFile(), WalSegment(), CursorStore()],
                         ids=lambda a: type(a).__name__)
def test_kill_minus_nine_mid_append_recovers_prefix(artefact, tmp_path):
    """Cut the file at EVERY byte from the header's end to its own end:
    opening for append recovers exactly the intact prefix, truncates and
    counts the torn tail (none when the cut is a frame boundary), and a
    record appended afterwards is there on the next open."""
    pristine = str(tmp_path / "pristine")
    os.mkdir(pristine)
    artefact.write(pristine)
    with open(artefact.file(pristine), "rb") as stream:
        blob = stream.read()
    ends = boundaries(blob)
    assert ends[-1] == len(blob) and len(ends) >= 4
    for cut in range(FILE_HEADER.size, len(blob) + 1):
        root = str(tmp_path / f"cut{cut}")
        os.mkdir(root)
        path = artefact.file(root)
        with open(path, "wb") as stream:
            stream.write(blob[:cut])
        intact = [end for end in ends if end <= cut]
        handle, metrics = artefact.open(root)
        try:
            assert os.path.getsize(path) == intact[-1], cut  # healed in place
            assert metrics.value(artefact.torn_counter) == (cut not in ends), cut
            added = artefact.add(handle)
        finally:
            handle.close()
        assert artefact.read(root) == artefact.expected(len(intact) - 1) + [added], cut


# -- FramedLog: files appear and change only by atomic replace ------------------


class TestFramedLog:
    def open(self, path, **kw):
        return FramedLog(path, b"PBIOTEST", 1, "test log", **kw)

    def test_create_append_reopen(self, tmp_path):
        path = str(tmp_path / "log")
        log = self.open(path)
        assert os.path.getsize(path) == log.size == FILE_HEADER.size
        log.append(b"one")
        log.append(b"two")
        assert log.size == os.path.getsize(path)  # unbuffered: on disk as it returns
        log.close()
        seen: list[bytes] = []
        log = self.open(path, load=seen.append)
        assert seen == [b"one", b"two"] and log.size == os.path.getsize(path)
        log.close()
        assert os.listdir(tmp_path) == ["log"]  # no temporary left behind

    def test_a_file_never_exists_without_its_header(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log")

        def killed(src, dst):
            raise OSError("kill -9 before the replace")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError):
            self.open(path)
        monkeypatch.undo()
        assert not os.path.exists(path)
        self.open(path).close()  # the leftover temporary is simply overwritten
        assert os.listdir(tmp_path) == ["log"]

    def test_rewrite_replaces_the_content_and_keeps_appending(self, tmp_path):
        path = str(tmp_path / "log")
        log = self.open(path)
        for k in range(10):
            log.append(b"entry%d" % k)
        log.rewrite([b"kept"], fsync=True)
        log.append(b"after")
        log.close()
        seen: list[bytes] = []
        self.open(path, load=seen.append).close()
        assert seen == [b"kept", b"after"]

    def test_wrong_magic_version_or_short_header_rejected(self, tmp_path):
        path = str(tmp_path / "log")
        for image, match in (
            (b"PB", "truncated header"),
            (FILE_HEADER.pack(b"NOTATEST", 1), "bad magic"),
            (FILE_HEADER.pack(b"PBIOTEST", 9), "unsupported test log version 9"),
        ):
            with open(path, "wb") as stream:
                stream.write(image)
            with pytest.raises(PbioError, match=match):
                self.open(path)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize("size", [0, 1, 70_000])
    def test_append_is_one_writev_of_the_parents_bytes(self, tmp_path, monkeypatch, kind, size):
        """``append`` leaves ``pack_frame(payload)`` on disk — the parent's
        bytes — for any bytes-like payload, in one three-buffer ``writev``."""
        payload = bytes(k % 251 for k in range(size))
        calls = []
        writev = os.writev
        monkeypatch.setattr(os, "writev", lambda fd, bufs: calls.append(len(bufs)) or writev(fd, bufs))
        path = str(tmp_path / "log")
        log = self.open(path)
        log.append(kind(payload))
        log.append(b"behind")
        log.close()
        assert calls == [3, 3]
        with open(path, "rb") as stream:
            blob = stream.read()
        assert blob[FILE_HEADER.size :] == pack_frame(payload) + pack_frame(b"behind")
        assert log.size == len(blob)

    def test_a_write_cut_short_is_undone(self, tmp_path, monkeypatch):
        """Defect at the parent: ``append`` never read ``write``'s return
        value, so a write the OS cut short (disk full, ``RLIMIT_FSIZE``)
        returned normally, the next append landed behind the torn frame,
        and the next open healed both away.  Now the failed append raises
        with the file at its old length; the next append and the next open
        see every record."""
        path = str(tmp_path / "log")
        log = self.open(path)
        log.append(b"one")
        intact = log.size
        writev = os.writev

        def short(fd, bufs):
            monkeypatch.setattr(os, "writev", full)
            return writev(fd, [b"".join(bufs)[:7]])

        def full(fd, bufs):
            monkeypatch.setattr(os, "writev", writev)
            writev(fd, bufs[:1])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "writev", short)
        for match in ("short write", "No space left"):
            with pytest.raises(OSError, match=match):
                log.append(b"two and a half")
            assert log.size == os.path.getsize(path) == intact
        log.append(b"three")
        assert log.size == os.path.getsize(path)
        log.close()
        seen: list[bytes] = []
        damage: list[str] = []
        self.open(path, load=seen.append, on_damage=damage.append).close()
        assert seen == [b"one", b"three"] and damage == []
