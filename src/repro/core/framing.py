"""The storage plane: the one module that knows the on-disk format.

One format, four artefacts: PBIO record files (:mod:`repro.core.files`),
the format-service on-disk cache (:mod:`repro.fmtserv.cache`), and the
durable-delivery write-ahead log segments and ack-cursor stores
(:mod:`repro.net.durable`).  Each is a 12-byte header (``8s magic |
u16 version | pad``, :data:`FILE_HEADER`) followed by frames::

    u32 length | payload | u32 crc32(payload) | u32 length-echo

emitted with a *single* ``write`` (``writev``) call, so a process killed
mid-append tears at most the frame in flight.  The CRC detects in-place
corruption; the trailing length echo is an independent second copy of the
framing, so a scanner can distinguish "payload damaged" (echo agrees, CRC
fails) from "framing untrustworthy" (echo disagrees too) and resync safely.
:func:`read_frame` is the one place those cases are told apart; readers,
:func:`heal` and ``pbio-fsck`` are policies over its verdict.  :func:`heal`
is what every opener-for-append runs, so a torn tail never buries what is
written behind it; :class:`FramedLog` is that opener for the three logs,
and it creates or rewrites a file only by atomic replace, so none of them
ever exists without its header (a record file is created by its writer's
first ``write``, which is the header: outside that guarantee).

v1 (``u32 length | payload``) remains readable for the seed file format.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Callable, Container, Iterable
from zlib import crc32

from .errors import MessageError

#: Current frame discipline version (the crash-safe one).
FRAME_VERSION = 2

FILE_HEADER = struct.Struct(">8sHxx")  # magic, version, pad
MSG_LEN = struct.Struct(">I")
V2_TRAILER = struct.Struct(">II")  # crc32(payload), length echo


def check_header(raw, magic: bytes, versions: Container[int], what: str) -> int:
    """Validate the 12 header bytes of a ``what``; returns its version."""
    if len(raw) != FILE_HEADER.size:
        raise MessageError(f"not a {what}: truncated header")
    found, version = FILE_HEADER.unpack(raw)
    if found != magic:
        raise MessageError(f"not a {what}: bad magic {found!r}")
    if version not in versions:
        raise MessageError(f"unsupported {what} version {version}")
    return version


def pack_frame(payload: bytes, *, version: int = FRAME_VERSION) -> bytes:
    """One frame around ``payload`` in the given framing version.

    v2 is the crash-safe framing (``u32 len | payload | u32 crc32 |
    u32 len-echo``).  Emit the result with a single ``write`` call to
    keep the torn-tail guarantee.
    """
    payload = bytes(payload)
    frame = MSG_LEN.pack(len(payload)) + payload
    if version >= 2:
        frame += V2_TRAILER.pack(crc32(payload), len(payload))
    return frame


def read_frame(
    read: Callable[[int], bytes], version: int = FRAME_VERSION, max_size: int | None = None
) -> tuple[str, bytes | int | None]:
    """Classify the next frame of :func:`pack_frame` output: ``(verdict, payload)``.

    ``read(n)`` returns the next ``n`` bytes, fewer at the end — a
    stream's ``read``, or a cursor over a map or a bytes object.  Verdicts:

    * ``eof``      — nothing left: the previous frame ended the file;
    * ``ok``       — a complete frame whose CRC matches; the only verdict
      with a payload (an echo mismatch under a matching CRC means only
      the redundant echo bytes were damaged: the record is fine);
    * ``torn``     — the input ends inside the frame (crash mid-append);
    * ``corrupt``  — complete, CRC mismatch, length echo agrees: the
      payload is damaged but the next frame starts where it should;
    * ``framing``  — CRC mismatch *and* the echo disagrees: the length
      prefix itself is suspect, so the next "boundary" would be a guess;
    * ``oversize`` — the length prefix exceeds ``max_size`` (hostile, or a
      corrupted prefix); nothing past it is read or allocated, and the
      claimed length comes back in the payload slot.

    Everything up to the end of the classified frame is consumed
    (``oversize``: the length prefix only).  v1 frames carry no trailer,
    so they are only ever ``ok`` or ``torn``.
    """
    raw_len = read(MSG_LEN.size)
    if not raw_len:
        return "eof", None
    if len(raw_len) != MSG_LEN.size:
        return "torn", None
    (n,) = MSG_LEN.unpack(raw_len)
    if max_size is not None and n > max_size:
        return "oversize", n
    payload = read(n)
    if len(payload) != n:
        return "torn", None
    if version < 2:
        return "ok", payload
    trailer = read(V2_TRAILER.size)
    if len(trailer) != V2_TRAILER.size:
        return "torn", None
    crc, echo = V2_TRAILER.unpack(trailer)
    if crc32(payload) == crc:
        return "ok", payload
    return ("corrupt" if echo == n else "framing"), None


class Cursor:
    """``read(n)`` over a bytes-like object: zero-copy slices, short at
    the end like a stream, repositionable by assigning ``pos``."""

    def __init__(self, data, pos: int = 0):
        self.view = memoryview(data)
        self.pos = pos

    def read(self, n: int) -> memoryview:
        chunk = self.view[self.pos : self.pos + n]
        self.pos += len(chunk)
        return chunk


def resync(cursor: Cursor, version: int = FRAME_VERSION, max_size: int | None = None) -> bool:
    """Move ``cursor`` on to the next offset past its own at which
    :func:`read_frame` reads ``ok`` (the end of the data if there is none)
    and say whether it found one: how a scanner gets past bytes whose
    framing it cannot trust.  An empty frame does not count — any twelve
    zero bytes read as one, and no artefact stores an empty payload."""
    size = len(cursor.view)
    for start in range(cursor.pos + 1, size):
        cursor.pos = start
        verdict, payload = read_frame(cursor.read, version, max_size)
        if verdict == "ok" and len(payload):
            cursor.pos = start
            return True
    cursor.pos = size
    return False


def heal(
    stream: BinaryIO,
    version: int = FRAME_VERSION,
    *,
    max_size: int | None = None,
    load: Callable[[bytes], object] | None = None,
    on_damage: Callable[[str], None] | None = None,
    tail_only: bool = False,
) -> int:
    """Crash-safe load of :func:`pack_frame` output, healing the file.

    ``stream`` is open ``r+b`` just past its header.  Every intact payload
    goes to ``load`` in file order; the file is then cut back to a clean
    frame boundary, where the stream is left and whose offset is returned.

    Damage handling is the v2 ``recover="skip"`` ladder: CRC-mismatched
    frames are skipped while the length echo keeps alignment
    trustworthy; a torn tail (or an untrustworthy length) ends the scan
    cleanly.  ``on_damage`` (if given) is called with ``"corrupt"`` or
    ``"torn"`` per damaged frame — callers count, this layer scans.

    The cut is the end of the last intact frame: the rule of the three
    logs (format cache, WAL segments, cursor stores), which load nothing
    past it.  ``tail_only=True`` is for record files, which ``pbio-fsck``
    reads further into than this ladder does: a skipped frame stays where
    it is and nothing but a torn tail is cut.
    If the scan stopped on untrustworthy framing, or some offset behind
    the tear still reads as an intact frame (a damaged length prefix that
    points past the end of the file looks torn too), the file is left
    untouched and :class:`MessageError` names ``pbio-fsck --repair``, which
    salvages what lies behind damage.  v1 frames have no trailer to tell
    a tear from a damaged length by, so a torn v1 file is always refused.
    """
    read, end = stream.read, stream.tell()
    while True:
        verdict, payload = read_frame(read, version, max_size)
        if verdict == "eof":
            break
        if verdict == "ok":
            if load is not None:
                load(payload)
        else:
            if on_damage is not None:
                on_damage("torn" if verdict == "torn" else "corrupt")
            if verdict != "corrupt":
                break  # torn, or alignment untrustworthy: stop, don't misparse
            if not tail_only:
                continue  # skipped; cut as well unless an intact frame follows
        end = stream.tell()
    if tail_only and verdict != "eof":
        stream.seek(end)
        if verdict != "torn" or version < 2 or resync(Cursor(stream.read()), version):
            raise MessageError(
                f"cannot take the damage at offset {end} for a torn tail: nothing was cut; "
                "pbio-fsck --repair salvages the frames behind it"
            )
    stream.truncate(end)
    stream.seek(end)
    return end


class FramedLog:
    """One header-plus-frames file opened for appending, healed on open.

    Opening validates the header (``magic`` and ``version``; errors name
    the file as a ``what``) and runs :func:`heal` over the frames
    (``max_size``, ``load`` and ``on_damage`` are its), so the next append
    starts at a clean frame boundary.  A missing file is created.

    :meth:`append` is one ``writev`` per frame on the unbuffered file:
    cheaper than write+flush through a buffer, durable against process
    crash the instant it returns, and all-or-nothing — a write the OS
    cuts short is undone, so the file is only ever torn at its tail and
    :attr:`size` is always its length.  :meth:`rewrite` replaces the whole
    file atomically (temporary file, then ``os.replace``), which is also
    how a file is created: a crash leaves the old file, the new file, or no
    file — never a hybrid, and never a file without its header.
    """

    def __init__(
        self, path: str, magic: bytes, version: int, what: str, *, max_size=None, load=None, on_damage=None
    ):
        self.path, self.magic, self.version = path, magic, version
        #: the open unbuffered file, positioned at its end (``None`` once closed)
        self.stream: BinaryIO | None = None
        #: bytes in the file, header included
        self.size = 0
        if not os.path.exists(path):
            self.rewrite(())
            return
        with open(path, "r+b") as stream:
            check_header(stream.read(FILE_HEADER.size), magic, (version,), what)
            end = heal(stream, max_size=max_size, load=load, on_damage=on_damage)
        self._reopen(end)

    def _reopen(self, end: int) -> None:
        self.stream = open(self.path, "r+b", buffering=0)
        self.stream.seek(end)
        self.size = end

    def append(self, payload) -> None:
        """Frame ``payload`` (any bytes-like, uncopied) and write it with a
        single ``writev``: the whole frame, or :class:`OSError` with the
        file cut back to what it held before."""
        n = len(payload)
        fd = self.stream.fileno()
        want = MSG_LEN.size + n + V2_TRAILER.size
        try:
            written = os.writev(fd, [MSG_LEN.pack(n), payload, V2_TRAILER.pack(crc32(payload), n)])
            if written != want:
                raise OSError(f"short write to {self.path}: {written} of {want} bytes")
        except OSError:
            os.ftruncate(fd, self.size)
            os.lseek(fd, self.size, os.SEEK_SET)
            raise
        self.size += want

    def rewrite(self, payloads: Iterable[bytes], *, fsync: bool = False) -> None:
        """Atomically replace the file with the header plus ``payloads``.

        The new content reaches the OS before the replace makes it
        visible, which survives a *process* crash; ``fsync=True`` also
        forces it to the device first, for callers that must survive an
        OS crash.
        """
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as tmp:
            tmp.write(FILE_HEADER.pack(self.magic, self.version))
            for payload in payloads:
                tmp.write(pack_frame(payload))
            end = tmp.tell()
            if fsync:
                tmp.flush()
                os.fsync(tmp.fileno())
        self.close()
        os.replace(tmp_path, self.path)
        self._reopen(end)

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None
