"""PBIO files: self-describing binary record files.

PBIO began life as *Portable Binary I/O* — the same NDR idea applied to
files: records are written in the writer's natural representation, and
the file carries the format meta-information so any reader on any
machine can decode it later.  This module provides that capability:

* :class:`PbioFileWriter` — append records (native bytes or value dicts)
  of any registered format; each format's meta-block is emitted before
  its first record.
* :class:`PbioFileReader` — iterate records, decoding to the *reader's*
  machine; or scan lazily (``iter_raw``) and decode selectively.

The file is literally a stream of PBIO messages (format messages and
data messages) prefixed by a small file header — so the wire and file
representations are one format, as in the original system.

File versions
-------------

**v1** frames each message as ``u32 length | payload`` — the seed
format, still read (and writable via ``version=1``) for compatibility.

**v2** (the default) appends a crash-safety trailer to every frame::

    u32 length | payload | u32 crc32(payload) | u32 length-echo

The CRC detects in-place corruption (bit rot, torn writes that landed
mid-record); the trailing length echo gives a second, independent copy
of the framing so a scanner (:mod:`repro.tools.fsck_tool`) can resync
after damage by walking backwards from a candidate boundary.  A process
killed mid-append leaves at most one incomplete frame at the tail, which
readers detect as *torn* rather than misparsing it as data.

Readers take a ``recover`` policy:

* ``"raise"`` (default) — any damage raises :class:`MessageError`;
* ``"skip"``  — corrupt records are skipped (framing permitting) and a
  torn tail ends iteration cleanly: everything intact is recovered;
* ``"stop"``  — iteration ends cleanly at the first damaged frame.

Damage is counted on the reader context's unified metrics:
``file.corrupt_records`` (CRC mismatches), ``file.torn_tails``
(incomplete trailing frames) and ``file.recovered_records`` (records
successfully delivered *after* damage was first observed — i.e. records
a v1 reader would have lost).
"""

from __future__ import annotations

import io
import mmap
import os
from typing import Any, BinaryIO, Iterator

from repro.abi import RecordSchema

from . import encoder as enc
from .context import FormatHandle, IOContext
from .errors import MessageError, PbioError
from .runtime.pool import Lease

# The header and frame discipline live in repro.core.framing (shared
# with the fmtserv cache file and the durable-delivery WAL).
from .framing import FILE_HEADER, check_header, heal, pack_frame, read_frame

FILE_MAGIC = b"PBIOFILE"
FILE_VERSION = 2
#: What ``check_header`` needs to know a record file by: its magic, the
#: versions in use (a record file's version is its frame version) and its
#: name in error messages.
RECORD_FILE = (FILE_MAGIC, (1, 2), "PBIO file")
_DAMAGE_COUNTER = {"torn": "file.torn_tails", "corrupt": "file.corrupt_records"}

#: Reader damage policies (see module docstring).
RECOVER_POLICIES = ("raise", "skip", "stop")
#: What a record file may hold: format meta (absorbed) and data; anything
#: else is damage, for ``recover`` to judge.
FILE_ROWS = enc.rows(default="handle _reject", format="handle _absorb", data="run")


class PbioFileWriter:
    """Writes a self-describing record file on behalf of one IOContext.

    ``version`` selects the frame format: 2 (default) adds the per-record
    CRC trailer, 1 reproduces the legacy framing byte for byte.  The
    writer is append-only by construction — it never seeks backwards, so
    a crash can damage at most the frame being written.
    """

    def __init__(
        self,
        ctx: IOContext,
        stream: BinaryIO,
        *,
        version: int = FILE_VERSION,
        _header_written: bool = False,
    ):
        if version not in RECORD_FILE[1]:
            raise ValueError(f"unsupported PBIO file version {version}")
        self.ctx = ctx
        self.version = version
        self._stream = stream
        self._announced: set[int] = set()
        self._records_written = 0
        if not _header_written:
            stream.write(FILE_HEADER.pack(FILE_MAGIC, version))

    @classmethod
    def open(cls, ctx: IOContext, path: str, *, version: int = FILE_VERSION) -> "PbioFileWriter":
        return cls(ctx, open(path, "wb"), version=version)

    @classmethod
    def append(cls, ctx: IOContext, path: str) -> "PbioFileWriter":
        """Reopen an existing file for appending (at its recorded version).

        Formats are re-announced before their first appended record —
        harmless to readers, which absorb repeated announcements.  A
        torn tail left by a crash is truncated first (counted as
        ``file.torn_tails`` on ``ctx``), so the appended records start
        at a clean frame boundary.  Nothing else is ever cut: damage that
        may have intact records behind it raises :class:`MessageError` and
        leaves the file to ``pbio-fsck`` (:func:`.framing.heal`, ``tail_only``)."""
        stream = open(path, "r+b")
        try:
            version = check_header(stream.read(FILE_HEADER.size), *RECORD_FILE)
            count = lambda what: ctx.metrics.inc(_DAMAGE_COUNTER[what])
            heal(stream, version, on_damage=count, tail_only=True)
            return cls(ctx, stream, version=version, _header_written=True)
        except Exception:
            stream.close()
            raise

    def write_native(self, handle: FormatHandle, native) -> None:
        """Append one record already in native binary form."""
        if handle.format_id not in self._announced:
            self._emit(self.ctx.announce(handle))
            self._announced.add(handle.format_id)
        self._emit(self.ctx.encode_native(handle, native))
        self._records_written += 1

    def write(self, handle: FormatHandle, record: dict[str, Any]) -> None:
        """Append one record given as a value dict."""
        self.write_native(handle, handle.codec.encode(record))

    def append_batch_native(self, handle: FormatHandle, natives) -> None:
        """Append many native-form records as one durable region.

        All frames — the announcement included, when this file has not
        seen the format yet — are joined into a *single* ``write``, then
        flushed and fsynced, so the batch costs one syscall plus one
        durability barrier instead of N of each.  A crash mid-batch
        leaves one contiguous torn region at the tail, which the v2
        framing detects frame by frame as usual.
        """
        frames: list[bytes] = []
        version = self.version
        if handle.format_id not in self._announced:
            frames.append(pack_frame(self.ctx.announce(handle), version=version))
            self._announced.add(handle.format_id)
        messages = enc.data_frames(self.ctx.context_id, handle.format_id, natives)
        frames.extend(pack_frame(message, version=version) for message in messages)
        self._stream.write(b"".join(frames))
        self._records_written += len(messages)
        self._stream.flush()
        try:
            os.fsync(self._stream.fileno())
        except (OSError, AttributeError, io.UnsupportedOperation):
            pass  # in-memory / pipe-backed streams have no durable backing

    def _emit(self, message: bytes) -> None:
        # One write per frame: an interrupted append tears at most the
        # frame in flight, never an already-complete predecessor.
        self._stream.write(pack_frame(message, version=self.version))

    @property
    def records_written(self) -> int:
        return self._records_written

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _MapSource:
    """Holds one read-only mmap of a PBIO file plus its master view.

    Deliberately a separate object: the unmap callback must not close
    over the reader (a ``self``-capturing closure inside a
    :class:`~repro.core.runtime.pool.Lease` keeps the reader — and
    therefore the lease — alive through the finalizer registry, so the
    map would never unmap).
    """

    __slots__ = ("mm", "stream", "view")

    def __init__(self, mm: mmap.mmap, stream: BinaryIO):
        self.mm = mm
        self.stream = stream
        self.view: memoryview | None = memoryview(mm)


def _close_map(source: _MapSource) -> None:
    source.view = None  # release the master export first
    try:
        source.mm.close()
    except BufferError:
        # A frame view escaped without its lease (iter_raw caller kept a
        # raw memoryview).  The map stays pinned by that export and
        # unmaps when it dies — deferred, never unsafe.
        pass
    source.stream.close()


class PbioFileReader:
    """Reads a PBIO file, decoding records to the reader's machine.

    The reader context must ``expect()`` the record formats it wants
    decoded; unknown record types can still be enumerated via
    :meth:`iter_raw` and inspected with the reflection API.

    ``recover`` selects the damage policy (v2 files): ``"raise"``
    (default), ``"skip"`` or ``"stop"`` — see the module docstring.
    Frame lengths are bounded by the context's
    :class:`~repro.core.safety.DecodeLimits` before any allocation, so a
    corrupted (or hostile) length prefix cannot demand gigabytes.

    ``mapped=True`` (via :meth:`open`) memory-maps the file instead of
    streaming it: after the ``open(2)``/``mmap(2)`` pair the scan issues
    *zero read syscalls* — every frame is a :class:`memoryview` slice of
    the map, CRC-checked lazily as the scan reaches it, and
    ``read_batch(lend=True)`` decodes records as leased
    :class:`~repro.abi.views.RecordView` objects pointing straight into
    the page cache.  The map unmaps when the reader is closed *and* the
    last leased view has died, whichever comes later.
    """

    def __init__(
        self,
        ctx: IOContext,
        stream: BinaryIO,
        *,
        recover: str = "raise",
        _map: "_MapSource | None" = None,
    ):
        if recover not in RECOVER_POLICIES:
            raise ValueError(f"recover must be one of {RECOVER_POLICIES}, not {recover!r}")
        self.ctx = ctx
        self._stream = stream
        self._recover = recover
        self._damaged = False
        self._map = _map
        self._pos = 0
        self._lease: Lease | None = None
        if _map is not None:
            self._lease = Lease(lambda: _close_map(_map), metrics=ctx.metrics)
        self.version = check_header(self._read(FILE_HEADER.size), *RECORD_FILE)

    @classmethod
    def open(
        cls,
        ctx: IOContext,
        path: str,
        *,
        recover: str = "raise",
        mapped: bool = False,
    ) -> "PbioFileReader":
        stream = open(path, "rb")
        try:
            if not mapped:
                return cls(ctx, stream, recover=recover)
            try:
                mm = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                # Zero-length files cannot be mapped — and are not PBIO
                # files either; report them exactly like the stream path.
                raise MessageError("not a PBIO file: truncated header") from None
            try:
                return cls(ctx, stream, recover=recover, _map=_MapSource(mm, stream))
            except Exception:
                mm.close()
                raise
        except Exception:
            stream.close()
            raise

    def _read(self, n: int):
        """Next ``n`` bytes of the file: a copy from the stream, or a
        zero-copy slice of the map (possibly short at EOF, like read)."""
        if self._map is None:
            return self._stream.read(n)
        view = self._map.view
        if view is None:
            raise ValueError("I/O operation on closed PBIO reader")
        pos = self._pos
        chunk = view[pos : pos + n]
        self._pos = pos + len(chunk)
        return chunk

    # -- framing -------------------------------------------------------------

    def _next_frame(self):
        """The next complete, CRC-valid frame payload; ``None`` at end.

        Returns ``bytes`` when streaming, a ``memoryview`` slice of the
        map when mapped.  Under ``skip``, CRC-mismatched frames are
        consumed and skipped (the length prefix keeps the scan aligned
        unless its echo disagrees, in which case alignment is
        untrustworthy and the scan stops).  Torn tails end the scan
        under ``skip``/``stop``.
        """
        limits = self.ctx.limits
        max_size = limits.max_message_size if limits is not None else None
        while True:
            verdict, payload = read_frame(self._read, self.version, max_size)
            if verdict == "ok":
                return payload
            if verdict == "eof":
                return None  # clean EOF at a frame boundary
            if self._recover == "raise":
                if verdict == "torn":
                    raise MessageError("truncated PBIO file (the last frame is torn)")
                if verdict == "oversize":
                    limits.check_message_size(payload)  # raises LimitError
                raise MessageError("corrupt PBIO file: record CRC mismatch")
            self._damaged = True
            self.ctx.metrics.inc(_DAMAGE_COUNTER["torn" if verdict == "torn" else "corrupt"])
            if verdict != "corrupt" or self._recover == "stop":
                # torn; or the length prefix is oversize or suspect, so the
                # next "boundary" would be a guess — stop, don't misparse.
                return None
            # skip: framing is still aligned; scan on to the next frame.

    def iter_raw(self) -> Iterator[bytes]:
        """Yield every *data* message, absorbing format messages.

        Mapped readers yield ``memoryview`` slices of the map; copy
        (``bytes(m)``) anything kept past the reader's lifetime.  Each
        frame is a one-frame walk over :data:`FILE_ROWS`.
        """
        data: list = []

        def keep(run, headers):
            data.extend(run)

        for message in iter(self._next_frame, None):
            try:
                enc.walk((message,), None, FILE_ROWS, self, keep)
            except PbioError:
                # A CRC-valid frame that is not a well-formed PBIO data or
                # format message (v1 corruption, or a writer bug): damage.
                if self._recover == "raise":
                    raise
                self._damaged = True
                self.ctx.metrics.inc("file.corrupt_records")
                if self._recover == "stop":
                    return
                continue
            if data:
                if self._damaged:
                    self.ctx.metrics.inc("file.recovered_records")
                yield data.pop()

    def _absorb(self, message, header) -> None:
        # The context retains format meta; never hand it a borrowed slice of the map.
        self.ctx.receive(message if type(message) is bytes else bytes(message))

    def _reject(self, message, header) -> None:
        if header is None:
            enc.unpack_header(message)  # raises what is wrong with it
        # a self-contained file carries full meta and no link control
        raise MessageError(f"unexpected message type {header[0]} in PBIO file")

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield every record decoded to a value dict."""
        for message in self.iter_raw():
            try:
                yield self.ctx.decode(message)
            except PbioError:
                if self._recover == "raise":
                    raise
                self._damaged = True
                self.ctx.metrics.inc("file.corrupt_records")
                if self._recover == "stop":
                    return

    def read_all(self) -> list[dict[str, Any]]:
        return list(self)

    def read_batch(
        self, max_records: int | None = None, *, lend: bool = False
    ) -> list:
        """Read up to ``max_records`` records through the batch pipeline.

        Frames are scanned with the usual crash-safe ladder
        (:meth:`iter_raw` absorbs announcements and applies the
        ``recover`` policy to framing damage), then all collected data
        messages decode in one :meth:`DecodePipeline.decode_batch` pass —
        consecutive same-format records share a single columnar
        conversion.  Decode failures follow ``recover`` exactly like
        ``__iter__``: ``"raise"`` propagates, ``"skip"`` drops the bad
        record (counted as ``file.corrupt_records``), ``"stop"`` truncates
        the result at the first bad record.

        ``lend=True`` returns :class:`~repro.abi.views.RecordView`
        objects instead of dicts.  On a mapped reader the zero-copy
        format (record layout already native) decodes to views *into the
        map itself* under the reader's lease — no payload bytes are
        copied anywhere between the page cache and field access.  Call
        ``view.detach()`` before storing a view past the processing
        loop.
        """
        messages: list = []
        for message in self.iter_raw():
            messages.append(message)
            if max_records is not None and len(messages) >= max_records:
                break
        if not messages:
            return []
        decode_batch = self.ctx.pipeline.decode_batch
        if self._recover == "raise":
            return decode_batch(
                messages, on_error="raise", lend=lend, lease=self._lease
            )
        results = decode_batch(
            messages, on_error="skip", lend=lend, lease=self._lease
        )
        out: list = []
        for value in results:
            if value is None:
                self._damaged = True
                self.ctx.metrics.inc("file.corrupt_records")
                if self._recover == "stop":
                    break
                continue
            out.append(value)
        return out

    def close(self) -> None:
        if self._map is not None:
            # Drop this reader's hold on the map lease; the unmap runs
            # now, or when the last leased view dies — whichever is
            # later.  The lease callback closes the stream too.
            self._lease = None
            return
        self._stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_records(
    ctx: IOContext,
    path: str,
    schema: RecordSchema,
    records: list[dict[str, Any]],
    *,
    version: int = FILE_VERSION,
) -> None:
    """Convenience: write one schema's records to ``path``."""
    with PbioFileWriter.open(ctx, path, version=version) as writer:
        handle = ctx.register_format(schema)
        for record in records:
            writer.write(handle, record)


def read_records(
    ctx: IOContext, path: str, schema: RecordSchema, *, recover: str = "raise"
) -> list[dict[str, Any]]:
    """Convenience: read all records of ``schema`` from ``path``."""
    ctx.expect(schema)
    with PbioFileReader.open(ctx, path, recover=recover) as reader:
        return reader.read_all()


def file_to_buffer(
    ctx: IOContext,
    schema: RecordSchema,
    records: list[dict[str, Any]],
    *,
    version: int = FILE_VERSION,
) -> bytes:
    """Build an in-memory PBIO file (testing / transmission as a blob)."""
    buf = io.BytesIO()
    writer = PbioFileWriter(ctx, buf, version=version)
    handle = ctx.register_format(schema)
    for record in records:
        writer.write(handle, record)
    return buf.getvalue()
