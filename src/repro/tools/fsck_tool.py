"""pbio-fsck: verify and repair PBIO record files.

Usage::

    pbio-fsck data.pbio                 # scan, report per-frame verdicts
    pbio-fsck --quiet data.pbio         # summary line only
    pbio-fsck --repair clean.pbio data.pbio   # copy intact frames to a new file
    pbio-fsck --truncate data.pbio      # drop a torn tail in place

Exit codes: 0 — file clean; 1 — damage found (and, with ``--repair`` /
``--truncate``, repaired); 2 — not a PBIO file or usage error.

The v2 frame format (``u32 len | payload | u32 crc32 | u32 len-echo``)
makes three verdicts decidable per frame:

* ``ok``      — CRC matches the payload;
* ``corrupt`` — complete frame, CRC mismatch (bit rot / torn overwrite);
* ``torn``    — the file ends inside the frame (crash mid-append).

When a frame's length prefix and echo disagree *and* the CRC fails — or
the prefix points past the end while an intact frame lies behind it —
the framing is untrustworthy; the scanner then resynchronizes by
searching forward for the next offset that parses as a valid frame
(length sane and not zero, CRC matches) and reports the gap as
``framing`` damage.  v1 files (no trailer) are scanned for framing
consistency and torn tails only — content damage is undetectable there,
which is the argument for v2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.errors import MessageError
from repro.core.files import RECORD_FILE
from repro.core.framing import FILE_HEADER, Cursor, check_header, read_frame, resync

#: Scanning resync never considers candidate frames larger than this —
#: a corrupted length prefix must not make the scanner "validate" an
#: absurd span by luck.
MAX_SCAN_FRAME = 1 << 30


@dataclasses.dataclass(frozen=True)
class FrameReport:
    """One scanned frame (or damaged region)."""

    offset: int  # file offset of the length prefix (or damage start)
    length: int  # bytes the frame (or the damaged span) occupies
    verdict: str  # "ok" | "corrupt" | "torn" | "framing"
    #: the payload the classifier returned (``ok`` frames only)
    payload: memoryview | None = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclasses.dataclass
class FsckReport:
    version: int
    frames: list[FrameReport]
    file_size: int

    @property
    def ok(self) -> list[FrameReport]:
        return [f for f in self.frames if f.verdict == "ok"]

    @property
    def damaged(self) -> list[FrameReport]:
        return [f for f in self.frames if f.verdict != "ok"]

    @property
    def clean(self) -> bool:
        return not self.damaged

    @property
    def intact_prefix_end(self) -> int:
        """File offset up to which every frame is intact — the truncation
        point that drops a torn tail without losing good records."""
        end = FILE_HEADER.size
        for frame in self.frames:
            if frame.verdict != "ok":
                break
            end = frame.end
        return end


def scan_region(data: bytes, start: int = 0, version: int = 2) -> list[FrameReport]:
    """Walk a framed region of ``data`` from ``start``, one verdict per frame.

    This is the fsck frame walker proper, header-agnostic so every framed
    file format built on :mod:`repro.core.framing` — PBIO record files,
    publisher WAL segments, ack cursor stores — shares one damage
    taxonomy (``ok`` / ``corrupt`` / ``torn`` / ``framing``) and one
    resynchronization strategy: where :func:`~repro.core.framing.read_frame`
    cannot trust the framing (``framing``, a length beyond
    :data:`MAX_SCAN_FRAME`, or a v2 ``torn`` that is not the tail), the
    damage runs to the next ``ok`` frame :func:`~repro.core.framing.resync` finds.
    """
    frames: list[FrameReport] = []
    cursor = Cursor(data, start)
    while True:
        pos = cursor.pos
        verdict, payload = read_frame(cursor.read, version, MAX_SCAN_FRAME)
        if verdict == "eof":
            return frames
        if verdict in ("framing", "oversize") or (verdict == "torn" and version >= 2):
            # A damaged length that points past the end reads as torn too: it is the
            # tail only if nothing behind it resyncs (v1 has no trailer to resync by).
            cursor.pos = pos
            if resync(cursor, version, MAX_SCAN_FRAME) or verdict != "torn":
                verdict = "framing"
        frames.append(FrameReport(pos, cursor.pos - pos, verdict, payload if verdict == "ok" else None))


def tally(frames: list[FrameReport]) -> str:
    """``N ok, N corrupt, N torn, N framing`` — a scan's summary line."""
    verdicts = [frame.verdict for frame in frames]
    return ", ".join(f"{verdicts.count(v)} {v}" for v in ("ok", "corrupt", "torn", "framing"))


def scan_bytes(data: bytes) -> FsckReport:
    """Scan an in-memory PBIO file image."""
    version = check_header(data[: FILE_HEADER.size], *RECORD_FILE)
    frames = scan_region(data, FILE_HEADER.size, version)
    return FsckReport(version=version, frames=frames, file_size=len(data))


def repair_bytes(data: bytes, report: FsckReport | None = None) -> bytes:
    """A new file image containing only the intact frames of ``data``."""
    if report is None:
        report = scan_bytes(data)
    out = bytearray(data[: FILE_HEADER.size])
    for frame in report.ok:
        out += data[frame.offset : frame.end]
    return bytes(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbio-fsck", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("path", help="PBIO file to check")
    parser.add_argument("--quiet", action="store_true", help="summary only, no per-frame report")
    parser.add_argument(
        "--repair", metavar="OUT", default=None, help="write intact frames to a new file OUT"
    )
    parser.add_argument(
        "--truncate",
        action="store_true",
        help="truncate the file in place at the end of its intact prefix",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.repair and args.truncate:
        print("--repair and --truncate are mutually exclusive", file=sys.stderr)
        return 2
    try:
        with open(args.path, "rb") as stream:
            data = stream.read()
        report = scan_bytes(data)
    except FileNotFoundError:
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    except MessageError as exc:  # "not a PBIO file: …", or its version is unknown
        print(exc, file=sys.stderr)
        return 2
    if not args.quiet:
        for frame in report.frames:
            print(f"{frame.offset:#010x}  {frame.length:8d}  {frame.verdict}")
    print(f"{args.path}: v{report.version}, {report.file_size} bytes, {tally(report.frames)}")
    if report.clean:
        return 0
    if args.repair:
        repaired = repair_bytes(data, report)
        with open(args.repair, "wb") as out:
            out.write(repaired)
        print(f"repaired: {len(report.ok)} intact frame(s) -> {args.repair}")
    elif args.truncate:
        cut = report.intact_prefix_end
        with open(args.path, "r+b") as stream:
            stream.truncate(cut)
        print(f"truncated: {args.path} now {cut} bytes")
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
