"""pbio-wal: inspect, verify and compact publisher WAL directories.

Usage::

    pbio-wal ls WALDIR        # segments, per-stream sequence spans, cursors
    pbio-wal verify WALDIR    # frame-level damage scan of every file
    pbio-wal compact WALDIR   # heal torn tails, drop fully-acked segments

Exit codes: 0 — directory clean; 1 — damage found (``compact`` heals the
torn tails it finds and still reports 1); 2 — not a WAL directory or
usage error.

A WAL directory (:class:`repro.net.durable.PublisherWAL`) holds numbered
``wal-<n>.seg`` segment files of v2-framed wire messages plus an
``acked.cursors`` file of framed cursor entries.  Both use the same
``u32 len | payload | crc32 | len-echo`` frame discipline as PBIO record
files, so this tool shares the fsck frame walker
(:func:`repro.tools.fsck_tool.scan_region`) — one damage taxonomy
(``ok`` / ``corrupt`` / ``torn`` / ``framing``), one resync strategy —
and adds a payload layer on top: frames whose bytes are intact but do
not parse as a WAL-legal message (``MSG_DATA_SEQ``, ``MSG_FORMAT``,
``MSG_FORMAT_TOKEN``, or a cursor entry) are reported as ``payload``
damage.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.core.errors import MessageError
from repro.core.framing import FILE_HEADER, check_header
from repro.net.durable import (
    CURSOR_MAGIC,
    WAL_MAGIC,
    WAL_VERSION,
    PublisherWAL,
    fold_cursors,
    wal_entries,
    wal_segments,
)

from .fsck_tool import FrameReport, scan_region, tally

CURSOR_FILE = "acked.cursors"


@dataclasses.dataclass
class FileScan:
    """One scanned WAL file: its frames plus the decoded payloads."""

    path: str
    file_size: int
    frames: list[FrameReport]
    #: intact frames whose payload is not a WAL-legal message
    payload_damage: int = 0

    @property
    def payloads(self) -> list[memoryview]:
        """The payload of every structurally intact frame."""
        return [f.payload for f in self.frames if f.verdict == "ok"]

    @property
    def damaged(self) -> int:
        return sum(1 for f in self.frames if f.verdict != "ok") + self.payload_damage


def scan_wal_file(path: str, magic: bytes) -> FileScan:
    """Scan one WAL segment or cursor file with the fsck frame walker."""
    with open(path, "rb") as stream:
        data = stream.read()
    check_header(data[: FILE_HEADER.size], magic, (WAL_VERSION,), f"WAL file ({path})")
    return FileScan(path, len(data), scan_region(data, FILE_HEADER.size, 2))


def scan_segment(path: str) -> tuple[FileScan, dict]:
    """Scan one segment; returns the scan plus a per-stream digest:
    ``{key: {"count", "lo", "hi", "announced"}}``."""
    scan = scan_wal_file(path, WAL_MAGIC)
    streams: dict[tuple[int, int], dict] = {}
    # The same walk PublisherWAL recovers its backlog with.
    for entry in wal_entries(scan.payloads):
        if entry is None:
            scan.payload_damage += 1
            continue
        key, seq, _message = entry
        digest = streams.setdefault(key, {"count": 0, "lo": 0, "hi": 0, "announced": False})
        if not seq:
            digest["announced"] = True
            continue
        digest["count"] += 1
        digest["lo"] = seq if not digest["lo"] else min(digest["lo"], seq)
        digest["hi"] = max(digest["hi"], seq)
    return scan, streams


def scan_cursors(path: str) -> tuple[FileScan, dict[tuple[int, int], int]]:
    """Scan the cursor file; returns the scan plus the effective cursors
    (append-wins, never-regress — the same read :class:`AckCursorStore`
    performs)."""
    scan = scan_wal_file(path, CURSOR_MAGIC)
    cursors, scan.payload_damage = fold_cursors(scan.payloads)
    return scan, cursors


def _stream_name(key: tuple[int, int]) -> str:
    return f"ctx={key[0]:#x} fmt={key[1]}"


def cmd_ls(directory: str, quiet: bool) -> int:
    damage = 0
    cursors: dict[tuple[int, int], int] = {}
    cursor_path = os.path.join(directory, CURSOR_FILE)
    if os.path.exists(cursor_path):
        scan, cursors = scan_cursors(cursor_path)
        damage += scan.damaged
    totals: dict[tuple[int, int], dict] = {}
    for path in wal_segments(directory):
        scan, streams = scan_segment(path)
        damage += scan.damaged
        if not quiet:
            spans = ", ".join(
                f"{_stream_name(key)} "
                + (f"seq {d['lo']}..{d['hi']} ({d['count']})" if d["count"] else "meta only")
                for key, d in sorted(streams.items())
            )
            flag = "" if not scan.damaged else f"  [{scan.damaged} damaged]"
            print(f"{os.path.basename(path)}: {scan.file_size} bytes, {spans or 'empty'}{flag}")
        for key, digest in streams.items():
            total = totals.setdefault(key, {"count": 0, "hi": 0, "unacked": 0})
            total["count"] += digest["count"]
            total["hi"] = max(total["hi"], digest["hi"])
    for key, total in totals.items():
        acked = cursors.get(key, 0)
        total["unacked"] = max(0, total["hi"] - acked)
    for key in sorted(set(totals) | set(cursors)):
        total = totals.get(key, {"count": 0, "hi": 0, "unacked": 0})
        print(
            f"{_stream_name(key)}: {total['count']} journaled, "
            f"acked through {cursors.get(key, 0)}, ~{total['unacked']} unacked"
        )
    return 1 if damage else 0


def cmd_verify(directory: str, quiet: bool) -> int:
    damage = 0
    paths = [(path, scan_segment) for path in wal_segments(directory)]
    cursor_path = os.path.join(directory, CURSOR_FILE)
    if os.path.exists(cursor_path):
        paths.insert(0, (cursor_path, scan_cursors))
    if not paths:
        print(f"{directory}: no WAL files", file=sys.stderr)
        return 2
    for path, scan_file in paths:
        scan = scan_file(path)[0]
        damage += scan.damaged
        if not quiet or scan.damaged:
            print(f"{path}: {scan.file_size} bytes, {tally(scan.frames)}, {scan.payload_damage} payload")
    print(f"{directory}: {'DAMAGED' if damage else 'clean'}")
    return 1 if damage else 0


def cmd_compact(directory: str, quiet: bool) -> int:
    # Opening the WAL is the heal: torn tails are truncated at a clean
    # frame boundary, damaged entries are skipped, and compaction then
    # drops every non-active segment fully behind its acked cursor.
    wal = PublisherWAL(directory)
    try:
        removed = wal.compact()
        healed = int(
            wal.metrics.value("durable.wal_torn") + wal.metrics.value("durable.wal_corrupt")
        )
    finally:
        wal.close()
    if not quiet:
        print(
            f"{directory}: {removed} segment(s) compacted, "
            f"{healed} damaged frame(s) healed, {wal.unacked_count} entries unacked"
        )
    return 1 if healed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbio-wal", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("command", choices=("ls", "verify", "compact"))
    parser.add_argument("directory", help="publisher WAL directory")
    parser.add_argument("--quiet", action="store_true", help="suppress per-file output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(args.directory):
        print(f"not a directory: {args.directory}", file=sys.stderr)
        return 2
    try:
        if args.command == "ls":
            return cmd_ls(args.directory, args.quiet)
        if args.command == "verify":
            return cmd_verify(args.directory, args.quiet)
        return cmd_compact(args.directory, args.quiet)
    except MessageError as exc:  # "not a WAL file (PATH): …"
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
