"""The durable delivery plane: sequenced frames, publisher WAL, ack cursors.

The transport layer is self-healing (retry, quarantine, heartbeats —
docs/robustness.md §9) and the file layer is crash-safe (v2 framing, §6),
but the *channels* between them were fire-and-forget: a publisher, relay
or subscriber process crash silently lost every in-flight record.  This
module closes that gap with three cooperating pieces (docs/robustness.md
§11):

* **Sequenced frames** — ``MSG_DATA_SEQ`` (wire type 7) prefixes each
  record with a per-``(context, format)`` monotonic u64 starting at 1;
  ``MSG_ACK`` (type 8) carries a cumulative ack cursor back, plus an
  optional selective-nack bitmap for gap repair.  Both are strict-size
  control-plane citizens of :mod:`repro.core.encoder`.

* **Publisher WAL** — :class:`PublisherWAL` journals every sequenced
  frame *before* it is sent, using the same ``u32 len | payload | crc32 |
  len-echo`` frame discipline as PBIO files (:mod:`repro.core.framing`):
  single-write appends, torn-tail truncation on open, segment rotation,
  and whole-segment compaction once every entry is past the acked
  cursor.  A restarted publisher recovers its unacked backlog and its
  next sequence numbers from the log alone.

* **Exactly-once-observed delivery** — :class:`DurablePublisher` and
  :class:`DurableSubscription` wrap :class:`~repro.net.channel.EventChannel`
  endpoints.  The publisher journals-before-send and retransmits unacked
  frames on reconnect or nack; the subscriber deduplicates by a bounded
  :class:`SequenceWindow` and persists its ack cursor
  (:class:`AckCursorStore`) after each handler return, so redelivery —
  which the at-least-once machinery makes inevitable — is observed
  exactly once, in order.  Everything is opt-in: plain channels, plain
  subscribers and the sync API are untouched, and a plain subscriber on
  a durable stream simply sees the records — to every decode path a
  sequenced frame is a data frame whose record starts 8 bytes later.

  The frame-at-a-time path (``_offer``/``_drain``: window, deliver,
  commit after the handler) is the reference; bursts under
  ``on_error="suppress"`` take the run-granular path
  (:meth:`DurableSubscription._offer_batch`).

A relay forwards sequenced frames verbatim, aggregates its downstreams'
ack cursors (min-cursor) upstream, and replays from a bounded in-memory
window on downstream reactivation — see :class:`repro.net.relay.Relay`.

Durability is only exact across *process* crashes when the publisher
reuses a stable ``context_id`` (pass it to
:class:`~repro.core.context.IOContext`); the WAL journals announcements
alongside data so retransmits decode even on a subscriber that never saw
the original ones.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from repro.core import encoder as enc
from repro.core.context import FormatHandle, IOContext
from repro.core.errors import MessageError, PbioError
from repro.core.framing import FramedLog
from repro.core.runtime import DurableStats, Metrics

from .channel import ChannelPublisher, EventChannel, Subscription

WAL_MAGIC = b"PBIOWALS"
CURSOR_MAGIC = b"PBIOCURS"
WAL_VERSION = 1
_CURSOR_ENTRY = struct.Struct(">IIQ")  # context id, format id, cursor
#: What a WAL segment may hold, by kind: the sequence it carries, given
#: the frame and its header's payload length (0: an announcement).
_WAL_SEQ = {**dict.fromkeys(enc.ANNOUNCEMENT_KINDS, lambda *_: 0), enc.MSG_DATA_SEQ: enc.read_seq}
#: A durable subscription's burst, split: sequenced frames run through the
#: window, everything else is offered as a plain subscription would be.
SEQUENCED_ROWS = enc.rows(default="handle _offer_plain", data_seq="run")


def _open_log(path: str, magic: bytes, metrics: Metrics) -> tuple[FramedLog, list[bytes]]:
    """Open (or create) one crash-safe framed file; return its payloads.

    Damage is counted as ``durable.wal_torn`` / ``durable.wal_corrupt``.
    """
    payloads: list[bytes] = []
    log = FramedLog(
        path, magic, WAL_VERSION, "wal file",
        load=payloads.append,
        on_damage=lambda what: metrics.inc(f"durable.wal_{what}"),
    )
    return log, payloads


def fold_cursors(payloads: Iterable[bytes]) -> tuple[dict[tuple[int, int], int], int]:
    """The effective cursors of a cursor store's payloads, and how many
    of the payloads are not cursor entries (damage)."""
    cursors: dict[tuple[int, int], int] = {}
    damaged = 0
    for payload in payloads:
        if len(payload) != _CURSOR_ENTRY.size:
            damaged += 1
            continue
        cid, fid, cursor = _CURSOR_ENTRY.unpack(payload)
        # Append-wins, but never regress: a stale late entry
        # (from an interleaved old writer) cannot move us back.
        if cursor > cursors.get((cid, fid), 0):
            cursors[(cid, fid)] = cursor
    return cursors, damaged


class AckCursorStore:
    """Crash-safe persistence for per-stream cumulative cursors.

    An append-only file of framed ``(context id, format id, cursor)``
    entries; the latest entry per stream wins, so advancing a cursor is
    one single-write append — the same torn-tail guarantee as every
    other v2 frame consumer.  The file is compacted (atomic rewrite)
    once the append count dwarfs the live stream count.  ``path=None``
    keeps the cursors in memory only (tests, relay-internal use).
    """

    def __init__(self, path: str | None = None, *, metrics: Metrics | None = None):
        self.path = path
        self.metrics = metrics if metrics is not None else Metrics()
        self._cursors: dict[tuple[int, int], int] = {}
        self._log: FramedLog | None = None
        self._appended = 0
        if path is not None:
            self._log, payloads = _open_log(path, CURSOR_MAGIC, self.metrics)
            self._cursors, damaged = fold_cursors(payloads)
            if damaged:
                self.metrics.inc("durable.wal_corrupt", damaged)
            self._appended = len(payloads)

    def cursor(self, key: tuple[int, int]) -> int:
        """Highest contiguously-confirmed sequence for ``key`` (0 = none)."""
        return self._cursors.get(key, 0)

    def cursors(self) -> dict[tuple[int, int], int]:
        return dict(self._cursors)

    def advance(self, key: tuple[int, int], cursor: int) -> bool:
        """Move ``key``'s cursor forward; False if ``cursor`` is not ahead."""
        if cursor <= self._cursors.get(key, 0):
            return False
        self._cursors[key] = cursor
        if self._log is not None:
            self._log.append(_CURSOR_ENTRY.pack(key[0], key[1], cursor))
            self._appended += 1
            if self._appended > 8 * len(self._cursors) + 128:
                # Atomic swap, same durability contract as the WAL
                # segments: surviving *process* crash (the write reaches
                # the OS before the replace is visible).  No fsync — an OS
                # crash can at worst regress cursors, degrading
                # exactly-once-observed to at-least-once for the records
                # in between, exactly like the flush-not-fsync segments;
                # fsyncing here would dominate steady-state cost.
                self._log.rewrite(
                    _CURSOR_ENTRY.pack(cid, fid, top)
                    for (cid, fid), top in self._cursors.items()
                )
                self._appended = len(self._cursors)
        return True

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "AckCursorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def split_wal_frame(payload: bytes) -> list[bytes]:
    """Split one WAL frame payload into the wire messages it carries.

    A frame holds either a single message (announcements, scalar
    appends) or a whole burst concatenated back to back — one coalesced
    journal write per :meth:`PublisherWAL.append_batch`, one CRC over
    the lot.  PBIO headers carry their payload length, so the messages
    self-delimit; anything that does not parse cleanly to the frame's
    exact end is damage.
    """
    view = memoryview(payload)
    total = len(payload)
    offset = 0
    messages: list[bytes] = []
    while offset < total:
        header = enc.try_unpack_header(view[offset:])
        if header is None:
            raise MessageError(f"unparseable embedded message at offset {offset}")
        end = offset + enc.HEADER_SIZE + header[3]
        if end > total:
            raise MessageError(f"embedded message overruns frame at offset {offset}")
        messages.append(bytes(view[offset:end]))
        offset = end
    return messages


def wal_entries(payloads: Iterable[bytes]) -> Iterator[tuple[tuple[int, int], int, bytes] | None]:
    """Walk a segment's frame payloads message by message.

    Yields ``(stream key, sequence, message)`` per journaled message —
    sequence 0 marks an announcement, which no data frame can carry —
    and ``None`` per frame or message that is intact on disk but not a
    WAL-legal message (``MSG_DATA_SEQ``, ``MSG_FORMAT``,
    ``MSG_FORMAT_TOKEN``).
    """
    for payload in payloads:
        try:
            messages = split_wal_frame(payload)
        except MessageError:
            yield None
            continue
        for message in messages:
            try:
                kind, cid, fid, payload_len = enc.unpack_header(message)
                seq = _WAL_SEQ[kind](message, payload_len)
            except (PbioError, KeyError):
                yield None
                continue
            yield (cid, fid), seq, message


def wal_segments(directory: str) -> list[str]:
    """Paths of the ``wal-<n>.seg`` files in ``directory``, oldest first."""
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("wal-") and name.endswith(".seg")
    )


class PublisherWAL:
    """Crash-safe write-ahead log of sequenced frames awaiting acks.

    ``directory`` holds numbered segment files (``wal-<n>.seg``) of
    v2-framed wire messages — each entry is the *exact* ``MSG_DATA_SEQ``
    (or ``MSG_FORMAT``) message that travels, so recovery needs no
    re-encoding — plus an :class:`AckCursorStore` (``acked.cursors``)
    recording how far the subscribers have confirmed.  On open, every
    segment is scanned with torn-tail truncation; entries past the acked
    cursor rebuild the in-memory unacked backlog and the per-stream
    ``next_seq`` counters.

    Segments rotate at ``segment_bytes``; a rotation re-journals the
    live announcements first, so the newest segment always decodes
    standalone.  :meth:`ack` drops confirmed entries and deletes whole
    segments whose every entry is past its stream's cursor
    (``durable.segments_compacted``).

    ``directory=None`` runs the same sequencing and backlog machinery
    purely in memory — useful for tests and for measuring the journal's
    own overhead, but obviously not crash-safe.
    """

    def __init__(
        self,
        directory: str | None,
        *,
        segment_bytes: int = 1 << 20,
        metrics: Metrics | None = None,
    ):
        if segment_bytes < 4096:
            raise ValueError("segment_bytes must be >= 4096")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.metrics = metrics if metrics is not None else Metrics()
        #: per-stream unacked backlog: runs ``(first_seq, frames)``, oldest first
        self._unacked: dict[tuple[int, int], deque[tuple[int, list[bytes]]]] = {}
        self._unacked_count = 0
        self._next_seq: dict[tuple[int, int], int] = {}
        #: latest announcement per stream key, re-journaled on rotation
        self._announcements: dict[tuple[int, int], bytes] = {}
        #: (path, digest) per live segment; the digest is the highest
        #: data sequence per stream in that segment (appends are
        #: monotonic), which makes the fully-acked check in
        #: :meth:`compact` O(streams) instead of O(entries)
        self._segments: list[tuple[str, dict[tuple[int, int], int]]] = []
        #: the newest segment, open for appending (unbuffered: every
        #: append is already one coalesced write, and skipping the
        #: userspace buffer makes it durable-to-the-OS as it returns)
        self._log: FramedLog | None = None
        self._segment_index = 0
        if directory is None:
            self.acked = AckCursorStore(None, metrics=self.metrics)
            return
        os.makedirs(directory, exist_ok=True)
        self.acked = AckCursorStore(
            os.path.join(directory, "acked.cursors"), metrics=self.metrics
        )
        for path in wal_segments(directory):
            self._load_segment(path)
        if self._segments:
            self._segment_index = int(
                os.path.basename(self._segments[-1][0]).split("-")[1].split(".")[0]
            )
        else:
            self._open_segment()

    # -- disk layer ----------------------------------------------------------

    def _load_segment(self, path: str) -> None:
        if self._log is not None:
            self._log.close()  # only the newest segment stays open
        self._log, payloads = _open_log(path, WAL_MAGIC, self.metrics)
        digest: dict[tuple[int, int], int] = {}
        for entry in wal_entries(payloads):
            if entry is None:
                self.metrics.inc("durable.wal_corrupt")
                continue
            key, seq, message = entry
            if not seq:
                self._announcements[key] = message
                continue
            digest[key] = max(seq, digest.get(key, 0))
            if seq >= self._next_seq.get(key, 1):
                self._next_seq[key] = seq + 1
            if seq > self.acked.cursor(key):
                runs = self._unacked.setdefault(key, deque())
                if runs and runs[-1][0] + len(runs[-1][1]) == seq:
                    runs[-1][1].append(message)
                else:
                    runs.append((seq, [message]))
                self._unacked_count += 1
        self._segments.append((path, digest))

    def _open_segment(self) -> None:
        assert self.directory is not None
        self._segment_index += 1
        path = os.path.join(self.directory, f"wal-{self._segment_index:08d}.seg")
        self._log, _ = _open_log(path, WAL_MAGIC, self.metrics)
        self._segments.append((path, {}))
        # Self-contained segments: the live announcements travel into the
        # new file, so a compaction of older segments never strands the
        # format meta a recovered backlog needs to decode.
        for message in self._announcements.values():
            self._log.append(message)

    # -- write path ----------------------------------------------------------

    def next_seq(self, key: tuple[int, int]) -> int:
        """The sequence number the next record on ``key`` must carry."""
        return max(self._next_seq.get(key, 1), self.acked.cursor(key) + 1)

    def announce(self, message: bytes) -> None:
        """Journal a format announcement for the stream it describes.

        Idempotent per (stream, bytes): re-announcing identical meta
        writes nothing.  The announcement is retransmitted ahead of the
        backlog by :meth:`unacked`, so a subscriber that never saw the
        original can still decode the recovered records.
        """
        header = enc.unpack_header(message)
        key = (header[1], header[2])
        if self._announcements.get(key) == bytes(message):
            return
        self._announcements[key] = bytes(message)
        if self._log is not None:  # announcements never pin a segment
            self._log.append(self._announcements[key])

    def append(self, message: bytes) -> int:
        """Journal one ``MSG_DATA_SEQ`` message; returns its sequence.

        The caller must send the *same bytes* after this returns —
        journal-before-send is the whole crash-safety argument.
        """
        return self.append_batch([message])[0]

    def append_batch(self, messages) -> list[int]:
        """Journal a run of ``MSG_DATA_SEQ`` messages with one write.

        Each stream's sequences must be contiguous from its
        :meth:`next_seq`; the whole run lands in a single unbuffered
        ``writev``, which is what makes burst durability cheap.
        Returns the sequences in message order.
        """
        runs: list[tuple[tuple[int, int], int, list[bytes]]] = []
        expected: dict[tuple[int, int], int] = {}
        for message in messages:
            cid, fid, seq, _record = enc.parse_data_seq(message)
            key = (cid, fid)
            want = expected.get(key)
            if want is None:
                want = self.next_seq(key)
            if seq != want:
                raise MessageError(
                    f"stream {key} must journal sequence {want} next, got {seq}"
                )
            expected[key] = seq + 1
            runs.append((key, seq, [bytes(message)]))
        if runs:
            self._append_runs(runs)
        return [seq for _key, seq, _frames in runs]

    def _append_runs(self, runs) -> None:
        """Trusted append of ``(key, first_seq, frames)`` runs, each
        continuing its stream's :meth:`next_seq` (:class:`DurablePublisher`
        numbers its burst straight off it: re-parsing would be waste)."""
        if self._log is not None:
            if self._log.size >= self.segment_bytes:
                self._log.close()
                self._open_segment()
                self.metrics.inc("durable.segments_rotated")
            # One frame for the whole burst (see split_wal_frame): one
            # CRC, one length check, one writev.
            frames = runs[0][2] if len(runs) == 1 else [m for *_, run in runs for m in run]
            self._log.append(b"".join(frames))
            digest = self._segments[-1][1]
        else:
            digest = None
        journaled = 0
        for key, first, frames in runs:
            end = first + len(frames)
            if digest is not None:
                digest[key] = end - 1
            self._unacked.setdefault(key, deque()).append((first, frames))
            self._next_seq[key] = end
            journaled += len(frames)
        self._unacked_count += journaled
        self.metrics.inc("durable.journaled", journaled)

    # -- ack path ------------------------------------------------------------

    def ack(self, key: tuple[int, int], cursor: int) -> int:
        """Confirm every sequence on ``key`` up to ``cursor`` inclusive.

        Returns how many backlog entries that released; persists the
        cursor and compacts any segment now fully confirmed.  A cursor never
        journaled is refused (``durable.acks_rejected``), not persisted.
        """
        if cursor >= self._next_seq.get(key, 1) and cursor > self.acked.cursor(key):  # >= next_seq()
            self.metrics.inc("durable.acks_rejected")
            return 0
        if not self.acked.advance(key, cursor):
            return 0
        runs = self._unacked.get(key)
        released = 0
        if runs is not None:
            while runs and runs[0][0] <= cursor:  # whole runs go; at most one is sliced
                first, frames = runs.popleft()
                kept = frames[cursor + 1 - first :]
                if kept:
                    runs.appendleft((cursor + 1, kept))
                released += len(frames) - len(kept)
            if not runs:
                del self._unacked[key]
            self._unacked_count -= released
        self.compact()
        return released

    def get(self, key: tuple[int, int], seq: int) -> bytes | None:
        """The journaled message for one unacked sequence, if still held."""
        for first, frames in self._unacked.get(key, ()):
            if first <= seq < first + len(frames):
                return frames[seq - first]
        return None

    def announcements(self) -> list[bytes]:
        """The live announcement messages, one per journaled stream."""
        return list(self._announcements.values())

    def unacked(self, key: tuple[int, int] | None = None) -> list[bytes]:
        """Every unacked message (one stream or all), announcements first.

        This is the retransmission set.  For one stream: its
        announcement, then its backlog in sequence order.  For all
        streams (``key=None``, the full after-restart resend): *every*
        journaled announcement — even for streams whose backlog is fully
        acked, so a restarted relay or cold subscriber relearns the
        format meta — then each backlog in sequence order.
        """
        if key is not None:
            backlog = self._unacked.get(key)
            if not backlog:
                return []
            out = []
            announcement = self._announcements.get(key)
            if announcement is not None:
                out.append(announcement)
            out.extend(m for _first, frames in backlog for m in frames)
            return out
        out = list(self._announcements.values())
        for k in sorted(self._unacked):
            out.extend(m for _first, frames in self._unacked[k] for m in frames)
        return out

    @property
    def unacked_count(self) -> int:
        return self._unacked_count

    def compact(self) -> int:
        """Delete segments whose every entry is past its acked cursor.

        The active (newest) segment is never deleted — rotation retires
        it first.  Returns the number of segments removed.
        """
        if self.directory is None or len(self._segments) <= 1:
            return 0
        removed = 0
        survivors: list[tuple[str, dict[tuple[int, int], int]]] = []
        for path, digest in self._segments[:-1]:
            if all(seq <= self.acked.cursor(key) for key, seq in digest.items()):
                os.remove(path)
                removed += 1
                self.metrics.inc("durable.segments_compacted")
            else:
                survivors.append((path, digest))
        self._segments = survivors + self._segments[-1:]
        return removed

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None
        self.acked.close()

    def __enter__(self) -> "PublisherWAL":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequenceWindow:
    """Receiver-side dedup and reordering over sequenced streams.

    Per stream: a cumulative *cursor* (highest sequence delivered
    contiguously) plus a bounded buffer of out-of-order arrivals.  A
    frame at or below the cursor — or already buffered — is a duplicate;
    a frame more than ``window`` ahead is refused (the publisher's
    retransmission machinery will offer it again once the gap closes).
    Delivery is two-phase so a crash or handler failure between receipt
    and processing redelivers instead of losing: :meth:`offer` admits,
    :meth:`next_ready` peeks the next in-order frame, and
    :meth:`commit` consumes it and advances the cursor.
    """

    def __init__(self, window: int = 1024, *, metrics: Metrics | None = None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.metrics = metrics if metrics is not None else Metrics()
        self._cursors: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int], dict[int, Any]] = {}

    def seed(self, key: tuple[int, int], cursor: int) -> None:
        """Move the cursor forward without consuming anything: a persisted
        cursor adopted on restart, or an in-order run the caller delivers
        unbuffered (only sound while nothing of ``key`` is pending)."""
        if cursor > self._cursors.get(key, 0):
            self._cursors[key] = cursor

    def cursor(self, key: tuple[int, int]) -> int:
        return self._cursors.get(key, 0)

    def offer(self, key: tuple[int, int], seq: int, item: Any) -> str:
        """Admit one frame; returns ``"ready" | "buffered" | "duplicate" |
        "refused"``.  ``"ready"`` means :meth:`next_ready` now has work."""
        cursor = self._cursors.get(key, 0)
        if seq <= cursor:
            self.metrics.inc("durable.duplicates_dropped")
            return "duplicate"
        pending = self._pending.setdefault(key, {})
        if seq in pending:
            self.metrics.inc("durable.duplicates_dropped")
            return "duplicate"
        if seq - cursor > self.window:
            # Beyond the reorder horizon: refusing keeps the buffer
            # bounded, and at-least-once redelivery makes refusal safe.
            self.metrics.inc("durable.window_refused")
            return "refused"
        pending[seq] = item
        if seq == cursor + 1:
            return "ready"
        self.metrics.inc("durable.reordered")
        return "buffered"

    def next_ready(self, key: tuple[int, int]) -> tuple[int, Any] | None:
        """The next in-order frame, without consuming it."""
        pending = self._pending.get(key)
        if not pending:
            return None
        seq = self._cursors.get(key, 0) + 1
        item = pending.get(seq)
        return (seq, item) if seq in pending else None

    def commit(self, key: tuple[int, int], seq: int) -> None:
        """Consume one delivered frame and advance the cursor to it."""
        cursor = self._cursors.get(key, 0)
        if seq != cursor + 1:
            raise MessageError(f"cannot commit {seq} at cursor {cursor} on {key}")
        self._cursors[key] = seq
        pending = self._pending.get(key)
        if pending is not None:
            pending.pop(seq, None)
            if not pending:
                del self._pending[key]

    def missing(self, key: tuple[int, int]) -> tuple[int, int] | None:
        """``(nack_base, bitmap)`` describing the gap, or None if none.

        Bit *i* set means sequence ``nack_base + i`` has not arrived even
        though something later has — exactly the selective-nack payload
        of ``MSG_ACK``.  Only the first 64 sequences past the cursor are
        described; cumulative acking repairs anything beyond.
        """
        pending = self._pending.get(key)
        if not pending:
            return None
        base = self._cursors.get(key, 0) + 1
        top = max(pending)
        bits = 0
        for i in range(min(64, top - base + 1)):
            if base + i not in pending:
                bits |= 1 << i
        return (base, bits) if bits else None

    def pending_count(self, key: tuple[int, int] | None = None) -> int:
        if key is not None:
            return len(self._pending.get(key, ()))
        return sum(len(p) for p in self._pending.values())


class DurablePublisher(ChannelPublisher):
    """A journal-before-send publishing endpoint on an event channel.

    A :class:`~repro.net.channel.ChannelPublisher` whose burst body journals
    first: announcements and their token/inline fallback ladder are
    unchanged, and ``publish`` / ``publish_native`` / ``publish_batch``
    spell the burst body as they do there (returning the sequences), but
    every record goes out as a ``MSG_DATA_SEQ`` frame that was appended to
    the :class:`PublisherWAL` *first*.  Ack frames entering the channel
    (:meth:`EventChannel.ingest` routes them) advance the WAL cursor and
    trigger selective retransmission for nacked gaps; :meth:`resend_unacked`
    replays the whole surviving backlog — announcements first — after a
    restart or reconnect.

    Exactly-once across restarts additionally needs a stable
    ``context_id`` on ``ctx`` (otherwise a restarted publisher starts a
    *new* stream; nothing is lost or duplicated, but continuity of the
    sequence numbering is).
    """

    def __init__(
        self,
        channel: EventChannel,
        ctx: IOContext,
        *,
        wal_dir: str | None = None,
        wal: PublisherWAL | None = None,
        segment_bytes: int = 1 << 20,
    ):
        super().__init__(channel, ctx)
        self.metrics = Metrics()
        self.stats = DurableStats(self.metrics)
        if wal is not None:
            self.wal = wal
            self.wal.metrics = self.metrics
        else:
            self.wal = PublisherWAL(
                wal_dir, segment_bytes=segment_bytes, metrics=self.metrics
            )
        channel.add_ack_listener(self._on_ack)

    def _ensure_announced(self, handle: FormatHandle) -> bool:
        # The channel announcement ladder runs as usual; the WAL
        # additionally journals the *inline* meta form so recovered
        # backlogs are decodable with no format service in sight.
        if not super()._ensure_announced(handle):
            return False
        self.wal.announce(self.ctx.announce(handle))
        return True

    def publish_native_batch(self, handle: FormatHandle, natives) -> list[int]:
        """The publisher's one burst body; returns the sequences.  The
        records are numbered off the WAL's :meth:`~PublisherWAL.next_seq`,
        journaled in one write, then fanned out through the channel's batch
        path with the headers built with them: no hop parses them again."""
        if not natives:
            return []
        key = (self.ctx.context_id, handle.format_id)
        self._ensure_announced(handle)
        base, headers = self.wal.next_seq(key), []
        messages = enc.data_frames(key[0], key[1], natives, base, headers=headers)
        self.wal._append_runs(((key, base, messages),))  # journal-before-send
        self.channel._publish_batch(messages, headers)
        self.metrics.inc("durable.sent", len(messages))
        return list(range(base, base + len(messages)))

    def _on_ack(self, message: bytes) -> None:
        try:
            cid, fid, cursor, nack_base, nack_bits = enc.parse_ack(message)
        except PbioError:
            return  # a malformed ack cannot be safely attributed
        if cid != self.ctx.context_id:
            return  # another publisher's stream on the same channel
        self.metrics.inc("durable.acks_received")
        key = (cid, fid)
        released = self.wal.ack(key, cursor)
        if released:
            self.metrics.inc("durable.acked", released)
        if nack_base:
            missing = (self.wal.get(key, nack_base + i) for i in range(64) if nack_bits >> i & 1)
            held = [message for message in missing if message is not None]
            if held:
                self.channel._publish_batch(held)
                self.metrics.inc("durable.retransmitted", len(held))

    def resend_unacked(self) -> int:
        """Republish the surviving backlog (announcements first) as one
        burst, each frame as the channel's row for it says; the receivers'
        dedup windows absorb anything that did arrive."""
        backlog, retransmitted = self.wal.unacked(), self.wal.unacked_count
        self.channel.ingest_many(backlog)
        if retransmitted:
            self.metrics.inc("durable.retransmitted", retransmitted)
        return retransmitted

    @property
    def unacked_count(self) -> int:
        return self.wal.unacked_count

    def close(self) -> None:
        self.channel.remove_ack_listener(self._on_ack)
        self.wal.close()

    def __enter__(self) -> "DurablePublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DurableSubscription(Subscription):
    """An exactly-once-observed subscriber on an event channel.

    Sequenced frames pass through a :class:`SequenceWindow` before the
    ordinary screen-filter-decode-handle path: duplicates are absorbed
    (and re-acked, so a retransmitting publisher converges), gaps are
    buffered and nacked, and each in-order record is committed — cursor
    persisted via :class:`AckCursorStore` when ``cursor_path`` is given —
    only *after* the handler returns.  A crash between receipt and
    handling therefore redelivers; a crash after handling re-acks.
    Non-sequenced traffic (announcements, plain data) behaves exactly as
    on a plain :class:`~repro.net.channel.Subscription`.

    ``ack_sink`` is where ``MSG_ACK`` frames go: by default the owning
    channel's :meth:`~EventChannel.route_ack` (in-process publishers);
    wire subscribers pass their transport's ``send`` so acks ride the
    back-channel to the relay/publisher.
    """

    def __init__(
        self,
        channel: EventChannel,
        ctx: IOContext,
        handler: Callable[[dict[str, Any]], None],
        *,
        cursor_path: str | None = None,
        format_name: str | None = None,
        filter_expr: str | None = None,
        on_error: str = "raise",
        window: int = 1024,
        ack_sink: Callable[[bytes], None] | None = None,
    ):
        if channel.cache is not None:
            ctx.use_cache(channel.cache)
        if channel.format_service is not None and ctx.format_service is None:
            ctx.use_format_service(channel.format_service)
        super().__init__(
            ctx, handler, format_name=format_name, filter_expr=filter_expr, on_error=on_error
        )
        self.channel = channel
        self.stats_durable = DurableStats(self.metrics)
        self.cursors = AckCursorStore(cursor_path, metrics=self.metrics)
        self.window = SequenceWindow(window, metrics=self.metrics)
        for key, cursor in self.cursors.cursors().items():
            self.window.seed(key, cursor)
        self._ack_sink = ack_sink if ack_sink is not None else channel.route_ack
        channel._attach(self)

    # -- delivery ------------------------------------------------------------

    def _offer(self, message: bytes) -> None:
        header = enc.try_unpack_header(message)
        if header is None or SEQUENCED_ROWS[header[0]] is not enc.RUN:
            super()._offer(message)
            return
        try:
            seq = enc.read_seq(message, header[3])
        except PbioError:
            self.metrics.inc("decode_errors")
            raise
        key = (header[1], header[2])
        outcome = self.window.offer(key, seq, bytes(message))
        if outcome == "refused":
            # Re-ack so a publisher retransmitting into the void converges.
            self._send_ack(key)
            return
        # Duplicates also drain: a retransmit of a frame still *pending*
        # (its first delivery attempt failed) is the retry — and when
        # nothing is ready the drain degenerates to the re-ack above.
        self._drain(key)

    def _drain(self, key: tuple[int, int]) -> None:
        """Deliver every in-order pending frame, committing one by one.

        The on-disk cursor is persisted once per drain (covering the
        committed prefix), *before* the ack goes out — so everything
        acked is persisted, and a crash mid-drain merely redelivers the
        uncommitted tail."""
        try:
            while True:
                ready = self.window.next_ready(key)
                if ready is None:
                    break
                seq, message = ready
                try:
                    super()._offer(message)
                except Exception:
                    if self.error_policy == "raise":
                        # Not committed: the frame stays pending and the
                        # publisher's retransmission retries it — the
                        # at-least-once half of exactly-once-observed.
                        raise
                    # suppress/detach consume the record (it was counted
                    # by Subscription's own error metrics) and move on.
                    self.window.commit(key, seq)
                    if self.error_policy == "detach":
                        raise
                    continue
                self.window.commit(key, seq)
        finally:
            self.cursors.advance(key, self.window.cursor(key))
            self._send_ack(key)

    def _offer_batch(self, messages, suppress: bool, lease=None, headers=None) -> None:
        """Burst delivery (``"suppress"``): each frame is parsed once —
        by whoever scanned the burst, when ``headers`` comes with it — and
        split by :data:`SEQUENCED_ROWS`; each touched stream gets one
        cursor persist and one ack, after delivery.  ``"raise"`` and
        ``"detach"`` run the scalar reference loop instead: both stop at the
        first failure, and only commit-after-handler accounting knows which
        prefix was delivered — committing a whole run up front would ack
        the records behind a failure that are then never offered."""
        if not suppress:
            for message in messages:
                self._offer(message)
            return
        touched: dict[tuple[int, int], None] = {}
        try:
            enc.walk(messages, headers, SEQUENCED_ROWS, self, self._offer_sequenced, touched, lease)
        finally:
            for stream in touched:
                self.cursors.advance(stream, self.window.cursor(stream))
                self._send_ack(stream)

    def _offer_run(self, run, headers, suppress: bool, lease=None) -> None:
        self._offer_batch(run, suppress, lease, headers)

    def _offer_plain(self, message, header, touched, lease) -> None:
        super()._offer_batch((message,), True, lease, (header,))

    def _offer_sequenced(self, messages, headers, touched, lease) -> None:
        """While a stream has nothing pending and its frames arrive as
        ``cursor+1, cursor+2, …`` they form an *in-order run*: borrowed,
        never inserted into the window — the cursor moves once to the run's
        last sequence (commit-before-deliver: this policy consumes a failed
        record anyway) and the run is screened and decoded in one batch.  A
        duplicate, gap or beyond-window frame ends the run and takes the
        window path (:meth:`_drain_ready`), copied: it may outlive the call.
        A uniform run numbered ``cursor+1, …`` (``enc.run_sequence``) of a stream with nothing pending
        is that in-order run whole: one seed, one flush, no frame read; any other takes the loop."""
        window = self.window
        header = enc.uniform_header(messages, headers)
        first = None if header is None else enc.run_sequence(messages, header)
        if first:  # (its rows give it sequenced frames only)
            key = (header[1], header[2])
            touched[key] = None
            if first == window.cursor(key) + 1 and not window.pending_count(key):
                window.seed(key, first + len(messages) - 1)  # commit, then deliver
                self._flush_run(messages, headers, True, lease)
                return
        run: list[bytes] = []  # the in-order run of `key`
        run_headers: list[tuple] = []
        key = None
        last = 0  # `key`'s cursor once `run` is committed
        clean = False  # nothing of `key` is pending in the window

        def end_run() -> None:
            if run:
                window.seed(key, last)  # commit, then deliver
                self._flush_run(run, run_headers, True, lease)
                del run[:], run_headers[:]

        for message, header in zip(messages, headers):
            try:
                seq = enc.read_seq(message, header[3])
            except PbioError:
                self.metrics.inc("decode_errors")
                continue
            if key is None or header[1] != key[0] or header[2] != key[1]:
                end_run()
                key = (header[1], header[2])
                touched[key] = None
                last = window.cursor(key)
                clean = not window.pending_count(key)
            if clean and seq == last + 1:
                run.append(message)
                run_headers.append(header)
                last = seq
                continue
            end_run()
            if window.offer(key, seq, bytes(message)) != "refused":
                self._drain_ready(key)
                last = window.cursor(key)
                clean = not window.pending_count(key)
        end_run()

    def _drain_ready(self, key: tuple[int, int]) -> None:
        """Deliver the window's whole ready run as one batch.

        Records are committed *before* delivery: ``"suppress"`` consumes
        a failed record anyway, so the strict commit-after-handler
        ordering of :meth:`_drain` buys nothing, and committing up front
        lets the run decode in one pipeline batch."""
        window = self.window
        run: list[bytes] = []
        while True:
            ready = window.next_ready(key)
            if ready is None:
                break
            seq, message = ready
            run.append(message)
            window.commit(key, seq)
        if run:
            self._flush_run(run, None, True)

    def _send_ack(self, key: tuple[int, int]) -> None:
        cid, fid = key
        gap = self.window.missing(key)
        nack_base, nack_bits = gap if gap is not None else (0, 0)
        ack = enc.encode_ack(
            cid, fid, self.window.cursor(key), nack_base=nack_base, nack_bits=nack_bits
        )
        self.metrics.inc("durable.acks_sent")
        if nack_base:
            self.metrics.inc("durable.nacks_sent")
        try:
            self._ack_sink(ack)
        except Exception:
            # A lost ack only delays compaction; the next delivery (or a
            # retransmit-triggered re-ack) carries the same cursor again.
            self.metrics.inc("durable.ack_send_errors")

    def ack_cursor(self, key: tuple[int, int]) -> int:
        return self.window.cursor(key)

    def close(self) -> None:
        if self in self.channel._subscribers:
            self.channel.unsubscribe(self)
        self.cursors.close()

    def __enter__(self) -> "DurableSubscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
