"""NDR message encoding: the sender side of PBIO.

"No translation is done at the writer's end" (Section 3).  A data message
is a fixed 16-byte header followed by the application's record bytes *in
the sender's natural representation* — the same buffer the application
already holds.  :func:`data_frames`, the one place a data frame is built,
can therefore hand back ``(header, buffer)`` without touching the record,
which is why PBIO's sender cost is flat (~3 µs in the paper's Figure 2)
regardless of record size: the work is building 16 bytes of header.

Message types:

* ``MSG_FORMAT``         — format meta-information (sent once per format);
* ``MSG_DATA``           — header + native record bytes;
* ``MSG_FORMAT_TOKEN``   — compact announcement: the sender binds its
  (context id, format id) to a format identified only by its 20-byte
  SHA-1 fingerprint plus the format server's global token — no meta
  travels (the format-service protocol, docs/wire-format.md §7);
* ``MSG_FORMAT_REQUEST`` — a receiver that cannot resolve a fingerprint
  (format server down, cold cache) asks the sender to re-announce the
  format inline; the payload is the fingerprint being requested.
* ``MSG_PING`` / ``MSG_PONG`` — link-liveness probes (docs/robustness.md
  §9): 16 bytes of payload carrying a monotonic nonce plus the sender's
  current write-queue depth.  A nonce of 0 is reserved for the *goodbye*
  ping a draining endpoint emits so peers reconnect promptly instead of
  waiting out a timeout.
* ``MSG_DATA_SEQ``       — a data message whose payload is prefixed by a
  per-``(context, format)`` monotonic u64 sequence number (starting at
  1); the durable delivery plane (docs/robustness.md §11) journals these
  before sending and retransmits them until acknowledged.  Receivers
  decode the record where it lies, 8 bytes further into the frame
  (:data:`SEQ_RECORD_OFFSET`); nothing is ever re-headered.
* ``MSG_ACK``            — a receiver's cumulative delivery cursor for
  one ``(context, format)`` stream, plus an optional selective-nack
  bitmap naming sequences in ``(cursor, cursor+64]`` it is still
  missing.  Strict 24-byte payload, like the other control frames.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from itertools import repeat
from operator import itemgetter

from .errors import MessageError
from .formats import IOFormat

MAGIC = 0xB1  # 'PBIO' message marker
VERSION = 1
MSG_FORMAT = 1
MSG_DATA = 2
MSG_FORMAT_TOKEN = 3
MSG_FORMAT_REQUEST = 4
MSG_PING = 5
MSG_PONG = 6
MSG_DATA_SEQ = 7
MSG_ACK = 8

#: The frame taxonomy, stated once: every role's "what do I do with kind
#: k" (docs/wire-format.md §12) reads these.  Data is decoded or routed,
#: announcements are absorbed and replayed, and the rest is *link*
#: control — point-to-point between the two ends of one link, never
#: fanned out (heartbeats are the part of it a liveness pump consumes).
DATA_KINDS = frozenset((MSG_DATA, MSG_DATA_SEQ))
ANNOUNCEMENT_KINDS = frozenset((MSG_FORMAT, MSG_FORMAT_TOKEN))
HEARTBEAT_KINDS = frozenset((MSG_PING, MSG_PONG))
LINK_KINDS = HEARTBEAT_KINDS | {MSG_FORMAT_REQUEST, MSG_ACK}

# magic, version, msg type, pad, context id, format id, payload length
_HEADER = struct.Struct(">BBBxIII")
HEADER_SIZE = _HEADER.size

#: Every type :func:`unpack_header` accepts (the batch decode's inlined scan reads it).
MESSAGE_TYPES = DATA_KINDS | ANNOUNCEMENT_KINDS | LINK_KINDS

FINGERPRINT_SIZE = 20  # sha1 digest length (matches IOFormat.fingerprint)
GOODBYE_NONCE = 0  # reserved ping nonce: "I am draining, reconnect elsewhere"

_TOKEN_PAYLOAD = struct.Struct(f">{FINGERPRINT_SIZE}sQ")  # fingerprint, token
_HEARTBEAT_PAYLOAD = struct.Struct(">QQ")  # nonce, sender write-queue depth
_ACK_PAYLOAD = struct.Struct(">QQQ")  # cursor, nack base, nack bitmap
HEARTBEAT_PAYLOAD_SIZE = _HEARTBEAT_PAYLOAD.size
ACK_PAYLOAD_SIZE = _ACK_PAYLOAD.size

#: The strict-size control payloads: kind -> (layout, name).  A control
#: header glued onto anything but exactly its payload is protocol damage,
#: not a tolerable variant — which is what keeps random corruption of
#: other message types from parsing as control.
CONTROL_PAYLOADS = {
    MSG_FORMAT_TOKEN: (_TOKEN_PAYLOAD, "token announcement"),
    MSG_FORMAT_REQUEST: (struct.Struct(f">{FINGERPRINT_SIZE}s"), "format request"),
    MSG_PING: (_HEARTBEAT_PAYLOAD, "ping"),
    MSG_PONG: (_HEARTBEAT_PAYLOAD, "pong"),
    MSG_ACK: (_ACK_PAYLOAD, "ack"),
}


def pack_header(msg_type: int, context_id: int, format_id: int, payload_len: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, msg_type, context_id, format_id, payload_len)


def unpack_header(message) -> tuple[int, int, int, int]:
    """Returns (msg_type, context_id, format_id, payload_len)."""
    if len(message) < HEADER_SIZE:
        raise MessageError(f"message shorter than header ({len(message)} bytes)")
    magic, version, msg_type, context_id, format_id, payload_len = _HEADER.unpack_from(message, 0)
    if magic != MAGIC:
        raise MessageError(f"bad PBIO magic {magic:#x}")
    if version != VERSION:
        raise MessageError(f"unsupported PBIO version {version}")
    if msg_type not in MESSAGE_TYPES:
        raise MessageError(f"unknown message type {msg_type}")
    return msg_type, context_id, format_id, payload_len


def try_message_type(message) -> int | None:
    """Message type if ``message`` starts with a well-formed PBIO header,
    ``None`` for anything else — for streams that interleave PBIO messages
    with foreign frames (RPC call headers, partial garbage)."""
    header = try_unpack_header(message)
    return None if header is None else header[0]


def try_unpack_header(message) -> tuple[int, int, int, int] | None:
    """Full parsed header, or ``None`` for foreign/malformed frames.

    The non-raising twin of :func:`unpack_header`, for paths that sniff
    *and* need the ids: parsing once here and threading the tuple through
    (``DecodePipeline.open_data(header=...)``, ``decode_batch(headers=...)``)
    means a steady-state data frame validates its 16 bytes once per hop.
    """
    if len(message) < HEADER_SIZE:
        return None
    magic, version, msg_type, context_id, format_id, payload_len = _HEADER.unpack_from(message, 0)
    if magic != MAGIC or version != VERSION or msg_type not in MESSAGE_TYPES:
        return None
    return msg_type, context_id, format_id, payload_len


def parse_control(message, header: tuple | None = None, kind: int | None = None) -> tuple:
    """The payload fields of one strict-size control frame — the one size
    check of :data:`CONTROL_PAYLOADS`, against the header its caller
    already parsed (``header``; unpacked here only when there is none).
    ``kind`` names the one control type the caller will accept."""
    msg_type, _context_id, _format_id, payload_len = unpack_header(message) if header is None else header
    layout, name = CONTROL_PAYLOADS.get(msg_type if kind is None else kind, (None, "control"))
    if layout is None or (kind is not None and msg_type != kind):
        raise MessageError(f"expected a {name} message, got type {msg_type}")
    if payload_len != layout.size or len(message) - HEADER_SIZE != layout.size:
        raise MessageError(
            f"{name} payload must be {layout.size} bytes, "
            f"header says {payload_len}, got {len(message) - HEADER_SIZE}"
        )
    return layout.unpack_from(message, HEADER_SIZE)


# -- one walk over a burst: each role's column of docs/wire-format.md §12 ------

#: One cell of a role's column: the method for a frame the role handles
#: (``checked``: an announcement it will remember), or the counter a drop or
#: a reject moves, if any.  :data:`RUN` joins the data run.
Row = namedtuple("Row", "handler checked counter", defaults=(None, False, None))
RUN = Row()
_FRAMES = {
    "foreign": None, "format": MSG_FORMAT, "data": MSG_DATA, "token": MSG_FORMAT_TOKEN,
    "request": MSG_FORMAT_REQUEST, "ping": MSG_PING, "pong": MSG_PONG, "data_seq": MSG_DATA_SEQ,
    "ack": MSG_ACK,
}  # fmt: skip


def rows(default: str | None = None, **cells: str) -> dict:
    """A role's column as :func:`walk` reads it, one cell per frame name of
    the table (``foreign``: no PBIO header, or over the role's size limit),
    ``default`` for every name not given: ``run``, ``handle <method>``,
    ``check <method>`` (an announcement whose damage is rejected under the
    ``foreign`` cell's counter), ``drop [counter]`` or ``reject <counter>``."""
    cells = {**dict.fromkeys(_FRAMES, default), **cells}
    if cells.keys() != _FRAMES.keys() or None in cells.values():
        raise ValueError(f"a column has one cell per frame of {sorted(_FRAMES)}, not {cells}")
    rejected = cells["foreign"].partition(" ")[2]
    column = {}
    for name, kind in _FRAMES.items():
        verdict, _, arg = cells[name].partition(" ")
        if verdict in ("drop", "reject"):
            column[kind] = Row(counter=arg or None)
        else:
            column[kind] = {"run": RUN, "handle": Row(arg), "check": Row(arg, True, rejected)}[verdict]
    return column


_BUFFERS = (bytes, bytearray, memoryview)
_HEAD = itemgetter(slice(0, HEADER_SIZE))


def uniform_header(frames, headers=None) -> tuple | None:
    """The one header every frame carries, each whole by it (``len == 16 + payload_len``), or ``None``:
    equal first 16 bytes are equal headers, so a few C-level passes, not a parse a frame.
    ``headers`` parsed upstream (parallel; all equal or all ``None``) win over the bytes."""
    n = len(frames)
    if not n or type(frames[0]) not in _BUFFERS:
        return None
    header = None if headers is None else headers[0]
    if headers is not None and headers.count(header) != n:
        return None
    if header is None:  # compared before the one parse: a mixed burst is parsed by its walk alone
        first = frames[0]
        if n == 1 or list(map(_HEAD, frames)).count(first[:HEADER_SIZE]) == n:
            header = try_unpack_header(first)
        if header is None:
            return None
    size = HEADER_SIZE + header[3]
    return header if (len(frames[0]) == size if n == 1 else list(map(len, frames)).count(size) == n) else None


def walk(messages, headers, column: dict, role, run=None, *args, limit: int | None = None) -> None:
    """The one burst walk behind every hub: ``messages`` (with the parallel ``headers`` parsed
    upstream; ``None`` ones are parsed here, a frame over ``limit`` is foreign) through ``column``.
    Each run of data frames goes to ``run(frames, headers, *args)``; drops and rejects do not
    break it, a frame the role handles flushes it first (announcement-before-data order holds).
    A :func:`uniform_header` data burst is one admission: one row, one ``run``."""
    header = uniform_header(messages, headers)
    if header is not None and column[header[0]] is RUN:
        if limit is None or HEADER_SIZE + header[3] <= limit:  # a frame over the limit is foreign
            run(messages if type(messages) is list else list(messages), [header] * len(messages), *args)
            return
    frames: list = []
    run_headers: list = []
    for message, header in zip(messages, repeat(None) if headers is None else headers):
        if header is None:
            header = try_unpack_header(message)
        if header is None or (limit is not None and len(message) > limit):
            header, row = None, column[None]
        else:
            row = column[header[0]]
        if row is RUN:
            frames.append(message)
            run_headers.append(header)
            continue
        if frames and row.handler is not None:
            run(frames, run_headers, *args)
            frames, run_headers = [], []
        settle(row, message, header, role, *args)
    if frames:
        run(frames, run_headers, *args)


def settle(row: Row, message, header, role, *args) -> None:
    """What ``role`` does with one frame its ``row`` keeps out of the data
    run, for :func:`walk` and a role's scalar entry alike.  A checked
    announcement is handled only when whole: a token's strict-size payload,
    inline meta exactly as long as its header says."""
    whole = row.handler is not None
    if whole and row.checked:
        try:
            whole = header[3] == len(message) - HEADER_SIZE and (
                header[0] != MSG_FORMAT_TOKEN or parse_control(message, header)
            )
        except MessageError:
            whole = False
    if whole:
        getattr(role, row.handler)(message, header, *args)
    elif row.counter is not None:
        role.metrics.inc(row.counter)


def data_sequence(message, header) -> int:
    """0 for a whole ``MSG_DATA`` frame, the validated sequence number of a
    ``MSG_DATA_SEQ`` one (:func:`read_seq`): a hub's one admission check."""
    if header[0] == MSG_DATA_SEQ:
        return read_seq(message, header[3])
    if header[3] != len(message) - HEADER_SIZE:
        raise MessageError(f"data payload is {len(message) - HEADER_SIZE} bytes, its header says {header[3]}")
    return 0


def encode_format_message(context_id: int, format_id: int, fmt: IOFormat) -> bytes:
    """The one-time meta-information announcement for a format."""
    meta = fmt.to_meta_bytes()
    return pack_header(MSG_FORMAT, context_id, format_id, len(meta)) + meta


# -- the send core: every data frame is built by data_frames -----------------

#: Frame size from which a burst sender hands a sink the frame's segments
#: instead of packing them.  ``bench_ablation_iovec_crossover.py``, loopback
#: socket, pack / gather per send at 100 B / 1 KB / 4 KB / 10 KB / 16 KB / 24 KB
#: / 100 KB frames: 0.87 / 0.92 / 0.91 / 0.94 / 0.98 / 1.05 / 1.23 in runs of 1,
#: 0.78 / 0.85 / 0.90 / 0.94 / 1.01 / 1.11 in runs of 4 (its table in EXPERIMENTS.md).
GATHER_MIN_FRAME = 16 * 1024


class SegmentedFrame:
    """One message as its buffers (a header, the caller's record untouched), ``len()`` its byte length:
    vectored transports hand ``segments`` to the kernel as iovecs, other sinks take ``bytes()``."""

    __slots__ = ("segments", "_size")

    def __init__(self, segments: tuple, size: int):
        self.segments, self._size = segments, size

    def __len__(self) -> int:
        return self._size

    def __bytes__(self) -> bytes:
        return b"".join(self.segments)


def _record_bytes(native) -> bytes | bytearray | memoryview:
    """A record as the bytes it is: ``len()`` of the result is its byte
    count.  ``bytes`` and ``bytearray`` are taken as they are; any other
    buffer — a typed ``memoryview``, an ``array``, a ctypes struct, an
    ndarray — is viewed as flat bytes, copied only when not contiguous."""
    if type(native) is bytes or type(native) is bytearray:
        return native
    view = memoryview(native)
    if not view.c_contiguous:
        return view.tobytes()
    return view if view.ndim == 1 and view.itemsize == 1 else view.cast("B")


def data_frames(
    context_id: int, format_id: int, natives, seq: int | None = None, *,
    gather: int | None = None, headers: list | None = None,
) -> list:
    """The one place a data frame is built: one per record of ``natives``
    (each :func:`_record_bytes`), ``MSG_DATA`` — or, given ``seq``,
    ``MSG_DATA_SEQ`` numbered ``seq``, ``seq + 1``, … (``u64 seq | record``;
    the header's payload length covers the prefix, so the frame passes the
    same length checks as ``MSG_DATA``; 0 never travels, so a cumulative
    ack cursor can use it as "nothing delivered yet").

    A frame is ``header + record`` packed into one buffer — one pack and
    one concat — or, from ``gather`` bytes on, a :class:`SegmentedFrame`
    whose record segment is the caller's buffer, untouched.  ``headers``,
    a list, gets each frame's header as :func:`try_unpack_header` would
    parse it: a publisher hands them on, and no hop parses the run again.
    """
    if seq is not None and seq < 1:
        raise MessageError(f"sequence numbers start at 1, got {seq}")
    kind, prefix = (MSG_DATA, 0) if seq is None else (MSG_DATA_SEQ, SEQ_PREFIX_SIZE)
    frames = []
    for native in natives:
        if type(native) is not bytes:
            native = _record_bytes(native)
        n = len(native)
        if seq is None:
            header = _HEADER.pack(MAGIC, VERSION, kind, context_id, format_id, n)
        else:
            header = HEADER_SEQ_STRUCT.pack(MAGIC, VERSION, kind, context_id, format_id, prefix + n, seq)
            seq += 1
        if headers is not None:
            headers.append((kind, context_id, format_id, prefix + n))
        if gather is None or len(header) + n < gather:
            frames.append(header + native)
        else:
            frames.append(SegmentedFrame((header, native), len(header) + n))
    return frames


def encode_data_message(context_id: int, format_id: int, native) -> bytes:
    """One ``MSG_DATA`` frame: :func:`data_frames` of one record."""
    return data_frames(context_id, format_id, (native,))[0]


def encode_token_message(
    context_id: int, format_id: int, fingerprint: bytes, token: int
) -> bytes:
    """A token-only announcement: ``(fingerprint, token)``, no meta.

    28 bytes of payload regardless of format complexity — the whole
    point of the format service: meta travels once per *cluster* (to the
    server), not once per connection.
    """
    if len(fingerprint) != FINGERPRINT_SIZE:
        raise MessageError(
            f"fingerprint must be {FINGERPRINT_SIZE} bytes, got {len(fingerprint)}"
        )
    payload = _TOKEN_PAYLOAD.pack(bytes(fingerprint), token)
    return pack_header(MSG_FORMAT_TOKEN, context_id, format_id, len(payload)) + payload


def encode_format_request(context_id: int, fingerprint: bytes) -> bytes:
    """A receiver's request that the peer re-announce a format inline."""
    if len(fingerprint) != FINGERPRINT_SIZE:
        raise MessageError(
            f"fingerprint must be {FINGERPRINT_SIZE} bytes, got {len(fingerprint)}"
        )
    return pack_header(
        MSG_FORMAT_REQUEST, context_id, 0, FINGERPRINT_SIZE
    ) + bytes(fingerprint)


def encode_ping(nonce: int, queue_depth: int = 0) -> bytes:
    """A liveness probe: ``(nonce, queue_depth)``, 32 bytes total.

    ``nonce`` echoes back in the matching pong so a monitor can tell a
    fresh answer from a stale one; ``queue_depth`` piggybacks the
    sender's write-queue occupancy so peers see backpressure building
    before it turns into :class:`WriteQueueFull`.  Nonce 0 is the
    goodbye ping (:data:`GOODBYE_NONCE`) — no pong is expected.
    """
    payload = _HEARTBEAT_PAYLOAD.pack(nonce, queue_depth)
    return pack_header(MSG_PING, 0, 0, len(payload)) + payload


def encode_pong(nonce: int, queue_depth: int = 0) -> bytes:
    """The answer to a ping, echoing its nonce."""
    payload = _HEARTBEAT_PAYLOAD.pack(nonce, queue_depth)
    return pack_header(MSG_PONG, 0, 0, len(payload)) + payload


def parse_ping(message) -> tuple[int, int]:
    """Returns ``(nonce, queue_depth)``; strict-size like every control frame."""
    return parse_control(message, kind=MSG_PING)


def parse_pong(message) -> tuple[int, int]:
    """Returns ``(nonce, queue_depth)`` from a pong."""
    return parse_control(message, kind=MSG_PONG)


# -- durable delivery frames (docs/robustness.md §11) ------------------------

_SEQ_PREFIX = struct.Struct(">Q")  # per-(context, format) sequence number
SEQ_PREFIX_SIZE = _SEQ_PREFIX.size
#: Where the record starts in a ``MSG_DATA_SEQ`` frame (a ``MSG_DATA``
#: record starts at :data:`HEADER_SIZE`): the one offset a receiver needs
#: to decode a sequenced frame where it lies.
SEQ_RECORD_OFFSET = HEADER_SIZE + SEQ_PREFIX_SIZE
SEQ_PREFIX = itemgetter(slice(HEADER_SIZE, SEQ_RECORD_OFFSET))  # a sequenced frame's 8-byte prefix
#: Header and sequence prefix in one pack or unpack (the seventh value: a sequence *if* the type is 7).
HEADER_SEQ_STRUCT = struct.Struct(_HEADER.format + "Q")
_ACK_FRAME = struct.Struct(_HEADER.format + "QQQ")  # a whole ack in one pack


def encode_data_seq(context_id: int, format_id: int, seq: int, native) -> bytes:
    """One ``MSG_DATA_SEQ`` frame: :func:`data_frames` of one record."""
    return data_frames(context_id, format_id, (native,), seq)[0]


def read_seq(message, payload_len: int) -> int:
    """The validated sequence number of a type-7 frame.

    For callers that already parsed the header (``payload_len`` is its
    last element): every hop sniffs a frame's 16 bytes once and checks
    the prefix here.  Strict: a frame too short to carry the sequence
    number is protocol damage, a declared payload length that disagrees
    with the actual bytes is a torn frame, and sequence 0 never travels.
    """
    if payload_len != len(message) - HEADER_SIZE or payload_len < SEQ_PREFIX_SIZE:
        raise MessageError(
            f"sequenced payload must be >= {SEQ_PREFIX_SIZE} bytes and match "
            f"the header (header says {payload_len}, got {len(message) - HEADER_SIZE})"
        )
    (seq,) = _SEQ_PREFIX.unpack_from(message, HEADER_SIZE)
    if seq < 1:
        raise MessageError("sequenced data frame carries reserved sequence 0")
    return seq


def run_sequence(frames, header) -> int | None:
    """:func:`data_sequence` of a uniform run (``header``: its :func:`uniform_header`, so each frame is
    whole): 0 for ``MSG_DATA``, the first sequence ``s`` of ``MSG_DATA_SEQ`` numbered ``s, s+1, …, s+n-1``,
    or ``None`` (a short payload, sequence 0, a gap, a duplicate, another kind): :func:`read_seq`'s
    checks for the run in one join of the prefixes and one unpack."""
    if header[0] != MSG_DATA_SEQ or header[3] < SEQ_PREFIX_SIZE:
        return 0 if header[0] == MSG_DATA else None
    n = len(frames)
    seqs = struct.unpack(f">{n}Q", b"".join(map(SEQ_PREFIX, frames)))
    first = seqs[0]
    return first if first and seqs == tuple(range(first, first + n)) else None


def parse_data_seq(message) -> tuple[int, int, int, memoryview]:
    """Returns ``(context_id, format_id, seq, record_bytes)``.

    The record is a view into ``message`` at :data:`SEQ_RECORD_OFFSET` —
    no re-framing; see :func:`read_seq` for the checks.
    """
    msg_type, context_id, format_id, payload_len = unpack_header(message)
    if msg_type != MSG_DATA_SEQ:
        raise MessageError(f"expected a sequenced data message, got type {msg_type}")
    seq = read_seq(message, payload_len)
    return context_id, format_id, seq, memoryview(message)[SEQ_RECORD_OFFSET:]


def encode_ack(
    context_id: int,
    format_id: int,
    cursor: int,
    *,
    nack_base: int = 0,
    nack_bits: int = 0,
) -> bytes:
    """A cumulative ack for one stream: 24 bytes of payload, strict size.

    ``cursor`` is the highest sequence delivered *contiguously* (0 =
    nothing yet).  A non-zero ``nack_base`` adds a selective-nack bitmap:
    bit *i* of ``nack_bits`` set means sequence ``nack_base + i`` is
    missing and should be retransmitted without waiting for the cursor
    to catch up.
    """
    if cursor < 0 or nack_base < 0:
        raise MessageError("ack cursor and nack base must be non-negative")
    size, bits = ACK_PAYLOAD_SIZE, nack_bits & 0xFFFF_FFFF_FFFF_FFFF
    return _ACK_FRAME.pack(MAGIC, VERSION, MSG_ACK, context_id, format_id, size, cursor, nack_base, bits)


def parse_ack(message) -> tuple[int, int, int, int, int]:
    """Returns ``(context_id, format_id, cursor, nack_base, nack_bits)``."""
    header = unpack_header(message)
    return header[1], header[2], *parse_control(message, header, MSG_ACK)
