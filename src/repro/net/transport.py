"""Transport abstraction: framed byte-message delivery.

Every wire-format system under test (PBIO, MPI-like, XML, IIOP) produces
byte messages; transports move them.  Frames are length-prefixed so stream
transports (TCP) preserve message boundaries.

Error taxonomy (the fault-tolerance layer in :mod:`repro.net.faults`
keys retry decisions off it).  The classes are defined in
:mod:`repro.core.errors`, where core catches them, and re-exported here:

* :class:`TransportError` — the link failed; the *message stream* is
  suspect but the peer may come back.  Retryable.
* :class:`PeerClosedError` — the peer deliberately closed its end; no
  more messages will ever arrive.  Retryable only by re-dialling.
* :class:`TransportTimeout` — a blocking operation exceeded the
  transport's configured timeout.  Retryable.
* :class:`PeerUnresponsive` — the link looks up but the peer has stopped
  answering liveness probes (:mod:`repro.net.health`).  Retryable after
  the peer proves itself alive again.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import deque

# The frame shapes the send core (repro.core.encoder.data_frames) builds.
from repro.core.encoder import GATHER_MIN_FRAME, SegmentedFrame  # noqa: F401
from repro.core.errors import (  # noqa: F401
    PeerClosedError,
    PeerUnresponsive,
    TransportError,
    TransportTimeout,
    WriteQueueFull,
)

#: 4-byte big-endian length prefix, like most RPC framings.
_LEN = struct.Struct(">I")

MAX_FRAME = 1 << 30


class Transport(ABC):
    """One endpoint of a duplex, message-oriented link."""

    @abstractmethod
    def send(self, payload: bytes | bytearray | memoryview) -> None:
        """Queue one message for the peer."""

    @abstractmethod
    def recv(self) -> bytes:
        """Receive the next message (blocking for real transports)."""

    @abstractmethod
    def close(self) -> None: ...

    def set_timeout(self, timeout_s: float | None) -> None:
        """Bound blocking operations; exceeded → :class:`TransportTimeout`.

        Transports whose operations never block (the in-memory pipe)
        ignore this.
        """

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    #: Bytes sent, 4-byte length prefixes included, that the peer has not yet
    #: taken: the async socket's write queue, the shm ring's unread bytes; 0 on
    #: a transport that hands each frame over inside ``send`` (sockets, pipes).
    write_queue_depth = 0
    #: Incarnation of the link behind this object: a self-reconnecting
    #: transport bumps it per re-dial, and per-link protocol state
    #: (:class:`repro.core.negotiation.LinkTable`) starts afresh.
    generation = 0
    #: ``pending()``: a zero-syscall count, non-zero exactly when a frame waits (pipes,
    #: the shm ring); ``None``: use ``poll_recv`` (a socket's kernel bytes need a syscall).
    pending = None

    def drain(self):
        """Wait until :attr:`write_queue_depth` is 0: a blocking call (a no-op
        here; the shm ring waits for its reader), a coroutine on an async
        transport, a wrapper's link's own (:func:`repro.net.aio.drain` takes either)."""

    # Scatter-gather send: NDR senders hand the transport a header and the
    # application's own buffer, avoiding the copy a contiguous wire format
    # would force (the zero-copy claim of Section 1).
    def send_segments(self, segments: list[bytes | bytearray | memoryview]) -> None:
        self.send(b"".join(segments))

    # Batch framing: one call per *burst* instead of one per message.
    # The base implementations preserve per-message semantics exactly;
    # vectored transports (sockets) override them to coalesce syscalls.
    def send_many(self, frames: list) -> None:
        """Send many messages; equivalent to ``for f in frames: send(f)``."""
        for payload in frames:  # send() takes one buffer: a SegmentedFrame is joined
            self.send(bytes(payload) if type(payload) is SegmentedFrame else payload)

    def recv_many(self, max_frames: int = 0) -> list[bytes]:
        """Receive at least one message, plus any more already available.

        ``max_frames`` bounds the drain (0 = no bound).  The first message
        blocks exactly like :meth:`recv`; the rest are only taken if they
        cost no further blocking.  Base implementation returns a single
        message — buffered transports override to drain their backlog.
        """
        return [self.recv()]

    def poll_recv(self) -> bytes | None:
        """One message if immediately available, else ``None`` — never blocks:
        how the health plane harvests pongs without a blocking ``recv``.  This
        base declines, so a transport that does not override it looks silent."""
        return None

    def recv_many_leased(self, max_frames: int = 0):
        """:meth:`recv_many` without copying frames out of the receive
        buffer: ``(frames, loan)``.  Buffered transports override this to
        return memoryview slices of their receive buffer and its
        :class:`Loan`; the base implementation returns immutable copied
        frames and ``None`` (always safe: the frames own their bytes).
        """
        return self.recv_many(max_frames), None


#: Initial receive-buffer capacity.  Grows (doubling) when a single frame
#: exceeds it; typical PBIO records never force a grow.
RECV_BUF = 64 * 1024


class FrameBuffer:
    """The buffered receive framer, shared by every socket transport.

    Owns a reusable receive buffer from which complete length-prefixed
    frames are sliced without further kernel crossings; the transport
    supplies bytes by asking for :meth:`writable` space, filling it with
    one ``recv_into`` (blocking or readiness-driven), and reporting the
    count via :meth:`advance`.  Factoring the buffer out of
    :class:`~repro.net.sockets.SocketTransport` lets the async transport
    (:mod:`repro.net.aio`) reuse the exact same framing discipline.
    """

    __slots__ = ("_buf", "_view", "_start", "_end", "lent")

    def __init__(self, capacity: int = RECV_BUF):
        self._buf = bytearray(capacity)
        self._view = memoryview(self._buf)
        self._start = 0  # first unconsumed byte
        self._end = 0  # one past the last filled byte
        self.lent = None  # the pool behind an open Loan of _buf, else None

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet sliced into frames."""
        return self._end - self._start

    def next_frame(self) -> bytes | None:
        """Copy one complete frame out of the buffer, or None."""
        start, end = self._start, self._end
        if end - start < 4:
            return None
        (n,) = _LEN.unpack_from(self._buf, start)
        if n > MAX_FRAME:
            raise TransportError(f"frame too large: {n}")
        stop = start + 4 + n
        if stop > end:
            return None
        data = bytes(self._view[start + 4 : stop])
        if stop == end:
            self._start = self._end = 0  # drained: make compaction rare
        else:
            self._start = stop
        return data

    def next_frame_view(self) -> memoryview | None:
        """Like :meth:`next_frame`, but a zero-copy slice of the buffer (the
        leased path: nothing is reset under the slices handed out).

        The slice aliases this framer's buffer, so the caller must either
        consume it before the next :meth:`writable`/:meth:`advance` cycle
        (a fill may compact or recycle the storage) or hold a
        :class:`Loan` of the buffer.
        """
        avail = self._end - self._start
        if avail < 4:
            return None
        (n,) = _LEN.unpack_from(self._buf, self._start)
        if n > MAX_FRAME:
            raise TransportError(f"frame too large: {n}")
        if avail < 4 + n:
            return None
        start = self._start + 4
        data = self._view[start : start + n]
        self._start = start + n
        return data

    def move(self) -> None:
        """Leave a lent buffer to its :class:`Loan`: continue on a fresh
        pool buffer of the same capacity, carrying over any partial frame
        tail (slices of the old one reference its bytearray directly)."""
        pending = self._end - self._start
        fresh = self.lent.acquire(len(self._buf), zero=False)
        fresh[:pending] = self._view[self._start : self._end]
        self._buf, self._view = fresh, memoryview(fresh)
        self._start, self._end, self.lent = 0, pending, None

    def needed(self) -> int:
        """Bytes still missing before the current frame is complete.

        Only meaningful after :meth:`next_frame` returned None (there is
        always at least one byte missing then).
        """
        avail = self._end - self._start
        if avail >= 4:
            (n,) = _LEN.unpack_from(self._buf, self._start)
            return 4 + n - avail
        return 4 - avail

    def writable(self, needed: int) -> memoryview:
        """Grow/compact so ``needed`` more bytes fit; return the tail to
        fill.  The view covers *all* free space, not just ``needed``
        bytes, so one kernel read can deliver many frames."""
        if self.lent is not None:  # a loan is still open on these bytes
            self.move()
        cap = len(self._buf)
        if self._end + needed > cap:
            pending = bytes(self._view[self._start : self._end])
            if len(pending) + needed > cap:
                cap = max(cap * 2, len(pending) + needed)
                self._view.release()
                self._buf = bytearray(cap)
                self._view = memoryview(self._buf)
            # copy via bytes above: overlapping memoryview assignment is
            # undefined, and the slice is tiny (a partial frame)
            self._buf[: len(pending)] = pending
            self._start, self._end = 0, len(pending)
        return self._view[self._end :]

    def advance(self, count: int) -> None:
        """Record ``count`` bytes written into the :meth:`writable` view."""
        self._end += count


class Loan:
    """A framer's buffer, lent with the frame views sliced from it.

    The first :meth:`take` — by whoever builds something aliasing the frames
    — makes the pool lease: the framer moves on, and the buffer is the
    pool's when the lease's last holder dies.  Closed (or dropped) untaken,
    the framer refills the same buffer; still open at its next fill or loan,
    the framer moves on without it: frames never change under a live loan.
    """

    __slots__ = ("_framer", "_buf", "_pool", "_lease")

    def __init__(self, framer: FrameBuffer, pool):
        self._framer, self._buf, self._pool, self._lease = framer, framer._buf, pool, None
        framer.lent = pool

    def take(self):
        """The buffer's :class:`~repro.core.runtime.pool.Lease`."""
        if self._lease is None:
            if self._framer._buf is self._buf:  # (a closed loan has no framer: AttributeError)
                self._framer.move()
            self._lease = self._pool.lease(self._buf)
        return self._lease

    def close(self) -> None:
        """The frames are done with: untaken, the framer has its buffer back."""
        framer, self._framer = self._framer, None
        if framer is not None and self._lease is None and framer._buf is self._buf:
            framer.lent = None
            if framer._start == framer._end:
                framer._start = framer._end = 0  # drained: refill from the top
        self._lease = None

    __del__ = close


class InMemoryPipe:
    """A pair of in-process transports connected back to back.

    Useful for unit tests and for the simulated network: no kernel, no
    latency, just byte-faithful delivery with accounting of bytes moved.
    """

    def __init__(self) -> None:
        a_to_b: deque[bytes] = deque()
        b_to_a: deque[bytes] = deque()
        self.a = _PipeEnd(a_to_b, b_to_a)
        self.b = _PipeEnd(b_to_a, a_to_b)
        self.a._peer = self.b
        self.b._peer = self.a

    def endpoints(self) -> tuple["_PipeEnd", "_PipeEnd"]:
        return self.a, self.b


class _PipeEnd(Transport):
    def __init__(self, outbox: deque[bytes], inbox: deque[bytes]):
        self._outbox = outbox
        self._inbox = inbox
        self._peer: _PipeEnd | None = None
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0

    def send(self, payload) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        if self._peer is not None and self._peer._closed:
            raise PeerClosedError("send failed: peer transport is closed")
        data = bytes(payload)
        self._outbox.append(data)
        self.bytes_sent += len(data)
        self.messages_sent += 1

    def recv(self) -> bytes:
        if self._closed:
            raise TransportError("recv on closed transport")
        if not self._inbox:
            if self._peer is not None and self._peer._closed:
                raise PeerClosedError("recv failed: peer closed, stream drained")
            raise TransportError("recv on empty pipe (peer sent nothing)")
        data = self._inbox.popleft()
        self.bytes_received += len(data)
        return data

    def send_many(self, frames) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        if self._peer is not None and self._peer._closed:
            raise PeerClosedError("send failed: peer transport is closed")
        for payload in frames:
            data = bytes(payload)
            self._outbox.append(data)
            self.bytes_sent += len(data)
            self.messages_sent += 1

    def recv_many(self, max_frames: int = 0) -> list[bytes]:
        out = [self.recv()]  # same empty/PeerClosed semantics as recv
        while self._inbox and (max_frames <= 0 or len(out) < max_frames):
            data = self._inbox.popleft()
            self.bytes_received += len(data)
            out.append(data)
        return out

    def pending(self) -> int:
        return len(self._inbox)

    def poll_recv(self) -> bytes | None:
        if self._closed:
            raise TransportError("recv on closed transport")
        if not self._inbox:
            if self._peer is not None and self._peer._closed:
                raise PeerClosedError("recv failed: peer closed, stream drained")
            return None
        data = self._inbox.popleft()
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        self._closed = True
