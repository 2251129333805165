"""Real loopback TCP transport.

Integration tests use this to prove every wire format survives an actual
kernel socket (framing, partial reads, large messages), not just the
in-memory pipe.

A socket call is one syscall: the socket stays non-blocking, and only a
call the kernel answers with ``EAGAIN`` waits for readiness
(``select.poll``) under one deadline for the operation — the transport's
timeout (:meth:`SocketTransport.set_timeout`; a socket handed in with one
keeps it).  CPython's timeout mode polls ahead of *every* call instead: a
second syscall per send and per receive on a link that never waits.

The send side is vectored: ``sendmsg`` takes the length prefix, the
header segment and the application payload as separate iovecs — from
:data:`~repro.net.transport.GATHER_MIN_FRAME` on.  A smaller frame's own
copy is cheaper than its iovecs: :meth:`SocketTransport.send_segments`
joins it behind its prefix (and ``PbioConnection`` packs a burst's small
frames before :meth:`send_many`).  The receive side runs a buffered framer —
one ``recv_into`` per syscall into a reusable buffer, from which every
*complete* frame already received is sliced without further kernel
crossings (:meth:`recv_many`).
"""

from __future__ import annotations

import math
import select
import socket
import time

from repro.core.runtime.pool import BufferPool

from .transport import (
    GATHER_MIN_FRAME,
    MAX_FRAME,
    FrameBuffer,
    Loan,
    PeerClosedError,
    SegmentedFrame,
    Transport,
    TransportError,
    TransportTimeout,
    _LEN,
)

#: iovecs per sendmsg call.  Linux caps a single call at ``UIO_MAXIOV``
#: (1024); staying well under it keeps one burst = few syscalls without
#: ever tripping EMSGSIZE on smaller platforms.
_IOV_MAX = 512

#: Shared pool of lent receive buffers.
_recv_pool = BufferPool()


class SocketTransport(Transport):
    """Length-prefix framed messages over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timeout = sock.gettimeout()  # None: a blocking socket blocks on
        sock.setblocking(False)
        self._framer = FrameBuffer()

    def set_timeout(self, timeout_s: float | None) -> None:
        """Bound each blocking send/recv; exceeded → :class:`TransportTimeout`."""
        self._timeout = timeout_s

    def _wait(self, event: int, deadline: float | None, what: str) -> float:
        """Wait for ``event`` (``POLLIN`` / ``POLLOUT``) by the operation's ``deadline``
        (``None``: its first wait sets it), which it returns; past it, :class:`TransportTimeout`."""
        if deadline is None:
            deadline = math.inf if self._timeout is None else time.monotonic() + self._timeout
        poller = select.poll()  # one per wait: a send and a recv may wait in two threads
        poller.register(self._sock, event)
        while True:
            left = None if deadline == math.inf else math.ceil((deadline - time.monotonic()) * 1000)
            if left is not None and left <= 0:
                raise TransportTimeout(f"{what} timed out")
            if poller.poll(left):  # (an error or a hang-up too: the retried call reports it)
                return deadline

    # -- vectored send ------------------------------------------------------

    def _sendv(self, bufs: list, total: int) -> None:
        """Send an iovec list of ``total`` bytes: one ``sendmsg`` when the
        kernel takes the whole burst, else one per <=512 buffers, resuming
        mid-buffer on partial sends, each after a wait for room."""
        sendmsg, deadline = self._sock.sendmsg, None
        try:
            try:
                sent = sendmsg(bufs if len(bufs) <= _IOV_MAX else bufs[:_IOV_MAX])
            except BlockingIOError:
                sent = 0
            if sent == total:
                return
            # Zero-length buffers (empty frames/segments) never advance
            # the resume cursor — sendmsg reports 0 bytes for them — so
            # drop them or the resume loop spins forever.
            bufs = [b for b in bufs if len(b)]
            idx = 0
            while True:
                while sent:
                    buf = bufs[idx]
                    if sent >= len(buf):
                        sent -= len(buf)
                        idx += 1
                    else:
                        bufs[idx] = memoryview(buf)[sent:]
                        sent = 0
                if idx >= len(bufs):
                    return
                deadline = self._wait(select.POLLOUT, deadline, "send")
                try:
                    sent = sendmsg(bufs[idx : idx + _IOV_MAX])
                except BlockingIOError:
                    sent = 0
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def send(self, payload) -> None:
        n = len(payload)
        if n > MAX_FRAME:
            raise TransportError(f"frame too large: {n}")
        self._sendv([_LEN.pack(n), payload], 4 + n)

    def send_segments(self, segments) -> None:
        """One logical message from many buffers: from ``GATHER_MIN_FRAME``
        on, the length prefix and each segment as separate iovecs, zero-copy;
        below it joined behind the prefix into one buffer — a copy cheaper
        than the iovecs (``bench_ablation_iovec_crossover.py``, runs of one)."""
        total = 0
        for segment in segments:
            total += len(segment)
        if total > MAX_FRAME:
            raise TransportError(f"frame too large: {total}")
        if total >= GATHER_MIN_FRAME:
            return self._sendv([_LEN.pack(total), *segments], 4 + total)
        self._sendv([b"".join((_LEN.pack(total), *segments))], 4 + total)

    def send_many(self, frames) -> None:
        """Many length-prefixed messages in one vectored burst."""
        bufs, total = [], 0
        for payload in frames:
            n = len(payload)
            if n > MAX_FRAME:
                raise TransportError(f"frame too large: {n}")
            total += 4 + n
            bufs.append(_LEN.pack(n))
            if type(payload) is SegmentedFrame:
                bufs.extend(payload.segments)
            else:
                bufs.append(payload)
        if bufs:
            self._sendv(bufs, total)

    # -- buffered receive framer --------------------------------------------
    #
    # The buffer and slicing discipline live in FrameBuffer (shared with
    # the async transport); this class only supplies the fill.

    def _fill(self, wait: bool = True) -> bool:
        """Make writable space, then recv_into once — after a wait, or (not ``wait``) False."""
        view = self._framer.writable(self._framer.needed())
        deadline = None
        while True:
            try:
                got = self._sock.recv_into(view)
                break
            except BlockingIOError:
                if not wait:
                    return False
                deadline = self._wait(select.POLLIN, deadline, "recv")
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
        if not got:
            if self._framer.pending:
                raise TransportError("connection closed mid-frame")
            raise PeerClosedError("peer closed the connection")
        self._framer.advance(got)
        return True

    def recv(self) -> bytes:
        next_frame = self._framer.next_frame
        while True:
            data = next_frame()
            if data is not None:
                return data
            self._fill()

    def recv_many(self, max_frames: int = 0) -> list[bytes]:
        """One blocking frame plus every further complete frame already
        sitting in the receive buffer — no extra syscalls."""
        out = [self.recv()]
        while max_frames <= 0 or len(out) < max_frames:
            data = self._framer.next_frame()
            if data is None:
                break
            out.append(data)
        return out

    def recv_many_leased(self, max_frames: int = 0):
        """:meth:`recv_many` with zero payload copies.

        Frames are memoryview slices of the receive buffer, valid until
        the returned :class:`~repro.net.transport.Loan` is closed; the
        buffer leaves the framer (a pool lease; a partial-frame tail is
        carried over to the next buffer) only if the loan is taken.
        """
        framer, out = self._framer, []
        if framer.lent is not None:  # the last loan is still open: its frames stay as they are
            framer.move()
        while True:
            data = framer.next_frame_view()
            if data is not None:
                out.append(data)
                if len(out) == max_frames:
                    break
            elif out:
                break
            else:  # no view sliced yet: the fill is free to compact or grow the buffer
                self._fill()
        return out, Loan(framer, _recv_pool)

    def poll_recv(self) -> bytes | None:
        """A complete frame if one is buffered or readable *now*, else None:
        reads until either a frame completes or the socket has nothing more
        to give — never waits, whatever the timeout."""
        while True:
            data = self._framer.next_frame()
            if data is not None:
                return data
            if not self._fill(wait=False):
                return None

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def loopback_pair(timeout_s: float = 10.0) -> tuple[SocketTransport, SocketTransport]:
    """Create a connected pair of loopback TCP transports, bounded by ``timeout_s``."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.socket()
        client.connect(listener.getsockname())
        pair = SocketTransport(client), SocketTransport(listener.accept()[0])
    for end in pair:
        end.set_timeout(timeout_s)
    return pair
