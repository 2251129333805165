"""Real loopback TCP transport.

Integration tests use this to prove every wire format survives an actual
kernel socket (framing, partial reads, large messages), not just the
in-memory pipe.

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

import select
import socket

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
_recv_pool = BufferPool(max_per_size=16)


class SocketTransport(Transport):
    """Length-prefix framed messages over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._framer = FrameBuffer()

    def set_timeout(self, timeout_s: float | None) -> None:
        """Bound blocking send/recv; exceeded → :class:`TransportTimeout`."""
        self._sock.settimeout(timeout_s)

    # -- vectored send ------------------------------------------------------

    def _sendv(self, bufs: list, total: int) -> None:
        """sendall for an iovec list of ``total`` bytes: one ``sendmsg``
        when the kernel takes the whole burst, else one per <=512 buffers,
        resuming mid-buffer on partial sends."""
        try:
            sent = self._sock.sendmsg(bufs if len(bufs) <= _IOV_MAX else bufs[:_IOV_MAX])
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
                sent = self._sock.sendmsg(bufs[idx : idx + _IOV_MAX])
        except TimeoutError as exc:
            raise TransportTimeout(f"send timed out: {exc}") from exc
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
        try:
            self._sock.sendall(b"".join((_LEN.pack(total), *segments)))
        except TimeoutError as exc:
            raise TransportTimeout(f"send timed out: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

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
    # the async transport); this class only supplies the blocking fill.

    def _fill(self) -> None:
        """Make writable space, then recv_into once."""
        view = self._framer.writable(self._framer.needed())
        try:
            got = self._sock.recv_into(view)
        except TimeoutError as exc:
            raise TransportTimeout(f"recv timed out: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not got:
            if self._framer.pending:
                raise TransportError("connection closed mid-frame")
            raise PeerClosedError("peer closed the connection")
        self._framer.advance(got)

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
        """A complete frame if one is buffered or readable *now*, else None.

        Reads while the kernel says there is something to read, until either
        a frame completes or the socket has nothing more to give — never
        blocks, regardless of the configured timeout (with one set, Python
        waits for readability ahead of any read, ``MSG_DONTWAIT`` or not).
        """
        while True:
            data = self._framer.next_frame()
            if data is not None:
                return data
            if not select.select((self._sock,), (), (), 0)[0]:
                return None
            self._fill()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def loopback_pair(timeout_s: float = 10.0) -> tuple[SocketTransport, SocketTransport]:
    """Create a connected pair of loopback TCP transports."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.settimeout(timeout_s)
    client.connect(("127.0.0.1", port))
    server, _ = listener.accept()
    server.settimeout(timeout_s)
    listener.close()
    return SocketTransport(client), SocketTransport(server)
