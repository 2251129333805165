"""Same-host shared-memory ring transport.

When both endpoints of a connection live on one machine, the kernel
socket path — two syscalls and two payload copies per message minimum —
is pure overhead: the bytes never leave RAM.  This module replaces it
with a pair of single-producer/single-consumer byte rings in a shared
memory mapping, one ring per direction:

* :class:`ShmRingTransport` — a full :class:`~repro.net.transport.Transport`
  over two mapped rings.  ``send`` writes the frame into the ring and
  publishes a new tail counter; ``recv`` copies it out and publishes a
  new head.  The busy steady state is **zero syscalls in both
  directions** — data and counters travel purely through shared pages.
* :func:`shm_pair` — an in-process connected pair (tests, benchmarks).
* :func:`auto_connect` — upgrade negotiation over an existing transport:
  the server offers ring files, the client attaches them *if it can*
  (attaching is the same-host test — the files only exist here), and
  either side falls back to the original transport on any failure.

Ring layout (one file per direction)::

    offset   field
    0        magic  "PBIOSHM1"                     (8 bytes)
    8        capacity (u64 le) — data area size
    16       nonce (16 bytes) — attach handshake proof
    64       tail (u64 le) — writer's cumulative byte count   ─┐ own
    72       wclosed (u32 le) — writer has closed              │ cache
    76       wwait (u32 le) — writer parked on space doorbell ─┘ line
    128      head (u64 le) — reader's cumulative byte count   ─┐ own
    136      rclosed (u32 le) — reader has closed              │ cache
    140      rwait (u32 le) — reader parked on data doorbell  ─┘ line
    256      data[capacity] — u32-le-length-prefixed frames,
             wrapping byte-wise at ``capacity``

``tail`` and ``head`` are monotonic byte counters (never reduced modulo
capacity), so ``tail - head`` is always the exact number of unread
bytes and empty/full are unambiguous.  The writer publishes ``tail``
only *after* the frame bytes are in place; the reader publishes
``head`` only after copying the frame out.  On the total-store-order
machines CPython runs on, an aligned 8-byte counter store cannot be
observed torn or ahead of the data it guards — the classic seqlock
argument — so no locks are needed for the SPSC discipline.

The counters live 64 bytes apart so the writer's and reader's hot
stores do not false-share one cache line.

Waiting — the doorbell protocol
-------------------------------

Pure spinning is only correct when the peer can run *concurrently*.  On
a single-CPU box (most CI containers) a spinning waiter actively
prevents the peer from producing the very data it waits for, and the
kernel's blocking socket path — which hands the CPU straight to the
peer — wins by default.  Each ring therefore carries two FIFO
*doorbells* next to the mapped file (``<ring>.dbell`` for data,
``<ring>.sbell`` for space), used futex-style:

* a waiter publishes intent (``rwait``/``wwait`` flag), re-checks the
  condition, then blocks in ``read(2)`` on the doorbell;
* the peer, after publishing ``tail``/``head``, rings the doorbell
  (one-byte non-blocking ``write(2)``) *only when the flag is set* —
  the busy steady state never touches the kernel.

On multi-CPU hosts a short ``sched_yield`` spin runs first, so the
common fast path stays syscall-free; on one CPU the spin budget is zero
and waiters park immediately, giving the same direct handoff the socket
gets — minus the protocol stack and the second payload copy.
"""

from __future__ import annotations

import fcntl
import json
import mmap
import os
import select
import struct
import tempfile
import time
import uuid

from .transport import (
    MAX_FRAME,
    PeerClosedError,
    SegmentedFrame,
    Transport,
    TransportError,
    TransportTimeout,
)

_MAGIC = b"PBIOSHM1"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_COUNTERS = struct.Struct("<Q56xQI")  # tail, head, rclosed: one read

_OFF_CAPACITY = 8
_OFF_NONCE = 16
_OFF_TAIL = 64
_OFF_WCLOSED = 72
_OFF_WWAIT = 76
_OFF_HEAD = 128
_OFF_RCLOSED = 136
_OFF_RWAIT = 140
_DATA = 256

#: Default per-direction ring capacity.
DEFAULT_CAPACITY = 1 << 20

#: sched_yield spin iterations before a waiter parks on the doorbell.
#: Zero on a single CPU: spinning there only steals the peer's timeslice.
SPIN_LIMIT = 4096 if (os.cpu_count() or 1) > 1 else 0

# Negotiation frames (auto_connect).  First byte 0x00 can never collide
# with a PBIO message (magic 0xB1) or look like one to a header probe.
_OFFER_TAG = b"\x00SHM-OFFER:"
_NO_OFFER = b"\x00SHM-NONE"
_REPLY_OK = b"\x00SHM-OK"
_REPLY_NO = b"\x00SHM-NO"


def default_shm_dir() -> str:
    """Directory for ring files: ``/dev/shm`` (a real tmpfs — the pages
    are RAM, never disk) when present, the system tempdir otherwise."""
    if os.path.isdir("/dev/shm"):
        return "/dev/shm"
    return tempfile.gettempdir()


def _bell_paths(path: str) -> tuple[str, str]:
    return path + ".dbell", path + ".sbell"


class _Ring:
    """One mapped ring file plus its two doorbell FIFOs."""

    __slots__ = ("mm", "view", "capacity", "path", "data_bell", "space_bell")

    def __init__(
        self, mm: mmap.mmap, capacity: int, path: str, data_bell: int, space_bell: int
    ):
        self.mm = mm
        self.view = memoryview(mm)
        self.capacity = capacity
        self.path = path
        self.data_bell = data_bell
        self.space_bell = space_bell

    # -- lifecycle -----------------------------------------------------------

    @staticmethod
    def _open_bells(path: str) -> tuple[int, int]:
        # O_RDWR on a FIFO (Linux) opens immediately — no open() rendezvous
        # with the peer — and the descriptor never sees EOF.
        dbell_path, sbell_path = _bell_paths(path)
        data_bell = os.open(dbell_path, os.O_RDWR)
        try:
            space_bell = os.open(sbell_path, os.O_RDWR)
        except OSError:
            os.close(data_bell)
            raise
        return data_bell, space_bell

    @classmethod
    def create(cls, path: str, capacity: int, nonce: bytes) -> "_Ring":
        size = _DATA + capacity
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, size)
            mm = mmap.mmap(fd, size)
        finally:
            os.close(fd)  # the mapping outlives the descriptor
        bells = []
        try:
            for bell in _bell_paths(path):
                os.mkfifo(bell, 0o600)
                bells.append(bell)
            data_bell, space_bell = cls._open_bells(path)
        except OSError:
            mm.close()
            os.unlink(path)
            for bell in bells:
                os.unlink(bell)
            raise
        ring = cls(mm, capacity, path, data_bell, space_bell)
        view = ring.view
        view[0:8] = _MAGIC
        _U64.pack_into(view, _OFF_CAPACITY, capacity)
        view[_OFF_NONCE : _OFF_NONCE + 16] = nonce
        return ring

    @classmethod
    def attach(cls, path: str, nonce: bytes | None = None) -> "_Ring":
        fd = os.open(path, os.O_RDWR)
        try:
            size = os.fstat(fd).st_size
            if size < _DATA:
                raise TransportError(f"shm ring too small: {path}")
            mm = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        view = memoryview(mm)
        try:
            if bytes(view[0:8]) != _MAGIC:
                raise TransportError(f"not a PBIO shm ring: {path}")
            (capacity,) = _U64.unpack_from(view, _OFF_CAPACITY)
            if _DATA + capacity != size:
                raise TransportError(f"shm ring size mismatch: {path}")
            if nonce is not None and bytes(view[_OFF_NONCE : _OFF_NONCE + 16]) != nonce:
                raise TransportError(f"shm ring nonce mismatch: {path}")
        except TransportError:
            view.release()
            mm.close()
            raise
        view.release()
        try:
            data_bell, space_bell = cls._open_bells(path)
        except OSError:
            mm.close()
            raise
        return cls(mm, capacity, path, data_bell, space_bell)

    def close(self) -> None:
        if self.view is not None:
            self.view.release()
            self.view = None
        if self.mm is not None:
            self.mm.close()
            self.mm = None
        for fd in (self.data_bell, self.space_bell):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self.data_bell = self.space_bell = -1

    def unlink(self) -> None:
        for path in (self.path, *_bell_paths(self.path)):
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- shared counters -----------------------------------------------------

    @property
    def tail(self) -> int:
        return _U64.unpack_from(self.view, _OFF_TAIL)[0]

    @tail.setter
    def tail(self, value: int) -> None:
        _U64.pack_into(self.view, _OFF_TAIL, value)

    @property
    def head(self) -> int:
        return _U64.unpack_from(self.view, _OFF_HEAD)[0]

    @head.setter
    def head(self, value: int) -> None:
        _U64.pack_into(self.view, _OFF_HEAD, value)

    @property
    def wclosed(self) -> bool:
        return _U32.unpack_from(self.view, _OFF_WCLOSED)[0] != 0

    def set_wclosed(self) -> None:
        _U32.pack_into(self.view, _OFF_WCLOSED, 1)

    @property
    def rclosed(self) -> bool:
        return _U32.unpack_from(self.view, _OFF_RCLOSED)[0] != 0

    def set_rclosed(self) -> None:
        _U32.pack_into(self.view, _OFF_RCLOSED, 1)

    # -- doorbell flags and rings --------------------------------------------

    @property
    def rwait(self) -> bool:
        return _U32.unpack_from(self.view, _OFF_RWAIT)[0] != 0

    def set_rwait(self, value: int) -> None:
        _U32.pack_into(self.view, _OFF_RWAIT, value)

    @property
    def wwait(self) -> bool:
        return _U32.unpack_from(self.view, _OFF_WWAIT)[0] != 0

    def set_wwait(self, value: int) -> None:
        _U32.pack_into(self.view, _OFF_WWAIT, value)

    def ring_data_bell(self) -> None:
        """Wake a parked reader (writer side, after publishing tail)."""
        self.set_rwait(0)
        try:
            os.write(self.data_bell, b"\x01")
        except (BlockingIOError, OSError):
            pass  # bell already full of wakes, or torn down — either wakes

    def ring_space_bell(self) -> None:
        """Wake a parked writer (reader side, after publishing head)."""
        self.set_wwait(0)
        try:
            os.write(self.space_bell, b"\x01")
        except (BlockingIOError, OSError):
            pass

    # -- byte-wise wrapped data access --------------------------------------

    def write_at(self, stream_pos: int, data) -> None:
        cap = self.capacity
        pos = stream_pos % cap
        n = len(data)
        end = pos + n
        view = self.view
        if end <= cap:
            view[_DATA + pos : _DATA + end] = data
        else:
            first = cap - pos
            view[_DATA + pos : _DATA + cap] = data[:first]
            view[_DATA : _DATA + (n - first)] = data[first:]

    def read_at(self, stream_pos: int, n: int) -> bytes:
        cap = self.capacity
        pos = stream_pos % cap
        end = pos + n
        view = self.view
        if end <= cap:
            return bytes(view[_DATA + pos : _DATA + end])
        first = cap - pos
        return bytes(view[_DATA + pos : _DATA + cap]) + bytes(
            view[_DATA : _DATA + (n - first)]
        )


class ShmRingTransport(Transport):
    """Duplex transport over two SPSC shared-memory rings.

    ``send_ring`` is the ring this endpoint writes, ``recv_ring`` the one
    it reads.  ``owner=True`` marks the endpoint that created the files
    (it unlinks them — harmless if already unlinked).
    """

    def __init__(self, send_ring: _Ring, recv_ring: _Ring, *, owner: bool = False):
        self._send_ring = send_ring
        self._recv_ring = recv_ring
        self._owner = owner
        self._timeout: float | None = None
        self._closed = False
        # This endpoint only ever *writes* its send ring's data bell and
        # its recv ring's space bell; make those writes non-blocking so a
        # doorbell brimming with unconsumed wakes can never stall a send.
        for fd in (send_ring.data_bell, recv_ring.space_bell):
            fcntl.fcntl(fd, fcntl.F_SETFL, fcntl.fcntl(fd, fcntl.F_GETFL) | os.O_NONBLOCK)

    def set_timeout(self, timeout_s: float | None) -> None:
        """Bound blocking send/recv; exceeded → :class:`TransportTimeout`."""
        self._timeout = timeout_s

    # -- wait discipline ----------------------------------------------------

    def _deadline(self) -> float | None:
        return None if self._timeout is None else time.monotonic() + self._timeout

    @staticmethod
    def _block_on(fd: int, deadline: float | None, what: str) -> None:
        """Park on a doorbell until rung (or the deadline passes).

        The flag/re-check handshake formally wants a StoreLoad fence
        CPython cannot issue, but the interpreter dilates every
        store→load pair by hundreds of nanoseconds — orders of magnitude
        past any store buffer's drain time — so the SB-litmus window is
        unreachable in practice and the undeadlined park is a single
        blocking ``read(2)``: the same direct kernel handoff a blocking
        socket gets, with one fewer syscall than a select round."""
        if deadline is None:
            os.read(fd, 64)  # swallow a burst of stale wakes in one go
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TransportTimeout(f"{what} timed out")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            os.read(fd, 64)
        else:
            raise TransportTimeout(f"{what} timed out")

    # -- send ----------------------------------------------------------------

    def _reserve(self, total: int, deadline) -> int:
        """Wait until ``total`` bytes are free; return the current tail."""
        ring = self._send_ring
        if total > ring.capacity:
            raise TransportError(
                f"frame too large for shm ring: {total} > {ring.capacity}"
            )
        spins = 0
        while True:
            if self._closed:
                raise TransportError("transport is closed")
            tail, head, rclosed = _COUNTERS.unpack_from(ring.view, _OFF_TAIL)
            if rclosed:
                raise PeerClosedError("send failed: peer closed its ring")
            if ring.capacity - (tail - head) >= total:
                return tail
            spins += 1
            if spins <= SPIN_LIMIT:
                os.sched_yield()
                continue
            # Park: publish intent, re-check, then block on the bell.
            ring.set_wwait(1)
            try:
                if (
                    ring.capacity - (ring.tail - ring.head) >= total
                    or ring.rclosed
                ):
                    continue
                self._block_on(ring.space_bell, deadline, "shm send")
            finally:
                ring.set_wwait(0)

    def send(self, payload) -> None:
        # Not ``send_many([payload])``: the run's list, walk and fitting-prefix
        # scan cost the ack path ~0.2 µs a frame (EXPERIMENTS.md "PR 21").
        n = len(payload)
        if n > MAX_FRAME:
            raise TransportError(f"frame too large: {n}")
        ring = self._send_ring
        tail = self._reserve(4 + n, self._deadline())
        view = ring.view
        cap = ring.capacity
        pos = tail % cap
        if pos + 4 + n <= cap:
            # Common case: prefix and payload both land without wrapping.
            _U32.pack_into(view, _DATA + pos, n)
            view[_DATA + pos + 4 : _DATA + pos + 4 + n] = payload
        else:
            ring.write_at(tail, _U32.pack(n))
            ring.write_at(tail + 4, payload)
        new_tail = tail + 4 + n
        _U64.pack_into(view, _OFF_TAIL, new_tail)  # publish
        if _U32.unpack_from(view, _OFF_RWAIT)[0]:
            ring.ring_data_bell()

    def send_segments(self, segments) -> None:
        """One logical message from many buffers — written directly into
        the ring, published with a single tail store."""
        n = sum(len(s) for s in segments)
        if n > MAX_FRAME:
            raise TransportError(f"frame too large: {n}")
        ring = self._send_ring
        tail = self._reserve(4 + n, self._deadline())
        ring.write_at(tail, _U32.pack(n))
        pos = tail + 4
        for seg in segments:
            ring.write_at(pos, seg)
            pos += len(seg)
        ring.tail = pos  # publish: bytes are in place
        if ring.rwait:
            ring.ring_data_bell()

    def send_many(self, frames) -> None:
        """Many frames in one burst.  Contiguous runs that fit the free
        space publish under a single tail store; when the ring fills the
        run so far is published and the writer waits for the reader."""
        deadline = self._deadline()
        ring = self._send_ring
        view = ring.view
        cap = ring.capacity
        i, count = 0, len(frames)
        while i < count:
            n = len(frames[i])
            if n > MAX_FRAME:
                raise TransportError(f"frame too large: {n}")
            tail = self._reserve(4 + n, deadline)
            limit = ring.head + cap  # where the free space ends
            while i < count:
                payload = frames[i]
                if type(payload) is SegmentedFrame:
                    payload = bytes(payload)  # the ring stores one buffer a frame
                n = len(payload)
                end = tail + 4 + n
                if end > limit or n > MAX_FRAME:
                    break
                pos = tail % cap
                if pos + 4 + n <= cap:
                    _U32.pack_into(view, _DATA + pos, n)
                    view[_DATA + pos + 4 : _DATA + pos + 4 + n] = payload
                else:
                    ring.write_at(tail, _U32.pack(n))
                    ring.write_at(tail + 4, payload)
                tail = end
                i += 1
            _U64.pack_into(view, _OFF_TAIL, tail)  # one publish for the whole run
            if _U32.unpack_from(view, _OFF_RWAIT)[0]:
                ring.ring_data_bell()

    # -- receive -------------------------------------------------------------

    def pending(self) -> int:
        """Unread bytes in the receive ring (0 once closed): the writer
        publishes ``tail`` past whole frames only, so non-zero is a frame."""
        if self._closed:
            return 0
        tail, head, _rclosed = _COUNTERS.unpack_from(self._recv_ring.view, _OFF_TAIL)
        return tail - head

    def _take_frames(self, limit: int = 0) -> list[bytes]:
        """Pop every complete frame in the ring now (at most ``limit``
        when positive) under one head publish."""
        ring = self._recv_ring
        view = ring.view
        cap = ring.capacity
        tail, head, _rclosed = _COUNTERS.unpack_from(view, _OFF_TAIL)
        out: list[bytes] = []
        while tail - head >= 4:
            pos = head % cap
            if pos + 4 <= cap:
                (n,) = _U32.unpack_from(view, _DATA + pos)
            else:
                (n,) = _U32.unpack(ring.read_at(head, 4))
            if n > MAX_FRAME:
                if out:
                    break  # hand over what precedes it; the next call raises
                raise TransportError(f"corrupt shm ring: frame length {n}")
            if tail - head < 4 + n:
                break  # writer mid-publish cannot happen; defensive
            start = (head + 4) % cap
            if start + n <= cap:
                out.append(bytes(view[_DATA + start : _DATA + start + n]))
            else:
                out.append(ring.read_at(head + 4, n))
            head += 4 + n
            if len(out) == limit:
                break
        if out:
            _U64.pack_into(view, _OFF_HEAD, head)  # publish
            if _U32.unpack_from(view, _OFF_WWAIT)[0]:
                ring.ring_space_bell()
        return out

    def recv(self) -> bytes:
        return self.recv_many(1)[0]

    def recv_many(self, max_frames: int = 0) -> list[bytes]:
        """Block for one frame and take it plus every further complete
        frame already in the ring — the same burst semantics as the
        socket framer."""
        deadline = self._deadline()
        ring = self._recv_ring
        spins = 0
        while True:
            if self._closed:
                raise TransportError("transport is closed")
            frames = self._take_frames(max_frames)
            if frames:
                return frames
            if ring.wclosed and self.pending() == 0:
                raise PeerClosedError("recv failed: peer closed, ring drained")
            spins += 1
            if spins <= SPIN_LIMIT:
                os.sched_yield()
                continue
            # Park: publish intent, re-check, then block on the bell.
            ring.set_rwait(1)
            try:
                if self.pending() or ring.wclosed:
                    continue
                self._block_on(ring.data_bell, deadline, "shm recv")
            finally:
                ring.set_rwait(0)

    def poll_recv(self) -> bytes | None:
        """A complete frame if one is in the ring *now*, else None."""
        if self._closed:
            raise TransportError("transport is closed")
        frames = self._take_frames(1)
        if frames:
            return frames[0]
        if self._recv_ring.wclosed and self.pending() == 0:
            raise PeerClosedError("recv failed: peer closed, ring drained")
        return None

    # -- backpressure introspection ------------------------------------------

    @property
    def write_queue_depth(self) -> int:
        """Bytes written but not yet read by the peer, length prefixes
        included (as a socket's queue counts them): the send ring's
        ``tail − head``, 0 once closed."""
        if self._closed:
            return 0
        tail, head, _rclosed = _COUNTERS.unpack_from(self._send_ring.view, _OFF_TAIL)
        return tail - head

    def drain(self) -> None:
        """Block until the peer has read every written frame."""
        deadline = self._deadline()
        ring = self._send_ring
        spins = 0
        while ring.tail - ring.head:
            if ring.rclosed:
                raise PeerClosedError("drain failed: peer closed its ring")
            spins += 1
            if spins <= SPIN_LIMIT:
                os.sched_yield()
                continue
            ring.set_wwait(1)
            try:
                if not ring.tail - ring.head or ring.rclosed:
                    continue
                self._block_on(ring.space_bell, deadline, "shm drain")
            finally:
                ring.set_wwait(0)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._send_ring.set_wclosed()
            self._recv_ring.set_rclosed()
            # Ring both bells the peer might be parked on: it wakes, sees
            # the closed flag, and fails fast instead of sleeping forever.
            self._send_ring.ring_data_bell()
            self._recv_ring.ring_space_bell()
        except (TypeError, ValueError):
            pass  # rings already torn down
        for ring in (self._send_ring, self._recv_ring):
            ring.close()
            if self._owner:
                ring.unlink()


def _ring_paths(directory: str) -> tuple[str, str]:
    stem = os.path.join(directory, f"pbio-ring-{uuid.uuid4().hex}")
    return stem + ".s2c", stem + ".c2s"


def create_endpoint(
    capacity: int = DEFAULT_CAPACITY, *, directory: str | None = None
) -> tuple[ShmRingTransport, dict]:
    """Create the server side of a ring pair plus the attach offer.

    Returns ``(transport, offer)``; pass ``offer`` (a JSON-able dict of
    the two ring paths and the handshake nonce) to :func:`attach_endpoint`
    in the peer process.
    """
    directory = directory or default_shm_dir()
    nonce = os.urandom(16)
    s2c_path, c2s_path = _ring_paths(directory)
    s2c = _Ring.create(s2c_path, capacity, nonce)
    try:
        c2s = _Ring.create(c2s_path, capacity, nonce)
    except Exception:
        s2c.close()
        s2c.unlink()
        raise
    offer = {"s2c": s2c_path, "c2s": c2s_path, "nonce": nonce.hex()}
    return ShmRingTransport(s2c, c2s, owner=True), offer


def attach_endpoint(offer: dict) -> ShmRingTransport:
    """Attach the client side of a ring pair from an offer dict.

    Raises :class:`TransportError` when the files do not exist here
    (different host), are malformed, or fail the nonce check.
    """
    try:
        nonce = bytes.fromhex(offer["nonce"])
        s2c_path, c2s_path = offer["s2c"], offer["c2s"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed shm offer: {exc}") from exc
    try:
        s2c = _Ring.attach(s2c_path, nonce)
    except OSError as exc:
        raise TransportError(f"cannot attach shm ring: {exc}") from exc
    try:
        c2s = _Ring.attach(c2s_path, nonce)
    except OSError as exc:
        s2c.close()
        raise TransportError(f"cannot attach shm ring: {exc}") from exc
    except Exception:
        s2c.close()
        raise
    return ShmRingTransport(c2s, s2c)


def shm_pair(
    capacity: int = DEFAULT_CAPACITY, *, directory: str | None = None
) -> tuple[ShmRingTransport, ShmRingTransport]:
    """A connected in-process pair (tests, benchmarks, threads).

    The backing files are unlinked immediately — the mappings keep the
    memory alive, nothing is left behind on any exit path.
    """
    server, offer = create_endpoint(capacity, directory=directory)
    client = attach_endpoint(offer)
    server._send_ring.unlink()
    server._recv_ring.unlink()
    server._owner = False  # already unlinked
    return server, client


def auto_connect(
    transport: Transport,
    role: str,
    *,
    capacity: int = DEFAULT_CAPACITY,
    directory: str | None = None,
    timeout_s: float = 5.0,
) -> Transport:
    """Upgrade ``transport`` to shared memory when the peer is local.

    Run on both ends of an established connection with complementary
    roles (``"server"`` / ``"client"``).  The server creates a ring pair
    and sends the attach offer; the client tries to map the files —
    success *is* the same-host proof (and the nonce in the mapping proves
    it found the right files, not a stale path) — and replies.  On
    success both sides return a :class:`ShmRingTransport` and the
    original transport stays open but idle (callers may close it or keep
    it as a control channel).  On any failure — different hosts, no
    shm space, malformed reply — both sides fall back to the original
    transport, which has carried only negotiation frames.
    """
    if role not in ("server", "client"):
        raise ValueError(f"role must be 'server' or 'client', not {role!r}")
    if role == "server":
        try:
            shm, offer = create_endpoint(capacity, directory=directory)
        except OSError:
            transport.send(_NO_OFFER)
            return transport
        transport.send(_OFFER_TAG + json.dumps(offer).encode())
        try:
            reply = transport.recv()
        except TransportError:
            shm.close()
            raise
        if reply == _REPLY_OK:
            # Client is attached: unlink now so no files outlive the
            # mappings regardless of how either process exits.
            shm._send_ring.unlink()
            shm._recv_ring.unlink()
            shm._owner = False
            return shm
        shm.close()
        return transport
    # client
    frame = transport.recv()
    if not frame.startswith(_OFFER_TAG):
        return transport  # _NO_OFFER, or a peer that does not negotiate
    try:
        offer = json.loads(frame[len(_OFFER_TAG):].decode())
        shm = attach_endpoint(offer)
    except (TransportError, ValueError):
        transport.send(_REPLY_NO)
        return transport
    transport.send(_REPLY_OK)
    return shm
