"""Async event-loop serving core: one process, thousands of connections.

Every serve loop that predates this module was blocking and
one-connection-at-a-time or thread-per-connection.  This module is the
refactor that closes that gap: a readiness-driven transport plus a
single-process acceptor that multiplexes every connection on one
``asyncio`` event loop, with pluggable per-connection handlers adapting
the existing protocol engines (format server, RPC, relay, event
channel) unchanged.

Design rules (docs/async.md):

* **Sends are synchronous enqueues.**  :meth:`AsyncSocketTransport.send`
  never awaits: it appends the length prefix and payload to a *bounded*
  per-connection write queue drained by one writer task with vectored
  ``sendmsg``.  Every existing send-side protocol layer — the
  announcement :class:`~repro.core.negotiation.Announcer` and
  :class:`~repro.core.negotiation.InboundNegotiator` back-channel, the
  :class:`~repro.net.relay.Relay` fan-out, the
  :class:`~repro.net.faults.FaultInjectingTransport` chaos wrapper —
  therefore composes with async transports without modification.  Sends
  are additionally legal from *any* thread (a blocking publisher fanning
  an :class:`~repro.net.channel.EventChannel` to wire taps): the queue
  is lock-guarded and foreign threads wake the loop via
  ``call_soon_threadsafe``.
* **Backpressure is explicit.**  A full queue raises
  :class:`~repro.net.transport.WriteQueueFull` (a ``TransportError``, so
  the relay's quarantine machinery evicts slow consumers); handlers call
  ``await transport.drain()`` between bursts, which pauses their reads
  until the peer has absorbed what it was sent.
  :attr:`AsyncSocketTransport.write_queue_depth` is the live gauge.
* **Receives reuse the PR 5 framer.**  The buffered
  :class:`~repro.net.transport.FrameBuffer` is shared with
  :class:`~repro.net.sockets.SocketTransport`; here it is fed by a
  persistent reader pump — the fd stays registered with the loop, the
  readiness callback reads and parses inline, and a handler's ``recv``
  wakes only when complete frames are ready.  Read-ahead is bounded
  (``max_read_buffer``); past the bound the pump unregisters and TCP
  flow control pushes back on the peer.
* **The synchronous API is untouched.**  ``SocketTransport``, the
  blocking ``serve_one`` drivers and every existing test and bench keep
  working; :meth:`AsyncServer.run` is a plain blocking call (it *is* the
  event loop), so a sync ``main`` drives the async core with one line.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import socket
import threading
from collections import deque
from typing import Awaitable, Callable

from repro.core.errors import PbioError
from repro.core.negotiation import send_goodbye
from repro.core.runtime import Metrics

from .sockets import _IOV_MAX
from .transport import (
    MAX_FRAME,
    FrameBuffer,
    PeerClosedError,
    SegmentedFrame,
    Transport,
    TransportError,
    TransportTimeout,
    WriteQueueFull,
    _LEN,
)

#: Default per-connection write-queue bound, in queued bytes (frames plus
#: their length prefixes).  1 MiB holds ~1000 records of the paper's 1 KB
#: workload — a slow consumer is visible long before memory is.
DEFAULT_MAX_WRITE_QUEUE = 1 << 20

#: Default per-connection read-ahead bound, in parsed-frame bytes.  The
#: reader pump keeps the fd registered and parses frames in the loop
#: callback even while the handler is busy; past this bound it
#: unregisters until the handler consumes the backlog (kernel-side TCP
#: flow control then pushes back on the peer).
DEFAULT_MAX_READ_BUFFER = 1 << 20

#: Consecutive protocol errors on one connection before a handler stops
#: humouring it (a peer speaking garbage forever is an attack, not a
#: client).
MAX_CONSECUTIVE_PROTOCOL_ERRORS = 64

#: The per-connection handler contract: a coroutine taking the accepted
#: transport.  Returning (or raising) ends the connection.
ConnectionHandler = Callable[["AsyncSocketTransport"], Awaitable[None]]


def _pin(payload) -> bytes:
    """Queue an immutable copy: the caller may reuse its buffer."""
    return payload if type(payload) is bytes else bytes(payload)


class AsyncSocketTransport(Transport):
    """Length-prefix framed messages over a non-blocking TCP socket.

    The async counterpart of :class:`~repro.net.sockets.SocketTransport`:
    same framing, same buffered receive discipline (one shared
    :class:`FrameBuffer`), same vectored send path — but reads await
    readiness on the event loop and writes go through a bounded queue
    drained by a writer task, so thousands of these coexist in one
    process.

    Must be constructed inside a running event loop (the
    :class:`AsyncServer` accept loop does this for every connection).
    ``send``/``send_many``/``send_segments`` are synchronous enqueues;
    ``recv``/``recv_many``/``drain`` are coroutines.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_write_queue: int = DEFAULT_MAX_WRITE_QUEUE,
        max_read_buffer: int = DEFAULT_MAX_READ_BUFFER,
        metrics: Metrics | None = None,
    ):
        self._sock = sock
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # not TCP (e.g. a socketpair in tests)
            pass
        self._loop = asyncio.get_running_loop()
        self.max_write_queue = max_write_queue
        self.max_read_buffer = max_read_buffer
        self.metrics = metrics if metrics is not None else Metrics()
        self._framer = FrameBuffer()
        self._frames: deque[bytes] = deque()  # parsed, not yet delivered
        self._rbuffered = 0  # bytes across self._frames
        self._rpending: asyncio.Future | None = None  # a recv() awaiting
        self._reading = False  # fd registered with the loop
        self._reof = False
        self._rexc: TransportError | None = None
        self._wbufs: list[bytes | memoryview] = []
        self._wbytes = 0
        self._wlock = threading.Lock()  # queue accounting: any-thread sends
        self._wdrained = asyncio.Event()
        self._wdrained.set()
        self._werror: BaseException | None = None
        self._writer_task: asyncio.Task | None = None
        self._closing = False
        self._timeout_s: float | None = None

    # -- bounded-queue send path --------------------------------------------

    @property
    def write_queue_depth(self) -> int:
        """Bytes enqueued but not yet accepted by the kernel."""
        return self._wbytes

    def _enqueue(self, bufs: list, nbytes: int) -> None:
        """Queue ``bufs`` (totalling ``nbytes``), or raise
        :class:`WriteQueueFull` when the peer is not draining."""
        if self._closing:
            raise TransportError("send on closed transport")
        if self._werror is not None:
            raise TransportError(
                f"send failed: {self._werror}"
            ) from self._werror
        with self._wlock:
            # A single burst larger than the bound is allowed on an *empty*
            # queue (it could never be sent otherwise); anything else over
            # the bound is a slow consumer and must surface, not accumulate.
            if self._wbytes and self._wbytes + nbytes > self.max_write_queue:
                full = True
            else:
                full = False
                self._wbufs.extend(bufs)
                self._wbytes += nbytes
        if full:
            self.metrics.inc("aio.queue_full")
            raise WriteQueueFull(
                f"write queue full: {self._wbytes} queued + {nbytes} new "
                f"> {self.max_write_queue} bytes; peer is not draining"
            )
        # Sends are legal from any thread (a blocking publisher fanning
        # to wire taps); only the loop's own thread may touch asyncio
        # state directly, so foreign threads defer the wake-up.
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            self._wake_writer()
        else:
            try:
                self._loop.call_soon_threadsafe(self._wake_writer)
            except RuntimeError as exc:  # loop already closed under us
                raise TransportError("send failed: event loop closed") from exc

    def _wake_writer(self) -> None:
        """Loop-thread only: get the queued bytes moving.

        The fast path flushes inline — one ``sendmsg`` right here, no
        task wakeup, no event churn — because on an idle link the kernel
        buffer almost always has room.  Only what the kernel will not
        take right now is left to a writer task, which drains on
        writability and exits when the queue empties.
        """
        if self._closing or self._werror is not None:
            return
        if self._writer_task is not None:
            return  # an active writer picks up the new bufs on its next pass
        self._flush_inline()
        if self._wbufs and self._werror is None:
            self._wdrained.clear()
            self._writer_task = self._loop.create_task(self._writer())

    def _flush_inline(self) -> None:
        sock = self._sock
        while True:
            with self._wlock:
                window = self._wbufs[:_IOV_MAX]
            if not window:
                return
            try:
                sent = sock.sendmsg(window)
            except (BlockingIOError, InterruptedError):
                return  # kernel buffer full: hand off to the writer task
            except OSError as exc:
                self._fail(exc)
                return
            self._consume(sent, window)

    def _consume(self, sent: int, window: list) -> None:
        """Account ``sent`` bytes against the queue head (partial-send
        resume via memoryview re-slicing, as in ``SocketTransport``)."""
        with self._wlock:
            self._wbytes -= sent
            idx = 0
            # Zero-length bufs (an empty frame's payload) count as sent
            # even when ``sent`` hits 0 — left behind, they would wedge
            # the queue as a forever-0-byte ``sendmsg`` window.
            while sent or (idx < len(window) and len(window[idx]) == 0):
                buf = window[idx]
                if sent >= len(buf):
                    sent -= len(buf)
                    idx += 1
                else:
                    self._wbufs[idx] = memoryview(buf)[sent:]
                    sent = 0
            del self._wbufs[:idx]

    def send(self, payload) -> None:
        """Queue one framed message (synchronous, never blocks)."""
        n = len(payload)
        if n > MAX_FRAME:
            raise TransportError(f"frame too large: {n}")
        self._enqueue([_LEN.pack(n), _pin(payload)], 4 + n)

    def send_many(self, frames) -> None:
        """Queue many framed messages as one all-or-nothing burst."""
        bufs: list[bytes] = []
        total = 0
        for payload in frames:
            n = len(payload)
            if n > MAX_FRAME:
                raise TransportError(f"frame too large: {n}")
            bufs.append(_LEN.pack(n))
            if type(payload) is SegmentedFrame:
                bufs.extend(map(_pin, payload.segments))
            else:
                bufs.append(_pin(payload))
            total += 4 + n
        if bufs:
            self._enqueue(bufs, total)

    def send_segments(self, segments) -> None:
        """Queue one logical message from many buffers, zero-copy: the
        length prefix and each segment stay separate iovecs."""
        bufs = [_pin(s) for s in segments]
        total = sum(len(s) for s in bufs)
        if total > MAX_FRAME:
            raise TransportError(f"frame too large: {total}")
        self._enqueue([_LEN.pack(total), *bufs], 4 + total)

    async def drain(self) -> None:
        """Wait until the write queue is empty (explicit backpressure:
        a handler awaiting this has paused its reads)."""
        while self._wbytes and self._werror is None and not self._closing:
            await self._wdrained.wait()
        if self._werror is not None:
            raise TransportError(f"send failed: {self._werror}") from self._werror

    async def _writer(self) -> None:
        """The drain task, alive only while the kernel buffer pushes
        back: vectored ``sendmsg`` on writability, resuming mid-buffer
        on partial sends (same discipline as ``SocketTransport._sendv``),
        exiting the moment the queue empties.  New bufs landing while it
        runs are picked up on its next snapshot; once it has exited,
        ``_wake_writer`` starts over with an inline flush."""
        sock, loop = self._sock, self._loop
        try:
            while True:
                with self._wlock:
                    window = self._wbufs[:_IOV_MAX]
                if not window:
                    self._wdrained.set()
                    return
                try:
                    sent = sock.sendmsg(window)
                except (BlockingIOError, InterruptedError):
                    await _writable(loop, sock)
                    continue
                except OSError as exc:
                    self._fail(exc)
                    return
                self._consume(sent, window)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never die silently: fail the transport
            self._fail(exc)
        finally:
            # No await between the empty snapshot and this line, so a
            # loop-thread _wake_writer can never observe a stale task.
            self._writer_task = None

    def _fail(self, exc: BaseException) -> None:
        self._werror = exc
        self.metrics.inc("aio.send_errors")
        with self._wlock:
            self._wbufs.clear()
            self._wbytes = 0
        self._wdrained.set()  # wake drainers so they observe the error

    # -- persistent reader pump ---------------------------------------------
    #
    # The fd stays registered with the loop while the connection is
    # live; the readiness callback does the kernel read *and* the frame
    # parse inline (no task switch), queues complete frames, and wakes
    # an awaiting recv() only when there is something to deliver.  This
    # is the asyncio protocol discipline — one epoll registration per
    # connection instead of add/remove churn and a fresh future per
    # read.  Read-ahead is bounded by ``max_read_buffer``: past it the
    # pump unregisters and TCP flow control pushes back on the peer.

    def set_timeout(self, timeout_s: float | None) -> None:
        """Bound each ``recv``/``recv_many``; exceeded →
        :class:`TransportTimeout` (sends are queued, never timed)."""
        self._timeout_s = timeout_s

    def _resume_reading(self) -> None:
        if not self._reading and not self._closing and not self._reof \
                and self._rexc is None:
            self._loop.add_reader(self._sock.fileno(), self._on_readable)
            self._reading = True

    def _pause_reading(self) -> None:
        if self._reading:
            self._loop.remove_reader(self._sock.fileno())
            self._reading = False

    def _on_readable(self) -> None:
        framer, sock, frames = self._framer, self._sock, self._frames
        try:
            while True:
                view = framer.writable(framer.needed())
                try:
                    got = sock.recv_into(view)
                except (BlockingIOError, InterruptedError):
                    break
                if not got:
                    self._reof = True
                    self._pause_reading()
                    break
                short = got < len(view)
                framer.advance(got)
                while True:
                    data = framer.next_frame()
                    if data is None:
                        break
                    frames.append(data)
                    self._rbuffered += len(data)
                if short:
                    break  # kernel drained: skip the would-block syscall
        except TransportError as exc:  # framer rejected hostile input
            self._rexc = exc
            self._pause_reading()
        except OSError as exc:
            self._rexc = TransportError(f"recv failed: {exc}")
            self._pause_reading()
        if self._rbuffered >= self.max_read_buffer:
            self._pause_reading()  # handler is behind: stop reading ahead
        if frames or self._reof or self._rexc is not None:
            fut = self._rpending
            if fut is not None and not fut.done():
                fut.set_result(None)

    def _pop_frame(self) -> bytes:
        data = self._frames.popleft()
        self._rbuffered -= len(data)
        return data

    async def _next_frame(self) -> bytes:
        while True:
            if self._frames:
                data = self._pop_frame()
                if not self._reading and self._rbuffered <= self.max_read_buffer // 2:
                    self._resume_reading()
                return data
            if self._rexc is not None:
                raise self._rexc
            if self._reof:
                if self._framer.pending:
                    raise TransportError("connection closed mid-frame")
                raise PeerClosedError("peer closed the connection")
            if self._closing:
                raise TransportError("recv on closed transport")
            self._resume_reading()
            fut = self._loop.create_future()
            self._rpending = fut
            try:
                # Cancellation (a timeout) can only land here, between
                # deliveries — the parse happens in the loop callback,
                # never mid-await — so no received byte is ever lost.
                await fut
            finally:
                self._rpending = None

    async def recv(self) -> bytes:
        if self._timeout_s is None:
            return await self._next_frame()
        try:
            return await asyncio.wait_for(self._next_frame(), self._timeout_s)
        except asyncio.TimeoutError as exc:
            raise TransportTimeout(f"recv timed out after {self._timeout_s}s") from exc

    def poll_recv(self) -> bytes | None:
        """One already-parsed frame, or ``None`` — never blocks.

        Loop-thread only (like every other asyncio touchpoint): the
        health plane calls this from handlers to harvest pongs between
        awaits without committing the coroutine to a blocking ``recv``.
        """
        if self._frames:
            data = self._pop_frame()
            if not self._reading and self._rbuffered <= self.max_read_buffer // 2:
                self._resume_reading()
            return data
        if self._rexc is not None:
            raise self._rexc
        if self._reof:
            if self._framer.pending:
                raise TransportError("connection closed mid-frame")
            raise PeerClosedError("peer closed the connection")
        if self._closing:
            raise TransportError("recv on closed transport")
        self._resume_reading()
        return None

    async def recv_many(self, max_frames: int = 0) -> list[bytes]:
        """One awaited frame plus every further complete frame the pump
        has already parsed — no extra syscalls, no extra wake-ups."""
        out = [await self.recv()]
        frames = self._frames
        if frames:
            take = len(frames) if max_frames <= 0 else min(len(frames), max_frames - 1)
            if take == len(frames):  # the common case: drain in bulk
                out.extend(frames)
                frames.clear()
                self._rbuffered = 0
            else:
                for _ in range(take):
                    out.append(self._pop_frame())
        if not self._reading and self._rbuffered <= self.max_read_buffer // 2:
            self._resume_reading()
        return out

    async def recv_many_leased(self, max_frames: int = 0):
        """Owned frames and no loan: the pump has copied them already."""
        return await self.recv_many(max_frames), None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        self._pause_reading()  # unregister before the fd goes away
        if self._writer_task is not None:
            self._writer_task.cancel()
        self._wdrained.set()
        fut = self._rpending
        if fut is not None and not fut.done():
            fut.set_result(None)  # the waiter observes _closing and raises
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

def _writable(loop: asyncio.AbstractEventLoop, sock: socket.socket):
    """A future resolving when ``sock`` is writable again."""
    fut = loop.create_future()
    fd = sock.fileno()

    def on_writable() -> None:
        loop.remove_writer(fd)
        if not fut.done():
            fut.set_result(None)

    loop.add_writer(fd, on_writable)
    fut.add_done_callback(lambda _f: loop.remove_writer(fd))
    return fut


async def drain(transport) -> None:
    """``transport.drain()`` for any transport, awaited when it is a
    coroutine (:class:`AsyncSocketTransport`) and simply called when it
    is synchronous (the shm ring, whose drain blocks as its sends do; the
    base class's no-op on transports without a write queue)."""
    pending = transport.drain()
    if inspect.isawaitable(pending):
        await pending


class AsyncServer:
    """A single-process acceptor multiplexing every connection on one
    event loop.

    ``handler`` is an async callable invoked with one
    :class:`AsyncSocketTransport` per accepted connection; the connection
    closes when it returns (after a final :meth:`~AsyncSocketTransport.drain`)
    or raises.  ``max_clients`` sheds connections beyond the bound at
    accept time (closed immediately, counted as ``aio.shed``);
    ``once`` serves exactly one connection then stops (CI smoke loops).

    Usage — fully async::

        server = AsyncServer(echo_handler())
        async with server:               # binds, serves in background
            ...

    or from synchronous code (the thin-wrapper guarantee)::

        host, port = server.bind()       # kernel port known before the loop
        server.run()                     # blocks; server.stop() from any thread
    """

    def __init__(
        self,
        handler: ConnectionHandler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 128,
        max_clients: int | None = None,
        max_write_queue: int = DEFAULT_MAX_WRITE_QUEUE,
        once: bool = False,
        metrics: Metrics | None = None,
    ):
        if max_clients is not None and max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self._handler = handler
        self._host = host
        self._port = port
        self._backlog = backlog
        self.max_clients = max_clients
        self.max_write_queue = max_write_queue
        self._once = once
        self.metrics = metrics if metrics is not None else Metrics()
        self._listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stop_requested = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_transports: set[AsyncSocketTransport] = set()
        self._serve_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    def bind(self) -> tuple[str, int]:
        """Bind and listen (idempotent); returns ``(host, port)`` with the
        kernel-assigned port resolved — callable before any loop exists,
        so a launcher can print the port ahead of the first accept."""
        if self._listener is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((self._host, self._port))
            except OSError:
                sock.close()
                raise
            sock.listen(self._backlog)
            sock.setblocking(False)
            self._listener = sock
        return self._listener.getsockname()[:2]

    @property
    def active_connections(self) -> int:
        return len(self._conn_tasks)

    def stop(self) -> None:
        """Request a prompt exit of :meth:`serve` (thread-safe): the
        accept loop wakes, open connections are cancelled and closed."""
        self._stop_requested = True
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(event.set)

    def run(self) -> None:
        """Synchronous entry point: drive the event loop to completion."""
        asyncio.run(self.serve())

    async def __aenter__(self) -> "AsyncServer":
        self.bind()
        self._serve_task = asyncio.get_running_loop().create_task(self.serve())
        return self

    async def __aexit__(self, *exc) -> None:
        self.stop()
        if self._serve_task is not None:
            await self._serve_task

    # -- the accept loop -----------------------------------------------------

    async def serve(self) -> None:
        """Accept and serve until :meth:`stop` (or, with ``once``, until
        the first connection completes)."""
        self.bind()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stop_requested:
            self._stop_event.set()
        stop_wait = self._loop.create_task(self._stop_event.wait())
        listener = self._listener
        try:
            while not self._stop_event.is_set():
                accept = self._loop.create_task(self._loop.sock_accept(listener))
                done, _ = await asyncio.wait(
                    {accept, stop_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if accept not in done:
                    accept.cancel()
                    with contextlib.suppress(asyncio.CancelledError, OSError):
                        await accept
                    break
                try:
                    conn, _peer = accept.result()
                except OSError:
                    if self._stop_event.is_set():
                        break
                    continue
                task = self._accepted(conn)
                if self._once and task is not None:
                    await task
                    break
        finally:
            stop_wait.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await stop_wait
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            if listener is not None:
                listener.close()
                self._listener = None

    def _accepted(self, conn: socket.socket) -> asyncio.Task | None:
        self.metrics.inc("aio.accepted")
        if self.max_clients is not None and len(self._conn_tasks) >= self.max_clients:
            # Shed cleanly: the excess client sees an orderly FIN
            # (PeerClosedError on its next recv), never a hung socket.
            self.metrics.inc("aio.shed")
            conn.close()
            return None
        transport = AsyncSocketTransport(
            conn, max_write_queue=self.max_write_queue, metrics=self.metrics
        )
        task = self._loop.create_task(self._run_handler(transport))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return task

    async def _run_handler(self, transport: AsyncSocketTransport) -> None:
        self._conn_transports.add(transport)
        try:
            await self._handler(transport)
            await transport.drain()
        except (TransportError, asyncio.CancelledError):
            pass  # connection-scoped: the peer went away or we are stopping
        except Exception:
            self.metrics.inc("aio.handler_errors")
        finally:
            self._conn_transports.discard(transport)
            transport.close()

    async def drain_and_stop(self, deadline_s: float = 5.0) -> None:
        """Graceful shutdown: goodbye every peer, flush queues, then stop.

        Each live connection gets a goodbye ping (nonce 0 — "I am
        draining, re-dial elsewhere"), queued sends are given
        ``deadline_s`` to reach the kernel, and only then does the
        accept loop stop and cancel what remains.  Unlike bare
        :meth:`stop`, peers learn about the shutdown from the protocol
        rather than from a reset connection.
        """
        transports = list(self._conn_transports)
        for transport in transports:
            send_goodbye(transport)
        if transports:
            flush = asyncio.gather(
                *(drain(t) for t in transports), return_exceptions=True
            )
            try:
                await asyncio.wait_for(flush, deadline_s)
            except asyncio.TimeoutError:
                self.metrics.inc("aio.drain_timeouts")
        self.metrics.inc("aio.drained")
        self.stop()


# -- per-connection handler adapters ----------------------------------------
#
# Each adapter turns an existing synchronous protocol engine into an
# AsyncServer connection handler.  Send paths need no adaptation (sends
# are sync enqueues); only the recv points become awaits — for RPC via
# the sans-io generator RpcServer.serve_steps.


async def serve_rpc_call(rpc, transport) -> None:
    """Drive exactly one :class:`~repro.core.rpc.RpcServer` call on an
    async transport, awaiting frames where the blocking driver would
    have called ``transport.recv()``."""
    gen = rpc.serve_steps(transport)
    try:
        next(gen)
        while True:
            gen.send(await transport.recv())
    except StopIteration:
        return


def _rpc_handler(rpc, metrics, prefix: str) -> ConnectionHandler:
    async def handle(transport: AsyncSocketTransport) -> None:
        consecutive = 0
        while not rpc.stopped:
            try:
                await serve_rpc_call(rpc, transport)
                consecutive = 0
            except PbioError:
                metrics.inc(prefix + "protocol_errors")
                consecutive += 1
                if consecutive >= MAX_CONSECUTIVE_PROTOCOL_ERRORS:
                    metrics.inc(prefix + "connections_dropped")
                    return
                continue
            await transport.drain()

    return handle


def rpc_handler(rpc) -> ConnectionHandler:
    """Serve an :class:`~repro.core.rpc.RpcServer` per connection until
    the peer leaves, the server is stopped, or protocol damage exceeds
    the consecutive-error cap.

    Link failure ends the connection quietly.  Protocol damage is
    counted (``protocol_errors``) and survived, up to a cap of
    consecutive errors, after which the connection is dropped
    (``connections_dropped``) rather than parsed forever.
    """
    return _rpc_handler(rpc, rpc.metrics, "")


def fmtserv_handler(server) -> ConnectionHandler:
    """Serve a :class:`~repro.fmtserv.FormatServer` per connection:
    :func:`rpc_handler`'s loop over its RPC engine, counting
    ``fmtserv.protocol_errors`` / ``fmtserv.connections_dropped`` on the
    format server's metrics.  (A format server outage is never fatal to
    the data plane: clients fall back to inline announcements.)"""
    return _rpc_handler(server._rpc, server.metrics, "fmtserv.")


def relay_handler(relay, *, max_frames: int = 0) -> ConnectionHandler:
    """Feed a :class:`~repro.net.relay.Relay` from each connection: every
    burst a peer sends is one ``forward_batch`` (announcements absorbed
    and replayed, data fanned out).

    Downstreams attached as :class:`AsyncSocketTransport` get bounded
    send queues for free: a slow downstream's queue fills,
    :class:`~repro.net.transport.WriteQueueFull` surfaces as a send
    error, and the relay's PR 2 quarantine machinery evicts it.
    """

    async def handle(transport: AsyncSocketTransport) -> None:
        while True:
            relay.forward_batch(await transport.recv_many(max_frames))

    return handle


def channel_handler(channel) -> ConnectionHandler:
    """Serve an :class:`~repro.net.channel.EventChannel` over the
    network: each connection becomes a wire-level subscriber (missed
    announcements replayed on join) *and* an ingress publisher — frames
    the peer sends are published into the channel (minus itself).

    Durable-delivery ack frames need no special handling here: a remote
    subscriber writes its ``MSG_ACK`` frames onto the same connection it
    receives data on (the back-channel), they arrive through
    ``recv_many`` like any ingress frame, and :meth:`EventChannel.ingest_many`
    routes them to the channel's registered ack listeners (each
    :class:`~repro.net.durable.DurablePublisher`) instead of the
    subscribers."""

    async def handle(transport: AsyncSocketTransport) -> None:
        tap = channel.attach_wire(transport.send)
        try:
            while True:
                channel.ingest_many(await transport.recv_many(), exclude=tap)
                await transport.drain()
        finally:
            channel.detach_wire(tap)

    return handle


def echo_handler(fn: Callable[[bytes], bytes] | None = None) -> ConnectionHandler:
    """Apply ``fn`` (default: identity) to each burst and send it back —
    the peer side of the paper's round-trip experiments (receive,
    transform, reply), served under :class:`AsyncServer`."""

    async def handle(transport: AsyncSocketTransport) -> None:
        if fn is None:  # pure echo: no per-record call, no copy
            while True:
                transport.send_many(await transport.recv_many())
                await transport.drain()
        while True:
            frames = await transport.recv_many()
            transport.send_many([fn(f) for f in frames])
            await transport.drain()

    return handle
