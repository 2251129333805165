"""RPC over PBIO: request/reply with NDR-marshalled arguments.

Section 4.3 frames receiver-side conversion as "another form of the
'marshaling problem' that occurs widely in RPC implementations", and
claims DCG conversions match the efficiency of "the compile-time
generated stub routines used by the fastest systems" (the USC reference)
while staying flexible.  This module makes that comparison concrete: the
same interface/servant shape as :mod:`repro.wire.iiop.orb`, but the
arguments travel as PBIO messages — sender-native bytes plus one-time
meta — so:

* a client and server on the same architecture exchange calls with zero
  marshalling on either side;
* heterogeneous pairs pay one DCG conversion per direction;
* interfaces can *evolve*: a client sending requests with extra fields
  interoperates with an older server (name matching), which no IDL-stub
  system permits.

Call envelope (request and reply both): a PBIO data message whose record
is the operation's argument/result record, preceded by a tiny call
header message routing (request id, object key, operation).

Failure taxonomy (docs/robustness.md §5) — three disjoint families so
retry logic can be mechanical:

* :class:`~repro.net.transport.TransportError` — the *link* failed.
  Retryable: with a :class:`~repro.net.faults.RetryPolicy` the client
  retransmits under the **same request id**, and the server's dedup
  window guarantees the servant still executes at most once.
* :class:`RpcFault` (under :class:`RpcError`) — the *application*
  faulted (no such object/operation, servant raised).  Never retried.
* :class:`~repro.core.errors.PbioError` — the *protocol* broke
  (malformed header, undecodable body).  Fatal, never retried.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.abi import MachineDescription, RecordSchema
from repro.net.transport import Transport, TransportError

from . import encoder as enc
from .context import FormatHandle, IOContext
from .errors import MessageError, PbioError
from .negotiation import Announcer, LinkTable, send_goodbye
from .runtime import ConverterCache, Metrics
from .safety import DEFAULT_LIMITS, DecodeLimits

if TYPE_CHECKING:  # import would cycle through repro.net at runtime
    from repro.net.faults import RetryPolicy

_CALL = struct.Struct(">IB")  # request id, flags (bit0: is-reply, bit1: fault)
_FAULT_FLAG = 0x02
_REPLY_FLAG = 0x01


class RpcError(RuntimeError):
    """Base of RPC-layer failures (deliberately *not* a PbioError:
    application faults and deadline misses are not protocol damage)."""


class RpcFault(RpcError):
    """Raised client-side when the server reports an application fault."""


class RpcTimeout(RpcError):
    """A call's deadline budget expired before a reply arrived."""


@dataclass(frozen=True)
class RpcOperation:
    name: str
    request_schema: RecordSchema
    reply_schema: RecordSchema


class RpcInterface:
    """A named set of operations (PBIO's answer to an IDL interface)."""

    def __init__(self, name: str, operations: list[RpcOperation]):
        self.name = name
        self.operations = {op.name: op for op in operations}
        if len(self.operations) != len(operations):
            raise PbioError(f"interface {name}: duplicate operation names")

    def __getitem__(self, name: str) -> RpcOperation:
        try:
            return self.operations[name]
        except KeyError:
            raise PbioError(f"interface {self.name} has no operation {name!r}") from None


def _call_header(request_id: int, *, reply: bool, fault: bool, operation: str, key: bytes) -> bytes:
    flags = (_REPLY_FLAG if reply else 0) | (_FAULT_FLAG if fault else 0)
    op_b = operation.encode("utf-8")
    return (
        _CALL.pack(request_id, flags)
        + struct.pack(">H", len(op_b))
        + op_b
        + struct.pack(">H", len(key))
        + key
    )


def _parse_call_header(data: bytes) -> tuple[int, bool, bool, str, bytes]:
    try:
        request_id, flags = _CALL.unpack_from(data, 0)
        pos = _CALL.size
        (op_len,) = struct.unpack_from(">H", data, pos)
        pos += 2
        if pos + op_len > len(data):
            raise MessageError(
                f"call header truncated: operation name needs {op_len} bytes, "
                f"have {len(data) - pos}"
            )
        operation = bytes(data[pos : pos + op_len]).decode("utf-8")
        pos += op_len
        (key_len,) = struct.unpack_from(">H", data, pos)
        pos += 2
        if pos + key_len > len(data):
            raise MessageError(
                f"call header truncated: object key needs {key_len} bytes, "
                f"have {len(data) - pos}"
            )
        key = bytes(data[pos : pos + key_len])
        if pos + key_len != len(data):
            raise MessageError(
                f"{len(data) - pos - key_len} trailing byte(s) after call header"
            )
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        # A frame that is not a call header at all (e.g. a record body
        # surfacing where a header belongs after mid-reply frame loss):
        # protocol damage, reported as such rather than a struct leak.
        raise MessageError(f"malformed call header: {exc}") from exc
    return request_id, bool(flags & _REPLY_FLAG), bool(flags & _FAULT_FLAG), operation, key


class RpcClient:
    """Client stubs: one PBIO context, per-operation format handles."""

    def __init__(
        self,
        machine: MachineDescription,
        interface: RpcInterface,
        *,
        cache: ConverterCache | None = None,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        format_service=None,
    ):
        self.ctx = IOContext(
            machine, cache=cache, limits=limits, format_service=format_service
        )
        self.interface = interface
        self.metrics = Metrics()
        self._handles: dict[str, FormatHandle] = {}
        self._links = LinkTable(self.ctx)  # per link: formats announced, inbound negotiator
        self._announcer = Announcer(self.ctx, self._links)
        self._next_id = 1

    def _handle_for(self, schema: RecordSchema) -> FormatHandle:
        handle = self._handles.get(schema.name)
        if handle is None:
            handle = self.ctx.register_format(schema)
            self._handles[schema.name] = handle
            # Expect replies of the operation's reply type.
        return handle

    def invoke(
        self,
        transport: Transport,
        object_key: bytes,
        operation: str,
        request: dict,
        *,
        retry: "RetryPolicy | None" = None,
        deadline_s: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> dict:
        """Perform one call, optionally with a deadline and retransmission.

        ``deadline_s`` bounds the whole call (all attempts and backoff);
        on expiry :class:`RpcTimeout` is raised.  ``retry`` (a
        :class:`~repro.net.faults.RetryPolicy`) retransmits after a
        :class:`TransportError` under the *same* request id — safe for
        any servant because the server's dedup window replays the cached
        reply instead of re-executing.  Application faults and protocol
        errors are never retried.
        """
        op = self.interface[operation]
        handle = self._handle_for(op.request_schema)
        self.ctx.expect(op.reply_schema)
        request_id = self._next_id
        self._next_id += 1
        self.metrics.inc("calls")
        start = clock()

        def attempt() -> dict:
            if deadline_s is not None:
                elapsed = clock() - start
                if elapsed >= deadline_s:
                    raise RpcTimeout(
                        f"call {operation!r} (request {request_id}) exceeded "
                        f"deadline of {deadline_s}s"
                    )
                transport.set_timeout(deadline_s - elapsed)
            self._transmit(transport, handle, request_id, operation, object_key, request)
            return self._await_reply(transport, request_id)

        if retry is None:
            try:
                return attempt()
            except TransportError:
                self.metrics.inc("transport_errors")
                raise

        def note_retry(attempt_no: int, exc: BaseException, backoff: float) -> None:
            self.metrics.inc("transport_errors")
            self.metrics.inc("retries")

        return retry.run(
            attempt,
            retry_on=(TransportError,),
            on_retry=note_retry,
            sleep=sleep,
            clock=clock,
            deadline_s=deadline_s if deadline_s is not None else retry.deadline_s,
        )

    # -- wire helpers --------------------------------------------------------

    def _recv_frame(self, transport: Transport) -> tuple:
        """The next caller-visible frame and its parsed header, if any:
        announcements (inline and token), meta requests and held messages
        are handled in the negotiator; what comes out is a call header,
        fault text, or a decodable data message."""
        admit = self._links.negotiator(transport).admit
        taken = admit()
        while taken is None:
            taken = admit(transport.recv())
        return taken

    def _transmit(
        self,
        transport: Transport,
        handle: FormatHandle,
        request_id: int,
        operation: str,
        object_key: bytes,
        request: dict,
    ) -> None:
        self._announcer.ensure_announced(transport, handle)
        transport.send(
            _call_header(request_id, reply=False, fault=False, operation=operation, key=object_key)
        )
        transport.send(self.ctx.encode(handle, request))

    def _await_reply(self, transport: Transport, request_id: int) -> dict:
        while True:
            reply_id, is_reply, is_fault, _op, _key = _parse_call_header(self._recv_frame(transport)[0])
            if not is_reply:
                raise PbioError("protocol error: expected a reply header")
            if reply_id != request_id:
                if reply_id < request_id:
                    # A duplicated/retransmitted reply to an *earlier*,
                    # already-completed call: drain its body and move on.
                    self.metrics.inc("stale_replies")
                    self._absorb_reply_body(transport, fault=is_fault)
                    continue
                raise PbioError(f"reply id {reply_id} for unknown request")
            body, header = self._recv_frame(transport)
            if is_fault:
                raise RpcFault(bytes(body).decode("utf-8", "replace"))
            return self.ctx.pipeline.decode(body, header=header)

    def _absorb_reply_body(self, transport: Transport, *, fault: bool) -> None:
        body, _ = self._recv_frame(transport)
        if fault:
            return  # fault bodies are raw text, one frame
        if enc.try_message_type(body) is not None:
            self.ctx.receive(body)


class RpcServer:
    """Server side: servant registry + request dispatch over a transport.

    ``dedup_window`` caches the reply frames of the last N request ids
    *per link*, so a retransmitted request (client-side retry after
    a lost reply) is answered from the cache — the servant observes each
    request id exactly once ("at-most-once execution, at-least-once
    delivery").
    """

    def __init__(
        self,
        machine: MachineDescription,
        interface: RpcInterface,
        *,
        cache: ConverterCache | None = None,
        dedup_window: int = 64,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        format_service=None,
    ):
        if dedup_window < 0:
            raise ValueError("dedup_window must be >= 0")
        self.ctx = IOContext(
            machine, cache=cache, limits=limits, format_service=format_service
        )
        self.interface = interface
        self.metrics = Metrics()
        self._servants: dict[bytes, dict[str, Callable[[dict], dict]]] = {}
        self._handles: dict[str, FormatHandle] = {}
        # per link: formats announced, inbound negotiator, reply window
        self._links = LinkTable(self.ctx)
        self._announcer = Announcer(self.ctx, self._links)
        self._dedup_window = dedup_window
        self._stop = threading.Event()
        for op in interface.operations.values():
            self.ctx.expect(op.request_schema)

    # -- shutdown ------------------------------------------------------------

    def stop(self) -> None:
        """Ask the serving loops (:func:`repro.net.aio.rpc_handler`, one
        per connection) to exit after the in-flight call instead of
        serving forever.  Thread-safe; sticky until :meth:`restart`."""
        self._stop.set()

    def restart(self) -> None:
        """Clear a previous :meth:`stop` so new connections are served again."""
        self._stop.clear()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def drain_and_stop(self, deadline_s: float = 5.0) -> None:
        """:meth:`stop`, preceded by a goodbye ping on every known link.

        The goodbye (``MSG_PING`` with nonce 0) tells clients the server
        is draining so they re-dial a replica immediately instead of
        timing out a dead call.  Synchronous transports have no queued
        sends to flush, so ``deadline_s`` exists for signature parity
        with the async servers (where
        :meth:`repro.net.aio.AsyncServer.drain_and_stop` owns the queue
        flush); links that fail the goodbye are skipped — they were
        already gone.
        """
        for transport in self._links.live():
            if send_goodbye(transport):
                self.metrics.inc("rpc.goodbyes_sent")
        self.stop()
        self.metrics.inc("rpc.drained")

    def register(self, object_key: bytes, operations: dict[str, Callable[[dict], dict]]) -> None:
        for name in operations:
            self.interface[name]  # validate
        self._servants[object_key] = dict(operations)

    def serve_one(self, transport: Transport) -> None:
        """Handle exactly one call (absorbing any format announcements).

        Announcements — inline or token — and the token-recovery
        back-channel are handled by the link's
        :class:`~repro.core.negotiation.InboundNegotiator`: a request
        whose format arrives as an unresolvable token makes the server
        ask the client for inline meta and hold the request body until
        it lands, so no call is lost to a format-server outage.
        """
        gen = self.serve_steps(transport)
        try:
            next(gen)
            while True:
                gen.send(transport.recv())
        except StopIteration:
            return

    def serve_steps(self, transport: Transport):
        """The sans-io core of :meth:`serve_one`: a generator that yields
        each time it needs another inbound frame and is resumed with it
        (``gen.send(frame)``).

        Replies go out through ``transport.send`` directly — on an
        :class:`~repro.net.aio.AsyncSocketTransport` that is a
        synchronous bounded-queue enqueue, which is why one protocol
        implementation serves both the blocking driver (:meth:`serve_one`)
        and the async driver (:func:`repro.net.aio.serve_rpc_call`).
        """
        admit = self._links.negotiator(transport).admit
        taken = admit()
        while taken is None:
            taken = admit((yield))
        request_id, is_reply, _fault, operation, key = _parse_call_header(taken[0])
        if is_reply:
            raise PbioError("protocol error: server received a reply header")
        taken = admit()
        while taken is None:
            taken = admit((yield))
        if taken[1] is None and enc.try_message_type(taken[0]) is None:
            raise PbioError("protocol error: expected a PBIO data message")
        request = self.ctx.pipeline.decode(taken[0], header=taken[1])
        window = self._links.of(transport).replies
        cached = window.get(request_id)
        if cached is not None:
            # Retransmission of a request already executed: replay the
            # recorded reply frames verbatim, don't run the servant again.
            self.metrics.inc("dedup_hits")
            for frame_bytes in cached:
                transport.send(frame_bytes)
            return
        frames: list[bytes] = []

        def send(data: bytes) -> None:
            frames.append(bytes(data))
            transport.send(data)

        try:
            servant = self._servants.get(bytes(key))
            if servant is None:
                raise RpcFault(f"no object {key!r}")
            method = servant.get(operation)
            if method is None:
                raise RpcFault(f"no operation {operation!r} on {key!r}")
            try:
                result = method(request)
            except RpcFault:
                raise
            except Exception as exc:  # a broken servant must not kill serving
                self.metrics.inc("servant_errors")
                raise RpcFault(f"internal error in {operation!r}: {exc!r}") from exc
            op = self.interface[operation]
            handle = self._handles.get(op.reply_schema.name)
            if handle is None:
                handle = self.ctx.register_format(op.reply_schema)
                self._handles[op.reply_schema.name] = handle
            send(_call_header(request_id, reply=True, fault=False, operation=operation, key=b""))
            for frame in self._announcer.pending_announcements(transport, handle):
                send(frame)
            send(self.ctx.encode(handle, result))
            self.metrics.inc("requests_served")
        except RpcFault as exc:
            frames.clear()  # a half-sent success reply is not replayable
            send(_call_header(request_id, reply=True, fault=True, operation=operation, key=b""))
            send(str(exc).encode("utf-8"))
            self.metrics.inc("faults")
        if self._dedup_window:
            window[request_id] = frames
            while len(window) > self._dedup_window:
                window.popitem(last=False)
