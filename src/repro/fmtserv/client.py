"""Format-service client: publish, resolve, warm-start — never required.

The service wraps the resolution ladder every integration point uses:

1. local :class:`FormatCache` (memory, then the persisted disk layer),
2. the format servers — an *ordered replica list*, each behind its own
   :class:`~repro.net.health.CircuitBreaker` (the open/half-open/closed
   generalisation of the original flat server-down holdoff), tried in
   order under a :class:`~repro.net.faults.RetryPolicy`; a replica that
   fails (:class:`~repro.net.transport.PeerUnresponsive`, timeout, dead
   link) opens its breaker and the call fails over to the next,
3. nothing — the caller falls back to inline announcements.

Step 3 is load-bearing: the servers improve steady-state wire bytes and
cold-start latency but are *never* a hard dependency.  Every failure in
steps 1–2 — all replicas unreachable, faulted links, rejected
registration — degrades to exactly the pre-service behaviour.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.abi import MachineDescription
from repro.abi.machines import X86_64
from repro.core.errors import PbioError
from repro.core.formats import IOFormat
from repro.core.registry import fresh_context_id
from repro.core.rpc import RpcClient, RpcError
from repro.core.runtime import Metrics
from repro.core.safety import DEFAULT_LIMITS, DecodeLimits
from repro.net.faults import RetryPolicy
from repro.net.health import CircuitBreaker
from repro.net.transport import Transport, TransportError

from .cache import FormatCache
from .protocol import FMTSERV_INTERFACE, FMTSERV_OBJECT, STATUS_OK

#: Seconds a replica's circuit breaker first holds off after a failure.
SERVER_RETRY_S = 5.0


class _ReplicaSlot:
    """One server in the ordered failover list: its dialer, its live
    transport (if any), and its circuit breaker."""

    __slots__ = ("connect", "transport", "breaker")

    def __init__(self, connect, breaker: CircuitBreaker):
        self.connect = connect
        # Anything with a send() is used as the connection directly (duck
        # typing matches the rest of the net layer); otherwise `connect`
        # is a dialer invoked lazily and after failures.
        self.transport: Transport | None = (
            connect if hasattr(connect, "send") else None
        )
        self.breaker = breaker

    def transport_for_call(self) -> Transport:
        if self.transport is None:
            self.transport = self.connect()
        return self.transport

    def drop_transport(self) -> None:
        """Close a (possibly wedged) dialled connection; the next attempt
        after the holdoff re-dials from scratch."""
        if self.transport is not None and callable(self.connect):
            try:
                self.transport.close()
            except Exception:
                pass
            self.transport = None


class FormatService:
    """One process's handle on the format service.

    ``connect`` is a :class:`~repro.net.transport.Transport`, a
    zero-argument callable producing one (re-dialled after failures), an
    ordered *list* of either (replicas, tried first-to-last), or
    ``None`` for *offline mode*: cache-only, every server step skipped.
    Offline mode is what an unconfigured system gets — it makes the
    service safe to thread through constructors unconditionally.

    :data:`SERVER_RETRY_S` seeds each replica's circuit breaker: after a
    transport failure or timeout that replica is not contacted again
    until the holdoff passes (doubling per consecutive failure), and
    calls fail over to the next replica in order.  Only when every
    breaker is open do callers fall straight through to inline fallback.
    ``clock``/``sleep`` are injectable for deterministic fault sweeps.
    """

    def __init__(
        self,
        connect: Transport | Callable[[], Transport] | None = None,
        *,
        cache: FormatCache | None = None,
        retry: RetryPolicy | None = None,
        deadline_s: float = 2.0,
        machine: MachineDescription = X86_64,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        metrics: Metrics | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        client_id: int | None = None,
    ):
        self._connect = connect
        self.cache = cache if cache is not None else FormatCache(limits=limits)
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.1)
        )
        self.deadline_s = deadline_s
        self.limits = limits
        self.metrics = metrics if metrics is not None else Metrics()
        self._clock = clock
        self._sleep = sleep
        self.client_id = client_id if client_id is not None else fresh_context_id()
        self._rpc = RpcClient(machine, FMTSERV_INTERFACE, limits=limits)
        if connect is None:
            targets: list = []
        elif isinstance(connect, (list, tuple)):
            targets = list(connect)
        else:
            targets = [connect]
        self._slots = [
            _ReplicaSlot(
                target,
                CircuitBreaker(SERVER_RETRY_S, clock=clock),
            )
            for target in targets
        ]

    # -- server plumbing -----------------------------------------------------

    @property
    def online(self) -> bool:
        """Whether a server call would be attempted right now (some
        replica's breaker is not open)."""
        return any(slot.breaker.state != "open" for slot in self._slots)

    @property
    def replica_states(self) -> list[str]:
        """Breaker state per configured replica, in failover order."""
        return [slot.breaker.state for slot in self._slots]

    def _invoke_slot(self, slot: _ReplicaSlot, operation: str, request: dict) -> dict:
        return self._rpc.invoke(
            slot.transport_for_call(),
            FMTSERV_OBJECT,
            operation,
            request,
            retry=self.retry,
            deadline_s=self.deadline_s,
            sleep=self._sleep,
            clock=self._clock,
        )

    def _call(self, operation: str, request: dict) -> dict | None:
        """One RPC, walking the replica list; ``None`` if all are down.

        Replicas are tried in order, skipping open breakers.  A failure
        (dead link, :class:`~repro.net.transport.PeerUnresponsive`,
        retries exhausted, deadline blown) opens that replica's breaker
        and the call *fails over* to the next; a success closes the
        breaker.  Only when every replica has been skipped or failed does
        the caller see ``None`` — the inline-fallback signal.
        """
        attempted = 0
        for index, slot in enumerate(self._slots):
            if not slot.breaker.allow():
                continue
            attempted += 1
            try:
                reply = self._invoke_slot(slot, operation, request)
            except (TransportError, RpcError):
                # Link dead, retries exhausted, or deadline blown: open
                # the breaker and move down the list.
                slot.breaker.record_failure()
                slot.drop_transport()
                self.metrics.inc("fmtserv.replica_failures")
                continue
            except PbioError:
                # The replica (or an interposed fault) spoke garbage.
                # Treat like an outage: fail over rather than propagate —
                # the format service must never take the data plane down.
                self.metrics.inc("fmtserv.protocol_errors")
                slot.breaker.record_failure()
                slot.drop_transport()
                continue
            slot.breaker.record_success()
            if index > 0:
                self.metrics.inc("fmtserv.failovers")
            return reply
        if attempted:
            # At least one replica was tried and all tried replicas
            # failed.  Holdoff passes (every breaker open) stay silent,
            # matching the original single-server behaviour.
            self.metrics.inc("fmtserv.server_unreachable")
        return None

    # -- the client API ------------------------------------------------------

    def publish(self, fmt: IOFormat) -> int | None:
        """Register ``fmt`` with the server; the token, or ``None``.

        ``None`` means "announce inline": offline, unreachable, or the
        server rejected the registration (invalid/quota).  The result is
        cached either way, so a writer asks the network at most once per
        format per holdoff window.
        """
        cached = self.cache.token_for(fmt.fingerprint)
        if cached is not None:
            return cached
        if self.cache.is_negative(fmt.fingerprint) and not self.online:
            return None
        meta = fmt.to_meta_bytes()
        reply = self._call(
            "register",
            {
                "client_id": self.client_id,
                "fingerprint": fmt.fingerprint.hex(),
                "meta": meta.hex(),
            },
        )
        if reply is None:
            return None
        if reply["status"] != STATUS_OK:
            self.metrics.inc("fmtserv.server_rejections")
            self.cache.note_miss(fmt.fingerprint)
            return None
        token = reply["token"]
        self.cache.put(meta, token=token)
        self.metrics.inc("fmtserv.published")
        return token

    def resolve(self, fingerprint: bytes) -> IOFormat | None:
        """Resolve a fingerprint through the cache ladder.

        This is the resolver signature the decode pipeline calls when a
        token announcement refers to a format the receiver has never
        seen.  ``None`` tells the caller to use its next recovery step
        (META_REQUEST back-channel, or surface
        :class:`~repro.core.errors.TokenResolutionError`).
        """
        fingerprint = bytes(fingerprint)
        fmt = self.cache.format_for(fingerprint)
        if fmt is not None:
            self.metrics.inc("fmtserv.hits")
            return fmt
        if self.cache.is_negative(fingerprint):
            self.metrics.inc("fmtserv.negative_hits")
            return None
        reply = self._call("lookup", {"fingerprint": fingerprint.hex(), "token": 0})
        if reply is None:
            return None
        if reply["status"] != STATUS_OK or not reply["meta"]:
            self.cache.note_miss(fingerprint)
            self.metrics.inc("fmtserv.misses")
            return None
        try:
            meta = bytes.fromhex(reply["meta"])
            entry = self.cache.put(meta, token=reply["token"] or None)
        except (ValueError, PbioError):
            # The server returned bytes that don't validate: treat as a
            # miss, not an outage (the link works, the answer is bad).
            self.metrics.inc("fmtserv.protocol_errors")
            self.cache.note_miss(fingerprint)
            return None
        if entry.fingerprint != fingerprint:
            self.metrics.inc("fmtserv.protocol_errors")
            self.cache.note_miss(fingerprint)
            return None
        self.metrics.inc("fmtserv.misses_filled")
        return self.cache.format_for(fingerprint)

    def token_for(self, fingerprint: bytes) -> int | None:
        return self.cache.token_for(bytes(fingerprint))

    def note_inline_fallback(self) -> None:
        """Count one announcement that went inline instead of by token."""
        self.metrics.inc("fmtserv.inline_fallbacks")

    # -- warm start ----------------------------------------------------------

    def warm_start(self, ctx) -> int:
        """Prime ``ctx``'s converter cache from the persisted formats.

        For every cached format whose record name matches one of the
        context's expected formats, the full decode plan (matching +
        converter build) runs now, against the disk population — so the
        first *real* message of a known format decodes on a warm cache
        even in a freshly restarted process.  Returns the number of
        converters primed.
        """
        expected = getattr(ctx, "_expected", {})
        primed = 0
        for fmt in self.cache.formats():
            native = expected.get(fmt.name)
            if native is None:
                continue
            try:
                ctx.pipeline.entry_for(fmt, native)
            except PbioError:
                continue  # unmatchable pair: a real message would fail too
            primed += 1
        if primed:
            self.metrics.inc("fmtserv.warm_started", primed)
        return primed

    def pull_all(self) -> int:
        """Copy the server's whole population into the local cache
        (the ``pbio-fmtserv prime`` operation).  Returns entries added."""
        reply = self._call("list", {"max_entries": 0})
        if reply is None:
            return 0
        added = 0
        for row in reply["listing"].splitlines():
            fp_hex = row.split(" ", 1)[0]
            try:
                fingerprint = bytes.fromhex(fp_hex)
            except ValueError:
                continue
            if self.cache.get(fingerprint) is not None:
                continue
            if self.resolve(fingerprint) is not None:
                added += 1
        return added

    def close(self) -> None:
        for slot in self._slots:
            slot.drop_transport()
        self.cache.close()
