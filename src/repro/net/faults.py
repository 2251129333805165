"""Deterministic fault injection and recovery for transports.

The paper's closing vision — relays and "communication co-processors"
forwarding NDR streams between loosely-coupled components — only works
in production if the system tolerates misbehaving links.  This module
supplies both halves of that story:

* **Chaos**: :class:`FaultInjectingTransport` wraps any
  :class:`~repro.net.transport.Transport` and injects message drop,
  truncation, byte corruption, duplicated delivery, delayed (virtual
  time) delivery, mid-stream disconnects and process crashes (buffered
  frames lost wholesale), each with its own probability.  Every random decision comes from one seeded
  :func:`numpy.random.default_rng` stream, so a chaos run is exactly
  reproducible from ``(seed, plan, message sequence)`` — the property
  the CI chaos job relies on.

* **Recovery**: :class:`RetryPolicy` (exponential backoff with
  deterministic jitter and a deadline budget) and
  :class:`ReconnectingTransport`, which re-establishes a link through a
  dial callback and replays PBIO format announcements so the
  meta-information protocol survives reconnects (a late-dialled link is
  exactly a "late joiner" in the paper's sense).

Faults are injected on the *send* path: the wrapped sender's peer
observes the degraded stream, which is where PBIO's protocol-level
robustness (``tests/core/test_robustness.py``) must hold.  At most one
fault is applied per message — the first matching draw in the fixed
order disconnect, drop, truncate, corrupt, duplicate, delay — so
per-fault counters always sum to the number of perturbed messages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core import encoder as enc
from repro.core.runtime import Metrics

from .health import MONITOR_ROWS, AnnouncementBacklog
from .transport import PeerClosedError, Transport, TransportError, TransportTimeout

#: Fixed draw order; index into the per-message uniform vector.
_FAULTS = ("disconnect", "drop", "truncate", "corrupt", "duplicate", "delay")

# Header constants, hoisted: the announcement sniff runs on every send.
_HEADER_SIZE = enc.HEADER_SIZE
_MAGIC = enc.MAGIC
_VERSION = enc.VERSION
_ANNOUNCEMENTS = enc.ANNOUNCEMENT_KINDS

#: Frame-class-targeted drops (drawn after the main vector, and only
#: when their probability is non-zero, so plans that don't use them
#: replay byte-identically against older recorded chaos schedules).
_CLASSIFIED = ("drop_heartbeats", "drop_payload")

#: Process-death simulation (drawn last, same only-when-enabled rule).
_CRASH = ("crash",)


@dataclass(frozen=True)
class FaultPlan:
    """Per-message fault probabilities (each in ``[0, 1]``, independent).

    ``max_delay_messages`` bounds how many *subsequent* sends a delayed
    message may slip past before it is released (virtual time measured
    in messages, so delay is deterministic and sleep-free).

    ``drop_heartbeats`` and ``drop_payload`` are *frame-class-targeted*
    drops for exercising the liveness plane (docs/robustness.md §9):
    the first swallows only ``MSG_PING``/``MSG_PONG`` control frames (a
    peer that computes but never answers probes), the second only
    everything else (a link that carries heartbeats yet loses data — the
    failure mode a naive "is the ping answered?" check misses).

    ``crash`` simulates *process death* rather than link failure: every
    buffered frame (delayed messages included) is discarded, the link is
    severed, and the send raises
    :class:`~repro.net.transport.PeerClosedError` — the failure the
    durable delivery plane (docs/robustness.md §11) must mask.  Unlike
    ``disconnect``, nothing in flight survives to be flushed later.
    """

    drop: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    disconnect: float = 0.0
    drop_heartbeats: float = 0.0
    drop_payload: float = 0.0
    crash: float = 0.0
    max_delay_messages: int = 4

    def __post_init__(self) -> None:
        for name in _FAULTS + _CLASSIFIED + _CRASH:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"fault probability {name}={p} outside [0, 1]")
        if self.max_delay_messages < 1:
            raise ValueError("max_delay_messages must be >= 1")

    @property
    def active(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in _FAULTS + _CLASSIFIED + _CRASH)

    @classmethod
    def lossy(cls, p: float) -> "FaultPlan":
        """Loss-only preset: drop/duplicate/delay, no byte damage."""
        return cls(drop=p, duplicate=p, delay=p)

    @classmethod
    def mute_heartbeats(cls, p: float = 1.0) -> "FaultPlan":
        """Swallow pings/pongs but deliver data untouched."""
        return cls(drop_heartbeats=p)

    @classmethod
    def mute_payload(cls, p: float = 1.0) -> "FaultPlan":
        """Deliver heartbeats but lose data frames."""
        return cls(drop_payload=p)


class FaultInjectingTransport(Transport):
    """Wrap a transport and perturb its send path per a :class:`FaultPlan`.

    With an all-zero plan the wrapper is *pure* delegation: ``send`` and
    ``recv`` are aliased to the inner transport's methods at construction
    time, so an always-wrapped deployment pays nothing until a fault
    probability is actually raised — the property
    ``benchmarks/bench_fault_overhead.py`` asserts.

    Injected-fault counts are recorded in :attr:`metrics` under
    ``faults.dropped``, ``faults.truncated``, ``faults.corrupted``,
    ``faults.duplicated``, ``faults.delayed`` and ``faults.disconnects``;
    ``messages`` counts every attempted send (active plans only).

    The wrapper composes with :class:`repro.net.aio.AsyncSocketTransport`
    unchanged — and with the *same* seeded per-message plans: faults are
    injected on the send path, and an async transport's sends are
    synchronous bounded-queue enqueues, so every draw lands exactly as
    it would on a blocking socket.  ``recv`` aliasing/delegation returns
    the inner coroutine for async inners (callers ``await`` it).  The
    receive path is honest, so ``pending`` is the inner's own probe and
    :meth:`poll_recv`, :attr:`write_queue_depth` and :meth:`drain` (blocking
    or a coroutine, as the inner's is) delegate: a relay's heal, a
    heartbeat and an async handler's backpressure see the link itself.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        *,
        seed: int = 0,
        metrics: Metrics | None = None,
    ):
        self._inner = inner
        self.plan = plan
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._active = plan.active
        self.metrics = metrics or Metrics()
        self._seq = 0  # virtual clock: one tick per send() call
        self._held: list[tuple[int, bytes]] = []  # (release_seq, message)
        self._broken = False
        self.pending = inner.pending
        if not self._active:
            # Zero-cost happy path: bypass the wrapper methods entirely.
            self.send = inner.send  # type: ignore[method-assign]
            self.recv = inner.recv  # type: ignore[method-assign]
            self.send_many = inner.send_many  # type: ignore[method-assign]
            self.recv_many = inner.recv_many  # type: ignore[method-assign]
            self.poll_recv = inner.poll_recv  # type: ignore[method-assign]

    @property
    def inner(self) -> Transport:
        return self._inner

    @property
    def broken(self) -> bool:
        """True once an injected disconnect has severed the link."""
        return self._broken

    # -- faulted send path ---------------------------------------------------

    def send(self, payload) -> None:
        if self._broken:
            raise TransportError("send on disconnected transport (injected)")
        data = bytes(payload)
        self._seq += 1
        self.metrics.inc("messages")
        self._release_due()
        if not self._active:
            self._inner.send(data)
            return
        # One uniform vector per message regardless of which faults are
        # enabled: the decision sequence for a seed is stable under plan
        # changes, so a chaos failure can be replayed with more faults off.
        draw = self._rng.random(len(_FAULTS))
        # Classified draws happen *after* the main vector and only when
        # enabled, per message (not per matching frame), so the stream
        # layout for a given plan is independent of the frame mix.
        hb_draw = float(self._rng.random()) if self.plan.drop_heartbeats > 0.0 else 1.0
        pl_draw = float(self._rng.random()) if self.plan.drop_payload > 0.0 else 1.0
        # The crash draw comes last (same only-when-enabled rule) and is
        # checked first: a dead process does nothing else to the message.
        crash_draw = float(self._rng.random()) if self.plan.crash > 0.0 else 1.0
        if crash_draw < self.plan.crash:
            self.crash()
        is_heartbeat = MONITOR_ROWS[enc.try_message_type(data)] is not enc.RUN  # what a monitor consumes
        if is_heartbeat and hb_draw < self.plan.drop_heartbeats:
            self.metrics.inc("faults.heartbeats_dropped")
            return
        if not is_heartbeat and pl_draw < self.plan.drop_payload:
            self.metrics.inc("faults.payload_dropped")
            return
        if draw[0] < self.plan.disconnect:
            self.metrics.inc("faults.disconnects")
            self._broken = True
            self._inner.close()  # peer sees PeerClosedError: a real hangup
            raise TransportError("mid-stream disconnect (injected)")
        if draw[1] < self.plan.drop:
            self.metrics.inc("faults.dropped")
            return
        if draw[2] < self.plan.truncate:
            self.metrics.inc("faults.truncated")
            keep = int(self._rng.integers(0, len(data))) if data else 0
            self._inner.send(data[:keep])
            return
        if draw[3] < self.plan.corrupt:
            self.metrics.inc("faults.corrupted")
            corrupted = bytearray(data)
            if corrupted:
                pos = int(self._rng.integers(0, len(corrupted)))
                corrupted[pos] ^= int(self._rng.integers(1, 256))
            self._inner.send(bytes(corrupted))
            return
        if draw[4] < self.plan.duplicate:
            self.metrics.inc("faults.duplicated")
            self._inner.send(data)
            self._inner.send(data)
            return
        if draw[5] < self.plan.delay:
            self.metrics.inc("faults.delayed")
            slip = int(self._rng.integers(1, self.plan.max_delay_messages + 1))
            self._held.append((self._seq + slip, data))
            return
        self._inner.send(data)

    def crash(self) -> None:
        """Simulate process death, deterministically (also called by the
        seeded ``crash`` draw).

        Every held frame — the delayed-delivery buffer, i.e. everything
        "in this process" rather than on the wire — is discarded, the
        inner link is closed so the peer sees a real hangup, and
        :class:`~repro.net.transport.PeerClosedError` is raised.  Counted
        as ``faults.crashes``.
        """
        self.metrics.inc("faults.crashes")
        self._held.clear()  # frames inside the dead process are gone
        self._broken = True
        self._inner.close()
        raise PeerClosedError("process crash (injected)")

    def _release_due(self) -> None:
        if not self._held:
            return
        due = [(rel, m) for rel, m in self._held if rel <= self._seq]
        if not due:
            return
        self._held = [(rel, m) for rel, m in self._held if rel > self._seq]
        for _, message in sorted(due, key=lambda item: item[0]):
            self._inner.send(message)

    def flush(self) -> None:
        """Release every delayed message still held (in slip order)."""
        held, self._held = self._held, []
        for _, message in sorted(held, key=lambda item: item[0]):
            if not self._broken:
                self._inner.send(message)

    def send_many(self, frames) -> None:
        """Faults apply per *logical frame*, not per syscall: a batch of N
        frames draws N decision vectors, so a chaos schedule is identical
        whether the sender batched or looped ``send`` — the byte-identity
        property tests rely on this."""
        for payload in frames:
            self.send(payload)

    # -- pass-through --------------------------------------------------------

    def recv(self) -> bytes:
        if self._broken:
            raise TransportError("recv on disconnected transport (injected)")
        return self._inner.recv()

    def recv_many(self, max_frames: int = 0) -> list[bytes]:
        if self._broken:
            raise TransportError("recv on disconnected transport (injected)")
        return self._inner.recv_many(max_frames)

    def poll_recv(self) -> bytes | None:
        if self._broken:
            raise TransportError("recv on disconnected transport (injected)")
        return self._inner.poll_recv()

    def set_timeout(self, timeout_s: float | None) -> None:
        self._inner.set_timeout(timeout_s)

    @property
    def write_queue_depth(self) -> int:
        return self._inner.write_queue_depth

    def drain(self):
        return self._inner.drain()

    def close(self) -> None:
        if not self._broken:
            self.flush()
        self._inner.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline budget.

    The jitter stream is seeded (``jitter_seed``) so two runs of the same
    retrying operation sleep for identical durations — chaos tests assert
    on exact schedules.  ``deadline_s`` bounds the *total* time budget
    (work plus backoff); when the budget cannot cover the next backoff
    the policy gives up with :class:`TransportTimeout` rather than
    oversleeping the deadline.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    deadline_s: float | None = None
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoffs(self) -> Iterator[float]:
        """The sleep before each retry (``max_attempts - 1`` values)."""
        rng = np.random.default_rng(self.jitter_seed)
        delay = self.base_delay_s
        for _ in range(self.max_attempts - 1):
            # Decorrelated half-jitter: uniform in [delay/2, delay].
            yield min(delay, self.max_delay_s) * (0.5 + 0.5 * float(rng.random()))
            delay *= self.multiplier

    def run(
        self,
        fn: Callable[[], object],
        *,
        retry_on: tuple[type[BaseException], ...] = (TransportError,),
        on_retry: Callable[[int, BaseException, float], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        deadline_s: float | None = None,
    ):
        """Call ``fn`` until it succeeds, backing off between attempts.

        ``deadline_s`` overrides the policy's own field for this run.
        Non-retryable exceptions (an :class:`RpcFault`, a protocol
        ``PbioError``) propagate immediately.
        """
        budget = self.deadline_s if deadline_s is None else deadline_s
        start = clock()
        backoffs = self.backoffs()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as exc:
                try:
                    backoff = next(backoffs)
                except StopIteration:
                    raise exc from None
                if budget is not None and clock() - start + backoff > budget:
                    raise TransportTimeout(
                        f"retry deadline {budget}s exhausted after "
                        f"{attempt} attempt(s)"
                    ) from exc
                if on_retry is not None:
                    on_retry(attempt, exc, backoff)
                sleep(backoff)


class ReconnectingTransport(Transport):
    """A transport that survives link failures by re-dialling.

    ``dial`` returns a fresh connected :class:`Transport`; any
    :class:`TransportError` from the current link triggers close →
    backoff (per ``policy``) → re-dial → replay of every PBIO format
    announcement previously sent → retry of the failed operation.
    Replay matters because PBIO's meta-information protocol sends each
    format's meta message once per link: a reconnected peer is a brand
    new link that has seen none of them (docs/robustness.md §4).

    Counters in :attr:`metrics`: ``reconnects``,
    ``announcements_replayed``, ``dial_failures``.
    """

    def __init__(
        self,
        dial: Callable[[], Transport],
        *,
        policy: RetryPolicy | None = None,
        on_reconnect: Callable[[Transport], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        metrics: Metrics | None = None,
    ):
        self._dial = dial
        self.policy = policy or RetryPolicy()
        self.on_reconnect = on_reconnect
        self._sleep = sleep
        self.metrics = metrics or Metrics()
        self._announced = AnnouncementBacklog()  # replayed, in order, into every re-dialled link
        #: Incarnation counter: bumped on every successful re-dial.
        #: Protocol layers keep per-link state (announcement dedup, RPC
        #: negotiators: :class:`repro.core.negotiation.LinkTable`) per
        #: generation of this object, so a fresh link is never mistaken
        #: for the one that died.
        self.generation = 0
        self._timeout_s: float | None = None
        self._transport = self._checked_dial()
        # Bound-method caches for the happy path (refreshed on reconnect).
        self._inner_send = self._transport.send
        self._inner_recv = self._transport.recv

    @property
    def transport(self) -> Transport:
        """The currently connected underlying transport."""
        return self._transport

    def _checked_dial(self) -> Transport:
        try:
            transport = self._dial()
        except TransportError:
            self.metrics.inc("dial_failures")
            raise
        except Exception as exc:
            self.metrics.inc("dial_failures")
            raise TransportError(f"dial failed: {exc!r}") from exc
        if self._timeout_s is not None:
            transport.set_timeout(self._timeout_s)
        return transport

    def _reconnect(self) -> None:
        try:
            self._transport.close()
        except TransportError:
            pass
        self._transport = self._checked_dial()
        self._inner_send = self._transport.send
        self._inner_recv = self._transport.recv
        self.generation += 1
        self.metrics.inc("reconnects")
        for announcement in self._announced:
            self._transport.send(announcement)
            self.metrics.inc("announcements_replayed")
        if self.on_reconnect is not None:
            self.on_reconnect(self._transport)

    # -- Transport interface -------------------------------------------------
    #
    # The happy path is a single inline try — no closure allocation, no
    # payload copy — so a stable link pays only the announcement sniff
    # (three byte compares); bench_fault_overhead.py holds the round-trip
    # penalty to 4x this send + recv timed alone.

    def send(self, payload) -> None:
        # Ordered so the common case (a data message) falls through after
        # two checks: byte 2 is an announcement kind for nothing else.
        if (
            len(payload) >= _HEADER_SIZE
            and payload[2] in _ANNOUNCEMENTS
            and payload[0] == _MAGIC
            and payload[1] == _VERSION
        ):
            self._announced.add(bytes(payload))
        try:
            self._inner_send(payload)
            return
        except TransportError:
            data = bytes(payload)  # pin: caller may reuse its buffer

        def redial_and_send():
            self._reconnect()
            self._transport.send(data)

        self.policy.run(redial_and_send, sleep=self._sleep)

    def recv(self) -> bytes:
        try:
            return self._inner_recv()
        except TransportError:
            pass

        def redial_and_recv():
            self._reconnect()
            return self._transport.recv()

        return self.policy.run(redial_and_recv, sleep=self._sleep)

    # send_many inherits the base per-frame loop deliberately: each frame
    # must pass the announcement sniff above so replay stays complete.

    def recv_many(self, max_frames: int = 0) -> list[bytes]:
        try:
            return self._transport.recv_many(max_frames)
        except TransportError:
            pass

        def redial_and_recv_many():
            self._reconnect()
            return self._transport.recv_many(max_frames)

        return self.policy.run(redial_and_recv_many, sleep=self._sleep)

    # Readiness and the write queue are the dialled link's; the probe reads
    # through this object, so the one a relay caches survives a re-dial.

    @property
    def pending(self):
        return None if self._transport.pending is None else self._pending

    def _pending(self) -> int:
        return self._transport.pending()

    def poll_recv(self) -> bytes | None:
        return self._transport.poll_recv()

    @property
    def write_queue_depth(self) -> int:
        return self._transport.write_queue_depth

    def drain(self):
        return self._transport.drain()

    def set_timeout(self, timeout_s: float | None) -> None:
        self._timeout_s = timeout_s
        self._transport.set_timeout(timeout_s)

    def close(self) -> None:
        self._transport.close()
