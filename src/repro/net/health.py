"""Liveness and self-healing primitives: the health plane.

The paper's wire-format wins assume long-lived peers; this module is what
lets the services carrying PBIO traffic *keep* peers long-lived without an
operator in the loop (docs/robustness.md §9):

* :class:`HeartbeatMonitor` — wears any :class:`~repro.net.transport.Transport`
  and exchanges the strict-size ``MSG_PING``/``MSG_PONG`` control frames
  (wire types 5/6).  Misses accumulate only when the link is otherwise
  silent; ``miss_threshold`` unanswered probes → :class:`PeerUnresponsive`.
* :class:`ProbePolicy` — the exponential-backoff schedule for probing a
  quarantined peer, plus the eviction deadline after which a silent peer
  is dropped for good.
* :class:`QuarantineRecord` — the per-peer state machine ``active ⇄
  quarantined → probing → active | evicted`` that the policy drives.  A
  relay's :class:`~repro.net.relay.Downstream` and the fabric
  dispatcher's per-worker slot both *are* one, so the two ``heal()``
  loops differ only in how a probe is sent and what reactivation replays.
  A slow consumer is not a separate case: a full write queue raises
  :class:`~repro.net.transport.WriteQueueFull`, a ``TransportError``,
  and is counted like any other failed send.
* :class:`AnnouncementBacklog` — "remember each announcement once, replay
  it in order to late joiners", the one copy behind the relay, the fabric
  worker and dispatcher, :class:`~repro.net.channel.EventChannel` and a
  re-dialling :class:`~repro.net.faults.ReconnectingTransport`.
* :class:`CircuitBreaker` — the open/half-open/closed generalisation of
  :class:`~repro.fmtserv.client.FormatService`'s flat server-down holdoff,
  one per replica so the client can fail over down an ordered server list.

Everything takes an injectable ``clock`` (``time.monotonic`` by default);
:class:`VirtualClock` runs the whole plane in virtual time for
deterministic tests.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..core import encoder as enc
from ..core.negotiation import LinkControl
from .transport import PeerUnresponsive, Transport, TransportError

#: Peer lifecycle states (the quarantine state machine).
ACTIVE = "active"
QUARANTINED = "quarantined"
PROBING = "probing"
EVICTED = "evicted"

#: The heartbeat monitor's column of the verdict table (docs/wire-format.md
#: §12): a heartbeat is handled by the one responder; anything else is the
#: caller's, untouched, and proof of life.
MONITOR_ROWS = enc.rows(default="run", ping="handle control", pong="handle control")


class VirtualClock:
    """A manually-advanced monotonic clock for deterministic time-based tests.

    Every time-aware component in the net layer (``RetryPolicy``,
    :class:`HeartbeatMonitor`, the relay's probe state machine) takes an
    injectable ``clock`` callable defaulting to ``time.monotonic``; handing
    them a ``VirtualClock`` instance runs the whole timeline in virtual
    time — a 60 s eviction deadline takes microseconds of wall time and is
    perfectly reproducible.

    The instance is callable (``clock()`` → current virtual seconds) so it
    drops into any ``clock=time.monotonic`` parameter unchanged, and
    :meth:`sleep` advances time instead of blocking, so it also satisfies
    ``sleep=`` parameters.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(max(0.0, seconds))


class HeartbeatMonitor(LinkControl):
    """Liveness verdicts for one transport, driven by explicit ticks.

    The monitor never owns a thread: callers pump it by calling
    :meth:`tick` from whatever loop already services the link.  Each tick

    1. drains immediately-available inbound frames via ``poll_recv`` and
       feeds heartbeat control frames to :meth:`observe` (data frames are
       queued for the caller on :attr:`inbox` — the monitor never eats
       application traffic);
    2. sends a fresh ping once ``interval_s`` has elapsed, counting the
       previous ping as *missed* if nothing proved the peer alive since;
    3. raises :class:`PeerUnresponsive` while ``misses >= miss_threshold``.

    *Any* inbound frame but a malformed heartbeat counts as proof of life
    (a peer streaming data at full rate may reasonably starve its pong
    writes), so heartbeats add zero false positives on busy links and only
    arbitrate silent ones.

    Pings carry a monotonic nonce (starting at 1; 0 is the goodbye nonce)
    and the local send-queue depth; inbound heartbeats go through the one
    responder (:class:`~repro.core.negotiation.LinkControl`: pings are
    answered, a goodbye sets :attr:`peer_goodbye` so callers can re-dial
    proactively instead of waiting out a timeout, a malformed one only
    bumps :attr:`control_malformed`).
    """

    def __init__(
        self,
        transport: Transport,
        *,
        interval_s: float = 1.0,
        miss_threshold: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.transport = transport
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        self._clock = clock
        self._nonce = 0
        self._last_ping_at: float | None = None
        self._alive_since_ping = True  # no probe outstanding yet
        self.misses = 0
        self.pings_sent = 0
        #: Non-heartbeat frames harvested while polling, oldest first.
        self.inbox: deque[bytes] = deque()

    @property
    def responsive(self) -> bool:
        return self.misses < self.miss_threshold

    def observe(self, frame) -> bool:
        """Account one inbound frame; True if it was heartbeat control.

        Callers that run their own receive loop (the relay, the async
        reader pump) push every frame through here; heartbeat frames are
        consumed, everything else returns ``False`` untouched and counts
        as proof of life.
        """
        header = enc.try_unpack_header(frame)
        heartbeat = MONITOR_ROWS[None if header is None else header[0]] is not enc.RUN
        if heartbeat and not self.control(frame, header, self._answer, self.transport.write_queue_depth):
            return True  # malformed: consumed, and no proof of an answered ping
        self._alive_since_ping = True
        self.misses = 0
        return heartbeat

    def _answer(self, pong: bytes) -> None:
        try:
            self.transport.send(pong)
        except TransportError:
            pass  # the tick's own ping will discover a dead link

    def _poll(self) -> None:
        while True:
            try:
                frame = self.transport.poll_recv()
            except TransportError:
                return  # a dead link shows up as silence → misses
            if frame is None:
                return
            if not self.observe(frame):
                self.inbox.append(frame)

    def tick(self, now: float | None = None) -> bool:
        """Pump the monitor once; returns the current liveness verdict.

        Raises :class:`PeerUnresponsive` when the verdict is (still)
        negative, *after* updating state — callers that prefer a boolean
        can catch it or read :attr:`responsive`.
        """
        if now is None:
            now = self._clock()
        self._poll()
        if self._last_ping_at is None or now - self._last_ping_at >= self.interval_s:
            if self._last_ping_at is not None and not self._alive_since_ping:
                self.misses += 1
            self._send_ping(now)
        if not self.responsive:
            raise PeerUnresponsive(
                f"peer missed {self.misses} consecutive heartbeats "
                f"(threshold {self.miss_threshold}, interval {self.interval_s}s)"
            )
        return True

    def _send_ping(self, now: float) -> None:
        self._nonce += 1
        self._last_ping_at = now
        self._alive_since_ping = False
        try:
            self.transport.send(enc.encode_ping(self._nonce, self.transport.write_queue_depth))
            self.pings_sent += 1
        except TransportError:
            pass  # an unsendable ping is an unanswerable ping: counts as a miss


def ping_once(transport, timeout_s: float | None = None, nonce: int = 1) -> int:
    """One liveness round trip on a blocking transport: ping, wait for the
    pong that echoes ``nonce`` (skipping anything else a serving peer
    replays first), return the queue depth it reports.  A dead or
    non-PBIO peer raises ``TransportError`` / ``PbioError``."""
    transport.set_timeout(timeout_s)
    transport.send(enc.encode_ping(nonce))
    while True:
        frame = transport.recv()
        header = enc.unpack_header(frame)
        if header[0] == enc.MSG_PONG:
            got, depth = enc.parse_control(frame, header)
            if got == nonce:
                return depth


@dataclass(frozen=True)
class ProbePolicy:
    """Backoff schedule for probing a quarantined peer, plus its eviction.

    Attempt *n* (0-based) waits ``min(base_delay_s * multiplier**n,
    max_delay_s)`` after quarantine entry (cumulatively); a peer that has
    not answered any probe ``eviction_deadline_s`` after entering
    quarantine is evicted.  Deterministic on purpose — no jitter — so
    virtual-time tests replay exactly.
    """

    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 8.0
    eviction_deadline_s: float = 60.0

    def __post_init__(self):
        if self.base_delay_s <= 0:
            raise ValueError("base_delay_s must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if self.eviction_deadline_s <= 0:
            raise ValueError("eviction_deadline_s must be positive")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before probe ``attempt`` (0-based)."""
        return min(self.base_delay_s * (self.multiplier**attempt), self.max_delay_s)


class QuarantineRecord:
    """One peer's place in the quarantine state machine.

    The owner (a relay per downstream, the fabric dispatcher per worker)
    counts failures with :meth:`fail`, picks the threshold and calls
    :meth:`quarantine`, which starts the :class:`ProbePolicy` clock — no
    policy, nothing is ever due and recovery is manual.  Its ``heal()``
    then asks :meth:`probe_due` / :meth:`expired`, books each probe with
    :meth:`probed`, and brings the peer back with :meth:`reset`.
    Eviction is the owner's act: it sets :attr:`state` to ``EVICTED``.
    """

    def __init__(self) -> None:
        self.reset()

    @property
    def quarantined(self) -> bool:
        """True while the peer is out of service (quarantined or
        probing).  Read-only — state changes go through the owner."""
        return self.state in (QUARANTINED, PROBING)

    def fail(self) -> int:
        """Count one more consecutive failure; returns the new count."""
        self.consecutive_errors += 1
        return self.consecutive_errors

    def quarantine(self, now: float, policy: ProbePolicy | None) -> None:
        self.state = QUARANTINED
        self.quarantined_at = now
        self.probe_attempts = 0
        self.next_probe_at = now + policy.delay(0) if policy is not None else None

    def probe_due(self, now: float) -> bool:
        return self.next_probe_at is not None and now >= self.next_probe_at

    def probed(self, now: float, policy: ProbePolicy) -> None:
        """Book one probe sent at ``now`` and back off the next one."""
        self.state = PROBING
        self.probe_attempts += 1
        self.next_probe_at = now + policy.delay(self.probe_attempts)

    def expired(self, now: float, policy: ProbePolicy) -> bool:
        """Silent past the policy's eviction deadline?"""
        entered = self.quarantined_at
        return entered is not None and now - entered >= policy.eviction_deadline_s

    def reset(self) -> None:
        self.state = ACTIVE
        self.consecutive_errors = 0
        self.quarantined_at: float | None = None
        self.probe_attempts = 0
        self.next_probe_at: float | None = None


class AnnouncementBacklog:
    """Format announcements remembered for late joiners: exact-bytes
    dedup (durable publishers re-announce on every backlog resend, and
    the replay must not grow for meta already held), replayed in arrival
    order by iterating.  Frames are opaque here — whoever adds one has
    already decided it is worth remembering."""

    __slots__ = ("_frames",)

    def __init__(self) -> None:
        self._frames: dict[bytes, None] = {}  # insertion-ordered set

    def add(self, frame: bytes) -> bool:
        """Remember ``frame``; False if these exact bytes are held already."""
        if frame in self._frames:
            return False
        self._frames[frame] = None
        return True

    def remove(self, frame: bytes) -> None:
        """Withdraw ``frame`` (a publisher's token→inline fallback)."""
        self._frames.pop(frame, None)

    def __iter__(self):
        return iter(self._frames)

    def __len__(self) -> int:
        return len(self._frames)


#: A circuit breaker's holdoff doubles per consecutive open, up to five minutes.
HOLDOFF_MULTIPLIER = 2.0
MAX_HOLDOFF_S = 300.0


class CircuitBreaker:
    """Closed / open / half-open failure gate for one remote replica.

    Generalises the flat "server down until T" holdoff the format-service
    client shipped with: failures open the breaker for ``holdoff_s``
    (growing by :data:`HOLDOFF_MULTIPLIER` per consecutive open, capped at
    :data:`MAX_HOLDOFF_S`); once the holdoff expires the breaker goes
    *half-open* and :meth:`allow` admits a single trial call; the trial's
    outcome either closes the breaker (and resets the holdoff) or
    re-opens it for longer.
    """

    __slots__ = ("holdoff_s", "_clock", "_state", "_until", "_opens")

    def __init__(self, holdoff_s: float = 30.0, *, clock: Callable[[], float] = time.monotonic):
        if holdoff_s <= 0:
            raise ValueError("holdoff_s must be positive")
        self.holdoff_s = holdoff_s
        self._clock = clock
        self._state = "closed"
        self._until = 0.0
        self._opens = 0  # consecutive opens since the last success

    @property
    def state(self) -> str:
        if self._state == "open" and self._clock() >= self._until:
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """May a call go to this replica right now?"""
        if self._state == "closed":
            return True
        if self._clock() >= self._until:
            self._state = "half_open"
            return True
        return False

    def record_success(self) -> None:
        self._state = "closed"
        self._opens = 0

    def record_failure(self) -> None:
        self._opens += 1
        holdoff = min(self.holdoff_s * HOLDOFF_MULTIPLIER ** (self._opens - 1), MAX_HOLDOFF_S)
        self._state = "open"
        self._until = self._clock() + holdoff
