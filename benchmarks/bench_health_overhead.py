"""Steady-state overhead of the liveness heartbeat plane.

The self-healing plane must be deployable by default: a pair of
:class:`HeartbeatMonitor` instances pumped at the serving loop's natural
cadence (once per burst, the relay/async-pump discipline) has to stay
within a small budget of the bare stream on the workload the ISSUE
names — 32 records of ~1 KiB per burst.  This bench times one full
burst (32 sends → 32 decodes) over an :class:`InMemoryPipe`:

* ``bare``      — the pipe endpoints directly;
* ``monitored`` — both endpoints wearing a ticking HeartbeatMonitor
  (interval 0.25 s, so real pings and pongs flow during the run), with
  the receive loop doing what a serving loop integrating liveness does:
  one message-type check per frame to divert heartbeat control frames
  into :meth:`HeartbeatMonitor.observe`, and one proof-of-life
  observation per burst (*any* inbound frame proves the peer alive, so
  per-frame observation would be wasted work).

* ``floor``     — the liveness work alone, on an idle monitored pair:
  the two ``tick()`` calls and the one ``observe()`` a burst adds.

Acceptance: the absolute penalty ``monitored - bare`` is at most
``PBIO_BENCH_OVERHEAD_MAX`` times the floor (default 8).  A percentage
of the bare burst was the gate until PR 14; it tightened by itself
every time decode got faster (150 -> 117 us at PR 13) while the
liveness cost stayed at 3-6 us, and ended up failing most attempts with
nothing regressed.  The percentage is still printed.  Thirty attempts
(EXPERIMENTS.md, PR 14) read 3.0-6.6 x a 1.0 us floor: inside a 117 us
burst the same calls run cold and the receive loop pays 32 type-byte
checks on top, so the budget is 8 x — above every one of them, and
about 3 us of new liveness cost away from the median.  The
measurement is ``support.overhead_vs_floor``: interleaved rounds,
per-side minima and per-round medians, so neither scheduler noise nor
clock drift produces a false regression.
"""

import os

import support
from repro.abi import RecordSchema
from repro.core import IOContext
from repro.core import encoder as enc
from repro.net import HeartbeatMonitor, InMemoryPipe

#: 32 records of ~1 KiB: the stream burst the acceptance gate names.
BURST = 32
SCHEMA = RecordSchema.from_pairs(
    "block1k", [("seq", "int"), ("values", "double[124]")]
)
RECORD = {"seq": 7, "values": tuple(float(i) for i in range(124))}


def _inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    # ~5-10 ms per timing round at the ~100 us burst: long enough to
    # average out scheduler noise within a round.
    return max(1, int(override)) if override else 100


def _overhead_budget() -> float:
    """Allowed ``monitored - bare`` as a multiple of the liveness floor."""
    override = os.environ.get("PBIO_BENCH_OVERHEAD_MAX")
    return float(override) if override else 8.0


def _announce(client, server):
    """One announced one-way PBIO stream; returns (frames, decode ctx)."""
    ctx_tx = IOContext(support.SPARC)
    ctx_rx = IOContext(support.SPARC)
    handle = ctx_tx.register_format(SCHEMA)
    ctx_rx.expect(SCHEMA)
    client.send(ctx_tx.announce(handle))
    assert ctx_rx.receive(server.recv()) is None
    frames = [bytes(ctx_tx.encode(handle, RECORD)) for _ in range(BURST)]
    assert all(abs(len(f) - 1024) < 128 for f in frames), "burst is not ~1 KiB"
    return frames, ctx_rx


def _build_bare_loop():
    pipe = InMemoryPipe()
    client, server = pipe.a, pipe.b
    frames, ctx_rx = _announce(client, server)

    def burst():
        for frame in frames:
            client.send(frame)
        for _ in range(BURST):
            ctx_rx.decode(server.recv())

    burst()  # warm converters/caches outside the timed region
    return burst


def _build_monitored_loop():
    pipe = InMemoryPipe()
    client, server = pipe.a, pipe.b
    frames, ctx_rx = _announce(client, server)
    # A generous miss threshold: between interleaved rounds the monitors
    # sit unpumped, and a stale probe must never abort the measurement.
    tx_mon = HeartbeatMonitor(client, interval_s=0.25, miss_threshold=64)
    rx_mon = HeartbeatMonitor(server, interval_s=0.25, miss_threshold=64)
    ping_kind = enc.MSG_PING  # MSG_PING/MSG_PONG are the top type codes

    def burst():
        for frame in frames:
            client.send(frame)
        tx_mon.tick()  # harvests pongs; pings once per interval
        received = None
        count = 0
        while count < BURST:
            received = server.recv()
            if received[2] >= ping_kind:
                rx_mon.observe(received)  # answer the ping, note life
                continue
            ctx_rx.decode(received)
            count += 1
        rx_mon.observe(received)  # one proof-of-life per burst suffices
        rx_mon.tick()

    burst()
    return burst, tx_mon, rx_mon


def _build_floor_loop():
    """The liveness work a monitored burst adds, with no stream under it."""
    pipe = InMemoryPipe()
    tx_mon = HeartbeatMonitor(pipe.a, interval_s=0.25, miss_threshold=64)
    rx_mon = HeartbeatMonitor(pipe.b, interval_s=0.25, miss_threshold=64)
    frame = enc.encode_data_message(1, 1, bytes(1024))

    def floor():
        tx_mon.tick()
        rx_mon.observe(frame)
        rx_mon.tick()

    floor()
    return floor


def test_heartbeat_overhead_within_budget():
    budget = _overhead_budget()
    monitored_fn, tx_mon, rx_mon = _build_monitored_loop()
    bare, monitored, floor, multiple, legacy_pct = support.overhead_vs_floor(
        _build_bare_loop(), monitored_fn, _build_floor_loop(), inner=_inner()
    )
    print(
        f"\nbare {bare * 1e6:.2f} us | monitored {monitored * 1e6:.2f} us "
        f"| liveness floor {floor * 1e6:.2f} us -> overhead "
        f"{(monitored - bare) * 1e6:+.2f} us = {multiple:.2f}x floor (budget {budget:g}x; "
        f"legacy ratio {legacy_pct:+.2f}%, pings {tx_mon.pings_sent}+{rx_mon.pings_sent})"
    )
    # Liveness must have been exercised, not optimised away: each
    # side pinged, and the monitors still call the peer responsive.
    assert tx_mon.responsive and rx_mon.responsive
    assert multiple <= budget, (
        f"heartbeats cost {multiple:.2f}x the liveness floor (> {budget:g}x budget)"
    )


if __name__ == "__main__":
    test_heartbeat_overhead_within_budget()
