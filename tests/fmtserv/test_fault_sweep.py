"""Seeded fault sweep: a faulted format server never costs data.

The control plane (client ↔ format server) runs through a
:class:`~repro.net.FaultInjectingTransport` under a spread of fault
plans, from mild loss to total blackout.  The data plane is a clean
pipe.  The invariant under EVERY plan and seed: all records arrive, in
order, decoding to exactly what a fault-free baseline decodes — the
format service may only ever cost wire bytes (inline announcements),
never correctness.

``PBIO_CHAOS_SEED`` (set by the CI chaos matrix, default 0) shifts the
seeds so different runs explore different schedules while any single
run stays exactly reproducible.
"""

import os

import pytest

from repro.abi import SPARC_V8, X86_64, RecordSchema
from repro.core import IOContext, PbioConnection
from repro.fmtserv import FormatCache, FormatServer, FormatService
from repro.net import (
    FaultInjectingTransport,
    FaultPlan,
    RetryPolicy,
    TransportError,
)

from .helpers import FakeClock, SyncServerLink, no_sleep

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)

RECORDS = [{"unit": i, "temperature": 100.0 + i * 7.5} for i in range(8)]

PLANS = [
    ("clean", FaultPlan()),
    ("lossy", FaultPlan.lossy(0.4)),
    ("corrupting", FaultPlan(corrupt=0.4)),
    ("lossy+corrupting", FaultPlan(drop=0.25, corrupt=0.25)),
    ("disconnecting", FaultPlan(disconnect=0.2)),
    ("blackout", FaultPlan(drop=1.0)),
]


def faulted_service(server, plan, seed, clock, cache=None):
    """A FormatService whose only server link runs through chaos."""
    return FormatService(
        lambda: FaultInjectingTransport(SyncServerLink(server), plan, seed=seed),
        cache=cache if cache is not None else FormatCache(clock=clock),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=seed),
        clock=clock,
        sleep=no_sleep,
    )


def run_stream(sender_svc, receiver_svc):
    """Push RECORDS over a clean data plane; return what decodes."""
    from repro.net import InMemoryPipe

    pipe = InMemoryPipe()
    sctx = IOContext(X86_64, format_service=sender_svc)
    rctx = IOContext(SPARC_V8, format_service=receiver_svc)
    rctx.expect(TELEMETRY)
    sender = PbioConnection(sctx, pipe.a)
    receiver = PbioConnection(rctx, pipe.b)
    handle = sctx.register_format(TELEMETRY)
    for record in RECORDS:
        sender.send(handle, record)
    got = []
    stalls = 0
    while len(got) < len(RECORDS):
        try:
            got.append(receiver.recv())
        except TransportError:
            # Data plane drained with records still held: the receiver
            # has a meta request on the back-channel — let the sender
            # answer it.  Convergence must be fast; 50 pumps is already
            # absurdly generous for 8 records.
            sender.poll()
            stalls += 1
            if stalls > 50:
                raise AssertionError(
                    f"recovery did not converge: {len(got)}/{len(RECORDS)} "
                    f"records after {stalls} pump rounds"
                )
    return got, sctx, rctx


BASELINE = [pytest.approx(r) for r in RECORDS]


@pytest.mark.parametrize("plan_name,plan", PLANS, ids=[n for n, _ in PLANS])
@pytest.mark.parametrize("round_", range(3))
def test_faulted_control_plane_converges_without_loss(plan_name, plan, round_):
    seed = CHAOS_SEED * 7919 + round_ * 101
    server = FormatServer()
    clock = FakeClock()
    sender_svc = faulted_service(server, plan, seed, clock)
    receiver_svc = faulted_service(server, plan, seed + 1, clock)
    got, sctx, rctx = run_stream(sender_svc, receiver_svc)
    assert got == BASELINE  # every record, in order, bit-equivalent
    # nothing the receiver held was ever dropped
    assert rctx.metrics.value("fmtserv.messages_held") == rctx.metrics.value(
        "fmtserv.messages_released"
    )
    # and the decode path never mistook control-plane damage for
    # protocol damage on the data plane
    assert rctx.metrics.value("decode.rejected") == 0


@pytest.mark.parametrize("round_", range(3))
def test_blackout_degrades_to_pure_inline(round_):
    # With the server unreachable from the start, the system must behave
    # exactly like the pre-service protocol: inline announcement, zero
    # recovery traffic, zero held messages.
    seed = CHAOS_SEED * 7919 + round_ * 101
    server = FormatServer()
    clock = FakeClock()
    blackout = FaultPlan(drop=1.0)
    sender_svc = faulted_service(server, blackout, seed, clock)
    receiver_svc = faulted_service(server, blackout, seed + 1, clock)
    got, sctx, rctx = run_stream(sender_svc, receiver_svc)
    assert got == BASELINE
    assert sender_svc.metrics.value("fmtserv.inline_fallbacks") == 1
    assert rctx.metrics.value("fmtserv.meta_requests_sent") == 0
    assert rctx.metrics.value("fmtserv.messages_held") == 0
    assert len(server) == 0  # nothing ever reached it


def test_server_recovery_mid_stream():
    # The server comes back after the holdoff: later formats go compact
    # again without any reconfiguration.
    server = FormatServer()
    clock = FakeClock()
    # dies after a few operations, then the service re-dials a clean link
    flaky_first = {"used": False}

    def connect():
        if not flaky_first["used"]:
            flaky_first["used"] = True
            return FaultInjectingTransport(
                SyncServerLink(server), FaultPlan(drop=1.0), seed=CHAOS_SEED
            )
        return SyncServerLink(server)

    svc = FormatService(
        connect,
        cache=FormatCache(clock=clock),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=3),
        clock=clock,
        sleep=no_sleep,
    )
    fmt = IOContext(X86_64).register_format(TELEMETRY).iofmt
    assert svc.publish(fmt) is None  # blackout: inline territory
    assert not svc.online
    clock.advance(6.0)  # holdoff over; next attempt re-dials clean
    assert svc.publish(fmt) == 1
    assert svc.token_for(fmt.fingerprint) == 1


def test_context_ids_come_from_urandom():
    # Satellite regression: context ids must not be reproducible by
    # seeding the global PRNG (they collide across processes that all
    # seed for determinism — exactly what chaos CI does).
    import random

    from repro.core.registry import fresh_context_id

    random.seed(CHAOS_SEED)
    first = [fresh_context_id() for _ in range(3)]
    random.seed(CHAOS_SEED)
    second = [fresh_context_id() for _ in range(3)]
    assert first != second
