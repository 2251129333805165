"""A uniform run is one admission, and one admission is the frame loop.

A burst whose frames share one header and are each whole by it
(:func:`repro.core.encoder.uniform_header`) is admitted once per hop: the
walk, the batch decode, the relay's admission and filter screen, the
fabric front's and worker's routing.  Every one of those sites keeps its
frame-by-frame loop, and the loop is the reference: here each site gets
the same generated burst twice, once as it runs and once with the helper
patched to answer ``None`` (every burst then takes the loop), and what
anyone outside can see must be equal — values and their order, the
exception's type and message, ``exc.partial``, every counter, every frame
routed, every ack.

``PBIO_CHAOS_SEED`` draws the bursts: 2–40 frames of one 1 KB format,
plain or sequenced, bytes or receive-buffer views, from a zero-copy or a
converting sender, headers parsed upstream or not, and maybe one damage —
a torn or padded frame, a passed header that lies (about one frame or
all of them), sequence 0, frames over ``max_message_size``, a format the
receiver never heard (one frame's, or the whole burst's).
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro.abi import SPARC_V8, X86_64
from repro.abi.views import RecordView
from repro.core import IOContext, PbioError
from repro.core import encoder as enc
from repro.core.runtime import Metrics, pipeline
from repro.core.safety import DecodeLimits
from repro.net import DurableSubscription, EventChannel, FabricDispatcher, InMemoryPipe, Relay, RelayWorker
from repro.net import relay as relay_module
from repro.workloads import mechanical, random_record

SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))
SCHEMA = mechanical.schema_for_size("1kb")  # its frames outgrow its announcement: a limit can cut data alone
CID = 0xA11
BURSTS = 40  # per role
DAMAGE = ("none", "none", "torn", "padded", "lying header", "sequence 0", "oversize", "unannounced")


class Burst:
    """One drawn burst and the receiving side's settings."""

    def __init__(self, rng):
        self.rng = rng
        tx = IOContext([X86_64, SPARC_V8][rng.integers(2)], context_id=CID)
        handle = tx.register_format(SCHEMA)
        self.announcement = tx.announce(handle)
        self.n = n = int(rng.integers(2, 41))
        self.sequenced = bool(rng.integers(2))
        self.damage = DAMAGE[rng.integers(len(DAMAGE))]
        self.threshold = int(rng.integers(0, 101))  # the filter: timestep < threshold
        record = random_record(SCHEMA, rng)
        natives = [handle.codec.encode(dict(record, node_id=k, timestep=int(rng.integers(100)))) for k in range(n)]
        frames = enc.data_frames(CID, handle.format_id, natives, 1 if self.sequenced else None)
        # a receiver that decoded the format before has its plan warm: the steady state
        self.warmup = enc.encode_data_message(CID, handle.format_id, natives[0]) if rng.integers(2) else None
        headers = [enc.try_unpack_header(frames[0])] * n if rng.integers(2) else None
        self.limit, self.announced = None, True
        pos, one = int(rng.integers(n)), bool(rng.integers(2))
        if self.damage == "torn":
            frames[pos] = frames[pos][: -int(rng.integers(1, 9))]
        elif self.damage == "padded":
            frames[pos] += bytes(int(rng.integers(1, 9)))
        elif self.damage == "sequence 0" and self.sequenced:
            frames[pos] = frames[pos][: enc.HEADER_SIZE] + bytes(8) + frames[pos][enc.SEQ_RECORD_OFFSET :]
        elif self.damage == "oversize":  # every frame over the limit, or one padded over it
            self.limit = len(frames[0]) - (not one)
            if one:
                frames[pos] += bytes(8)
        elif self.damage == "unannounced":  # one frame of a format never heard, or the whole burst
            if one:
                kind, cid, fid, length = enc.unpack_header(frames[pos])
                frames[pos] = enc.pack_header(kind, cid, fid + 50, length) + frames[pos][enc.HEADER_SIZE :]
                if headers is not None:
                    headers = headers[:pos] + [enc.try_unpack_header(frames[pos])] + headers[pos + 1 :]
            else:
                self.announced = False
        elif self.damage == "lying header":
            kind, cid, fid, length = enc.try_unpack_header(frames[0])
            lie = (kind, cid, fid, length + 1) if rng.integers(2) else (enc.MSG_DATA_SEQ + enc.MSG_DATA - kind, cid, fid, length)
            headers = [enc.try_unpack_header(frames[0])] * n
            headers = headers[:pos] + [lie] + headers[pos + 1 :] if one else [lie] * n
        self.headers = headers
        self.frames = [memoryview(frame) for frame in frames] if rng.integers(2) else frames
        self.limits = DecodeLimits(max_message_size=self.limit) if self.limit else DecodeLimits()
        if not self.announced or (self.limit and self.warmup and len(self.warmup) > self.limit):
            self.warmup = None  # a warm-up the receiver rejects would warm nothing

    def draw(self, *choices):
        return choices[self.rng.integers(len(choices))]


def norm(value):
    """What a delivered value is, comparably (NaNs included)."""
    if value is None:
        return None
    if isinstance(value, RecordView):
        return ("view", norm(value.to_dict()), value.lease is not None)
    if isinstance(value, dict):
        return tuple((key, repr(item)) for key, item in value.items())
    return bytes(value)


def counters(*registries):
    """Every counter but the clock's (``generation_time_s``)."""
    return [{k: v for k, v in metrics.counters().items() if not k.endswith("_time_s")} for metrics in registries]


def drain(end):
    frames = []
    while end.pending():
        frames.append(bytes(end.recv()))
    return frames


def raised(call, seen):
    """Run ``call``; an escaping ``PbioError`` goes into ``seen`` with its
    message and ``exc.partial``."""
    try:
        call()
    except PbioError as exc:
        partial = getattr(exc, "partial", None)
        seen.append((type(exc).__name__, str(exc), None if partial is None else [norm(v) for v in partial]))


# -- the roles: each builds fresh receivers, offers the burst, and reports what it saw ----------------


class Loan:
    """A receive-buffer loan: how often a result took it is observable."""

    def __init__(self):
        self.taken = 0

    def take(self):
        self.taken += 1
        return self


def walk(burst, seen):
    events = []

    class Role:
        metrics = Metrics()

        def _announce(self, message, header):
            events.append(("announce", bytes(message), header))

    def run(frames, headers):
        events.append(("run", [bytes(frame) for frame in frames], list(headers)))

    role = Role()
    raised(lambda: enc.walk(burst.frames, burst.headers, relay_module.RELAY_ROWS, role, run, limit=burst.limit), seen)
    return events, counters(role.metrics)


def bare_decode(burst, seen):
    rx = IOContext(X86_64, limits=burst.limits)
    rx.expect(SCHEMA)
    if burst.announced:
        rx.receive(burst.announcement)
    if burst.warmup:
        rx.pipeline.decode(burst.warmup)
    shape = burst.draw("dict", "view", "native", "native view")
    on_error, loan = burst.draw("raise", "skip"), burst.draw(None, Loan())
    out = []

    def call():
        out.extend(
            rx.pipeline.decode_batch(
                burst.frames, on_error=on_error, lend="view" in shape, native="native" in shape,
                lease=loan, headers=burst.headers,
            )
        )  # fmt: skip

    raised(call, seen)
    return [norm(v) for v in out], loan and loan.taken, counters(rx.metrics, rx.cache.metrics)


def channel(burst, seen):
    rx = IOContext(X86_64, limits=burst.limits)
    rx.expect(SCHEMA)
    hub, got = EventChannel(), []
    filtered = burst.draw(False, True)
    sub = hub.subscribe(
        rx, got.append, deliver=burst.draw("dict", "view"), on_error=burst.draw("raise", "suppress"),
        format_name=SCHEMA.name if filtered else None, filter_expr=f"timestep < {burst.threshold}" if filtered else None,
    )  # fmt: skip
    tapped = []
    hub.attach_wire(tapped.append)
    if burst.announced:
        hub.ingest(burst.announcement)
    if burst.warmup:
        hub.ingest(burst.warmup)
    del tapped[:], got[:]
    raised(lambda: hub.ingest_many(burst.frames), seen)
    return [norm(v) for v in got], [bytes(f) for f in tapped], counters(rx.metrics, sub.metrics, hub.metrics)


def subscription(burst, seen, durable=False):
    rx = IOContext(X86_64, limits=burst.limits)
    rx.expect(SCHEMA)
    got, acks = [], []
    suppress = durable or burst.draw(False, True)
    if durable:
        sub = DurableSubscription(EventChannel(), rx, got.append, on_error="suppress", ack_sink=acks.append)
    else:
        sub = EventChannel().subscribe(rx, got.append, deliver=burst.draw("dict", "view"))
    if burst.announced:
        sub._offer(burst.announcement)
    if burst.warmup:
        sub._offer(burst.warmup)
    del got[:]
    raised(lambda: sub._offer_batch(burst.frames, suppress, headers=burst.headers), seen)
    return [norm(v) for v in got], acks, counters(rx.metrics, sub.metrics)


def hub_state(relays, pipes):
    """What a set of relays routed and counted, downstream by downstream."""
    seen = [drain(end) for end in pipes]
    for relay in relays:
        seen.append(counters(relay.metrics, relay.ctx.metrics, *(d.metrics for d in relay.downstreams)))
        seen.append({key: [(s, bytes(m)) for s, m in window] for key, window in relay._replay.items()})
        seen.append(relay.messages_seen)
    return seen


def subscribe(attach, burst):
    """A plain and a filtered downstream (the filter: ``timestep <``
    the drawn threshold); the far ends of their pipes."""
    pipes = [InMemoryPipe(), InMemoryPipe()]
    attach(pipes[0].a)
    attach(pipes[1].a, format_name=SCHEMA.name, filter_expr=f"timestep < {burst.threshold}")
    return [pipe.b for pipe in pipes]


def relay(burst, seen, filtered=False):
    hub = Relay(limits=burst.limits)
    ends = subscribe(hub.attach, burst) if filtered else [InMemoryPipe()]
    if not filtered:
        hub.attach(ends[0].a)
        ends = [ends[0].b]
    if burst.announced:
        hub.forward(burst.announcement)
        for end in ends:
            drain(end)
    raised(lambda: hub.forward_batch(burst.frames, burst.headers), seen)
    return hub_state([hub], ends)


def fabric_front(burst, seen):
    fabric = FabricDispatcher(2, limits=burst.limits)
    key = (CID, enc.unpack_header(burst.announcement)[2])
    ends = subscribe(lambda transport, **kw: fabric.subscribe(key, transport, **kw), burst)
    if burst.announced:
        fabric.forward(burst.announcement)
        for end in ends:
            drain(end)
    raised(lambda: fabric.forward_batch(burst.frames, burst.headers), seen)
    relays = [relay for worker in fabric.workers for relay in worker._relays.values()]
    return hub_state(relays, ends), counters(fabric.metrics, *(worker.metrics for worker in fabric.workers))


def fabric_worker(burst, seen):
    worker = RelayWorker("w", limits=burst.limits)
    key = (CID, enc.unpack_header(burst.announcement)[2])
    ends = subscribe(lambda transport, **kw: worker.subscribe(key, transport, **kw), burst)
    if burst.announced:
        worker.ingest(burst.announcement)
        for end in ends:
            drain(end)
    raised(lambda: worker.ingest_batch(burst.frames, burst.headers), seen)
    return hub_state(list(worker._relays.values()), ends), counters(worker.metrics)


ROLES = {
    "walk": walk,
    "bare decode": bare_decode,
    "channel": channel,
    "subscription": subscription,
    "durable subscription": lambda burst, seen: subscription(burst, seen, durable=True),
    "relay": relay,
    "filtered relay": lambda burst, seen: relay(burst, seen, filtered=True),
    "fabric front": fabric_front,
    "fabric worker": fabric_worker,
}


def observe(role, burst):
    seen = []
    state = ROLES[role](burst, seen)
    return seen, state


@pytest.mark.parametrize("role", sorted(ROLES))
def test_a_uniform_run_is_admitted_as_its_frames_are(role, monkeypatch):
    """Each site, each drawn burst: as it runs == with every burst forced
    through the frame loop.  Undamaged bursts did take the one admission."""
    index = sorted(ROLES).index(role)
    shared = Counter()
    helper = enc.uniform_header

    def counting(frames, headers=None):
        header = helper(frames, headers)
        shared[header is not None] += 1
        return header

    for k in range(BURSTS):
        seed = [SEED, index, k]
        with monkeypatch.context() as patch:
            patch.setattr(enc, "uniform_header", counting)
            patch.setattr(pipeline, "uniform_header", counting)
            fast = observe(role, Burst(np.random.default_rng(seed)))
        with monkeypatch.context() as patch:
            patch.setattr(enc, "uniform_header", lambda frames, headers=None: None)
            patch.setattr(pipeline, "uniform_header", lambda frames, headers=None: None)
            loop = observe(role, Burst(np.random.default_rng(seed)))
        assert fast == loop, (role, k, Burst(np.random.default_rng(seed)).damage)
    assert shared[True] > 0, "no burst took the one admission"
