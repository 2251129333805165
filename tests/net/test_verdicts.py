"""One verdict table: what every receiving role does with every kind of frame.

``VERDICTS`` is the role x kind matrix of docs/wire-format.md §12 (the doc
is checked against it below).  Every frame — the eight kinds, a foreign
frame, one wrong-size frame per control kind — is offered to every front
door, scalar and burst, and what is *observed* (a record delivered, a
frame answered or routed, a format absorbed, a counter, an exception) must
be the documented verdict, the same from both entries of a role, with
nothing but ``PbioError`` / ``TransportError`` ever escaping.

``PBIO_CHAOS_SEED`` draws the record, the nonce, the filler of the foreign
frame and how far off each wrong-size payload is.  No clock anywhere.
"""

import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.abi import SPARC_V8, X86_64, RecordSchema
from repro.core import IOContext, PbioConnection, PbioError
from repro.core import encoder as enc
from repro.core import negotiation
from repro.core.runtime import pipeline
from repro.net import channel as channel_module, fabric as fabric_module, health, relay as relay_module
from repro.net import (
    DurableSubscription,
    EventChannel,
    FabricDispatcher,
    HeartbeatMonitor,
    InMemoryPipe,
    Relay,
    RelayWorker,
    TransportError,
    VirtualClock,
)

SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))
TELEMETRY = RecordSchema.from_pairs("telemetry", [("unit", "int"), ("temperature", "double")])
CID = 0xC1D0

KINDS = ("format", "data", "token", "request", "ping", "pong", "data_seq", "ack")
CONTROL = ("token", "request", "ping", "pong", "ack")  # the strict-size payloads
CASES = KINDS + ("foreign",) + tuple(kind + "!" for kind in CONTROL)


class Frames:
    """The frames of one seed, and the record / nonce they carry."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.tx = IOContext(X86_64, context_id=CID)
        self.handle = self.tx.register_format(TELEMETRY)
        self.fid = self.handle.format_id
        self.record = {"unit": int(rng.integers(1, 1000)), "temperature": float(rng.integers(0, 500))}
        self.nonce = int(rng.integers(1, 1 << 32))
        native = self.handle.codec.encode(self.record)
        # what a receiving endpoint can answer a request for: its own format
        self.local = IOContext(SPARC_V8).register_format(TELEMETRY).iofmt
        self.frames = {
            "format": self.tx.announce(self.handle),
            "data": enc.encode_data_message(CID, self.fid, native),
            "token": enc.encode_token_message(CID, self.fid, self.handle.iofmt.fingerprint, 7),
            "request": enc.encode_format_request(0x99, self.local.fingerprint),
            "ping": enc.encode_ping(self.nonce, 3),
            "pong": enc.encode_pong(self.nonce, 3),
            "data_seq": enc.encode_data_seq(CID, self.fid, 1, native),
            "ack": enc.encode_ack(CID, self.fid, 1),
            "foreign": b"\x00" + bytes(rng.integers(0, 256, int(rng.integers(1, 40)), dtype=np.uint8)),
        }
        for kind in CONTROL:  # a self-consistent frame around a payload of the wrong size
            good = self.frames[kind]
            size = len(good) - enc.HEADER_SIZE + int(rng.choice([-3, -1, 1, 5]))
            payload = (good[enc.HEADER_SIZE :] + bytes(8))[:size]
            header = enc.pack_header(*enc.unpack_header(good)[:3], len(payload))
            self.frames[kind + "!"] = header + payload

    def receiver(self):
        """A receiving context that expects (and itself registers) the format."""
        rx = IOContext(SPARC_V8)
        rx.expect(TELEMETRY)
        rx.register_format(TELEMETRY)
        rx.pipeline.resolver = lambda fp: self.handle.iofmt if fp == self.handle.iofmt.fingerprint else None
        return rx


F = Frames(SEED)


class Observed:
    """What offering one frame did, as far as anyone outside can tell."""

    REJECT_COUNTERS = (
        "decode.rejected", "relay.rejected", "fabric.rejected", "worker.rejected",
        "channel.frames_rejected", "decode_errors",
    )  # fmt: skip

    def __init__(self):
        self.escaped = None
        self.delivered, self.answered, self.routed = [], [], []
        self.absorbed = False
        self.counters = Counter()

    def verdict(self):
        if self.escaped is not None or any(self.counters[name] for name in self.REJECT_COUNTERS):
            return "reject"
        for name in ("deliver", "answer", "route", "absorb"):
            if getattr(self, name + ("ed" if name != "route" else "d")):
                return name
        return "drop"


class Role:
    """One receiving role, built fresh per offered frame.  ``announced``:
    the data frames' format has been heard already (not wanted where the
    case *is* the announcement)."""

    entries = ("scalar", "burst")

    def __init__(self, announced):
        self.rx = F.receiver()
        self.metrics = [self.rx.metrics]
        self.got = []
        self.build()
        if announced:
            self.offer("scalar", F.frames["format"])
            self.settle()

    def settle(self):
        """Forget what the set-up did."""
        del self.got[:]
        self.before = self.snapshot()
        self.known = self.rx.registry.knows_remote(CID, F.fid)

    def snapshot(self):
        total = Counter()
        for metrics in self.metrics:
            total.update(metrics.counters())
        return total

    def answered(self):
        return []

    def routed(self):
        return []

    def observe(self, entry, frame):
        self.settle()
        seen = Observed()
        try:
            self.offer(entry, frame)
        except (PbioError, TransportError) as exc:  # anything else fails the test
            seen.escaped = exc
        seen.delivered = list(self.got)
        seen.answered, seen.routed = self.answered(), self.routed()
        seen.absorbed = not self.known and self.rx.registry.knows_remote(CID, F.fid)
        seen.counters = self.snapshot() - self.before
        return seen


def drain(end):
    frames = []
    while end.pending():
        frames.append(end.recv())
    return frames


class Endpoint(Role):
    """``PbioConnection.recv`` / ``recv_batch`` over a pipe."""

    def build(self):
        self.pipe = InMemoryPipe()
        self.conn = PbioConnection(self.rx, self.pipe.b)

    def offer(self, entry, frame):
        self.pipe.a.send(frame)
        try:
            self.got += [self.conn.recv()] if entry == "scalar" else self.conn.recv_batch()
        except TransportError as exc:
            if "empty pipe" not in str(exc):  # the frame was consumed and the link ran dry
                raise

    def answered(self):
        return drain(self.pipe.a)


class BareDecode(Role):
    """``DecodePipeline.ingest`` / ``decode_batch(on_error="raise")``."""

    entries = ("scalar", "burst", "burst-skip")

    def build(self):
        pass

    def offer(self, entry, frame):
        if entry == "scalar":
            out = [self.rx.pipeline.ingest(frame)]
        else:
            out = self.rx.pipeline.decode_batch([frame], on_error="skip" if entry == "burst-skip" else "raise")
        self.got += [r for r in out if r is not None]


class Channel(Role):
    """``EventChannel.ingest`` / ``ingest_many``: one subscriber, one wire
    tap, one ack listener."""

    def build(self):
        self.channel = EventChannel()
        self.channel.subscribe(self.rx, self.got.append)
        self.tapped, self.acks = [], []
        self.channel.attach_wire(self.tapped.append)
        self.channel.add_ack_listener(self.acks.append)
        self.metrics.append(self.channel.metrics)

    def offer(self, entry, frame):
        if entry == "scalar":
            self.channel.ingest(frame)
        else:
            self.channel.ingest_many([frame])

    def settle(self):
        super().settle()
        del self.tapped[:], self.acks[:]

    def routed(self):
        return self.tapped + self.acks


class PlainSubscription(Role):
    """``Subscription._offer`` / ``_offer_batch`` (what a channel calls)."""

    def build(self):
        self.acks = []
        self.sub = self.subscribe(EventChannel())
        self.metrics.append(self.sub.metrics)

    def subscribe(self, channel):
        return channel.subscribe(self.rx, self.got.append)

    def offer(self, entry, frame):
        if entry == "scalar":
            self.sub._offer(frame)
        else:
            self.sub._offer_batch([frame], False)

    def settle(self):
        super().settle()
        del self.acks[:]

    def answered(self):
        return list(self.acks)


class DurableSub(PlainSubscription):
    """``DurableSubscription``: the same, with a sequence window and acks."""

    def subscribe(self, channel):
        return DurableSubscription(channel, self.rx, self.got.append, ack_sink=self.acks.append)


class RelayRole(Role):
    """``Relay.forward`` / ``forward_batch`` with one downstream."""

    def build(self):
        self.relay, self.pipe = Relay(), InMemoryPipe()
        self.relay.attach(self.pipe.a)
        self.rx = self.relay.ctx  # what a hub absorbs, it absorbs for its own filters
        self.metrics = [self.rx.metrics, self.relay.metrics]

    def offer(self, entry, frame):
        if entry == "scalar":
            self.relay.forward(frame)
        else:
            self.relay.forward_batch([frame])

    def settle(self):
        drain(self.pipe.b)
        super().settle()

    def routed(self):
        return drain(self.pipe.b)


class FabricFront(RelayRole):
    """``FabricDispatcher.forward`` / ``forward_batch``: one subscriber on
    the channel of the data frames."""

    def build(self):
        self.fabric, self.pipe = FabricDispatcher(2), InMemoryPipe()
        self.fabric.subscribe((CID, F.fid), self.pipe.a)
        workers = self.fabric.workers
        relays = [relay for worker in workers for relay in worker._relays.values()]
        self.metrics = [self.fabric.metrics] + [part.metrics for part in workers + relays]

    def offer(self, entry, frame):
        if entry == "scalar":
            self.fabric.forward(frame)
        else:
            self.fabric.forward_batch([frame])


class Worker(RelayRole):
    """``RelayWorker.ingest`` / ``ingest_batch``."""

    def build(self):
        self.worker, self.pipe = RelayWorker("w"), InMemoryPipe()
        self.worker.subscribe((CID, F.fid), self.pipe.a)
        self.metrics = [self.worker.metrics] + [relay.metrics for relay in self.worker._relays.values()]

    def offer(self, entry, frame):
        if entry == "scalar":
            self.worker.ingest(frame)
        else:
            self.worker.ingest_batch([frame])


class Monitor(Role):
    """``HeartbeatMonitor.observe``, called (scalar) or through ``tick()``'s
    poll of the link (burst).  What is not a heartbeat is the caller's:
    returned untouched / queued on ``inbox``."""

    def build(self):
        self.pipe = InMemoryPipe()
        self.monitor = HeartbeatMonitor(self.pipe.a, interval_s=1e9, clock=VirtualClock())
        self.monitor.tick()  # the first ping: out of the way
        self.metrics = []

    def snapshot(self):
        return Counter({"link.control_malformed": self.monitor.control_malformed})

    def offer(self, entry, frame):
        if entry == "scalar":
            if not self.monitor.observe(frame):
                self.got.append(frame)
        else:
            self.pipe.b.send(frame)
            self.monitor.tick()
            self.got += self.monitor.inbox
            self.monitor.inbox.clear()

    def settle(self):
        drain(self.pipe.b)
        self.pongs = self.monitor.pongs_received
        super().settle()

    def observe(self, entry, frame):
        seen = super().observe(entry, frame)
        seen.absorbed = self.monitor.pongs_received > self.pongs  # proof of an answered ping
        return seen

    def answered(self):
        return drain(self.pipe.b)


ROLES = {
    "endpoint": Endpoint,
    "bare decode": BareDecode,
    "channel": Channel,
    "subscription": PlainSubscription,
    "durable subscription": DurableSub,
    "relay": RelayRole,
    "fabric front": FabricFront,
    "fabric worker": Worker,
    "heartbeat monitor": Monitor,
}

#: Shorthand for a row: ``verdict`` or ``verdict counter``.
DROP_HUB = {  # the one-way hubs: relay, fabric front (the role's prefix goes in front)
    "request": "drop {}.requests_dropped", "ping": "drop {}.heartbeats_dropped", "pong": "drop {}.heartbeats_dropped",
    "ack": "drop {}.acks_dropped",
}  # fmt: skip


def hub(prefix, **rows):
    table = {kind: row.format(prefix) for kind, row in DROP_HUB.items()}
    table.update({kind + "!": table[kind] for kind in DROP_HUB})  # a hub does not look inside what it drops
    table.update(format="route", data="route", token="route", data_seq="route")
    table.update({"foreign": f"reject {prefix}.rejected", "token!": f"reject {prefix}.rejected"})
    table.update(rows)
    return table


LINK_MISDELIVERY = {kind + bang: "reject decode.rejected" for kind in ("request", "ping", "pong", "ack") for bang in ("", "!")}
NOT_RECORDS = {kind + bang: "drop" for kind in ("request", "ping", "pong", "ack") for bang in ("", "!")}

VERDICTS = {
    "endpoint": {
        "format": "absorb", "data": "deliver", "token": "absorb fmtserv.tokens_absorbed", "data_seq": "deliver",
        "request": "answer fmtserv.meta_requests_served", "ping": "answer", "pong": "drop",
        "ack": "drop link.acks_dropped", "foreign": "reject decode.rejected",
        "token!": "reject decode.rejected", "request!": "reject decode.rejected",
        "ping!": "drop link.control_malformed", "pong!": "drop link.control_malformed",
        "ack!": "drop link.acks_dropped",
    },
    "bare decode": {
        "format": "absorb", "data": "deliver", "token": "absorb fmtserv.tokens_absorbed", "data_seq": "deliver",
        "foreign": "reject decode.rejected", "token!": "reject decode.rejected", **LINK_MISDELIVERY,
    },
    "channel": {
        "format": "route", "data": "deliver", "token": "route", "data_seq": "deliver", **NOT_RECORDS,
        "ack": "route", "ack!": "route",  # to the listeners: whoever owns the stream size-checks it
        "foreign": "reject channel.frames_rejected", "token!": "reject channel.frames_rejected",
    },
    "subscription": {
        "format": "absorb", "data": "deliver delivered", "token": "absorb fmtserv.tokens_absorbed",
        "data_seq": "deliver delivered", **NOT_RECORDS,
        "foreign": "reject decode_errors", "token!": "reject decode.rejected",
    },
    "durable subscription": {
        "format": "absorb", "data": "deliver delivered", "token": "absorb fmtserv.tokens_absorbed",
        "data_seq": "deliver durable.acks_sent", **NOT_RECORDS,
        "foreign": "reject decode_errors", "token!": "reject decode.rejected",
    },
    "relay": hub("relay"),
    "fabric front": hub("fabric"),
    # the worker trusts its front to have checked an announcement: the channel's relay rejects a bad one
    "fabric worker": {
        **{kind + bang: "drop worker.dropped" for kind in ("request", "ping", "pong", "ack") for bang in ("", "!")},
        "format": "route worker.announcements", "token": "route worker.announcements",
        "token!": "reject relay.rejected",
        "data": "route worker.routed", "data_seq": "route worker.routed", "foreign": "reject worker.rejected",
    },
    "heartbeat monitor": {
        **{kind: "deliver" for kind in CASES},  # not a heartbeat: the caller's, untouched
        "ping": "answer", "pong": "absorb",
        "ping!": "drop link.control_malformed", "pong!": "drop link.control_malformed",
    },
}


def documented(role, case):
    verdict, _, counter = VERDICTS[role][case].partition(" ")
    return verdict, counter or None


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("role", sorted(ROLES))
def test_every_front_door_gives_the_documented_verdict(role, case):
    verdict, counter = documented(role, case)
    seen = {}
    for entry in ROLES[role].entries:
        observed = ROLES[role](announced=case not in ("format", "token")).observe(entry, F.frames[case])
        seen[entry] = (observed.verdict(), observed.counters[counter] if counter else None)
        if entry == "burst-skip":
            assert observed.escaped is None  # confined to its slot
    assert seen == dict.fromkeys(seen, (verdict, 1 if counter else None))  # scalar == burst == the table


def test_what_is_delivered_answered_and_routed():
    """The verdict's payload: the record itself, the pong / the meta that
    answers, the frame verbatim."""
    for entry in Endpoint.entries:
        assert Endpoint(True).observe(entry, F.frames["data_seq"]).delivered == [pytest.approx(F.record)]
        (pong,) = Endpoint(True).observe(entry, F.frames["ping"]).answered
        assert enc.parse_pong(pong)[0] == F.nonce
        (meta,) = Endpoint(True).observe(entry, F.frames["request"]).answered
        assert enc.try_message_type(meta) == enc.MSG_FORMAT and F.local.to_meta_bytes() in meta
    for role in (RelayRole, FabricFront, Worker):
        for entry in role.entries:
            for case in ("data", "data_seq"):
                assert role(True).observe(entry, F.frames[case]).routed == [F.frames[case]]
    for entry in Channel.entries:
        seen = Channel(True).observe(entry, F.frames["data"])
        assert seen.delivered == [pytest.approx(F.record)] and seen.routed == [F.frames["data"]]
        assert Channel(True).observe(entry, F.frames["ack"]).routed == [F.frames["ack"]]


def test_the_doc_matrix_is_this_table():
    """docs/wire-format.md §12: one row per frame, one column per role."""
    text = (Path(__file__).parents[2] / "docs" / "wire-format.md").read_text()
    table = text[text.index("<!-- verdicts -->") : text.index("<!-- /verdicts -->")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines() if line.startswith("|")]
    roles = rows[0][1:]
    assert sorted(roles) == sorted(ROLES)
    doc = {(role, row[0].strip("`")): re.sub(r"[`*]", "", cell) for row in rows[2:] for role, cell in zip(roles, row[1:])}
    assert doc == {(role, case): VERDICTS[role][case] for role in ROLES for case in CASES}


def test_the_source_rows_count_what_the_table_counts():
    """Each role's column in source (what ``enc.walk`` / ``enc.settle``
    read): where it names a drop or a reject, that is the table's cell,
    counter and all."""
    columns = {
        "relay": relay_module.RELAY_ROWS, "fabric front": fabric_module.FRONT_ROWS,
        "fabric worker": fabric_module.WORKER_ROWS, "channel": channel_module.CHANNEL_ROWS,
        "subscription": channel_module.SUBSCRIPTION_ROWS, "endpoint": negotiation.ENDPOINT_ROWS,
        "bare decode": pipeline.DECODE_ROWS, "heartbeat monitor": health.MONITOR_ROWS,
    }  # fmt: skip
    for role, column in columns.items():
        for case in KINDS + ("foreign",):
            header = enc.try_unpack_header(F.frames[case])
            row = column[None if header is None else header[0]]
            if row is not enc.RUN and row.handler is None:
                verdict, counter = documented(role, case)
                assert verdict in ("drop", "reject") and counter == row.counter, (role, case)


@pytest.mark.parametrize("damaged", ["token!", "token+4"])
def test_a_damaged_announcement_is_never_remembered(damaged):
    """A token announcement that is not whole — its header disagrees with
    its payload, or the payload is the wrong size — ingested while nobody
    listens is rejected at the door: a late ``subscribe(on_error="raise")``
    and ``attach_wire`` join, and nothing is replayed to them.  The fabric
    front does not remember one either."""
    frame = F.frames["token!"] if damaged == "token!" else F.frames["token"] + bytes(4)
    for ingest in (EventChannel.ingest, lambda channel, frame: channel.ingest_many([frame])):
        channel, got, tapped = EventChannel(), [], []
        ingest(channel, frame)
        assert channel.metrics.value("channel.frames_rejected") == 1
        channel.subscribe(F.receiver(), got.append, on_error="raise")
        channel.attach_wire(tapped.append)
        assert list(channel._announcements) == tapped == got == []
    for forward in (FabricDispatcher.forward, lambda fabric, frame: fabric.forward_batch([frame])):
        fabric = FabricDispatcher(2)
        forward(fabric, frame)
        assert fabric.metrics.value("fabric.rejected") == 1
        assert [list(part._announcements) for part in (fabric, *fabric.workers)] == [[], [], []]


# -- a burst of one is its scalar decode ---------------------------------------
#
# ``decode_batch`` of one data frame takes the scalar body itself: every
# output shape, zero-copy and converted, both error policies, a lone control
# frame and a lone rejected one must come out as the scalar front door's —
# and, where a group can tell, as the same frame's slot in a group of two.

SHAPES = {"dict": (False, False), "view": (True, False), "native": (False, True), "native view": (True, True)}


def reframed(frame, *, fid=None, payload_len=None, body=None):
    """``frame`` with its format id, body or declared length replaced (the length follows the body unless given)."""
    kind, cid, old_fid, _ = enc.unpack_header(frame)
    body = frame[enc.HEADER_SIZE :] if body is None else body
    length = len(body) if payload_len is None else payload_len
    return enc.pack_header(kind, cid, old_fid if fid is None else fid, length) + body


LONE = {
    **{kind: F.frames[kind] for kind in CASES},
    "data length lies": reframed(F.frames["data"], payload_len=len(F.frames["data"]) - enc.HEADER_SIZE + 4),
    "data record short": reframed(F.frames["data"], body=F.frames["data"][enc.HEADER_SIZE : -4]),
    "data unannounced": reframed(F.frames["data"], fid=F.fid + 7),
    "data_seq zero": F.frames["data_seq"][: enc.HEADER_SIZE] + bytes(8) + F.frames["data_seq"][enc.SEQ_RECORD_OFFSET :],
}  # fmt: skip


class Lent:
    """A stand-in lease that counts how often it is taken."""

    taken = 0

    def take(self):
        self.taken += 1
        return self


def canon(value):
    if isinstance(value, list):
        return [canon(item) for item in value]
    if hasattr(value, "to_dict"):  # a RecordView: its bytes and its fields
        return bytes(value.buffer), value.to_dict()
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    return value


def counts(rx):
    total = Counter(rx.metrics.counters())
    total.update({"cache " + name: n for name, n in rx.cache.metrics.counters().items()})
    return total


def receiver(machine):
    rx = IOContext(machine)
    rx.expect(TELEMETRY)
    rx.pipeline.resolver = lambda fp: F.handle.iofmt if fp == F.handle.iofmt.fingerprint else None
    rx.pipeline.ingest(F.frames["format"])
    return rx


def scalar(pipeline, frame, lend, native):
    if native:
        record = pipeline.decode_native(frame)
        return memoryview(record) if lend else record
    return pipeline.decode_view(frame) if lend else pipeline.decode(frame)


@pytest.mark.parametrize("on_error", ["raise", "skip"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("machine", [SPARC_V8, X86_64], ids=["converted", "zero-copy"])
@pytest.mark.parametrize("kind", ["data", "data_seq"])
def test_a_burst_of_one_is_its_scalar_decode(kind, machine, shape, on_error):
    """The record, its output type, the lease it takes (zero-copy lent
    results alias the frame) and what is counted: the scalar decode's
    counters and the group."""
    lend, native = SHAPES[shape]
    frame = F.frames[kind]
    rx = receiver(machine)
    decode_batch = rx.pipeline.decode_batch
    for _ in range(2):  # warm: every plan this test meets has both halves
        scalar(rx.pipeline, frame, lend, native)
        decode_batch([frame, frame], on_error=on_error, lend=lend, native=native)
    before = counts(rx)
    want = scalar(rx.pipeline, frame, lend, native)
    scalar_counts, before = counts(rx) - before, counts(rx)
    one_lease, pair_lease = Lent(), Lent()
    (got,) = decode_batch([frame], on_error=on_error, lend=lend, native=native, lease=one_lease)
    burst_counts = counts(rx) - before
    pair = decode_batch([frame, frame], on_error=on_error, lend=lend, native=native, lease=pair_lease)
    zero_copy_lent = lend and machine is X86_64
    assert canon(got) == canon(pair[0]) == canon(want) and type(got) is type(pair[0])
    assert one_lease.taken == pair_lease.taken == zero_copy_lent
    if lend and not native:  # a zero-copy view holds the lease; a converted one owns its bytes
        assert (got.lease is one_lease) == (pair[0].lease is pair_lease) == zero_copy_lent
    assert burst_counts == scalar_counts + Counter({"decode.batch.groups": 1})


def outcome(run):
    try:
        return "ok", canon(run())
    except PbioError as exc:
        return type(exc), str(exc), getattr(exc, "partial", "none")


@pytest.mark.parametrize("on_error", ["raise", "skip"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("case", sorted(LONE))
def test_a_lone_frame_meets_the_scalar_verdict(case, shape, on_error):
    """Any frame alone — data, control, damaged — gets the verdict of the
    bare decode's scalar door (``ingest``): its slot is the scalar result
    (``None`` for control), or the rejection with its type and message,
    ``exc.partial == [None]`` (``"skip"``: the slot is ``None``), and
    ``decode.rejected`` counts it once."""
    lend, native = SHAPES[shape]
    frame = LONE[case]
    rx, reference = receiver(SPARC_V8), receiver(SPARC_V8)
    want = outcome(lambda: reference.pipeline.ingest(frame))
    got = outcome(lambda: rx.pipeline.decode_batch([frame], on_error=on_error, lend=lend, native=native))
    if want[0] != "ok":
        assert got == ((*want[:2], [None]) if on_error == "raise" else ("ok", [None]))
    elif want[1] is None or not (lend or native):
        assert got == ("ok", [want[1]])
    else:  # data in another shape: the scalar decode of that shape
        assert got == ("ok", [canon(scalar(reference.pipeline, frame, lend, native))])
    assert rx.metrics.value("decode.rejected") == reference.metrics.value("decode.rejected") == (want[0] != "ok")
