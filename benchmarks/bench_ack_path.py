"""Where one durable ack's microseconds go: the ack path split by step.

The topology is the reference benchmark's ``durable_burst`` rebuilt from
public parts: a :class:`DurablePublisher` (on-disk WAL) → wire tap →
:class:`Relay` → shm ring → :class:`DurableSubscription` (on-disk cursor
store), one ack a burst back over the ring, harvested by ``Relay.heal``
and aggregated up to the WAL.  Each step is timed by a wrapper around the
method that performs it (inclusive times, children subtracted):

* ``ack send``       — ``DurableSubscription._send_ack``: encode + ring send
* ``harvest``        — ``Relay._harvest_pong``: back-channel poll + walk
* ``heal loop``      — ``Relay.heal`` minus harvest and aggregate
* ``aggregate``      — ``Relay._aggregate_acks`` minus the upstream call
* ``routing``        — ``EventChannel.route_ack`` minus the listener
* ``publisher parse``— ``DurablePublisher._on_ack`` minus ``PublisherWAL.ack``
* ``cursor append``  — the WAL's ``AckCursorStore.advance`` (one framed append)
* ``release``        — ``PublisherWAL.ack`` minus cursor append and compaction
* ``compaction``     — ``PublisherWAL.compact``

Every wrapper costs the same on any tree, so two trees compare step by
step; absolute figures include ~0.1 µs of wrapper per step.  Run from the
root of the tree to measure::

    PYTHONPATH=src python benchmarks/bench_ack_path.py [bursts]
"""

import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.abi import SPARC_V8, X86, codec_for, layout_record
from repro.core import IOContext
from repro.net import DurablePublisher, DurableSubscription, EventChannel, Relay, shm_pair
from repro.net.durable import AckCursorStore, PublisherWAL
from repro.workloads import mechanical, random_record

BURST = 32
STEPS = (
    "ack send", "harvest", "heal loop", "aggregate", "routing",
    "publisher parse", "cursor append", "release", "compaction",
)  # fmt: skip
#: what each wrapper below records, inclusive ns a burst
LABELS = ("send", "heal", "harvest", "aggregate", "route", "on_ack", "wal_ack", "compact", "advance")


class Clock:
    """Inclusive nanoseconds per wrapped method, summed over one burst."""

    def __init__(self):
        self.ns = {}

    def wrap(self, owner, name, label, only=None):
        """Time ``owner.name`` (a class: install before building, which
        binds methods); ``only``: a one-item list naming the one instance
        to time, filled in later."""
        fn = getattr(owner, name)
        ns = self.ns

        def timed(this, *args, **kwargs):
            if only is not None and this is not only[0]:
                return fn(this, *args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(this, *args, **kwargs)
            finally:
                ns[label] = ns.get(label, 0) + time.perf_counter_ns() - start

        setattr(owner, name, timed)


def build(root):
    schema = mechanical.schema_for_size("1kb")
    rng = np.random.default_rng(27)
    codec = codec_for(layout_record(schema, SPARC_V8))
    natives = [codec.encode(dict(random_record(schema, rng), node_id=k)) for k in range(BURST)]
    tx = IOContext(SPARC_V8, context_id=0xD0B0)
    handle = tx.register_format(schema)
    rx = IOContext(X86)
    rx.expect(schema)
    source, sink = EventChannel(), EventChannel()
    relay = Relay(ack_upstream=source.route_ack)
    ring_out, ring_in = shm_pair(directory=root)
    relay.attach(ring_out)
    source.attach_wire(relay.forward)
    publisher = DurablePublisher(source, tx, wal_dir=os.path.join(root, "wal"))
    got = []
    subscription = DurableSubscription(
        sink, rx, got.append, cursor_path=os.path.join(root, "sub.cursors"),
        ack_sink=ring_in.send, on_error="suppress",
    )  # fmt: skip

    def burst():
        del got[:]
        publisher.publish_native_batch(handle, natives)
        while len(got) < BURST:
            sink.ingest_many(ring_in.recv_many())
        relay.heal()
        assert publisher.unacked_count == 0

    def close():
        subscription.close()
        publisher.close()
        ring_out.close()
        ring_in.close()

    return burst, publisher, close


def main(bursts: int = 4000) -> None:
    root = tempfile.mkdtemp(prefix="ack-path-")
    try:
        clock, wal_cursors = Clock(), [None]
        clock.wrap(DurableSubscription, "_send_ack", "send")
        clock.wrap(Relay, "heal", "heal")
        clock.wrap(Relay, "_harvest_pong", "harvest")
        clock.wrap(Relay, "_aggregate_acks", "aggregate")
        clock.wrap(EventChannel, "route_ack", "route")
        clock.wrap(DurablePublisher, "_on_ack", "on_ack")
        clock.wrap(PublisherWAL, "ack", "wal_ack")
        clock.wrap(PublisherWAL, "compact", "compact")
        clock.wrap(AckCursorStore, "advance", "advance", only=wal_cursors)
        burst, publisher, close = build(root)
        wal_cursors[0] = publisher.wal.acked
        for _ in range(200):  # warm: converters, announcements, a rotation or two
            burst()
        rows = {step: [] for step in STEPS}
        totals = []
        for _ in range(bursts):
            clock.ns.clear()
            start = time.perf_counter_ns()
            burst()
            totals.append(time.perf_counter_ns() - start)
            t = {**dict.fromkeys(LABELS, 0), **clock.ns}
            rows["ack send"].append(t["send"])
            rows["harvest"].append(t["harvest"])
            rows["heal loop"].append(t["heal"] - t["harvest"] - t["aggregate"])
            rows["aggregate"].append(t["aggregate"] - t["route"])
            rows["routing"].append(t["route"] - t["on_ack"])
            rows["publisher parse"].append(t["on_ack"] - t["wal_ack"])
            rows["cursor append"].append(t["advance"])
            rows["release"].append(t["wal_ack"] - t["advance"] - t["compact"])
            rows["compaction"].append(t["compact"])
        close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    median = {step: statistics.median(ns) / 1e3 for step, ns in rows.items()}
    print(f"# ack path, µs per {BURST}-record burst (median of {bursts} bursts)")
    for step in STEPS:
        print(f"{step:16s} {median[step]:8.2f}")
    print(f"{'sum of steps':16s} {sum(median.values()):8.2f}")
    print(f"{'whole burst':16s} {statistics.median(totals) / 1e3:8.2f}")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
