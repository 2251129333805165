"""What joining a fabric costs: ring build, subscriptions, announcements.

The topology is the reference benchmark's ``fanout_homo`` set-up at two
widths: ``C`` channels (one publisher context each, one 100 B format) ×
4 subscribers × a 4-worker :class:`~repro.net.FabricDispatcher`, each
subscriber a pipe into an :class:`~repro.net.EventChannel` with one view
subscriber.  A join is, in order (one timed stage each):

* ``ring``      — ``FabricDispatcher(4)``: the hash ring's points
* ``subscribe`` — ``C × 4`` subscriptions, one relay built per channel
* ``announce``  — one announcement per channel through the front; each
  worker remembers it and its channel's relay parses and forwards it
* ``leaves``    — every leaf takes what reached it (meta parsed per frame)

Counted in a separate pass: announcement frames delivered to leaves,
``IOFormat.from_meta_bytes`` calls (relays and leaves) and SHA-1 ring
points.  A worker hands an announcement to its own channel's relay only,
so the leaves get ``C·S`` announcement frames (``C²·S`` when every relay
on a worker forwarded every announcement).  Run from the root of the
tree to measure::

    PYTHONPATH=src python benchmarks/bench_fabric_join.py [repeats]
"""

import statistics
import sys
import time
from collections import Counter

import pytest

from repro.abi import X86
from repro.core import IOContext
from repro.core.formats import IOFormat
from repro.net import EventChannel, FabricDispatcher, InMemoryPipe
from repro.net import fabric as fabric_module
from repro.workloads import mechanical

WORKERS, SUBSCRIBERS = 4, 4
WIDTHS = (8, 64)
STAGES = ("ring", "subscribe", "announce", "leaves")
SCHEMA = mechanical.schema_for_size("100b")


def join(channels: int) -> tuple[dict[str, float], int]:
    """One join from scratch: seconds per stage, announcement frames
    delivered to the leaves."""
    t0 = time.perf_counter()
    dispatcher = FabricDispatcher(WORKERS)
    t1 = time.perf_counter()
    publishers, leaves = [], []
    for c in range(channels):
        ctx = IOContext(X86, context_id=0x5000 + c)
        handle = ctx.register_format(SCHEMA)
        publishers.append((ctx, handle))
        for _ in range(SUBSCRIBERS):
            pipe = InMemoryPipe()
            dispatcher.subscribe((ctx.context_id, handle.format_id), pipe.a)
            rx = IOContext(X86)
            rx.expect(SCHEMA)
            leaf = EventChannel()
            leaf.subscribe(rx, lambda view: None, deliver="view")
            leaves.append((pipe.b, leaf))
    t2 = time.perf_counter()
    for ctx, handle in publishers:
        dispatcher.forward(ctx.announce(handle))
    t3 = time.perf_counter()
    delivered = 0
    for end, leaf in leaves:
        frames = end.recv_many()
        delivered += len(frames)
        leaf.ingest_many(frames)
    t4 = time.perf_counter()
    return dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))), delivered


def counts(channels: int) -> dict[str, int]:
    """Frames delivered, meta parses and ring points of one join."""
    counted = Counter()
    hash64, parse = fabric_module._hash64, IOFormat.__dict__["from_meta_bytes"]

    def counting_hash64(data):
        counted["ring_points"] += 1
        return hash64(data)

    def counting_parse(cls, *args, **kwargs):
        counted["meta_parses"] += 1
        return parse.__func__(cls, *args, **kwargs)

    fabric_module._hash64, IOFormat.from_meta_bytes = counting_hash64, classmethod(counting_parse)
    try:
        _times, counted["frames_delivered"] = join(channels)
    finally:
        fabric_module._hash64, IOFormat.from_meta_bytes = hash64, parse
    return dict(counted)


@pytest.mark.parametrize("channels", WIDTHS)
def test_a_join_delivers_each_announcement_to_its_own_channel(channels):
    """Deterministic: each leaf gets its own channel's announcement only,
    each relay and each leaf parses one format, and the ring hashes each
    worker's points once (plus one point per channel key)."""
    got = counts(channels)
    assert got == {
        "frames_delivered": channels * SUBSCRIBERS,
        "meta_parses": channels + channels * SUBSCRIBERS,
        "ring_points": WORKERS * fabric_module.DEFAULT_VNODES + channels,
    }


def main(repeats: int = 15) -> None:
    print(f"{WORKERS} workers x {SUBSCRIBERS} subscribers a channel; median of {repeats} joins, ms")
    head = ("C", "frames", "meta parses", "ring points") + STAGES + ("join",)
    print("".join(f"{h:>12}" for h in head))
    for channels in WIDTHS:
        got = counts(channels)
        runs = [join(channels)[0] for _ in range(repeats)]
        stages = [statistics.median(run[stage] for run in runs) * 1e3 for stage in STAGES]
        total = statistics.median(sum(run.values()) for run in runs) * 1e3
        row = [channels, got["frames_delivered"], got["meta_parses"], got["ring_points"]]
        print("".join(f"{v:>12}" for v in row) + "".join(f"{v:>12.2f}" for v in (*stages, total)))


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
