"""Steady-state journal+ack overhead of the durable delivery plane.

Durability must be cheap enough to leave on for any stream that matters.
This bench times one full burst (32 records of ~1 KiB published →
delivered → acked) on an in-process
:class:`~repro.net.channel.EventChannel`, in three configurations:

* ``bare``     — a plain :class:`ChannelPublisher` feeding a plain
  :class:`Subscription` over the batch fast path (fire-and-forget; no
  sequencing, no acks — printed for context, not gated);
* ``volatile`` — the full sequencing plane (:class:`DurablePublisher` →
  :class:`DurableSubscription`, seq frames, dedup window, acks flowing
  back every burst) but held in memory: ``wal_dir=None``,
  ``cursor_path=None``.  Functionally identical delivery, zero
  crash-safety;
* ``durable``  — the same plane with the journal+ack persistence on: a
  real on-disk WAL (segment rotation and compaction live) and real
  on-disk cursor stores on both ends.

The gate is ``durable`` vs ``volatile``: the *journal+ack overhead* —
what you pay for crash-safety on top of the delivery machinery.  It is
gated as an **absolute** cost, ``durable - volatile`` per burst, against
the journal's irreducible work timed in the same interleaved rounds
(``floor``: one ``crc32`` over the burst's WAL frame plus one unbuffered
``write`` of it): at most ``PBIO_BENCH_OVERHEAD_MAX`` times that floor
(default 4; the plane measured ~2x when the gate was re-based).  The
gate used to be the ratio ``durable / volatile <= 1.10``; that budget
silently tightens whenever the delivery plane gets faster — the
run-granular receive path cut ``volatile`` by a third while the journal's
microseconds did not move, and the ratio read +14% with nothing
having got worse.  The legacy percentage is still printed.  Both sides
use the burst APIs, where the journal amortises to one coalesced write
and the cursors to one append per burst; that amortisation is the whole
design argument, so it is what the gate certifies.

The measurement is ``support.overhead_vs_floor``: interleaved rounds as
in bench_health_overhead, and the lower of the median per-round figure
and the figure from per-side minima.  The gate also proves the machinery
ran: every record journaled, sequenced and acked, real segment rotations
and compactions, and the WAL fully drained after every burst.

A second, self-consistency gate (a *guideline* in the sense of "MPI
Derived Datatypes: Performance Expectations and Status Quo"): sequencing
is 8 bytes of framing, so ``decode_batch`` of the burst as ``MSG_DATA_SEQ``
frames may cost at most 1.1x the same burst as plain ``MSG_DATA`` frames.
"""

import os
import shutil
import tempfile
from zlib import crc32

import support
from repro.abi import RecordSchema
from repro.core import IOContext
from repro.core import encoder as enc
from repro.core.framing import pack_frame
from repro.net import DurablePublisher, DurableSubscription, EventChannel
from repro.wire.timing import best_of

#: 32 records of ~1 KiB: the stream burst the acceptance gate names.
BURST = 32
SCHEMA = RecordSchema.from_pairs(
    "block1k", [("seq", "int"), ("values", "double[124]")]
)
RECORD = {"seq": 7, "values": tuple(float(i) for i in range(124))}
RECORDS = [RECORD] * BURST


def _inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    return max(1, int(override)) if override else 50


def _overhead_budget() -> float:
    """Allowed ``(durable - volatile) / floor``."""
    override = os.environ.get("PBIO_BENCH_OVERHEAD_MAX")
    return float(override) if override else 4.0


def _build_bare_loop():
    channel = EventChannel()
    ctx_tx = IOContext(support.SPARC)
    handle = ctx_tx.register_format(SCHEMA)
    pub = channel.publisher(ctx_tx)
    ctx_rx = IOContext(support.SPARC)
    ctx_rx.expect(SCHEMA)
    delivered = []
    channel.subscribe(ctx_rx, delivered.append)

    def burst():
        delivered.clear()
        pub.publish_batch(handle, RECORDS)
        assert len(delivered) == BURST

    burst()  # warm converters/caches outside the timed region
    return burst


def _segment_bytes() -> int:
    # Sized so the measured run crosses a handful of real segment
    # rotations (the machinery asserts demand at least one) without
    # rotation churn dominating: ~6 rotations across however many
    # bursts this configuration will time.
    bursts = 1 + 3 * support.default_repeats() * _inner()
    return max(4096, bursts * BURST * 1050 // 6)


def _build_plane_loop(wal_root: str | None):
    """One sequenced publisher → durable subscriber loop.

    ``wal_root=None`` builds the volatile plane (memory WAL + memory
    cursors); a directory builds the fully persistent one.
    """
    channel = EventChannel()
    ctx_tx = IOContext(support.SPARC, context_id=0xBE0C)
    handle = ctx_tx.register_format(SCHEMA)
    pub = DurablePublisher(
        channel,
        ctx_tx,
        wal_dir=None if wal_root is None else os.path.join(wal_root, "wal"),
        segment_bytes=_segment_bytes(),
    )
    ctx_rx = IOContext(support.SPARC)
    ctx_rx.expect(SCHEMA)
    delivered = []
    DurableSubscription(
        channel,
        ctx_rx,
        delivered.append,
        cursor_path=None if wal_root is None else os.path.join(wal_root, "sub.cursors"),
        on_error="suppress",  # enables the batched drain path
    )

    def burst():
        delivered.clear()
        pub.publish_batch(handle, RECORDS)
        assert len(delivered) == BURST
        # The in-process ack loop must have drained the journal: every
        # burst leaves the WAL empty or durability was optimised away.
        assert pub.unacked_count == 0

    burst()
    return burst, pub


def _build_floor_loop(wal_root: str):
    """The journal's irreducible work for one burst: checksum the WAL
    frame and hand it to the OS in one unbuffered write (the file is
    recycled at the segment size, as rotation recycles segments)."""
    ctx_tx = IOContext(support.SPARC, context_id=0xBE0C)
    handle = ctx_tx.register_format(SCHEMA)
    native = handle.codec.encode(RECORD)
    payload = b"".join(
        enc.encode_data_seq(ctx_tx.context_id, handle.format_id, seq, native)
        for seq in range(1, BURST + 1)
    )
    frame = pack_frame(payload)
    limit = _segment_bytes()
    stream = open(os.path.join(wal_root, "floor.seg"), "wb", buffering=0)

    def burst():
        crc32(payload)
        if stream.tell() >= limit:
            stream.seek(0)
            stream.truncate()
        stream.write(frame)

    burst()
    return burst, stream


def _compare(wal_root: str):
    bare_fn = _build_bare_loop()
    volatile_fn, _ = _build_plane_loop(None)
    durable_fn, pub = _build_plane_loop(wal_root)
    floor_fn, floor_stream = _build_floor_loop(wal_root)
    inner = _inner()
    bare = best_of(bare_fn, repeats=3, inner=inner)
    try:
        volatile, durable, floor, multiple, legacy_pct = support.overhead_vs_floor(
            volatile_fn, durable_fn, floor_fn, inner=inner
        )
    finally:
        floor_stream.close()
    return bare, volatile, durable, floor, multiple, legacy_pct, pub


def test_durability_overhead_within_budget():
    budget = _overhead_budget()
    worst = -float("inf")
    for _ in range(5):
        wal_root = tempfile.mkdtemp(prefix="pbio-bench-wal-")
        try:
            bare, volatile, durable, floor, multiple, legacy_pct, pub = _compare(wal_root)
            stats = pub.stats
            print(
                f"\nbare {bare * 1e6:.2f} us | volatile {volatile * 1e6:.2f} us "
                f"| durable {durable * 1e6:.2f} us | journal floor {floor * 1e6:.2f} us "
                f"-> journal+ack overhead {(durable - volatile) * 1e6:+.2f} us = "
                f"{multiple:.2f}x floor (budget {budget:g}x; legacy ratio "
                f"{legacy_pct:+.2f}%, journaled {stats.journaled}, acked {stats.acked}, "
                f"rotations {stats.segments_rotated})"
            )
            # The full machinery must have run, not been optimised away:
            # every record journaled and acked, and the WAL churned
            # through real segment rotations and compactions.
            assert stats.journaled == stats.sent >= BURST
            assert stats.acked == stats.journaled
            assert stats.segments_rotated > 0
            assert stats.segments_compacted > 0
            assert stats.duplicates_dropped == 0
        finally:
            shutil.rmtree(wal_root, ignore_errors=True)
        if multiple <= budget:
            return
        worst = max(worst, multiple)
    raise AssertionError(
        f"durability cost {worst:.2f}x the journal floor in 5/5 measurements "
        f"(> {budget:g}x budget)"
    )


def test_guideline_sequenced_burst_decodes_like_plain_burst():
    """decode_batch(32 seq frames) <= 1.1 x decode_batch(the same 32 as
    plain data frames): the record is decoded where it lies, 8 bytes
    further in — re-headering each frame first cost ~1.4x."""
    ctx_tx = IOContext(support.SPARC, context_id=0xBE0C)
    handle = ctx_tx.register_format(SCHEMA)
    ctx_rx = IOContext(support.I86)
    ctx_rx.expect(SCHEMA)
    ctx_rx.receive(ctx_tx.announce(handle))
    native = handle.codec.encode(RECORD)
    plain = [ctx_tx.encode_native(handle, native) for _ in range(BURST)]
    sequenced = [
        enc.encode_data_seq(ctx_tx.context_id, handle.format_id, seq, native)
        for seq in range(1, BURST + 1)
    ]
    pipeline = ctx_rx.pipeline
    assert pipeline.decode_batch(sequenced, native=True) == pipeline.decode_batch(plain, native=True)
    pipeline.decode_batch(sequenced)  # warm the record reader too
    inner = 50  # not PBIO_BENCH_INNER: the whole gate is ~50 ms, and one call per round is noise
    t_plain = t_seq = float("inf")
    for _ in range(max(support.default_repeats(), 5)):
        t_seq = min(t_seq, best_of(lambda: pipeline.decode_batch(sequenced), repeats=1, inner=inner))
        t_plain = min(t_plain, best_of(lambda: pipeline.decode_batch(plain), repeats=1, inner=inner))
    assert t_seq <= 1.1 * t_plain, (
        f"32 seq frames {t_seq * 1e6:.1f} us vs 32 plain frames {t_plain * 1e6:.1f} us "
        f"(ratio {t_seq / t_plain:.2f}, gate 1.10)"
    )


if __name__ == "__main__":
    test_durability_overhead_within_budget()
    test_guideline_sequenced_burst_decodes_like_plain_burst()
