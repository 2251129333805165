"""Record-batch fast path: batched stream throughput vs the per-message loop.

The paper's applications stream *runs* of same-format records
(monitoring feeds, visualization frames).  The per-message path pays
fixed costs per record — header parse, registry lookup, converter
dispatch, one transport call per frame.  The batch path amortizes all
four: one ``send_many``/``recv_many`` pair per burst and one columnar
converter call per same-format run (see ``repro.core.conversion.batch``).

Workload: the 32 x 1kb mechanical-record stream of
``bench_stream_throughput.py``, SPARC -> x86, pre-encoded on the sender
side (the paper's protocol: data "is assumed to exist in binary format
prior to transmission") and delivered in the receiver's native layout
(the paper's receive contract, and what ``measure_decode_ms`` times for
every other system).

Gates (run in CI bench-smoke):

* the batch path must beat the per-message loop by at least
  ``PBIO_BENCH_BATCH_MIN`` x (default 2) in records/second;
* the scalar per-message path must not have regressed vs the seed:
  the seed's measured ordering (PBIO faster than MPICH on this exact
  workload, asserted since ``bench_stream_throughput.py`` landed) must
  still hold for the scalar loop running through the batch-capable
  pipeline;
* the self-consistency guideline *batch <= scalar x n* (in the sense of
  "MPI Derived Datatypes: Performance Expectations and Status Quo"): at
  every mechanical size, ``decode_batch(lend=True)`` of ``n`` in
  {1, 2, 3, 4, 8} frames costs at most 1.25 x (``n`` scalar
  ``decode_view`` calls + the batch call's scaffolding) — small groups
  are where a real stream spends its time (mean group size 2.14 on the
  reference benchmark's ``stream_hetero``, most bursts a single record).
  The scaffolding is timed, not assumed: it is what one batch call costs
  over one scalar call on a homogeneous frame of the same size, where
  neither side converts anything.  A burst of one data frame *is* its
  scalar decode, so the term is the call's own entry (~0.4 us on a 2-core
  x86 host); a group of two or more pays its header scan, group
  bookkeeping and one set of counters on top, which the 1.25 margin must
  then cover.  ``PBIO_BENCH_INNER`` / ``PBIO_BENCH_REPEATS`` tune its
  loop counts;
* the same guidelines one layer up, on 100 B homogeneous frames to one
  ``deliver="view"`` channel subscriber: the channel adds no per-frame
  cost over the pipeline — ``ingest_many`` of 32 frames costs at most
  1.4 x (``decode_batch(lend=True)`` + the handler loop over its result)
  — and a burst is no dearer than its frames — ``ingest_many(n)`` <=
  1.1 x ``n`` x ``ingest`` for n in {2, 8, 32}, and a burst of one <= 1.3
  x ``ingest``.
"""

import os

import pytest

import support
from repro.abi import codec_for, layout_record
from repro.core import IOContext
from repro.net import InMemoryPipe, best_of
from repro.wire import MpiWire
from repro.workloads import mechanical
from repro.workloads.generators import record_stream

N_RECORDS = 32
SIZE = "1kb"


def _batch_min() -> float:
    override = os.environ.get("PBIO_BENCH_BATCH_MIN")
    return float(override) if override else 2.0


def _repeats() -> int:
    return max(support.default_repeats(), 5)


def _guideline_inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    # ~5 ms per timing round at the ~20 us small-group decode
    return max(1, int(override)) if override else 200


def _announced_stream(size: str, count: int, seed: int, src=support.SPARC):
    """``count`` pre-encoded ``src`` (SPARC) frames of one mechanical
    size and an x86 DCG receiver that has absorbed their announcement."""
    schema = mechanical.schema_for_size(size)
    codec = codec_for(layout_record(schema, src))
    natives = [codec.encode(r) for r in record_stream(schema, count=count, seed=seed)]
    sender = IOContext(src)
    receiver = IOContext(support.I86, conversion="dcg")
    handle = sender.register_format(schema)
    receiver.expect(schema)
    receiver.receive(sender.announce(handle))
    frames = [sender.encode_native(handle, native) for native in natives]
    return schema, natives, frames, receiver


@pytest.fixture(scope="module")
def batch_setup():
    setup = _announced_stream(SIZE, N_RECORDS, seed=3)
    setup[3].pipeline.decode_batch(setup[2], native=True)  # warm converters + batch plan
    return setup


def _loop_pump(frames, receiver):
    """The seed-era path: one transport call and one decode per record."""
    pipe = InMemoryPipe()
    for frame in frames:
        pipe.a.send(frame)
    for _ in frames:
        receiver.pipeline.decode_native(pipe.b.recv())


def _batch_pump(frames, receiver):
    """The fast path: one vectored send, one drain, one batch decode."""
    pipe = InMemoryPipe()
    pipe.a.send_many(frames)
    receiver.pipeline.decode_batch(pipe.b.recv_many(), native=True)


def test_per_message_stream(benchmark, batch_setup):
    _, _, frames, receiver = batch_setup
    benchmark.group = f"batched stream ({N_RECORDS} x {SIZE})"
    benchmark(_loop_pump, frames, receiver)


def test_batched_stream(benchmark, batch_setup):
    _, _, frames, receiver = batch_setup
    benchmark.group = f"batched stream ({N_RECORDS} x {SIZE})"
    benchmark(_batch_pump, frames, receiver)


def test_shape_batch_beats_per_message_loop(batch_setup):
    """ISSUE 5 acceptance gate: >= 2x records/sec on the 32 x 1kb stream."""
    _, _, frames, receiver = batch_setup
    t_loop = best_of(lambda: _loop_pump(frames, receiver), repeats=_repeats())
    t_batch = best_of(lambda: _batch_pump(frames, receiver), repeats=_repeats())
    speedup = t_loop / t_batch
    floor = _batch_min()
    assert speedup >= floor, (
        f"batch path only {speedup:.2f}x over the per-message loop "
        f"(gate: {floor:.1f}x; loop {N_RECORDS / t_loop:,.0f} rec/s, "
        f"batch {N_RECORDS / t_batch:,.0f} rec/s)"
    )


def test_shape_scalar_path_not_regressed(batch_setup):
    """The batch machinery must not tax the scalar loop: the seed's
    throughput ordering (PBIO beats MPICH on this workload) still holds
    when every record goes through the per-message path one at a time."""
    schema, natives, frames, receiver = batch_setup
    src = layout_record(schema, support.SPARC)
    dst = layout_record(schema, support.I86)
    mpi = MpiWire().bind(src, dst)
    mpi_frames = [mpi.encode(native) for native in natives]
    mpi.decode(mpi_frames[0])  # warm

    def mpi_pump():
        pipe = InMemoryPipe()
        for frame in mpi_frames:
            pipe.a.send(frame)
        for _ in mpi_frames:
            mpi.decode(pipe.b.recv())

    t_scalar = best_of(lambda: _loop_pump(frames, receiver), repeats=_repeats())
    t_mpi = best_of(mpi_pump, repeats=_repeats())
    assert t_scalar < t_mpi, (
        f"scalar PBIO loop regressed: {N_RECORDS / t_scalar:,.0f} rec/s vs "
        f"MPICH {N_RECORDS / t_mpi:,.0f} rec/s (seed ordering: PBIO faster)"
    )


def test_shape_batch_is_byte_identical(batch_setup):
    """The gate only counts if the fast path returns the same bytes."""
    _, _, frames, receiver = batch_setup
    sequential = [receiver.pipeline.decode_native(frame) for frame in frames]
    assert receiver.pipeline.decode_batch(frames, native=True) == sequential


@pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
@pytest.mark.parametrize("size", support.SIZES)
def test_guideline_batch_costs_at_most_n_scalar_decodes(size, n):
    """batch <= n x scalar + the batch call's scaffolding, where small
    groups used to fail it: n = 1..8, around both kernel crossovers.

    Best-of figures with a 1.25 noise margin; all four loops are timed
    in alternating rounds so a slow phase of the host falls on each.
    """
    _, _, group, receiver = _announced_stream(size, n, seed=5)
    _, _, (plain,), homogeneous = _announced_stream(size, 1, seed=5, src=support.I86)
    pipeline, bare = receiver.pipeline, homogeneous.pipeline
    loops = [
        lambda: pipeline.decode_batch(group, lend=True),
        lambda: pipeline.decode_view(group[0]),
        lambda: bare.decode_batch([plain], lend=True),  # zero-copy: scaffolding
        lambda: bare.decode_view(plain),  # ... over the scalar entry point's own
    ]
    for loop in loops:
        loop()  # warm converter, kernel, staging
    inner = _guideline_inner()
    best = [float("inf")] * len(loops)
    attempts = []  # each round's own ratio: how far a flake's rounds spread
    for _ in range(_repeats()):
        timed = [best_of(loop, repeats=1, inner=inner) for loop in loops]
        best = [min(t, b) for t, b in zip(timed, best)]
        batch, scalar, bare_batch, bare_scalar = timed
        attempts.append(batch / (n * scalar + max(0.0, bare_batch - bare_scalar)))
    t_batch, t_scalar, t_bare_batch, t_bare_scalar = best
    t_scaffold = max(0.0, t_bare_batch - t_bare_scalar)
    rounds = " ".join(f"{ratio:.2f}" for ratio in attempts)
    print(
        f"{size} x {n}: batch {t_batch * 1e6:.1f} us, scalar {t_scalar * 1e6:.1f} us, "
        f"scaffolding {t_scaffold * 1e6:.1f} us, legacy ratio {t_batch / (n * t_scalar):.2f}, "
        f"{len(attempts)} attempts: {rounds}"
    )
    assert t_batch <= 1.25 * (n * t_scalar + t_scaffold), (
        f"{size} x {n}: batch {t_batch * 1e6:.1f} us vs scalar {t_scalar * 1e6:.1f} us x {n} "
        f"+ scaffolding {t_scaffold * 1e6:.1f} us "
        f"(ratio {t_batch / (n * t_scalar + t_scaffold):.2f}, gate 1.25; {len(attempts)} attempts: {rounds})"
    )


def _channel_with_view_subscriber(n: int):
    """``n`` homogeneous 100 B frames, a channel with one ``deliver="view"``
    subscriber that has their announcement, the subscriber's pipeline and
    its handler (two field reads, as the reference benchmark's)."""
    from repro.net import EventChannel

    schema = mechanical.schema_for_size("100b")
    codec = codec_for(layout_record(schema, support.I86))
    sender, receiver = IOContext(support.I86), IOContext(support.I86)
    handle = sender.register_format(schema)
    receiver.expect(schema)
    frames = [
        sender.encode_native(handle, codec.encode(r))
        for r in record_stream(schema, count=n, seed=9)
    ]
    seen = []

    def handler(view):
        seen.append(view["node_id"] + view["timestep"])
        del seen[:]

    channel = EventChannel()
    channel.subscribe(receiver, handler, deliver="view")
    channel.ingest(sender.announce(handle))
    return frames, channel, receiver.pipeline, handler


def _alternating_best(loops, inner: int) -> list[float]:
    for loop in loops:
        loop()  # warm
    best = [float("inf")] * len(loops)
    for _ in range(_repeats()):
        best = [min(t, best_of(loop, repeats=1, inner=inner)) for t, loop in zip(best, loops)]
    return best


def test_guideline_channel_adds_no_per_frame_cost():
    """channel <= 1.4 x pipeline: ``ingest_many`` of 32 x 100 B homogeneous
    frames to one view subscriber costs at most 1.4 x what the subscriber
    cannot avoid — ``decode_batch(lend=True)`` on the same frames plus the
    handler loop over its result.  The channel's own part is one header
    scan and the run scaffolding; 1.6 when it, the subscriber and the
    pipeline each parsed every header, ~1.25 since the scan is shared.
    Best-of figures in alternating rounds; the margin is the 1.4."""
    frames, channel, pipeline, handler = _channel_with_view_subscriber(32)

    def floor():
        for view in pipeline.decode_batch(frames, lend=True):
            handler(view)

    t_channel, t_floor = _alternating_best(
        [lambda: channel.ingest_many(frames), floor], _guideline_inner()
    )
    ratio = t_channel / t_floor
    print(f"ingest_many {t_channel * 1e6:.1f} us, decode + handlers {t_floor * 1e6:.1f} us: {ratio:.2f}")
    assert ratio <= 1.4, (
        f"ingest_many of 32 frames {t_channel * 1e6:.1f} us vs decode_batch + handler loop "
        f"{t_floor * 1e6:.1f} us (ratio {ratio:.2f}, gate 1.4)"
    )


@pytest.mark.parametrize("n", (1, 2, 8, 32))
def test_guideline_a_burst_is_no_dearer_than_its_frames(n):
    """batch <= scalar x n on the channel: ``ingest_many(n frames)`` <=
    1.1 x ``n`` x ``ingest(frame)``, n in {2, 8, 32}; a burst of one <=
    1.3 x ``ingest(frame)``.  The batch decode takes a burst of one through
    the scalar decode, so what it still pays over ``ingest`` is the run
    walk's part — the run lists and the channel's fan-out of a run —, which
    the wider margin is for (1.62 while the burst of one ran the group
    path)."""
    frames, channel, _, _ = _channel_with_view_subscriber(n)
    t_burst, t_frame = _alternating_best(
        [lambda: channel.ingest_many(frames), lambda: channel.ingest(frames[0])], _guideline_inner()
    )
    ratio = t_burst / (n * t_frame)
    gate = 1.3 if n == 1 else 1.1
    print(f"ingest_many({n}) {t_burst * 1e6:.1f} us, ingest {t_frame * 1e6:.1f} us x {n}: {ratio:.2f}")
    assert ratio <= gate, (
        f"ingest_many of {n} frames {t_burst * 1e6:.1f} us vs {n} x ingest "
        f"{t_frame * 1e6:.1f} us (ratio {ratio:.2f}, gate {gate})"
    )
