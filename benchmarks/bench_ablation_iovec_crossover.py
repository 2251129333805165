"""Ablation — join a run into one buffer, or hand the sink its frames?

A burst of 32 frames can reach a sink two ways: *join* — pack the run
into one contiguous buffer (one extra copy of every byte) and make one
write of it — or *iovec* — hand over the frames themselves, gathered by
the kernel (``writev`` / ``sendmsg``) or stored one by one into the ring.
"Performance of MPI sends of non-contiguous data" and "Do MPI Derived
Datatypes Actually Help?" (PAPERS.md) both find packing competitive up
to a size and losing past it, on sockets and shared memory alike; this
measures where that size is for our three sinks, at the four mechanical
frame sizes:

1. a :class:`~repro.core.framing.FramedLog` (the WAL segment):
   ``append(b"".join(frames))`` against one ``writev`` of the frames
   themselves between the length and the trailer (CRC chained);
2. a shm ring: one prefixed, joined run stored with one slice write
   against :meth:`ShmRingTransport.send_many`'s store per frame;
3. a loopback :class:`SocketTransport`: one joined buffer through
   ``sendmsg`` against ``send_many``'s two iovecs per frame.

A second table (``PR 22``) is the choice ``PbioConnection.send_batch_native``
makes per *frame* on the socket, at the run lengths the reference
benchmark's ``stream_hetero`` sends (1, 2, 4, 32): *pack* — ``header +
record`` in one new buffer, two iovecs a frame — against *gather* — a
:class:`~repro.net.transport.SegmentedFrame`, three iovecs a frame and
no copy — the sender draining the far end itself between sends (no
second thread on the GIL), runs bounded by the benchmark's 128 KB.  It
is the provenance of ``GATHER_MIN_FRAME``: packing wins by 5-40 % up to
4 KB frames, the two are within a few per cent of each other from 10 KB
to 16 KB, and gathering wins from 24 KB on (x 1.23 at 100 KB) — later
than the whole-run join of the first table loses, since a frame's own
``header + record`` is a far smaller copy than a run's.  The runs-of-one
column has a consumer of its own since PR 23: ``SocketTransport.send_segments``
(the scalar ``PbioConnection.send_native``) selects by the same constant.

``PublisherWAL`` joins and ``ShmRingTransport.send_many`` stores per
frame at every size, selecting nothing.  What that costs and buys is the
table this prints (``PYTHONPATH=src python3
benchmarks/bench_ablation_iovec_crossover.py`` prints it alone; numbers
in EXPERIMENTS.md "PR 21"; it is the measurement ROADMAP "One send
path" part (1) waits on): on all three sinks the join wins at 100 B
frames, the iovec path wins at 100 KB, and the crossover sits between
1 KB and 10 KB.  The shape test pins the two ends, not the middle.
"""

import os
import tempfile
import threading
from time import perf_counter
from zlib import crc32

import pytest

import support
from repro.core import encoder as enc
from repro.core.framing import FILE_HEADER, MSG_LEN, V2_TRAILER, FramedLog
from repro.net import best_of, loopback_pair, shm_pair
from repro.net.shm import _U32  # the ring's length prefix
from repro.net.timing import calibrated_inner
from repro.net.transport import _LEN, GATHER_MIN_FRAME, SegmentedFrame  # _LEN: the socket framing's prefix

RUN = 32
SIZES = {"100b": 100, "1kb": 1024, "10kb": 10 * 1024, "100kb": 100 * 1024}
#: the pack-or-gather table also looks around ``GATHER_MIN_FRAME``
FRAME_SIZES = dict(sorted({**SIZES, "4kb": 4096, "16kb": 16384, "24kb": 24576}.items(), key=lambda item: item[1]))
SHORT_RUNS = (1, 2, 4, RUN)  # the burst lengths ``stream_hetero`` sends
SINKS = ("framed log", "shm ring", "socket")


def _frames(size: str, run: int = RUN) -> list[bytes]:
    return [bytes([k + 1]) * FRAME_SIZES[size] for k in range(run)]


def _joined(frames, prefix) -> bytes:
    """The run as one buffer of length-prefixed frames: one copy of each."""
    parts = []
    for frame in frames:
        parts.append(prefix.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


class _Log:
    """A ``FramedLog`` cut back to its header before every append, so the
    file stays one run long however many rounds are timed."""

    def __init__(self, frames, root):
        self.frames = frames
        self.log = FramedLog(os.path.join(root, "ablation.log"), b"PBIOABLA", 1, "ablation log")

    def _reset(self):
        log = self.log
        os.ftruncate(log.stream.fileno(), FILE_HEADER.size)
        log.stream.seek(FILE_HEADER.size)
        log.size = FILE_HEADER.size

    def join(self):
        self._reset()
        self.log.append(b"".join(self.frames))

    def iovec(self):
        self._reset()
        n = crc = 0
        for frame in self.frames:
            n += len(frame)
            crc = crc32(frame, crc)
        os.writev(self.log.stream.fileno(), [MSG_LEN.pack(n), *self.frames, V2_TRAILER.pack(crc, n)])

    def close(self):
        self.log.close()


class _Ring:
    """A ring that holds one run, drained by ``recv_many`` after each."""

    def __init__(self, frames, root):
        self.frames = frames
        self.a, self.b = shm_pair(capacity=2 * RUN * (len(frames[0]) + 4), directory=root)

    def join(self):
        a = self.a
        run = _joined(self.frames, _U32)
        ring = a._send_ring
        tail = a._reserve(len(run), None)
        ring.write_at(tail, run)
        ring.tail = tail + len(run)
        self.got = self.b.recv_many()

    def iovec(self):
        self.a.send_many(self.frames)
        self.got = self.b.recv_many()

    def close(self):
        self.a.close()
        self.b.close()


class _Socket:
    """A loopback pair whose far end is drained by a thread (a 3 MB run
    does not fit the socket buffers); the send call is what is timed."""

    def __init__(self, frames, root):
        self.frames = frames
        self.tx, self.rx = loopback_pair()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()

    def _drain(self):
        scratch = bytearray(1 << 20)
        sock = self.rx._sock
        sock.settimeout(None)
        try:
            while sock.recv_into(scratch):
                pass
        except OSError:
            pass

    def join(self):
        run = _joined(self.frames, _LEN)
        self.tx._sendv([run], len(run))

    def iovec(self):
        self.tx.send_many(self.frames)

    def close(self):
        self.tx.close()
        self.reader.join(timeout=5)
        self.rx.close()


_BUILD = dict(zip(SINKS, (_Log, _Ring, _Socket)))


def _measure(sink: str, size: str) -> tuple[float, float]:
    """Best per-run seconds of (join, iovec), rounds alternating so a
    host phase hits both."""
    with tempfile.TemporaryDirectory(prefix="iovec-") as root:
        rig = _BUILD[sink](_frames(size), root)
        try:
            inner = _inner(rig.iovec)
            t_join = t_iovec = float("inf")
            for _ in range(max(support.default_repeats(), 5)):
                t_join = min(t_join, best_of(rig.join, repeats=1, inner=inner))
                t_iovec = min(t_iovec, best_of(rig.iovec, repeats=1, inner=inner))
            return t_join, t_iovec
        finally:
            rig.close()


def _inner(fn) -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    return max(1, int(override)) if override else calibrated_inner(fn, target_s=20e-3, max_inner=500)


def table() -> dict[str, dict[str, tuple[float, float]]]:
    return {sink: {size: _measure(sink, size) for size in SIZES} for sink in SINKS}


class OwnDrain:
    """A loopback pair whose sender drains the far end itself between
    sends — a run is at most ``MAX_RUN_BYTES``, so a send never blocks.
    With no second thread on the GIL a 2-frame send reads its 3-4 us, not
    a thread wake-up; what is timed is ``send()`` alone, which puts
    ``wire`` bytes (prefixes and all) on the socket."""

    def __init__(self, wire: int):
        self.tx, self.rx = loopback_pair()
        self.scratch = bytearray(1 << 18)
        self.wire = wire

    def timed(self, send) -> float:
        t0 = perf_counter()
        send()
        elapsed = perf_counter() - t0
        left, sock, scratch = self.wire, self.rx._sock, self.scratch
        while left:
            left -= sock.recv_into(scratch)
        return elapsed

    def alternating_best(self, sends, inner: int) -> list[float]:
        """Per send, the best round mean of each of ``sends``, taking
        turns send by send so a host phase falls on all of them."""
        best = [float("inf")] * len(sends)
        for _ in range(max(support.default_repeats(), 5)):
            totals = [0.0] * len(sends)
            for _ in range(inner):
                for k, send in enumerate(sends):
                    totals[k] += self.timed(send)
            best = [min(b, t / inner) for b, t in zip(best, totals)]
        return best

    def close(self):
        self.tx.close()
        self.rx.close()


def _pack(natives) -> list[bytes]:
    return enc.data_frames(7, 1, natives)


def _gather(natives) -> list[SegmentedFrame]:
    return enc.data_frames(7, 1, natives, gather=0)


MAX_RUN_BYTES = 128 * 1024  # the reference benchmark's burst bound: 100 KB records travel one a burst


def send_inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    return max(1, int(override)) if override else 200


def pack_vs_gather() -> dict[int, dict[str, tuple[float, float]]]:
    """``{run length: {size: (pack s, gather s)}}`` on the loopback socket,
    building the frames included."""
    results: dict[int, dict[str, tuple[float, float]]] = {}
    for run in SHORT_RUNS:
        for size, nbytes in FRAME_SIZES.items():
            if run * nbytes > MAX_RUN_BYTES:
                continue
            natives = _frames(size, run)
            rig = OwnDrain(run * (4 + enc.HEADER_SIZE + nbytes))
            try:
                sends = [lambda: rig.tx.send_many(_pack(natives)), lambda: rig.tx.send_many(_gather(natives))]
                results.setdefault(run, {})[size] = tuple(rig.alternating_best(sends, send_inner()))
            finally:
                rig.close()
    return results


def report_pack_vs_gather(results) -> str:
    lines = [f"{'run':>4} {'frame':>6} {'pack us':>9} {'gather us':>10} {'pack/gather':>12}"]
    for run, by_size in results.items():
        for size, (t_pack, t_gather) in by_size.items():
            lines.append(f"{run:>4} {size:>6} {t_pack * 1e6:>9.1f} {t_gather * 1e6:>10.1f} {t_pack / t_gather:>12.2f}")
    lines.append(f"send_batch_native gathers from {GATHER_MIN_FRAME} B frames")
    return "\n".join(lines)


def report(results) -> str:
    lines = [f"{'sink':<11} {'frame':>6} {'join us':>9} {'iovec us':>9} {'join/iovec':>11}"]
    for sink, by_size in results.items():
        for size, (t_join, t_iovec) in by_size.items():
            lines.append(
                f"{sink:<11} {size:>6} {t_join * 1e6:>9.1f} {t_iovec * 1e6:>9.1f} {t_join / t_iovec:>11.2f}"
            )
        wins = [size for size, (t_join, t_iovec) in by_size.items() if t_iovec < t_join]
        if len(wins) in (0, len(by_size)):
            lines.append(f"{sink:<11} no crossover: {'iovec' if wins else 'join'} wins at every size")
        else:
            lines.append(f"{sink:<11} crossover: iovec wins at {', '.join(wins)}")
    return "\n".join(lines)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("path", ["join", "iovec"])
def test_send_path(benchmark, path, sink, size, tmp_path):
    rig = _BUILD[sink](_frames(size), str(tmp_path))
    benchmark.group = f"iovec crossover, {sink}, {RUN} x {size}"
    try:
        benchmark(getattr(rig, path))
    finally:
        rig.close()


def test_shape_both_paths_leave_the_same_bytes(tmp_path):
    """The joined and the gathered run are the same bytes in the log and
    the same frames off the ring."""
    frames = _frames("1kb")
    log, ring = _Log(frames, str(tmp_path)), _Ring(frames, str(tmp_path))
    try:
        images = []
        for path in (log.join, log.iovec):
            path()
            with open(log.log.path, "rb") as stream:
                images.append(stream.read())
        assert images[0] == images[1] and len(images[0]) > RUN * SIZES["1kb"]
        for path in (ring.join, ring.iovec):
            path()
            assert ring.got == frames
    finally:
        log.close()
        ring.close()


def test_shape_join_wins_small_and_iovec_wins_large():
    """On every sink packing wins at 100 B frames and loses at 100 KB (the
    finding of the two MPI papers): the crossover lies between."""
    results = table()
    print("\n" + report(results))
    for sink, by_size in results.items():
        (small_join, small_iovec), (large_join, large_iovec) = by_size["100b"], by_size["100kb"]
        assert small_join <= 1.15 * small_iovec, f"{sink}: the join no longer wins at 100 B"
        assert large_iovec <= 1.15 * large_join, f"{sink}: the iovec path no longer wins at 100 KB"


def test_shape_pack_wins_small_frames_and_gather_wins_large():
    """The per-frame choice behind ``GATHER_MIN_FRAME``, at the run
    lengths ``stream_hetero`` sends: ``header + record`` in one buffer is
    the cheaper frame at 100 B and 1 KB, the record's own buffer as a
    third iovec at 100 KB.  The middle is printed, not pinned."""
    results = pack_vs_gather()
    print("\n" + report_pack_vs_gather(results))
    for run, by_size in results.items():
        for size in ("100b", "1kb"):
            t_pack, t_gather = by_size[size]
            assert t_pack <= 1.1 * t_gather, f"run of {run}: packing no longer wins at {size}"
    t_pack, t_gather = results[1]["100kb"]
    assert t_gather <= 1.1 * t_pack, "gathering no longer wins at 100 KB"


if __name__ == "__main__":
    print(report(table()))
    print(report_pack_vs_gather(pack_vs_gather()))
