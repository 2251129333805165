"""Fabric scaling and edge filter push-down.

Two claims from the sharded-fabric design (docs/fabric.md) are gated
here:

* **Horizontal scaling** — one relay process is one event loop, so a
  sharded fabric should approach linear throughput in worker count.
  The measurement forks real OS processes (one per
  :class:`~repro.net.fabric.RelayWorker`), partitions the channels with
  the same :class:`~repro.net.fabric.HashRing` a dispatcher uses, and
  times the whole fleet wall-clock over a fixed workload of 32-record
  bursts of ~1 KiB mechanical records.  Gate: 1 -> 4 workers speeds up
  by >= ``PBIO_BENCH_FABRIC_SCALE_MIN`` (default 1.8x).  Skipped below
  4 CPUs — a single core cannot exhibit parallel speedup.

* **Filter push-down** — a subscriber interested in 1% of a stream
  should not decode the other 99%.  The same workload flows through a
  worker twice: once with ``filter_expr`` pushed down to the leaf (the
  DCG predicate reads two fields out of the packed bytes; only matches
  are delivered and decoded) and once delivered unfiltered with the
  subscriber decoding every record and filtering natively.  Gate: at 1%
  selectivity push-down is >= ``PBIO_BENCH_FABRIC_PUSHDOWN_MIN``
  (default 5x) faster end to end; 10% and 50% are reported alongside.

``PBIO_BENCH_FABRIC_CHANNELS`` / ``PBIO_BENCH_FABRIC_BURSTS`` scale the
workload (CI smoke shrinks it).
"""

import multiprocessing
import os
import struct
import time

import pytest

import support
from repro.core import IOContext
from repro.core import encoder as enc
from repro.net import HashRing, InMemoryPipe, RelayWorker
from repro.net.transport import Transport
from repro.workloads import mechanical
from repro.workloads.generators import record_stream

SCHEMA = mechanical.schema_for_size("1kb")
BURST = 32  # the acceptance workload: bursts of 32 x ~1kb records
BASE_CID = 0x5000


def _channels() -> int:
    return max(2, int(os.environ.get("PBIO_BENCH_FABRIC_CHANNELS", "8")))


def _bursts() -> int:
    return max(1, int(os.environ.get("PBIO_BENCH_FABRIC_BURSTS", "16")))


def _scale_min() -> float:
    return float(os.environ.get("PBIO_BENCH_FABRIC_SCALE_MIN", "1.8"))


def _pushdown_min() -> float:
    return float(os.environ.get("PBIO_BENCH_FABRIC_PUSHDOWN_MIN", "5.0"))


def _repeats() -> int:
    return min(3, support.default_repeats())


class _Sink(Transport):
    """A subscriber endpoint that absorbs frames at memcpy speed — the
    scaling bench measures the fabric's work, not a consumer's."""

    def send(self, message) -> None:
        pass

    def send_many(self, messages) -> None:
        pass

    def recv(self) -> bytes:
        raise NotImplementedError

    def poll_recv(self) -> None:
        return None

    def close(self) -> None:
        pass


def _channel_frames(channels: int, bursts: int) -> dict[tuple[int, int], list[bytes]]:
    """``{key: [announcement, *data frames]}`` for every channel.

    One encode pass builds the template channel; the others are the same
    frames re-addressed (the context id lives at a fixed header offset),
    exactly what a multi-tenant ingress stream looks like.
    """
    sender = IOContext(support.SPARC, context_id=BASE_CID)
    handle = sender.register_format(SCHEMA)
    records = list(record_stream(SCHEMA, count=BURST * bursts, seed=5))
    for i, record in enumerate(records):
        record["timestep"] = i % 100
    template = [sender.announce(handle)] + [sender.encode(handle, r) for r in records]
    out = {}
    for c in range(channels):
        cid = BASE_CID + c
        readdress = struct.Struct(">I").pack(cid)
        out[(cid, handle.format_id)] = [
            bytes(f[:4]) + readdress + bytes(f[8:]) for f in template
        ]
    return out


def _shard_main(name, shard, subscribers, barrier, out) -> None:
    """One forked fabric shard: subscribe sinks, sync, ingest, report."""
    worker = RelayWorker(name)
    for key in shard:
        for _ in range(subscribers):
            worker.subscribe(key, _Sink(), format_name=None)
    barrier.wait()
    t0 = time.perf_counter()
    routed = 0
    for key, frames in shard.items():
        worker.ingest(frames[0])  # the announcement
        data = frames[1:]
        for i in range(0, len(data), BURST):
            chunk = data[i : i + BURST]
            worker.ingest_batch(chunk, [enc.try_unpack_header(m) for m in chunk])
            routed += len(chunk)
    elapsed = time.perf_counter() - t0
    barrier.wait()
    out.put((name, routed, elapsed))


def _run_fleet(frames_by_key, workers: int, subscribers: int = 2) -> tuple[float, int]:
    """Fork one process per worker, ring-partition the channels, return
    (fleet wall seconds, records routed)."""
    ring = HashRing([f"w{i}" for i in range(workers)])
    shards: dict[str, dict] = {f"w{i}": {} for i in range(workers)}
    for key, frames in frames_by_key.items():
        shards[ring.owner(key)][key] = frames
    shards = {name: shard for name, shard in shards.items() if shard}
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(len(shards) + 1)
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_shard_main, args=(name, shard, subscribers, barrier, out))
        for name, shard in shards.items()
    ]
    for proc in procs:
        proc.start()
    barrier.wait()
    barrier.wait()
    # Fleet wall = the slowest shard's own clock.  Every shard starts
    # its timer on the same barrier release, so max(elapsed) is the
    # start-synchronized makespan — unlike timing barrier-to-barrier in
    # this parent, which undercounts arbitrarily when the parent is
    # descheduled between the barrier release and its t0.
    wall = 0.0
    routed = 0
    for _ in procs:
        _name, n, elapsed = out.get(timeout=30)
        routed += n
        wall = max(wall, elapsed)
    for proc in procs:
        proc.join(timeout=30)
    return wall, routed


def measure_scaling(worker_counts=(1, 2, 4)) -> dict[int, float]:
    """``{workers: records/second}`` over the fixed burst workload."""
    frames_by_key = _channel_frames(_channels(), _bursts())
    total = sum(len(frames) - 1 for frames in frames_by_key.values())
    rates = {}
    for workers in worker_counts:
        wall = float("inf")
        for _ in range(_repeats()):
            elapsed, routed = _run_fleet(frames_by_key, workers)
            assert routed == total, f"{routed} routed of {total}"
            wall = min(wall, elapsed)
        rates[workers] = total / wall
    return rates


def test_fabric_scaling_1_to_4_workers():
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"parallel speedup needs >= 4 CPUs (this host has {cpus})")
    floor = _scale_min()
    rates = measure_scaling((1, 4))
    speedup = rates[4] / rates[1]
    print(
        f"\n1 worker {rates[1]:,.0f} rec/s | 4 workers {rates[4]:,.0f} rec/s "
        f"-> {speedup:.2f}x (gate >= {floor:.1f}x)"
    )
    assert speedup >= floor, (
        f"sharding 1 -> 4 workers sped up only {speedup:.2f}x (< {floor:.1f}x)"
    )


# -- filter push-down ----------------------------------------------------------


def _build_edge(frames, key, expression, cutoff=0):
    """One worker with a single subscriber leaf (filtered or not) and a
    decoding receiver; returns (run_once, delivered_counter)."""
    worker = RelayWorker("edge")
    pipe = InMemoryPipe()
    worker.subscribe(
        key, pipe.a, format_name=SCHEMA.name, filter_expr=expression
    )
    rx = IOContext(support.I86)
    rx.expect(SCHEMA)
    worker.ingest(frames[0])  # announcement: warm the leaf's registry
    data = frames[1:]
    headers = [enc.try_unpack_header(m) for m in data]

    def run() -> int:
        for i in range(0, len(data), BURST):
            worker.ingest_batch(data[i : i + BURST], headers[i : i + BURST])
        matched = 0
        while (frame := pipe.b.poll_recv()) is not None:
            record = rx.receive(frame)
            if record is None:
                continue  # the announcement replay
            if expression is None:
                # Subscriber-side filtering: full decode, then test.
                if record["timestep"] < cutoff:
                    matched += 1
            else:
                matched += 1
        return matched

    run()  # warm converters and the compiled predicate outside timing
    return run


def measure_pushdown(selectivities=(1, 10, 50)) -> dict[int, tuple[float, float]]:
    """``{selectivity_pct: (t_pushdown_s, t_full_decode_s)}`` per pass."""
    frames_by_key = _channel_frames(1, _bursts())
    ((key, frames),) = frames_by_key.items()
    out = {}
    for pct in selectivities:
        push = _build_edge(frames, key, f"timestep < {pct}")
        full = _build_edge(frames, key, None, cutoff=pct)
        n = len(frames) - 1
        expect = sum(1 for i in range(n) if i % 100 < pct)
        assert push() == full() == expect
        t_push = t_full = float("inf")
        for _ in range(_repeats()):
            t_push = min(t_push, _timed(push))
            t_full = min(t_full, _timed(full))
        out[pct] = (t_push, t_full)
    return out


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_filter_pushdown_beats_full_decode():
    floor = _pushdown_min()
    results = measure_pushdown()
    print()
    for pct, (t_push, t_full) in results.items():
        print(
            f"selectivity {pct:3d}%: push-down {t_push * 1e3:8.2f} ms | "
            f"full decode {t_full * 1e3:8.2f} ms -> {t_full / t_push:5.2f}x"
        )
    t_push, t_full = results[1]
    speedup = t_full / t_push
    assert speedup >= floor, (
        f"1%-selectivity push-down only {speedup:.2f}x faster than "
        f"subscriber-side full decode (< {floor:.1f}x)"
    )


if __name__ == "__main__":
    rates = measure_scaling()
    for workers, rate in rates.items():
        print(f"{workers} worker(s): {rate:12,.0f} rec/s")
    test_filter_pushdown_beats_full_decode()
