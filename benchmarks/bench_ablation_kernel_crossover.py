"""Ablation — which path should a group of ``n`` records take?

``DecodePipeline._decode_group`` has three ways to convert a run of ``n``
same-format fixed-size records:

* the byte gather (:func:`repro.core.conversion.gather_index`): for a plan
  that only moves bytes, the records packed one zero byte apart and
  gathered by one 2-D ``take``, while the group holds two or more records
  and at most ``GATHER_MAX_BYTES`` native bytes;
* the structured-dtype kernel: one numpy cast for the group, after
  ``_gather`` packs the payloads back to back;
* the generated scalar converter, once per record into a fresh
  destination — itself one gather for a byte move within the bound.

The kernel's cost is mostly fixed per call, the loop's is linear in ``n``;
the crossover depends on how many statements the generated converter has,
so ``_build_entry`` fixes it per cache entry: ``kernel_min_group =
ceil(KERNEL_CALL_STATEMENTS / statements)``, and no kernel at all past
``KERNEL_MAX_RECORD`` bytes.  The gather costs about a nanosecond a byte
and little per call: it wins small groups and loses large ones.

This ablation times the three paths for n in {1, 2, 3, 4, 8, 16} at the
four mechanical sizes and checks the rule: the path the entry picks is
never more than 1.25x slower than the best of them.  Each line also
prints the floor: one ``bytearray`` copy of the group's wire bytes.
"""

import os

import pytest

import support
from repro.core.conversion import GATHER_MAX_BYTES, build_batch_converter, build_plan, gather_index
from repro.wire.timing import best_of
from bench_batch_throughput import _announced_stream

GROUPS = (1, 2, 3, 4, 8, 16)
PATHS = ("take", "kernel", "loop")


def _inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    return max(1, int(override)) if override else 200


def _paths(size: str, n: int):
    """({path: callable}, the path the entry picks, the floor) for a group
    of ``n`` frames, each path as ``_decode_group`` runs it."""
    _, _, frames, receiver = _announced_stream(size, n, seed=5)
    pipeline = receiver.pipeline
    pipeline.decode_batch(frames, lend=True)  # builds the cache entry
    wire_fmt, _ = pipeline.open_data(frames[0])
    native = pipeline.native_for(wire_fmt)
    entry, _ = pipeline.entry_for(wire_fmt, native)
    plan = build_plan(wire_fmt, native)
    # past the bounds the entry holds no gather or no kernel: build them to compare
    kernel = entry.batch or build_batch_converter(plan)
    gather = build_batch_converter(plan, gather_index(plan))
    payloads = [pipeline.open_data(frame)[1] for frame in frames]
    rec_size, d, convert = wire_fmt.record_size, entry.native_size, entry.converter
    joined = b"".join(payloads)

    def by_take():
        blob = gather.take(payloads)
        return [blob[o : o + d] for o in range(0, n * d, d)]

    def by_kernel():
        if n == 1:
            return [kernel.convert(payloads[0])]
        blob = kernel.convert(pipeline._gather(payloads, rec_size))
        return [blob[o : o + d] for o in range(0, n * d, d)]

    def by_loop():
        return [convert(payload, bytearray(d)) for payload in payloads]

    want = [bytes(r) for r in by_loop()]
    assert [bytes(r) for r in by_kernel()] == want and [bytes(r) for r in by_take()] == want
    if entry.batch is None or n < entry.kernel_min_group:
        picked = "loop"
    elif n * d <= GATHER_MAX_BYTES and entry.batch.gather is not None:
        picked = "take"
    else:
        picked = "kernel"
    return {"take": by_take, "kernel": by_kernel, "loop": by_loop}, picked, lambda: bytearray(joined)


@pytest.mark.parametrize("n", GROUPS)
@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("path", PATHS)
def test_group_path(benchmark, path, size, n):
    paths, _, _ = _paths(size, n)
    benchmark.group = f"kernel crossover, {size} x {n}"
    benchmark(paths[path])


@pytest.mark.parametrize("n", GROUPS)
@pytest.mark.parametrize("size", support.SIZES)
def test_shape_entry_picks_the_cheaper_path(size, n):
    paths, picked, floor = _paths(size, n)
    times = dict.fromkeys(PATHS, float("inf"))
    t_floor = float("inf")
    for _ in range(max(support.default_repeats(), 5)):  # alternate: host phases hit every path
        for path, run in paths.items():
            times[path] = min(times[path], best_of(run, repeats=1, inner=_inner()))
        t_floor = min(t_floor, best_of(floor, repeats=1, inner=_inner()))
    best = min(times.values())
    shown = ", ".join(f"{path} {t * 1e6:.1f} us" for path, t in times.items())
    print(f"{size} x {n}: {shown}, floor (one bytearray copy) {t_floor * 1e6:.2f} us, picks {picked}")
    assert times[picked] <= 1.25 * best, f"{size} x {n}: picked {picked} at {times[picked] * 1e6:.1f} us; {shown}"
