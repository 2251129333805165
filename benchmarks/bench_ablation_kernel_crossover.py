"""Ablation — how small a group should still go to the record kernel?

``DecodePipeline._decode_group`` has two ways to convert a run of ``n``
same-format fixed-size records: the structured-dtype kernel (one numpy
cast for the group, after ``_gather`` packs the payloads back to back)
or the generated scalar converter, once per record into a fresh
destination.  The kernel's cost is mostly fixed per call, the loop's is
linear in ``n``; the crossover depends on how many statements the
generated converter has, so ``_build_entry`` fixes it per cache entry:
``kernel_min_group = ceil(KERNEL_CALL_STATEMENTS / statements)``, and no
kernel at all past ``KERNEL_MAX_RECORD`` bytes.

This ablation times both paths for n in {1, 2, 3, 4, 8, 16} at the four
mechanical sizes and checks the rule: the path the entry picks is never
more than 1.25x slower than the better of the two.
"""

import os

import pytest

import support
from repro.core.conversion import build_batch_converter, build_plan
from repro.net import best_of
from bench_batch_throughput import _announced_stream

GROUPS = (1, 2, 3, 4, 8, 16)


def _inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    return max(1, int(override)) if override else 200


def _paths(size: str, n: int):
    """(kernel path, loop path, whether the entry picks the kernel) for
    a group of ``n`` frames, each path as ``_decode_group`` runs it."""
    _, _, frames, receiver = _announced_stream(size, n, seed=5)
    pipeline = receiver.pipeline
    pipeline.decode_batch(frames, lend=True)  # builds the cache entry
    wire_fmt, _ = pipeline.open_data(frames[0])
    native = pipeline.native_for(wire_fmt)
    entry = pipeline.entry_for(wire_fmt, native)
    # the entry holds no kernel past KERNEL_MAX_RECORD: build one to compare
    kernel = entry.batch or build_batch_converter(build_plan(wire_fmt, native))
    payloads = [pipeline.open_data(frame)[1] for frame in frames]
    rec_size, d, convert = wire_fmt.record_size, entry.native_size, entry.converter

    def by_kernel():
        if n == 1:
            return [kernel.convert(payloads[0])]
        blob = kernel.convert(pipeline._gather(payloads, rec_size))
        return [blob[o : o + d] for o in range(0, n * d, d)]

    def by_loop():
        return [convert(payload, bytearray(d)) for payload in payloads]

    assert [bytes(r) for r in by_kernel()] == [bytes(r) for r in by_loop()]
    return by_kernel, by_loop, entry.batch is not None and n >= entry.kernel_min_group


@pytest.mark.parametrize("n", GROUPS)
@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("path", ["kernel", "loop"])
def test_group_path(benchmark, path, size, n):
    by_kernel, by_loop, _ = _paths(size, n)
    benchmark.group = f"kernel crossover, {size} x {n}"
    benchmark(by_kernel if path == "kernel" else by_loop)


@pytest.mark.parametrize("n", GROUPS)
@pytest.mark.parametrize("size", support.SIZES)
def test_shape_entry_picks_the_cheaper_path(size, n):
    by_kernel, by_loop, picks_kernel = _paths(size, n)
    t_kernel = t_loop = float("inf")
    for _ in range(max(support.default_repeats(), 5)):  # alternate: host phases hit both
        t_kernel = min(t_kernel, best_of(by_kernel, repeats=1, inner=_inner()))
        t_loop = min(t_loop, best_of(by_loop, repeats=1, inner=_inner()))
    t_picked = t_kernel if picks_kernel else t_loop
    print(
        f"{size} x {n}: kernel {t_kernel * 1e6:.1f} us, loop {t_loop * 1e6:.1f} us, "
        f"picks {'kernel' if picks_kernel else 'loop'}"
    )
    assert t_picked <= 1.25 * min(t_kernel, t_loop), (
        f"{size} x {n}: picked {'kernel' if picks_kernel else 'loop'} at "
        f"{t_picked * 1e6:.1f} us; kernel {t_kernel * 1e6:.1f} us, loop {t_loop * 1e6:.1f} us"
    )
