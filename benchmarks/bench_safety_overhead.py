"""Happy-path overhead of the validated decode frontend (ISSUE 3).

Hostile-input hardening must be deployable by default: decoding with
``DEFAULT_LIMITS`` (size checks on every message, meta validation on
announcements, payload/record-size consistency) has to stay within a few
percent of ``limits=None`` (the seed behaviour: no resource checks) on
the steady-state path the paper measures — repeated data-message decode
with warm converters.

This bench times a recv-side decode loop on a heterogeneous pair:

* ``unchecked`` — the receive context built with ``limits=None``;
* ``checked``   — the same context shape with ``DEFAULT_LIMITS``.

Acceptance: the penalty is <= ``PBIO_BENCH_OVERHEAD_MAX`` percent
(default 5).  Timing discipline is the same as
``bench_fault_overhead.py``: interleaved rounds, median per-round ratio
vs ratio-of-minima, best of three measurements.
"""

import os
import statistics

import support
from repro.abi import RecordSchema, codec_for, layout_record
from repro.core import DEFAULT_LIMITS, IOContext
from repro.wire.timing import best_of

SCHEMA = RecordSchema.from_pairs(
    "sample", [("seq", "int"), ("values", "double[16]"), ("tag", "char[8]")]
)

RECORD = {"seq": 7, "values": tuple(float(i) for i in range(16)), "tag": b"round"}


def _inner() -> int:
    override = os.environ.get("PBIO_BENCH_INNER")
    return max(1, int(override)) if override else 2000


def _overhead_budget_pct() -> float:
    override = os.environ.get("PBIO_BENCH_OVERHEAD_MAX")
    return float(override) if override else 5.0


def _build_decode_loop(limits):
    """A warmed decode closure for one converting receive path."""
    sender = IOContext(support.X86)
    receiver = IOContext(support.SPARC, limits=limits)
    handle = sender.register_format(SCHEMA)
    receiver.expect(SCHEMA)
    receiver.receive(sender.announce(handle))
    codec = codec_for(layout_record(SCHEMA, support.X86))
    message = sender.encode_native(handle, codec.encode(RECORD))
    decode = receiver.decode

    def loop():
        decode(message)

    loop()  # warm the converter outside the timed region
    return loop


def _compare() -> tuple[float, float, float]:
    """Interleaved rounds: (unchecked_s, checked_s, overhead_pct)."""
    unchecked_fn = _build_decode_loop(None)
    checked_fn = _build_decode_loop(DEFAULT_LIMITS)
    inner = _inner()
    unchecked = checked = float("inf")
    ratios = []
    for i in range(3 * support.default_repeats()):
        if i % 2 == 0:
            u = best_of(unchecked_fn, repeats=1, inner=inner)
            c = best_of(checked_fn, repeats=1, inner=inner)
        else:
            c = best_of(checked_fn, repeats=1, inner=inner)
            u = best_of(unchecked_fn, repeats=1, inner=inner)
        unchecked = min(unchecked, u)
        checked = min(checked, c)
        ratios.append(c / u)
    overhead = min(statistics.median(ratios), checked / unchecked)
    return unchecked, checked, (overhead - 1.0) * 100.0


def test_default_limits_overhead_within_budget():
    """Same re-measure-on-noise discipline as bench_fault_overhead."""
    budget = _overhead_budget_pct()
    worst = -float("inf")
    for _ in range(3):
        unchecked, checked, overhead_pct = _compare()
        print(
            f"\nunchecked {unchecked * 1e6:.2f} us | checked {checked * 1e6:.2f} us "
            f"-> overhead {overhead_pct:+.2f}% (budget {budget:.0f}%)"
        )
        if overhead_pct <= budget:
            return
        worst = max(worst, overhead_pct)
    raise AssertionError(
        f"DEFAULT_LIMITS costs {worst:.2f}% in 3/3 measurements (> {budget}% budget)"
    )


if __name__ == "__main__":
    test_default_limits_overhead_within_budget()
