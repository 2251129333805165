"""Shared builders for the benchmark suite.

Every benchmark follows the paper's experimental setup (Section 4):

* machines: the Sun Ultra 30 (``SPARC_V8``, big-endian) and the x86 PC
  (``X86``, little-endian), as simulated ABIs;
* workload: the mechanical-engineering mixed-field records at 100 B,
  1 KB, 10 KB and 100 KB;
* protocol: data "is assumed to exist in binary format prior to
  transmission", so senders start from prebuilt native bytes, and
  receivers must deliver a record in their own native layout;
* one-time costs (format registration, meta exchange, datatype commit,
  converter generation) happen at bind time, before timing starts —
  except where a benchmark explicitly measures them (the ablations).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.abi import SPARC_V8, X86, MachineDescription, StructLayout, layout_record
from repro.core import PbioWire
from repro.net import NetworkModel, best_of
from repro.wire import IiopWire, MpiWire, XmlWire
from repro.wire.common import BoundFormat
from repro.workloads import mechanical

SIZES = mechanical.SIZES

#: The paper's two hosts.
SPARC = SPARC_V8
I86 = X86

#: Systems compared in Figures 2 and 3 (construction order = legend order).
SYSTEM_FACTORIES = {
    "XML": XmlWire,
    "MPICH": MpiWire,
    "CORBA": IiopWire,
    "PBIO": PbioWire,
}


@dataclass
class Exchange:
    """One (system, size, direction) measurement setup."""

    system: str
    size: str
    bound: BoundFormat
    native: bytes  # sender-side native record
    wire: bytes  # encoded message (for decode-side benchmarks)
    src_layout: StructLayout
    dst_layout: StructLayout


def build_exchange(
    system_name: str,
    size: str,
    src: MachineDescription = SPARC,
    dst: MachineDescription = I86,
    *,
    conversion: str | None = None,
) -> Exchange:
    """Bind one wire system for one record size and direction."""
    schema = mechanical.schema_for_size(size)
    src_layout = layout_record(schema, src)
    dst_layout = layout_record(schema, dst)
    if system_name == "PBIO":
        system = PbioWire(conversion or "dcg")
    elif conversion is not None:
        raise ValueError("conversion mode only applies to PBIO")
    else:
        system = SYSTEM_FACTORIES[system_name]()
    bound = system.bind(src_layout, dst_layout)
    native = mechanical.native_bytes(size, src)
    wire = bound.encode(native)
    # Warm the converter caches so benchmarks measure steady state.
    bound.decode(wire)
    return Exchange(system_name, size, bound, native, wire, src_layout, dst_layout)


def measure_encode_ms(ex: Exchange, *, repeats: int | None = None, inner: int | None = None) -> float:
    """Best-case encode time, in ms.  PBIO uses its scatter-gather path
    (header + application buffer), the others produce their wire bytes."""
    if hasattr(ex.bound, "encode_segments"):
        fn = lambda: ex.bound.encode_segments(ex.native)  # noqa: E731
    else:
        fn = lambda: ex.bound.encode(ex.native)  # noqa: E731
    return best_of(fn, repeats=repeats or default_repeats(), inner=inner or _inner_for(ex.size)) * 1e3


def measure_decode_ms(ex: Exchange, *, repeats: int | None = None, inner: int | None = None) -> float:
    """Best-case decode time (wire message -> receiver-native record), ms."""
    fn = lambda: ex.bound.decode(ex.wire)  # noqa: E731
    return best_of(fn, repeats=repeats or default_repeats(), inner=inner or _inner_for(ex.size)) * 1e3


def _inner_for(size: str) -> int:
    # PBIO_BENCH_INNER overrides the per-size loop counts — CI smoke runs
    # set it to 1 so the harness exercises every code path in seconds.
    override = os.environ.get("PBIO_BENCH_INNER")
    if override:
        return max(1, int(override))
    return {"100b": 50, "1kb": 20, "10kb": 5, "100kb": 2}[size]


def default_repeats() -> int:
    """Timing repeats per measurement (PBIO_BENCH_REPEATS overrides)."""
    override = os.environ.get("PBIO_BENCH_REPEATS")
    if override:
        return max(1, int(override))
    return 7


def overhead_vs_floor(base_fn, loaded_fn, floor_fn, *, inner: int) -> tuple:
    """Time three loops in interleaved rounds; gate an *absolute* overhead.

    Returns ``(base_s, loaded_s, floor_s, multiple, legacy_pct)``:
    per-side minima, the overhead ``loaded - base`` as a multiple of
    ``floor`` (the irreducible work the loaded side adds, timed alone),
    and the ratio ``loaded / base - 1`` in percent that the durability
    gate used to be.  A ratio budget tightens by itself whenever
    ``base`` gets faster; the multiple does not.  Both figures are the
    lower of the median per-round value and the value from per-side
    minima, and the order flips every round, so neither scheduler noise
    nor a slow phase of the host produces a false regression.
    """
    base = loaded = floor = float("inf")
    ratios, multiples = [], []
    order = [base_fn, loaded_fn, floor_fn]
    for _ in range(3 * default_repeats()):
        timed = {fn: best_of(fn, repeats=1, inner=inner) for fn in order}
        order.reverse()
        b, m, f = timed[base_fn], timed[loaded_fn], timed[floor_fn]
        base, loaded, floor = min(base, b), min(loaded, m), min(floor, f)
        ratios.append(m / b)
        multiples.append((m - b) / f)
    multiple = min(statistics.median(multiples), (loaded - base) / floor)
    legacy_pct = (min(statistics.median(ratios), loaded / base) - 1.0) * 100.0
    return base, loaded, floor, multiple, legacy_pct


#: Where ``append_trajectory`` writes its machine-readable result files.
#: ``results/`` is gitignored; CI jobs upload it as an artifact instead.
TRAJECTORY_DIR = Path(__file__).resolve().parent.parent / "results"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def trajectory_point(
    *,
    records: int,
    payload_bytes: int,
    samples_s: list[float],
    extra: dict | None = None,
) -> dict:
    """Summarise one benchmark run as a machine-readable point.

    ``samples_s`` are per-iteration wall times in seconds for processing
    ``records`` records / ``payload_bytes`` bytes.  Rates use the median
    sample so a single descheduled iteration cannot flatter or sandbag
    the trajectory.  ``p99_s`` is ``None`` below 100 samples: with fewer
    there is no sample beyond the 99th percentile, and reporting the
    maximum (or, with one sample, the median) would invent a tail.
    """
    ordered = sorted(samples_s)
    p50 = statistics.median(ordered)
    p99 = ordered[int(len(ordered) * 0.99)] if len(ordered) >= 100 else None
    point = {
        "records": records,
        "payload_bytes": payload_bytes,
        "p50_s": p50,
        "p99_s": p99,
        "records_per_sec": records / p50 if p50 else 0.0,
        "bytes_per_sec": payload_bytes / p50 if p50 else 0.0,
    }
    if extra:
        point.update(extra)
    return point


def append_trajectory(name: str, points: list[dict]) -> Path:
    """Append one timestamped run to ``results/BENCH_<name>.json``.

    The file holds a JSON array of runs; each run records the git sha,
    a UTC timestamp, and the measurement points, so successive CI runs
    build a perf trajectory that tooling can diff without scraping logs.
    """
    TRAJECTORY_DIR.mkdir(parents=True, exist_ok=True)
    path = TRAJECTORY_DIR / f"BENCH_{name}.json"
    runs: list[dict] = []
    if path.exists():
        try:
            runs = json.loads(path.read_text())
        except (ValueError, OSError):
            runs = []  # a torn previous write must not wedge the suite
    runs.append(
        {
            "name": name,
            "git_sha": _git_sha(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "points": points,
        }
    )
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(runs, indent=2) + "\n")
    tmp.replace(path)
    return path


#: The paper-calibrated network model used by round-trip compositions.
NETWORK = NetworkModel.ethernet_100mbps()


def composed_roundtrip_ms(fwd: Exchange, back: Exchange) -> dict[str, float]:
    """Figure 1/5-style composition: measured CPU costs + modelled network.

    ``fwd`` is sparc->x86, ``back`` x86->sparc (or whatever pair the caller
    built).  Returns the per-segment breakdown in milliseconds.
    """
    segments = {
        "fwd_encode": measure_encode_ms(fwd),
        "fwd_network": NETWORK.one_way_s(len(fwd.wire)) * 1e3,
        "fwd_decode": measure_decode_ms(fwd) + NETWORK.receive_overhead_s() * 1e3,
        "back_encode": measure_encode_ms(back),
        "back_network": NETWORK.one_way_s(len(back.wire)) * 1e3,
        "back_decode": measure_decode_ms(back) + NETWORK.receive_overhead_s() * 1e3,
    }
    segments["total"] = sum(segments.values())
    return segments
