#!/usr/bin/env python3
"""The reference benchmark: four composed workloads, end to end and by layer.

    python3 benchmarks/e2e/run.py                      # everything, seed 1
    python3 benchmarks/e2e/run.py --workload stream_hetero --seed 7 --seconds 20 --trace 0

Without ``--workload`` all four workloads run, their slices interleaved
round-robin; without ``--trace`` an untraced pass (the end-to-end
metrics) is followed by a traced pass (the per-layer metrics).  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object — for a single workload and pass exactly
``{"correct", "attempted", "failed", "metrics"}``, the contract
``BENCHMARK.json`` describes.

One process, one thread, closed loop, one burst in flight.  All inputs
derive from ``--seed``; the program under test sees only generated
bytes.  Each workload is cut into fixed-work slices; the end-to-end
timings are quiet-decile means over the slices (estimators.py), and
end-to-end numbers always come from untraced slices.  Before and after
the timed slices every delivered record of one slice is compared
byte-for-byte with the interpreted reference path; the timed slices
check count, order, ``node_id`` and ``timestep`` of every delivery.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # measure this checkout's sources, never a copy installed elsewhere
    sys.exit(f"e2e benchmark: no source tree at {SRC}; run it from the root of a checkout")
sys.path[:0] = [str(HERE), str(SRC)]

import catalog  # noqa: E402
import estimators  # noqa: E402
import spans  # noqa: E402
from repro.net import FaultPlan  # noqa: E402
from rigs import RIGS, StreamRig  # noqa: E402
from spans import CALLS, COUNT, SELF, TOTAL  # noqa: E402

WARMUP_SLICES = 2  # discarded: converters, announcements, pools, page cache settle
SETUPS_FIRST = 5  # set-ups timed before the slices; the very first is discarded,
# the lower quartile of the rest is reported
SETUP_SHARE = 0.10  # ... and more between the slices, up to this share of the run:
# the host's speed moves in phases of seconds, so set-ups bunched at the
# start of a run time one phase, and their median moved 25% between runs
TRACE_EVERY = 5  # every fifth burst of a traced slice is traced (spans.Tracer)
DISTURBED_ABOVE = 1.5  # host.calibration_spread beyond which a run is flagged

_UNITS = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}


def _us(ns: float, per: float) -> float:
    return ns / 1e3 / per if per else 0.0


def _written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (WAL segments
    and cursor stores; socket sends and shm rings do not count)."""
    try:
        for line in Path("/proc/self/io").read_text().splitlines():
            if line.startswith("wchar:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Traced:
    """A rig built under its own tracer, plus what its slices recorded.

    Slice ``k`` traces the bursts ``TRACE_EVERY`` apart starting at
    ``k``, so ``TRACE_EVERY`` consecutive slices trace every burst
    exactly once.  Only such complete cycles reach :attr:`totals` (all
    slices, when there was no complete cycle): every burst then weighs
    the same, and counts taken from the spans repeat exactly however
    many slices a timed run fits in.
    """

    def __init__(self, cls, inputs, workroot, **options):
        self.tracer = spans.Tracer(every=TRACE_EVERY, by_size=cls.by_size)
        for point in cls.trace_points():
            self.tracer.patch(*point)
        self.totals = spans.Totals()
        self.diag = spans.Totals()  # rtt_scalar: the other sizes' round trips
        self._cycle = (spans.Totals(), spans.Totals())
        self.walls: list[float] = []
        self.tracer.install()
        try:
            self.rig = cls(inputs, workroot, self.tracer, **options)
            self.rig.prime()
        finally:
            self.tracer.uninstall()

    def run(self, phase: int, bursts=None):
        """One traced slice (of ``bursts``: the diagnostic ones)."""
        cycle, done = (self._cycle[0], self.totals) if bursts is None else (self._cycle[1], self.diag)
        self.tracer.phase(phase)
        self.tracer.install()
        try:
            return self.rig.run_slice(bursts)
        finally:
            self.tracer.uninstall()
            self.tracer.fold(cycle)
            if (phase + 1) % TRACE_EVERY == 0:
                done.merge(cycle)

    def finish(self) -> None:
        for cycle, done in zip(self._cycle, (self.totals, self.diag), strict=True):
            if not done.cells:
                done.merge(cycle)

    def warm(self) -> None:
        self.run(0)
        self.tracer.reset()
        self._cycle = (spans.Totals(), spans.Totals())

    def verify(self) -> tuple[int, int]:
        self.tracer.enabled = False
        self.tracer.install()
        try:
            return self.rig.verify()
        finally:
            self.tracer.uninstall()
            self.tracer.enabled = True


class Session:
    """One workload of one pass: set-up, timed slices, metrics."""

    def __init__(self, name: str, seed: int, workroot: str, *, traced: bool):
        self.name, self.seed, self.workroot, self.traced = name, seed, workroot, traced
        self.cls = RIGS[name]
        self.attempted = self.failed = 0
        self.spent = 0.0
        self.walls: list[float] = []  # untraced slice wall seconds
        self.tails: list[tuple[float, float, float]] = []  # per-slice burst p50, p90, p99
        self.by_size: dict[str, list[float]] = {}  # per-slice seconds per record
        self.diag_p50: dict[str, list[float]] = {}  # rtt_scalar: per-slice round trip
        self.variants: list[Traced] = []
        self.wal_bytes = 0

    # -- set-up ---------------------------------------------------------------

    def prepare(self) -> None:
        cls, root = self.cls, self.workroot
        self.inputs = inputs = cls.make_inputs(self.seed)
        gc.collect()
        gc.freeze()  # the generated inputs are not garbage: keep them out of full collections
        self._where: dict[str, list[int]] = {}  # burst indices of each size class
        for i, burst in enumerate(inputs.bursts):
            self._where.setdefault(burst.size, []).append(i)
        if not self.traced:
            self.setups: list[float] = []
            for _ in range(SETUPS_FIRST):
                self._time_setup()
        self.rig = cls(inputs, root)
        self.rig.prime()
        if self.traced:
            self.variants.append(Traced(cls, inputs, root))
            if cls is StreamRig:  # the A/B for safety.limits_tax_share
                self.variants.append(Traced(cls, inputs, root, limits=None))
        for _ in range(WARMUP_SLICES):
            self.rig.run_slice()
            for variant in self.variants:
                variant.warm()
        self._verify()
        if self.traced:
            self.counts_before = self.variants[0].rig.counts()
        else:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            self._account(self.rig.run_slice()[2])
            self.peak_alloc = (tracemalloc.get_traced_memory()[1] - base) / 1e6
            tracemalloc.stop()
        self.gc_before = sum(g["collections"] for g in gc.get_stats())

    def _time_setup(self) -> None:
        t0 = perf_counter()
        rig = self.cls(self.inputs, self.workroot)
        rig.prime()
        self.setups.append(perf_counter() - t0)
        rig.close()

    def _account(self, failed: int, attempted: int | None = None) -> None:
        self.attempted += self.inputs.records if attempted is None else attempted
        self.failed += failed

    def _verify(self) -> None:
        for attempted, failed in [self.rig.verify()] + [v.verify() for v in self.variants]:
            self._account(failed, attempted)

    # -- the timed loop ---------------------------------------------------------

    def step(self) -> None:
        """One round: an untraced slice and, in a traced pass, one slice
        of every traced variant right after it (so both see the same
        phase of the host's drift)."""
        t0 = perf_counter()
        inputs, k = self.inputs, len(self.walls)
        wall, latencies, failed = self.rig.run_slice()
        self._account(failed)
        self.walls.append(wall)
        ranked = sorted(latencies)
        self.tails.append(tuple(ranked[int(q * (len(ranked) - 1))] for q in (0.5, 0.9, 0.99)))
        if self.traced:
            for size, where in self._where.items():
                seconds = sum(latencies[i] for i in where)
                records = sum(inputs.bursts[i].records for i in where)
                self.by_size.setdefault(size, []).append(seconds / records)
            if inputs.diag_bursts:
                _wall, latencies, failed = self.rig.run_slice(inputs.diag_bursts)
                self._account(failed, sum(b.records for b in inputs.diag_bursts))
                for size in catalog.SIZES:
                    trips = [
                        t
                        for t, b in zip(latencies, inputs.diag_bursts, strict=True)
                        if b.size == size
                    ]
                    if trips:
                        self.diag_p50.setdefault(size, []).append(statistics.median(trips))
            for variant in self.variants:
                written = _written_bytes()
                wall, _latencies, failed = variant.run(k)
                if variant is self.variants[0]:
                    self.wal_bytes += _written_bytes() - written
                self._account(failed)
                variant.walls.append(wall)
            if inputs.diag_bursts:
                _w, _l, failed = self.variants[0].run(k, inputs.diag_bursts)
                self._account(failed, sum(b.records for b in inputs.diag_bursts))
        elif sum(self.setups[SETUPS_FIRST:]) < SETUP_SHARE * self.spent:
            self._time_setup()
        self.spent += perf_counter() - t0

    # -- results ----------------------------------------------------------------

    def finish(self, calibrations: list[float]) -> dict:
        self.gc_collections = sum(g["collections"] for g in gc.get_stats()) - self.gc_before
        if self.traced:
            self.counts = self.variants[0].rig.counts()
            for variant in self.variants:
                variant.finish()
        self._verify()
        metrics = self._layer_metrics(calibrations) if self.traced else self._end_to_end()
        spread = estimators.calibration_spread(calibrations)
        result = {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(self.traced),
            "slices": len(self.walls),
            "disturbed": spread > DISTURBED_ABOVE,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / self.attempted,
            "metrics": {k: {"value": v, "unit": _UNITS[k]} for k, v in metrics.items()},
        }
        if self.traced:
            main = self.variants[0]
            result["spans"] = {
                "every": TRACE_EVERY,
                "aggregate": spans.table(main.totals.cells),
                "by_size": main.totals.sizes,
                "raw": main.tracer.raw_spans(),
            }
        self.rig.close()
        for variant in self.variants:
            variant.rig.close()
        return result

    def _rates(self) -> list[float]:
        return [self.inputs.records / wall for wall in self.walls]

    def _end_to_end(self) -> dict[str, float]:
        return {
            "records_per_s": estimators.quiet_decile(self._rates(), better="higher"),
            "latency_p50_us": 1e6
            * estimators.quiet_decile([t[0] for t in self.tails], better="lower"),
            "peak_alloc_mb": self.peak_alloc,
            # the lower quartile: set-up samples are bimodal (~60 vs ~100 ms on
            # fanout_homo) and their median flips between the modes run to run
            "setup_s": estimators.quartiles(self.setups[1:])[0],
        }

    def _layer_metrics(self, calibrations: list[float]) -> dict[str, float]:
        main = self.variants[0]
        totals, rig = main.totals, main.rig
        cells, zero = totals.cells, [0, 0, 0, 0]

        def cell(span: str) -> list[int]:
            return cells.get(span, zero)

        # the traced work: bursts, handler deliveries, published records, payload bytes
        bursts = cell("driver")[CALLS]
        rec, pub, payload = (totals.size(key) for key in ("records", "published", "payload"))
        root_ns = cell("driver")[TOTAL]
        slices = len(main.walls)
        m = dict.fromkeys((p.name for p in catalog.PER_LAYER), 0.0)

        m["encode.self_us_per_record"] = _us(cell("encode")[SELF], pub)
        m["sockets.send_us_per_record"] = _us(cell("sockets.send")[TOTAL], pub)
        m["sockets.recv_us_per_record"] = _us(cell("sockets.recv")[TOTAL], pub)
        m["sockets.send_calls_per_record"] = cell("sockets.send")[CALLS] / pub
        m["sockets.wire_bytes_per_payload_byte"] = cell("sockets.send")[COUNT] / payload
        m["shm.send_us_per_record"] = _us(cell("shm.send")[TOTAL], pub)
        m["shm.recv_us_per_record"] = _us(cell("shm.recv")[TOTAL], pub)
        m["pipe.send_us_per_delivery"] = _us(cell("pipe.send")[TOTAL], rec)
        m["pipe.recv_us_per_delivery"] = _us(cell("pipe.recv")[TOTAL], rec)
        m["negotiation.self_us_per_record"] = _us(cell("negotiation")[SELF], pub)
        m["decode.us_per_record"] = _us(cell("decode")[TOTAL], rec)
        m["decode.us_per_kb"] = _us(cell("decode")[TOTAL], payload * rec / pub / 1024)
        m["decode.batch_group_size"] = rig.batch_group_size()
        m["decode.converters_generated"] = rig.converters_generated()
        m["channel.ingest_self_us_per_delivery"] = _us(cell("channel")[SELF], rec)
        m["handler.us_per_delivery"] = _us(cell("handler")[TOTAL], rec)
        m["fabric.dispatch_self_us_per_record"] = _us(cell("fabric.dispatch")[SELF], pub)
        m["fabric.tree_self_us_per_delivery"] = _us(cell("fabric.tree")[SELF], rec)
        m["relay.forward_self_us_per_record"] = _us(cell("relay.forward")[SELF], pub)
        m["relay.forward_calls_per_record"] = cell("relay.forward")[CALLS] / pub
        m["health.heal_us_per_burst"] = _us(
            cell("health")[TOTAL] + cell("relay.heal")[TOTAL], bursts
        )
        m["driver.self_us_per_record"] = _us(cell("driver")[SELF], rec)
        m["trace.closure_error_share"] = spans.closure_error(cells, "driver")
        m["trace.overhead_share"] = (
            estimators.quiet_decile(main.walls, better="lower")
            / estimators.quiet_decile(self.walls, better="lower")
            - 1.0
        )
        # per size class: self time of the by_size spans, as each root closed
        for size in catalog.SIZES:
            part = main.diag if main.diag.size("records", [size]) else totals
            m[f"decode.us_per_record.{size}"] = _us(
                part.size("decode", [size]), part.size("records", [size])
            )
            if f"encode.us_per_record.{size}" in m:
                m[f"encode.us_per_record.{size}"] = _us(
                    part.size("encode", [size]), part.size("published", [size])
                )
        m.update(self.counts)  # the system's own counters, over the traced rig's life
        passed = "fabric.filter_pass_share"  # a running count: passed / offered over the timed slices
        if passed in self.counts:
            m[passed] = (self.counts[passed] - self.counts_before[passed]) / (slices * self.inputs.published)
        if "durable.publish" in cells:
            m["durable.publish_self_us_per_record"] = _us(cell("durable.publish")[SELF], pub)
            m["durable.sub_self_us_per_record"] = _us(
                cell("channel")[SELF] + cell("durable.cursor")[TOTAL], pub
            )
            m["durable.ack_path_us_per_burst"] = _us(
                cell("durable.ack_send")[TOTAL] + cell("relay.heal")[TOTAL], bursts
            )
            m["durable.acks_per_burst"] = cell("durable.ack_send")[CALLS] / bursts
            m["durable.wal_bytes_per_payload_byte"] = self.wal_bytes / (slices * self.inputs.payload)
        if len(self.variants) > 1:  # default limits vs none, slices alternated
            free = self.variants[1]
            taxed = root_ns / rec
            untaxed = free.totals.cells["driver"][TOTAL] / free.totals.size("records")
            m["safety.limits_tax_share"] = taxed / untaxed - 1.0
        # diagnostics, from this pass's untraced slices
        rates = self._rates()
        quiet = estimators.quiet_decile(rates, better="higher")
        m["e2e.latency_p90_us"] = 1e6 * statistics.median(t[1] for t in self.tails)
        m["e2e.latency_p99_us"] = 1e6 * statistics.median(t[2] for t in self.tails)
        m["e2e.records_per_s_median_slice"] = statistics.median(rates)
        m["e2e.noise_ratio"] = quiet / statistics.median(rates)
        for size, per_record in self.by_size.items():
            m[f"e2e.us_per_record.{size}"] = 1e6 * estimators.quiet_decile(
                per_record, better="lower"
            )
        for size, trips in self.diag_p50.items():
            m[f"rtt.p50_us.{size}"] = 1e6 * estimators.quiet_decile(trips, better="lower")
        m["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["process.gc_collections"] = self.gc_collections
        m["host.calibration_spread"] = estimators.calibration_spread(calibrations)
        m["host.disturbed"] = float(m["host.calibration_spread"] > DISTURBED_ABOVE)
        return m


def run_pass(names, seed, seconds, slices, workroot, *, traced) -> list[dict]:
    """Run one pass over ``names``, slices interleaved round-robin."""
    sessions = [Session(name, seed, workroot, traced=traced) for name in names]
    for session in sessions:
        session.prepare()
    calibrations: list[float] = []
    while True:
        if slices:
            live = [s for s in sessions if len(s.walls) < slices]
        else:
            live = [s for s in sessions if s.spent < seconds]
        if not live:
            break
        # the host-noise guard: a fixed kernel before every round
        calibrations.append(estimators.calibrate())
        for session in live:
            session.spent += calibrations[-1] / len(live)
            session.step()
    return [session.finish(calibrations) for session in sessions]


def selftest_faults(seed: int, workroot: str) -> tuple[int, int]:
    """The oracle must be able to fail: drive ``stream_hetero`` through a
    dropping, corrupting link and return ``(attempted, failed)``."""
    inputs = StreamRig.make_inputs(seed)
    plan = FaultPlan(drop=0.05, corrupt=0.10)
    rig = StreamRig(inputs, workroot, fault=(plan, seed, 0.05))
    try:
        return rig.verify(inputs.bursts[:160])
    finally:
        rig.close()


def report(result: dict) -> None:
    name = result["workload"]
    flags = "  DISTURBED HOST" if result["disturbed"] else ""
    print(
        f"# {name} seed={result['seed']} trace={result['trace']} slices={result['slices']} "
        f"attempted={result['attempted']} failed={result['failed']}{flags}"
    )
    print(f"{name:14s} {'failed_share':40s} {result['failed_share']:16.6f} share")
    for metric, measured in result["metrics"].items():
        print(f"{name:14s} {metric:40s} {measured['value']:16.6f} {measured['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RIGS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per workload and pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--slices", type=int, help="timed slices per workload instead of --seconds")
    parser.add_argument("--out", help="also write the results (without raw spans) to this JSON file")
    parser.add_argument(
        "--trace-out",
        default=str(HERE / "results" / "e2e_trace.json"),
        help="span file of a traced pass (aggregate table + raw spans of the first bursts)",
    )
    parser.add_argument(
        "--selftest-faults", action="store_true", help="only check that injected faults are caught"
    )
    args = parser.parse_args(argv)

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    workroot = tempfile.mkdtemp(prefix="work-", dir=results_dir)
    try:
        if args.selftest_faults:
            attempted, failed = selftest_faults(args.seed, workroot)
            print(json.dumps({"attempted": attempted, "failed": failed}))
            return 0 if failed else 1
        names = [args.workload] if args.workload else list(RIGS)
        results = []
        for traced in (False, True) if args.trace is None else (bool(args.trace),):
            results += run_pass(names, args.seed, args.seconds, args.slices, workroot, traced=traced)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    traces = {r["workload"]: r.pop("spans") for r in results if "spans" in r}
    if traces:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_out).write_text(json.dumps({"seed": args.seed, "workloads": traces}))
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "results": results}, indent=1))
    for result in results:
        report(result)
    contract = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        print(json.dumps({key: results[0][key] for key in contract}))
    else:
        print(json.dumps({"results": [{k: r[k] for k in ("workload", "trace", *contract)} for r in results]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
