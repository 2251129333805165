"""The benchmark's names: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root carries the contract form of
this table (name, unit, direction, bound); its schema has no room for
the rest, so the layer each metric belongs to, the end-to-end number it
is expected to move (written down *before* measuring, after "MPI Derived
Datatypes: Performance Expectations and Status Quo") and whether it is
an exact count live here.  ``test_e2e_smoke.py`` keeps the two in step.

How the expectations interact: the driver loop is serial, so a layer's
saving is at most its self-time share of the burst.  With shares as
uneven as these workloads make them the predictions are falsifiable —
a conversion win moves ``stream_hetero`` and must not move
``fanout_homo``; a routing win moves ``fanout_homo`` and must not move
``stream_hetero`` or ``rtt_scalar``; a send-plane batching win should
move ``stream_hetero``/``fanout_homo`` and must not raise
``latency_p50_us`` on ``rtt_scalar``; a WAL/ack win moves only
``durable_burst``.
"""

from __future__ import annotations

from typing import NamedTuple

SIZES = ("100b", "1kb", "10kb", "100kb")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    exact: bool = False  # a count that repeats exactly for one seed


END_TO_END = [
    EndToEnd(
        "records_per_s", "1/s", "higher", 0.25,
        "records delivered to subscriber handlers per second, each delivery counted "
        "(2 per round trip on rtt_scalar); quiet-decile mean over fixed-work slices",
    ),
    EndToEnd(
        "latency_p50_us", "us", "lower", 0.25,
        "burst publish -> last handler return (-> WAL drained on durable_burst; round trip "
        "on rtt_scalar): median within each slice, quiet-decile mean across slices",
    ),
    EndToEnd(
        "peak_alloc_mb", "MB", "lower", 0.10,
        "tracemalloc peak above the slice-start level over one extra untimed slice after "
        "warm-up (catches gains bought with caches, and lease leaks)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "fresh contexts with private converter caches, format registration, transports, "
        "rings, WAL, announcements and converter generation up to the first delivered record "
        "of every format; lower quartile of set-ups repeated through the run, input generation excluded",
    ),
]

_STREAM_RTT = "latency_p50_us on rtt_scalar, records_per_s on stream_hetero"


def _sized(prefix: str, unit: str, layer: str, moves: str, sizes=SIZES) -> list[PerLayer]:
    return [PerLayer(f"{prefix}.{size}", unit, "lower", layer, moves) for size in sizes]


PER_LAYER = [
    # core.encoder + core.negotiation.Announcer
    PerLayer(
        "encode.self_us_per_record", "us", "lower", "core.encoder",
        "latency_p50_us on rtt_scalar, records_per_s on fanout_homo; ~none on stream_hetero",
    ),
    *_sized(
        "encode.us_per_record", "us", "core.encoder",
        "flat across sizes (paper Fig 2): NDR encode is a header, not a copy",
        ("100b", "100kb"),
    ),
    # net.sockets
    PerLayer("sockets.send_us_per_record", "us", "lower", "net.sockets", _STREAM_RTT),
    PerLayer("sockets.recv_us_per_record", "us", "lower", "net.sockets", _STREAM_RTT),
    PerLayer(
        "sockets.send_calls_per_record", "count", "lower", "net.sockets",
        "records_per_s on stream_hetero; none on fanout_homo", True,
    ),
    PerLayer(
        "sockets.wire_bytes_per_payload_byte", "B/B", "lower", "net.sockets",
        "records_per_s on stream_hetero (small records)", True,
    ),
    # net.shm, net.transport
    PerLayer("shm.send_us_per_record", "us", "lower", "net.shm", "durable_burst only"),
    PerLayer("shm.recv_us_per_record", "us", "lower", "net.shm", "durable_burst only"),
    PerLayer("pipe.send_us_per_delivery", "us", "lower", "net.transport", "fanout_homo only"),
    PerLayer("pipe.recv_us_per_delivery", "us", "lower", "net.transport", "fanout_homo only"),
    # core.negotiation, inbound
    PerLayer(
        "negotiation.self_us_per_record", "us", "lower", "core.negotiation",
        "latency_p50_us on rtt_scalar first, records_per_s on stream_hetero second",
    ),
    # core.runtime.pipeline + core.conversion
    PerLayer(
        "decode.us_per_record", "us", "lower", "core.runtime.pipeline",
        "records_per_s on stream_hetero (largest share) and durable_burst; must leave "
        "fanout_homo unmoved when only a conversion kernel changes",
    ),
    PerLayer("decode.us_per_kb", "us/KB", "lower", "core.conversion", "records_per_s on stream_hetero"),
    *_sized(
        "decode.us_per_record", "us", "core.conversion",
        "records_per_s on stream_hetero; e2e.us_per_record of the same size",
    ),
    PerLayer(
        "decode.batch_group_size", "count", "higher", "core.runtime.pipeline",
        "records_per_s on stream_hetero: records per columnar conversion call",
    ),
    PerLayer(
        "decode.converters_generated", "count", "lower", "core.runtime.cache",
        "setup_s; must equal the number of converting format pairs (0 on fanout_homo)", True,
    ),
    # net.channel + abi.views
    PerLayer(
        "channel.ingest_self_us_per_delivery", "us", "lower", "net.channel",
        "records_per_s on fanout_homo",
    ),
    PerLayer("handler.us_per_delivery", "us", "lower", "abi.views", "records_per_s on fanout_homo"),
    # net.fabric / net.relay
    PerLayer(
        "fabric.dispatch_self_us_per_record", "us", "lower", "net.fabric",
        "records_per_s on fanout_homo; none on stream_hetero, rtt_scalar",
    ),
    PerLayer(
        "fabric.tree_self_us_per_delivery", "us", "lower", "net.fabric",
        "records_per_s on fanout_homo: relay tree nodes and the push-down filter",
    ),
    PerLayer(
        "fabric.filter_pass_share", "share", "lower", "net.fabric",
        "none (input property): delivered / offered at the filtered leaves, ~0.10", True,
    ),
    PerLayer(
        "fabric.owner_skew", "ratio", "lower", "net.fabric",
        "none single-process; bounds multi-worker scaling: max / mean channels per worker", True,
    ),
    PerLayer(
        "relay.forward_self_us_per_record", "us", "lower", "net.relay",
        "records_per_s and latency_p50_us on durable_burst",
    ),
    PerLayer(
        "relay.forward_calls_per_record", "count", "lower", "net.relay",
        "durable_burst: 1.0 while the wire tap fans out per message", True,
    ),
    # net.durable
    PerLayer(
        "durable.publish_self_us_per_record", "us", "lower", "net.durable",
        "both timings on durable_burst: journal + sequence, minus encode and relay spans",
    ),
    PerLayer(
        "durable.sub_self_us_per_record", "us", "lower", "net.durable",
        "both timings on durable_burst: channel screening + sequence window + cursor store",
    ),
    PerLayer(
        "durable.ack_path_us_per_burst", "us", "lower", "net.durable",
        "latency_p50_us on durable_burst: ack send + relay harvest + WAL release",
    ),
    PerLayer(
        "durable.wal_bytes_per_payload_byte", "B/B", "lower", "net.durable",
        "records_per_s on durable_burst: bytes written to WAL and cursor files",
    ),
    PerLayer("durable.acks_per_burst", "count", "lower", "net.durable", "latency_p50_us on durable_burst", True),
    PerLayer("durable.retransmits", "count", "lower", "net.durable", "must stay 0", True),
    PerLayer("durable.duplicates_dropped", "count", "lower", "net.durable", "must stay 0", True),
    PerLayer(
        "durable.segments_rotated", "count", "higher", "net.durable",
        "none: > 0 proves rotation and compaction ran",
    ),
    # net.health, core.safety
    PerLayer(
        "health.heal_us_per_burst", "us", "lower", "net.health",
        "latency_p50_us on fanout_homo and durable_burst",
    ),
    PerLayer(
        "safety.limits_tax_share", "share", "lower", "core.safety",
        "records_per_s on stream_hetero: DEFAULT_LIMITS vs limits=None, traced A/B",
    ),
    # driver and closure
    PerLayer("driver.self_us_per_record", "us", "lower", "benchmark", "none: the harness's own cost"),
    PerLayer("trace.overhead_share", "share", "lower", "benchmark", "none: traced / untraced slice time - 1"),
    PerLayer(
        "trace.closure_error_share", "share", "lower", "benchmark",
        "none: |sum of self times - root span| / root span",
    ),
    # diagnostics, ungated: they do not repeat within a tenth on this host
    PerLayer("e2e.latency_p90_us", "us", "lower", "diagnostic", "ungated (+-18% run to run)"),
    PerLayer("e2e.latency_p99_us", "us", "lower", "diagnostic", "ungated (+-30% run to run)"),
    PerLayer("e2e.records_per_s_median_slice", "1/s", "higher", "diagnostic", "ungated (+-14%)"),
    PerLayer(
        "e2e.noise_ratio", "ratio", "lower", "diagnostic",
        "quiet-decile / all-slice median records_per_s: 1.0 on a silent host",
    ),
    *_sized("e2e.us_per_record", "us", "diagnostic", "untraced burst time per record, by burst size"),
    *_sized(
        "rtt.p50_us", "us", "diagnostic",
        "rtt_scalar only: untraced round trip by size (paper Fig 5)",
        ("100b", "10kb", "100kb"),
    ),
    PerLayer("process.peak_rss_mb", "MB", "lower", "diagnostic", "ungated"),
    PerLayer("process.gc_collections", "count", "lower", "diagnostic", "ungated: collections while measuring"),
    PerLayer(
        "host.calibration_spread", "ratio", "lower", "diagnostic",
        "p90 / p10 of a fixed ~10 ms kernel run before every round",
    ),
    PerLayer("host.disturbed", "flag", "lower", "diagnostic", "1 when host.calibration_spread > 1.5"),
]

EXACT = {m.name for m in PER_LAYER if m.exact}
