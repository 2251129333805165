"""Unified metrics for the conversion runtime.

One :class:`Metrics` registry holds every counter the decode path
maintains — converter generation, cache hits, zero-copy vs converted
decodes, delivery/filter outcomes.  The former ad-hoc ``ContextStats`` / ``SubscriberStats``
dataclasses survive as read-only *views* over a registry, so existing
code (``receiver.stats.converters_generated``) keeps working while the
benchmark harness and new subsystems observe one coherent namespace.

Counter names used by the runtime:

========================  =====================================================
``converters_generated``  converters built (DCG, vcode or interpreter tables)
``converter_cache_hits``  decode found its (wire, native) entry already cached
                          (a cache's lookups; a context's is :data:`DERIVED`)
``zero_copy_decodes``     records delivered without conversion
``converted_decodes``     records that ran a converter (batch ones :data:`DERIVED`)
``generation_time_s``     cumulative converter-generation wall time (float)
``delivered`` / ``filtered_out`` / ``wrong_type``   subscription outcomes
``decode_errors`` / ``handler_errors`` / ``detached``   subscription failures
``forwarded`` / ``announcements``                   relay downstream outcomes
``send_errors`` / ``detached``                      relay downstream failures
``faults.*``              injected faults (:mod:`repro.net.faults`)
``reconnects`` / ``announcements_replayed`` / ``dial_failures``  reconnect layer
``requests_served`` / ``dedup_hits`` / ``servant_errors``        RPC server
``protocol_errors`` / ``connections_dropped``   RPC serving loop: malformed
                          calls survived; connections dropped at 64 in a row
``calls`` / ``retries`` / ``transport_errors`` / ``stale_replies``  RPC client
``decode.rejected``       messages refused by the validated decode frontend
                          (malformed, inconsistent, or over a DecodeLimits
                          bound) — incremented exactly once per rejection
``cache.evictions``       converter-cache entries dropped at ``max_entries``
``buffers_allocated`` / ``_reused`` / ``_returned`` / ``_dropped``  receive-buffer
                          pool traffic (conversion destinations are not pooled)
``relay.rejected``        non-PBIO / oversized / inconsistent frames a relay
                          dropped instead of forwarding
``file.corrupt_records``  CRC-mismatched (or undecodable) file frames
``file.torn_tails``       incomplete trailing frames (crash mid-append): met
                          by a reader, or truncated by ``PbioFileWriter.append``
``file.recovered_records``  records delivered *after* file damage was seen
                          (what ``recover="skip"`` salvaged over ``"stop"``)
``fmtserv.*``             format-service counters (:mod:`repro.fmtserv`):
                          server side ``registered`` / ``reregistered`` /
                          ``rejected`` / ``quota_rejections`` / ``lookups`` /
                          ``lookup_hits`` / ``lookup_misses`` / ``purged`` /
                          ``protocol_errors`` / ``connections_dropped``;
                          client side ``hits`` / ``misses`` /
                          ``negative_hits`` / ``server_unreachable`` /
                          ``server_rejections`` / ``inline_fallbacks`` /
                          ``warm_started``; cache file ``cache_loaded`` /
                          ``cache_persisted`` / ``cache_torn`` /
                          ``cache_corrupt`` / ``cache_expired``; token
                          negotiation ``tokens_absorbed`` / ``unresolved`` /
                          ``meta_requests_sent`` / ``meta_requests_served`` /
                          ``meta_requests_unknown`` / ``messages_held`` /
                          ``messages_released``
``relay.unresolved_tokens``  token announcements a relay forwarded without
                          being able to resolve for its own filter registry
``relay.requests_dropped``  MSG_FORMAT_REQUEST frames dropped by a one-way hub
``decode.batch.groups``   consecutive same-format data runs ``decode_batch``
                          dispatched (a burst of one data frame: one, decoded
                          by the scalar body, counted as scalar decodes are)
``decode.batch.converted``  records of a kernel-backed plan converted as a group:
                          by one byte gather (a byte move within ``GATHER_MAX_BYTES``),
                          the record kernel or, below the entry's
                          ``kernel_min_group``, by the generated converter
``decode.batch.fallback``  records that looped the scalar converter instead
                          (strings, VAX floats, float->int, records past
                          32 KiB, non-DCG modes)
``decode.batch.rejected``  frames rejected inside a batch (each also counts
                          ``decode.rejected`` as usual)
``durable.journaled``     records appended to a publisher WAL before send
``durable.sent``          sequenced frames handed to the wire (first send)
``durable.acked``         sequences confirmed by a cumulative ack cursor
``durable.acks_sent`` / ``durable.acks_received``  MSG_ACK traffic per side
``durable.acks_rejected``  acks refused: a cursor past the publisher's journal
                          or past what a relay forwarded on the stream
``durable.retransmitted``  unacked frames re-sent (reconnect or nack)
``durable.duplicates_dropped``  redelivered frames the dedup window absorbed
``durable.reordered``     frames buffered out of order, later delivered
``durable.nacks_sent``    selective-nack bitmaps emitted for gaps
``durable.segments_rotated`` / ``durable.segments_compacted``  WAL maintenance
``durable.wal_torn`` / ``durable.wal_corrupt``  damage healed on WAL open
``durable.replayed``      frames replayed from a relay's in-memory window
                          on downstream reactivation
``link.control_malformed``  pings / pongs whose payload is not exactly 16
                          bytes, on whichever role met one (endpoint, relay,
                          fabric front): dropped, never answered, never proof
                          of life
``link.acks_dropped``     MSG_ACK frames reaching an endpoint with no durable
                          publisher behind it (``relay.acks_dropped`` is the
                          one-way hub's)
========================  =====================================================
"""

from __future__ import annotations

#: Counters derived on read: stored amount + the named counters.  A decode
#: that had to make its cache entry stores -1 (hits = decodes - misses).
DERIVED = {
    "converter_cache_hits": ("zero_copy_decodes", "converted_decodes"),
    "converted_decodes": ("decode.batch.converted", "decode.batch.fallback"),
}


class Metrics:
    """A registry of named counters.

    Counters are created on first increment and read as 0 when absent;
    a registry can therefore be shared between components that count
    different things (a context, its cache, a buffer pool) without any
    schema declaration.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, amount: int | float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    add = inc  # reads better for float accumulators (generation_time_s)

    def value(self, name: str) -> int | float:
        return self._counters.get(name, 0) + sum(self.value(part) for part in DERIVED.get(name, ()))

    def counters(self) -> dict[str, int | float]:
        out = dict(self._counters)
        out.update((name, self.value(name)) for name in DERIVED if name in out or self.value(name))
        return out

    # -- aggregation --------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable dump (the benchmark harness exports this)."""
        return {"counters": self.counters()}

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's counts into this one (harness rollups)."""
        for name, amount in other._counters.items():
            self.inc(name, amount)

    def reset(self) -> None:
        self._counters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Metrics({self._counters!r})"


class _MetricsView:
    """Read-only attribute view over a :class:`Metrics` registry.

    Subclasses list the counter names they expose; attribute access
    returns the live counter value, so the view never goes stale.
    """

    __slots__ = ("_metrics",)
    _fields: tuple[str, ...] = ()
    #: prepended to each field when reading the registry, letting a view
    #: expose a dotted counter namespace (``durable.*``) as attributes
    _prefix: str = ""

    def __init__(self, metrics: Metrics) -> None:
        self._metrics = metrics

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    def __getattr__(self, name: str):
        cls = type(self)
        if name in cls._fields:
            return self._metrics.value(cls._prefix + name)
        raise AttributeError(name)

    def as_dict(self) -> dict[str, int | float]:
        cls = type(self)
        return {name: self._metrics.value(cls._prefix + name) for name in cls._fields}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({body})"


class ContextStats(_MetricsView):
    """Per-context decode counters (kept for backward compatibility)."""

    __slots__ = ()
    _fields = (
        "converters_generated",
        "converter_cache_hits",
        "zero_copy_decodes",
        "converted_decodes",
        "generation_time_s",
    )


class SubscriberStats(_MetricsView):
    """Per-subscription delivery counters."""

    __slots__ = ()
    _fields = (
        "delivered",
        "filtered_out",
        "wrong_type",
        "decode_errors",
        "handler_errors",
        "detached",
    )


class DurableStats(_MetricsView):
    """Durable-delivery counters (the ``durable.*`` namespace)."""

    __slots__ = ()
    _prefix = "durable."
    _fields = (
        "journaled",
        "sent",
        "acked",
        "acks_sent",
        "acks_received",
        "acks_rejected",
        "retransmitted",
        "duplicates_dropped",
        "reordered",
        "nacks_sent",
        "segments_rotated",
        "segments_compacted",
        "wal_torn",
        "wal_corrupt",
        "replayed",
    )


class DownstreamStats(_MetricsView):
    """Per-relay-downstream forwarding counters."""

    __slots__ = ()
    _fields = (
        "forwarded",
        "filtered_out",
        "announcements",
        "send_errors",
        "detached",
        "replayed",
        "reactivated",
        "evicted",
        "probes_sent",
        "goodbyes_sent",
    )
