"""Tests for the conversion runtime layer: shared converter cache,
decode pipeline, buffer pool, and the unified metrics registry."""

import gc
import weakref

import pytest

from repro.abi import ALPHA, SPARC_V8, X86, RecordSchema
from repro.core import (
    ConverterCache,
    IOContext,
    Metrics,
    reset_shared_cache,
    shared_cache,
)
from repro.core import encoder as enc
from repro.core.runtime import Lease
from repro.net import EventChannel

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)


def make_pair(src_machine, dst_machine, *, cache=None, conversion="dcg"):
    """A warmed (sender ctx, receiver ctx, data message) triple."""
    sender = IOContext(src_machine)
    receiver = IOContext(dst_machine, cache=cache, conversion=conversion)
    handle = sender.register_format(TELEMETRY)
    receiver.expect(TELEMETRY)
    receiver.receive(sender.announce(handle))
    message = sender.encode(handle, {"unit": 3, "temperature": 451.0})
    return sender, receiver, message


class TestSharedCache:
    def test_eight_same_machine_subscribers_one_converter(self):
        """The acceptance criterion: N same-machine subscribers sharing a
        cache generate exactly one converter between them."""
        cache = ConverterCache()
        channel = EventChannel(cache=cache)
        for _ in range(8):
            ctx = IOContext(SPARC_V8)
            ctx.expect(TELEMETRY)
            channel.subscribe(ctx, lambda r: None)
        pub = channel.publisher(IOContext(X86))
        h = pub.ctx.register_format(TELEMETRY)
        for unit in range(5):
            pub.publish(h, {"unit": unit, "temperature": 1.0})
        assert cache.metrics.value("converters_generated") == 1
        assert len(cache) == 1
        # 8 subscribers x 5 records = 40 lookups, 39 of them hits.
        assert cache.metrics.value("converter_cache_hits") == 39

    def test_per_context_counters_remain_meaningful_under_sharing(self):
        cache = ConverterCache()
        _, r1, m1 = make_pair(X86, SPARC_V8, cache=cache)
        _, r2, m2 = make_pair(X86, SPARC_V8, cache=cache)
        r1.decode(m1)
        r2.decode(m2)
        # The second context found the converter already built, so its
        # own counters show a hit, not a generation.
        assert r1.stats.converters_generated == 1
        assert r2.stats.converters_generated == 0
        assert r2.stats.converter_cache_hits == 1

    def test_cross_machine_pairs_do_not_contaminate(self):
        cache = ConverterCache()
        _, r_sparc, m1 = make_pair(X86, SPARC_V8, cache=cache)
        _, r_alpha, m2 = make_pair(X86, ALPHA, cache=cache)
        assert r_sparc.decode(m1) == {"unit": 3, "temperature": 451.0}
        assert r_alpha.decode(m2) == {"unit": 3, "temperature": 451.0}
        # One converter per receiver ABI — distinct keys, no sharing.
        assert cache.metrics.value("converters_generated") == 2
        assert len(cache) == 2

    def test_conversion_modes_get_distinct_entries(self):
        cache = ConverterCache()
        _, r_dcg, m1 = make_pair(X86, SPARC_V8, cache=cache, conversion="dcg")
        _, r_interp, m2 = make_pair(
            X86, SPARC_V8, cache=cache, conversion="interpreted"
        )
        assert r_dcg.decode(m1) == r_interp.decode(m2)
        assert len(cache) == 2

    def test_zero_copy_pairs_cached_without_generation(self):
        cache = ConverterCache()
        _, receiver, message = make_pair(X86, X86, cache=cache)
        assert receiver.decode(message) == {"unit": 3, "temperature": 451.0}
        assert cache.metrics.value("converters_generated") == 0
        assert receiver.stats.zero_copy_decodes == 1
        assert len(cache) == 1  # the zero-copy decision itself is cached

    def test_shared_cache_is_a_process_global(self):
        reset_shared_cache()
        try:
            assert shared_cache() is shared_cache()
            _, receiver, message = make_pair(X86, SPARC_V8, cache=shared_cache())
            receiver.decode(message)
            assert shared_cache().metrics.value("converters_generated") == 1
        finally:
            reset_shared_cache()

    def test_use_cache_repoints_an_existing_context(self):
        cache = ConverterCache()
        _, receiver, message = make_pair(X86, SPARC_V8)
        receiver.use_cache(cache)
        receiver.decode(message)
        assert cache.metrics.value("converters_generated") == 1
        assert receiver.cache is cache

    def test_converter_sources_via_reverse_map(self):
        cache = ConverterCache()
        _, receiver, message = make_pair(X86, SPARC_V8, cache=cache)
        receiver.decode(message)
        sources = receiver.converter_sources("telemetry")
        assert len(sources) == 1
        assert "def convert" in next(iter(sources.values()))


class TestBufferPool:
    def test_live_views_never_alias(self):
        """Two live converted RecordViews of one format pair each own
        their bytes: no shared buffer, no lease."""
        sender = IOContext(X86)
        receiver = IOContext(SPARC_V8)
        handle = sender.register_format(TELEMETRY)
        receiver.expect(TELEMETRY)
        receiver.receive(sender.announce(handle))
        m1 = sender.encode(handle, {"unit": 1, "temperature": 100.0})
        m2 = sender.encode(handle, {"unit": 2, "temperature": 200.0})
        v1 = receiver.decode_view(m1)
        v2 = receiver.decode_view(m2)
        assert v1["unit"] == 1 and v1["temperature"] == 100.0
        assert v2["unit"] == 2 and v2["temperature"] == 200.0
        assert v1.buffer is not v2.buffer and v1.lease is None and v2.lease is None
        v1.buffer[:] = bytes(len(v1.buffer))  # scribbling on one leaves the other
        assert v2["unit"] == 2 and v2["temperature"] == 200.0

    def test_source_frame_may_be_overwritten_after_decode_view(self):
        _, receiver, message = make_pair(X86, SPARC_V8)
        frame = bytearray(message)
        view = receiver.decode_view(frame)
        frame[:] = b"\xa5" * len(frame)
        assert view.to_dict() == {"unit": 3, "temperature": 451.0}

    def test_views_register_no_finalizer(self):
        _, receiver, message = make_pair(X86, SPARC_V8)
        registered = len(weakref.finalize._registry)
        views = [receiver.decode_view(message) for _ in range(10_000)]
        assert len(weakref.finalize._registry) == registered
        del views
        gc.collect()
        assert len(weakref.finalize._registry) == registered

    def test_pipeline_has_no_pool(self):
        _, receiver, message = make_pair(X86, SPARC_V8)
        assert not hasattr(receiver.pipeline, "pool")
        out1 = receiver.decode_native(message)
        out2 = receiver.decode_native(message)
        assert isinstance(out1, bytes)
        assert out1 == out2 == bytes(receiver.decode_view(message).buffer)


class TestMetrics:
    def test_timed_decode_view_keeps_header_and_lease(self, monkeypatch):
        """A zero-copy view over lent storage carries its lease, and a
        parsed header is not parsed again."""
        _, receiver, message = make_pair(X86, X86)
        pipeline, lease = receiver.pipeline, Lease(lambda: None)
        assert pipeline.decode_view(message, lease=lease).lease is lease
        header = enc.unpack_header(message)
        monkeypatch.setattr(enc, "unpack_header", None)  # calling it raises
        view = pipeline.decode_view(message, header=header)
        assert view.to_dict() == {"unit": 3, "temperature": 451.0}
        assert pipeline.decode_native(message, header=header) == bytes(view.buffer)

    def test_snapshot_and_merge(self):
        a, b = Metrics(), Metrics()
        a.inc("delivered")
        b.inc("delivered", 2)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["delivered"] == 3

    def test_stats_views_are_read_only(self):
        _, receiver, message = make_pair(X86, SPARC_V8)
        receiver.decode(message)
        assert receiver.stats.converted_decodes == 1
        with pytest.raises(AttributeError):
            receiver.stats.converted_decodes = 5
        assert "converted_decodes" in receiver.stats.as_dict()


class TestEncoderHelpers:
    def test_try_message_type_rejects_foreign_frames(self):
        assert enc.try_message_type(b"") is None
        assert enc.try_message_type(b"\x00" * 4) is None
        assert enc.try_message_type(b"not a pbio message!!") is None
        # Right magic, absurd type byte: still rejected.
        bogus = bytearray(enc.HEADER_SIZE)
        bogus[0] = 0xB1
        bogus[2] = 0x7F
        assert enc.try_message_type(bytes(bogus)) is None

    def test_try_message_type_accepts_real_messages(self):
        sender, _, message = make_pair(X86, SPARC_V8)
        assert enc.try_message_type(message) == enc.MSG_DATA
        handle = sender.register_format(
            RecordSchema.from_pairs("other", [("x", "int")])
        )
        announcement = sender.announce(handle)
        assert enc.try_message_type(announcement) == enc.MSG_FORMAT
