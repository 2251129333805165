"""FormatCache: memory, disk persistence, damage healing, TTLs."""

import pytest

from repro.abi import X86_64, RecordSchema, layout_record
from repro.core import IOFormat, FormatError, MessageError
from repro.fmtserv import FormatCache
from repro.fmtserv import cache as fmtserv_cache

from .helpers import FakeClock

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)
PARTICLE = RecordSchema.from_pairs(
    "particle", [("x", "double"), ("y", "double"), ("id", "int")]
)


def make_format(schema=TELEMETRY) -> IOFormat:
    return IOFormat.from_layout(layout_record(schema, X86_64))


class TestMemoryLayer:
    def test_round_trip(self):
        cache = FormatCache()
        fmt = make_format()
        entry = cache.put(fmt.to_meta_bytes(), token=7)
        assert entry.fingerprint == fmt.fingerprint
        assert cache.get(fmt.fingerprint).token == 7
        assert cache.token_for(fmt.fingerprint) == 7
        resolved = cache.format_for(fmt.fingerprint)
        assert resolved.name == "telemetry"
        assert resolved.fingerprint == fmt.fingerprint
        assert len(cache) == 1 and fmt.fingerprint in cache

    def test_put_is_idempotent_and_token_refresh_wins(self):
        cache = FormatCache()
        meta = make_format().to_meta_bytes()
        first = cache.put(meta)
        assert first.token is None
        again = cache.put(meta)
        assert again is first  # identical re-put: no new entry
        refreshed = cache.put(meta, token=3)
        assert refreshed.token == 3
        # a token-less re-put keeps the known binding
        assert cache.put(meta).token == 3

    def test_put_rejects_garbage_meta(self):
        with pytest.raises((FormatError, MessageError)):
            FormatCache().put(b"\x00" * 40)

    def test_unknown_fingerprint(self):
        cache = FormatCache()
        assert cache.get(b"\x00" * 20) is None
        assert cache.format_for(b"\x00" * 20) is None
        assert cache.token_for(b"\x00" * 20) is None


class TestDiskLayer:
    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "formats.pbfc")
        fmt_a, fmt_b = make_format(TELEMETRY), make_format(PARTICLE)
        with FormatCache(path) as cache:
            cache.put(fmt_a.to_meta_bytes(), token=1)
            cache.put(fmt_b.to_meta_bytes(), token=2)
        with FormatCache(path) as reopened:
            assert len(reopened) == 2
            assert reopened.token_for(fmt_a.fingerprint) == 1
            assert reopened.format_for(fmt_b.fingerprint).name == "particle"
            assert reopened.metrics.value("fmtserv.cache_loaded") == 2

    def test_append_wins_across_restart(self, tmp_path):
        path = str(tmp_path / "formats.pbfc")
        meta = make_format().to_meta_bytes()
        with FormatCache(path) as cache:
            cache.put(meta)
            cache.put(meta, token=9)  # refresh appends a second frame
        with FormatCache(path) as reopened:
            assert len(reopened) == 1
            assert reopened.token_for(make_format().fingerprint) == 9

    def test_torn_tail_truncated_and_healed(self, tmp_path):
        path = str(tmp_path / "formats.pbfc")
        fmt = make_format()
        with FormatCache(path) as cache:
            cache.put(fmt.to_meta_bytes(), token=5)
        clean_size = tmp_path.joinpath("formats.pbfc").stat().st_size
        with open(path, "ab") as f:  # crash mid-append: half a frame
            f.write(b"\x00\x00\x01\x00partial")
        with FormatCache(path) as healed:
            # the torn tail was truncated away at load...
            assert tmp_path.joinpath("formats.pbfc").stat().st_size == clean_size
            assert healed.token_for(fmt.fingerprint) == 5
            assert healed.metrics.value("fmtserv.cache_torn") == 1
            # ...so the next append lands on a clean frame boundary and
            # survives another restart
            healed.put(make_format(PARTICLE).to_meta_bytes(), token=6)
        with FormatCache(path) as again:
            assert len(again) == 2

    def test_not_a_cache_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.pbfc"
        path.write_bytes(b"NOTCACHE\x00\x01\x00\x00")
        with pytest.raises(MessageError, match="bad magic"):
            FormatCache(str(path))
        path.write_bytes(b"PB")  # shorter than the header
        with pytest.raises(MessageError, match="truncated"):
            FormatCache(str(path))

    def test_purge_compacts_file(self, tmp_path):
        path = str(tmp_path / "formats.pbfc")
        fmt_a, fmt_b = make_format(TELEMETRY), make_format(PARTICLE)
        with FormatCache(path) as cache:
            cache.put(fmt_a.to_meta_bytes(), token=1)
            cache.put(fmt_b.to_meta_bytes(), token=2)
            assert cache.purge(fmt_a.fingerprint) == 1
            assert cache.purge(fmt_a.fingerprint) == 0  # already gone
        with FormatCache(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get(fmt_a.fingerprint) is None
            assert reopened.token_for(fmt_b.fingerprint) == 2
            assert reopened.purge() == 1  # purge-all
        with FormatCache(path) as empty:
            assert len(empty) == 0


class TestTtls:
    def test_token_ttl_expires_entries(self, monkeypatch):
        monkeypatch.setattr(fmtserv_cache, "TOKEN_TTL_S", 60.0)
        clock = FakeClock()
        cache = FormatCache(clock=clock)
        fmt = make_format()
        cache.put(fmt.to_meta_bytes(), token=4)
        clock.advance(59.0)
        assert cache.token_for(fmt.fingerprint) == 4
        clock.advance(2.0)
        assert cache.get(fmt.fingerprint) is None
        assert cache.metrics.value("fmtserv.cache_expired") >= 1

    def test_negative_entries_expire_and_clear_on_put(self):
        clock = FakeClock()
        cache = FormatCache(clock=clock)
        fmt = make_format()
        cache.note_miss(fmt.fingerprint)
        assert cache.is_negative(fmt.fingerprint)
        clock.advance(31.0)
        assert not cache.is_negative(fmt.fingerprint)
        cache.note_miss(fmt.fingerprint)
        cache.put(fmt.to_meta_bytes())  # a positive answer clears the negative
        assert not cache.is_negative(fmt.fingerprint)
