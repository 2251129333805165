"""Client-side format cache: memory, disk, and negative entries.

Formats are content-addressed — the SHA-1 fingerprint *is* the
identity — so a cached entry can never go stale in the usual sense; TTL
exists to bound how long a *token* binding is trusted across server
restarts, and negative entries keep a dead server from being asked the
same unanswerable question on every message.

The on-disk layer is an append-only log of v2 frames (a
:class:`repro.core.framing.FramedLog`): ``u32 len | payload | u32 crc |
u32 len-echo``, one ``write`` per entry.  A process killed mid-append
tears at most the entry in flight; the loader stops cleanly at a torn
tail and truncates it, so the file is self-healing across restarts.
Entry payloads are versioned records::

    u8 kind (1 = entry) | 20s fingerprint | u64 token (0 = none)
    | f64 stored_at (epoch seconds) | u32 meta_len | meta bytes

Unknown kinds are skipped (forward compatibility).  One process may
write a given cache file at a time; concurrent readers are safe because
entries are immutable once their frame is complete.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.errors import FormatError
from repro.core.framing import FramedLog
from repro.core.formats import IOFormat
from repro.core.runtime import Metrics
from repro.core.safety import DEFAULT_LIMITS, DecodeLimits

CACHE_MAGIC = b"PBIOFMTC"
CACHE_VERSION = 1
_ENTRY_FIXED = struct.Struct(">B20sQdI")  # kind, fingerprint, token, stored_at, meta_len
_KIND_ENTRY = 1

#: Seconds a positive entry's *token* is trusted (``None``: forever; the
#: meta itself is content-addressed and never expires as a description).
TOKEN_TTL_S: float | None = None
#: Seconds a looked-up-and-missed fingerprint is answered ``None`` without
#: consulting the server again.
NEGATIVE_TTL_S = 30.0


@dataclass(frozen=True)
class CachedFormat:
    """One persisted format: its meta bytes, token and storage time."""

    fingerprint: bytes
    meta: bytes
    token: int | None
    stored_at: float


def _entry_payload(entry: CachedFormat) -> bytes:
    return (
        _ENTRY_FIXED.pack(
            _KIND_ENTRY, entry.fingerprint, entry.token or 0, entry.stored_at, len(entry.meta)
        )
        + entry.meta
    )


class FormatCache:
    """Fingerprint-keyed format store with optional disk persistence.

    ``path=None`` gives a purely in-memory cache (the format server's
    default store).  With a path, every :meth:`put` appends one
    crash-safe frame and restarted processes reload the full population
    at construction — the "resolve without touching the network" half of
    the format service.

    Entries age by :data:`TOKEN_TTL_S` and :data:`NEGATIVE_TTL_S`.
    ``clock`` must return epoch seconds (injectable for deterministic
    tests).
    """

    def __init__(
        self,
        path: str | None = None,
        *,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        metrics: Metrics | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self.limits = limits
        self.metrics = metrics if metrics is not None else Metrics()
        self._clock = clock
        self._entries: dict[bytes, CachedFormat] = {}
        self._formats: dict[bytes, IOFormat] = {}  # lazy parse memo
        self._negative: dict[bytes, float] = {}  # fingerprint -> expiry
        self._log: FramedLog | None = None
        if path is not None:
            self._log = FramedLog(
                path, CACHE_MAGIC, CACHE_VERSION, "format cache file",
                max_size=limits.max_meta_size + 256 if limits is not None else None,
                load=self._load_entry,
                on_damage=lambda what: self.metrics.inc(f"fmtserv.cache_{what}"),
            )

    # -- disk layer ----------------------------------------------------------

    def _load_entry(self, payload: bytes) -> None:
        if len(payload) < _ENTRY_FIXED.size:
            self.metrics.inc("fmtserv.cache_corrupt")
            return
        kind, fingerprint, token, stored_at, meta_len = _ENTRY_FIXED.unpack_from(payload, 0)
        if kind != _KIND_ENTRY:
            return  # unknown record kind: written by a newer version, skip
        meta = payload[_ENTRY_FIXED.size :]
        if len(meta) != meta_len:
            self.metrics.inc("fmtserv.cache_corrupt")
            return
        # Append-wins: a later frame for the same fingerprint (e.g. a
        # token refresh) overrides the earlier one.
        self._entries[fingerprint] = CachedFormat(
            fingerprint, meta, token or None, stored_at
        )
        self.metrics.inc("fmtserv.cache_loaded")

    def _persist(self, entry: CachedFormat) -> None:
        if self._log is None:
            return
        self._log.append(_entry_payload(entry))
        self.metrics.inc("fmtserv.cache_persisted")

    # -- positive entries ----------------------------------------------------

    def put(self, meta: bytes, *, token: int | None = None) -> CachedFormat:
        """Store one format description (validated before it is trusted).

        The meta block must parse under this cache's limits; its
        self-computed fingerprint is the key, so a caller can never
        poison the cache with a mismatched (fingerprint, meta) pair.
        Idempotent: re-putting an identical (meta, token) writes nothing.
        """
        meta = bytes(meta)
        fmt = IOFormat.from_meta_bytes(meta, limits=self.limits)
        fingerprint = fmt.fingerprint
        known = self._entries.get(fingerprint)
        if known is not None and (token is None or known.token == token):
            return known
        entry = CachedFormat(
            fingerprint, meta, token if token is not None else
            (known.token if known is not None else None), self._clock()
        )
        self._entries[fingerprint] = entry
        self._formats[fingerprint] = fmt
        self._negative.pop(fingerprint, None)
        self._persist(entry)
        return entry

    def get(self, fingerprint: bytes) -> CachedFormat | None:
        """The cached entry for ``fingerprint``, honoring :data:`TOKEN_TTL_S`."""
        entry = self._entries.get(bytes(fingerprint))
        if entry is None:
            return None
        if TOKEN_TTL_S is not None and self._clock() - entry.stored_at > TOKEN_TTL_S:
            self.metrics.inc("fmtserv.cache_expired")
            return None
        return entry

    def format_for(self, fingerprint: bytes) -> IOFormat | None:
        """The parsed :class:`IOFormat` for a cached fingerprint."""
        fingerprint = bytes(fingerprint)
        entry = self.get(fingerprint)
        if entry is None:
            return None
        fmt = self._formats.get(fingerprint)
        if fmt is None:
            try:
                fmt = IOFormat.from_meta_bytes(entry.meta, limits=self.limits)
            except FormatError:
                # A damaged persisted entry that still passed CRC (disk
                # bit rot inside an intact-looking frame): drop it.
                self.metrics.inc("fmtserv.cache_corrupt")
                self._entries.pop(fingerprint, None)
                return None
            if fmt.fingerprint != fingerprint:
                self.metrics.inc("fmtserv.cache_corrupt")
                self._entries.pop(fingerprint, None)
                return None
            self._formats[fingerprint] = fmt
        return fmt

    def token_for(self, fingerprint: bytes) -> int | None:
        entry = self.get(fingerprint)
        return entry.token if entry is not None else None

    def entries(self) -> list[CachedFormat]:
        """All live entries, insertion-ordered (the ``pbio-fmtserv ls`` view)."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: bytes) -> bool:
        return self.get(bytes(fingerprint)) is not None

    # -- negative entries ----------------------------------------------------

    def note_miss(self, fingerprint: bytes) -> None:
        """Record that the server does not know ``fingerprint`` (yet)."""
        self._negative[bytes(fingerprint)] = self._clock() + NEGATIVE_TTL_S

    def is_negative(self, fingerprint: bytes) -> bool:
        expiry = self._negative.get(bytes(fingerprint))
        if expiry is None:
            return False
        if self._clock() >= expiry:
            del self._negative[bytes(fingerprint)]
            return False
        return True

    # -- maintenance ---------------------------------------------------------

    def purge(self, fingerprint: bytes | None = None) -> int:
        """Drop one entry (or all), compacting the on-disk file.

        Compaction is atomic: the survivors are rewritten to a temporary
        file which then replaces the original, so a crash mid-purge
        leaves either the old or the new file, never a hybrid.
        """
        if fingerprint is None:
            removed = len(self._entries)
            self._entries.clear()
            self._formats.clear()
        else:
            fingerprint = bytes(fingerprint)
            removed = 1 if self._entries.pop(fingerprint, None) is not None else 0
            self._formats.pop(fingerprint, None)
        self._negative.clear()
        if self._log is not None and removed:
            # fsynced before the replace, so not even an OS crash can
            # leave the cache's name on a file whose data never landed.
            self._log.rewrite(map(_entry_payload, self._entries.values()), fsync=True)
        return removed

    def formats(self) -> Iterator[IOFormat]:
        """Parse and yield every live cached format (warm-start sweep)."""
        for fingerprint in list(self._entries):
            fmt = self.format_for(fingerprint)
            if fmt is not None:
                yield fmt

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "FormatCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
