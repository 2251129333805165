"""Format service: fingerprint-keyed format distribution.

The full PBIO/FFS lineage lifts format meta-information out of the data
path entirely: a *format server* stores each format description once,
keyed by its SHA-1 fingerprint, and issues a compact global token;
peers then announce ``(fingerprint, token)`` — 28 bytes — instead of
re-transmitting full meta on every connection.  With millions of
short-lived connections the one-time costs (meta bytes on the wire,
cold converter caches) become one-time per *cluster*, not per
connection.

Three pieces:

* :class:`FormatServer` — the daemon.  Self-hosting: its request/reply
  records are themselves PBIO formats served over the existing RPC
  stack, so the control plane exercises the same wire format it
  distributes (bootstrap uses inline announcements).
* :class:`FormatCache` — the client-side store: in-memory plus a
  crash-safe on-disk layer (the v2 file framing), negative caching and
  TTL, so a restarted process resolves fingerprints without touching
  the network.
* :class:`FormatService` — the client: publishes local formats to the
  server (returning tokens), resolves fingerprints through the cache
  ladder (memory → disk → server), degrades gracefully to inline
  announcements when the server is unreachable, and warm-starts the
  shared :class:`~repro.core.runtime.ConverterCache` from persisted
  formats.

The service is never a hard dependency: every integration point
(``PbioConnection``, ``EventChannel``, ``Relay``, RPC) falls back to
today's inline announcements when the server is down, faulted, or
simply not configured.  See docs/wire-format.md §7.
"""

from .cache import FormatCache
from .client import FormatService
from .protocol import STATUS_INVALID, STATUS_OK
from .server import FormatServer

__all__ = [
    "FormatCache",
    "FormatServer",
    "FormatService",
    "STATUS_OK",
    "STATUS_INVALID",
]
