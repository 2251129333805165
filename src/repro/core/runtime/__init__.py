"""The conversion runtime: one decode hot path, shared and observable.

Three pieces (see docs/wire-format.md section 6 and DESIGN.md):

* :class:`ConverterCache` — process-shareable cache of generated
  converters keyed by ``(wire fingerprint, native fingerprint,
  conversion mode, machine ABI)``; :func:`shared_cache` is the lazy
  process-global instance.
* :class:`DecodePipeline` — the single header-parse -> format-lookup ->
  zero-copy-or-convert implementation every endpoint (context, channel,
  filter, file reader, RPC server, relay) consumes.
* :class:`Metrics` — the unified counter registry subsuming the
  old per-component stats objects (which survive as views).
"""

from .cache import ConverterCache, reset_shared_cache, shared_cache
from .metrics import (
    ContextStats,
    DownstreamStats,
    DurableStats,
    Metrics,
    SubscriberStats,
)
from .pipeline import DecodePipeline
from .pool import Lease

__all__ = [
    "Lease",
    "ContextStats",
    "ConverterCache",
    "DecodePipeline",
    "DownstreamStats",
    "DurableStats",
    "Metrics",
    "SubscriberStats",
    "reset_shared_cache",
    "shared_cache",
]
