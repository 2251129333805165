"""Process-wide converter cache.

The paper's economics hinge on amortization: DCG pays a one-time
generation cost so that every subsequent record converts at near-memcpy
speed.  A converter is fully determined by four things — the wire
format's fingerprint, the expected native format's fingerprint, the
conversion strategy, and the receiving machine's ABI — so there is no
reason for N same-machine receivers to generate it N times.  This module
provides the shareable cache:

* each :class:`~repro.core.context.IOContext` gets a private
  ``ConverterCache`` by default (seed-compatible behavior);
* any number of contexts may be handed *one* cache (``cache=`` parameter,
  :meth:`IOContext.use_cache`, or ``EventChannel(cache=...)``), after
  which the first receiver to see a (wire, native) pair builds the
  converter and every other same-machine, same-mode receiver reuses it;
* :func:`shared_cache` returns the lazily-created process-global cache
  for code that wants sharing without plumbing an object around.

The key includes the machine ABI and conversion mode precisely so a
shared cache can serve heterogeneous subscriber sets: an x86 and a SPARC
receiver sharing one cache never see each other's entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.abi import MachineDescription

from ..formats import IOFormat
from .metrics import Metrics


def machine_key(machine: MachineDescription) -> tuple:
    """The ABI identity a converter depends on.

    Layout (sizes/alignments) is already captured by the *native format
    fingerprint*; what remains is byte order, pointer width and float
    representation — plus the name to keep distinct-but-identical ABIs
    from sharing entries surprisingly.
    """
    return (machine.name, machine.byte_order, machine.pointer_size, machine.float_format)


CacheKey = tuple[bytes, bytes, str, tuple]


@dataclass(frozen=True)
class CacheEntry:
    """One resolved (wire, native, mode, machine) conversion decision."""

    zero_copy: bool
    converter: Callable | None  # None iff zero_copy
    source: str | None  # generated code / disassembly / plan description
    wire_name: str
    native_name: str
    native_size: int
    generation_time_s: float = 0.0
    #: The plan compiled to a structured-dtype cast, with a byte move's index
    #: (:class:`~repro.core.conversion.BatchConverter`); ``None`` when not
    #: liftable (strings, VAX floats, float->int) or not DCG: loop :attr:`converter`.
    batch: object | None = None
    #: Offset-table passes over a *string-bearing* plan's var-length tails
    #: (:class:`~repro.core.conversion.VarBatchConverter`), or ``None``.
    var_batch: object | None = None
    #: The smallest group :attr:`batch` converts; a smaller one runs :attr:`converter` per record.
    kernel_min_group: int = 0


class ConverterCache:
    """Thread-safe cache of :class:`CacheEntry` objects.

    The cache keeps its own :class:`Metrics` (``converters_generated``,
    ``converter_cache_hits``, ``zero_copy_formats``, ``generation_time_s``)
    so sharing semantics are observable: N subscribers sharing one cache
    show exactly one generation however many of them decode.
    """

    def __init__(self, *, max_entries: int | None = None) -> None:
        """``max_entries`` caps the cache: inserting beyond it evicts the
        oldest entry (FIFO, counted as ``cache.evictions``).  ``None`` is
        unbounded — appropriate for trusted format populations; contexts
        decoding hostile peers get a quota from their
        :class:`~repro.core.safety.DecodeLimits`."""
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self._entries: dict[CacheKey, CacheEntry] = {}
        #: Compiled filter/projection code, keyed (kind, spec, wire
        #: fingerprint) — see :meth:`resolve_compiled`.  Held apart from
        #: the converter entries: a predicate is not a converter, and the
        #: FIFO cap above must not evict tiny code objects to make room
        #: for them.
        self._compiled: dict[tuple, Callable] = {}
        self._lock = threading.RLock()
        self.metrics = Metrics()
        self.max_entries = max_entries

    @staticmethod
    def key_for(
        wire: IOFormat, native: IOFormat, conversion: str, machine: MachineDescription
    ) -> CacheKey:
        return (wire.fingerprint, native.fingerprint, conversion, machine_key(machine))

    def resolve(
        self,
        wire: IOFormat,
        native: IOFormat,
        conversion: str,
        machine: MachineDescription,
        build: Callable[[IOFormat, IOFormat], CacheEntry],
    ) -> tuple[CacheEntry, str]:
        """Look up or build the entry for one format pair.

        Returns ``(entry, outcome)`` where outcome is ``"hit"``,
        ``"built"`` (a converter was generated) or ``"zero_copy"`` (first
        resolution of a pair that needs no conversion).
        """
        key = self.key_for(wire, native, conversion, machine)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.metrics.inc("converter_cache_hits")
                return entry, "hit"
            entry = build(wire, native)
            if self.max_entries is not None and len(self._entries) >= self.max_entries:
                # dicts iterate in insertion order: drop the oldest entry.
                self._entries.pop(next(iter(self._entries)))
                self.metrics.inc("cache.evictions")
            self._entries[key] = entry
            if entry.converter is not None:
                self.metrics.inc("converters_generated")
                self.metrics.add("generation_time_s", entry.generation_time_s)
                return entry, "built"
            self.metrics.inc("zero_copy_formats")
            return entry, "zero_copy"

    def resolve_compiled(
        self,
        kind: str,
        spec,
        wire: IOFormat,
        build: Callable[[], Callable],
    ) -> tuple[Callable, bool]:
        """Look up or build one compiled filter/projection callable.

        The amortization argument for converters applies verbatim to DCG
        predicates: a compiled filter is fully determined by its
        expression and the wire format it reads, so N subscribers sharing
        one cache and one predicate compile it once.  ``kind``
        distinguishes the compilation families (``"filter"`` /
        ``"projection"``), ``spec`` is the expression string (or field
        tuple), and ``build`` compiles on miss.  Returns ``(callable,
        built)`` — ``built`` is True when this call did the compilation —
        and counts ``filters_compiled`` / ``filter_cache_hits`` in
        :attr:`metrics` so the sharing is observable.
        """
        key = (kind, spec, wire.fingerprint)
        with self._lock:
            fn = self._compiled.get(key)
            if fn is not None:
                self.metrics.inc("filter_cache_hits")
                return fn, False
            fn = build()
            self._compiled[key] = fn
            self.metrics.inc("filters_compiled")
            return fn, True

    def sources(
        self,
        format_name: str | None = None,
        *,
        conversion: str | None = None,
        machine: MachineDescription | None = None,
    ) -> dict[str, str]:
        """``{"<wire> -> <native>": source}`` for cached converters.

        Names are recorded at build time (the fingerprint -> name reverse
        map), so this is O(entries), not O(formats x converters).
        """
        mkey = machine_key(machine) if machine is not None else None
        out: dict[str, str] = {}
        with self._lock:
            for (_, _, mode, key_machine), entry in self._entries.items():
                if entry.source is None:
                    continue
                if conversion is not None and mode != conversion:
                    continue
                if mkey is not None and key_machine != mkey:
                    continue
                if format_name is not None and format_name not in (
                    entry.wire_name,
                    entry.native_name,
                ):
                    continue
                out[f"{entry.wire_name} -> {entry.native_name}"] = entry.source
        return out

    def entries(self) -> dict[CacheKey, CacheEntry]:
        with self._lock:
            return dict(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._compiled.clear()
            self.metrics.reset()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries


_shared_lock = threading.Lock()
_shared: ConverterCache | None = None


def shared_cache() -> ConverterCache:
    """The process-wide converter cache (created lazily, never reset by
    context teardown — pass it as ``IOContext(..., cache=shared_cache())``)."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = ConverterCache()
        return _shared


def reset_shared_cache() -> None:
    """Drop the process-wide cache (test isolation)."""
    global _shared
    with _shared_lock:
        _shared = None
