"""The decode pipeline: the one receive-side hot path.

Before this module existed, the header-parse -> remote-format lookup ->
expected-format resolution -> zero-copy-or-convert sequence was
re-implemented by ``IOContext``, the event channel, record filters, PBIO
files, the RPC server loop and the relay.  :class:`DecodePipeline` is now
the single implementation all of them consume, which is what makes the
path optimizable (batching, async, sharding) and observable (one
:class:`~repro.core.runtime.metrics.Metrics` namespace, one
:class:`~repro.core.runtime.cache.ConverterCache`) at all.

Stages: **parse** the 16-byte header, **resolve** the wire format and the
expected native one (the format plan), **dispatch**: zero-copy, or the
cached converter into a fresh destination (``docs/wire-format.md`` §6).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.abi import MachineDescription, RecordView, StructLayout, codec_for

import struct

from ..encoder import (
    DATA_KINDS, HEADER_SEQ_STRUCT, HEADER_SIZE, MAGIC, MESSAGE_TYPES, MSG_DATA, MSG_DATA_SEQ, RUN,
    SEQ_PREFIX, SEQ_PREFIX_SIZE, SEQ_RECORD_OFFSET, VERSION, parse_control, read_seq, rows, settle,
    try_unpack_header, uniform_header, unpack_header,
)  # fmt: skip
from ..conversion import (
    GATHER_MAX_BYTES,
    NUMPY_THRESHOLD,
    InterpretedConverter,
    build_batch_converter,
    build_plan,
    build_var_batch_converter,
    generate_converter,
)
from ..errors import (
    ConversionError,
    FormatError,
    LimitError,
    MessageError,
    PbioError,
    TokenResolutionError,
)
from ..formats import IOFormat
from ..matching import match_formats
from ..registry import FormatRegistry
from ..safety import DEFAULT_LIMITS, DecodeLimits
from .cache import CacheEntry, ConverterCache
from .metrics import Metrics

#: The record kernel's fixed cost per call, in generated scalar statements,
#: and the record size past which the scalar loop wins at any group size
#: (``benchmarks/bench_ablation_kernel_crossover.py``): they fix, per cache
#: entry, the smallest group the kernel converts.
KERNEL_CALL_STATEMENTS = 8
KERNEL_MAX_RECORD = 32 * 1024

#: Stdlib/numpy exceptions a converter or code generator may leak when
#: fed structurally valid but content-hostile input; decode paths wrap
#: them into the PbioError taxonomy so callers see exactly one family.
_LEAKY_ERRORS = (struct.error, ValueError, IndexError, KeyError, OverflowError, UnicodeDecodeError)

_NO_SEQ = bytes(SEQ_PREFIX_SIZE)  # read_seq's
UNIFORM_MIN_RUN = 5  # the shortest burst admitted as one group: below it the scan is cheaper

#: The bare decode's column of the verdict table (docs/wire-format.md §12):
#: data is decoded — a frame with no PBIO header too, whose admission check
#: (:meth:`DecodePipeline._open`) names the damage —, an announcement is
#: absorbed, and link control, addressed to a *peer endpoint* and handled by
#: the negotiation, health or durable layer, is mis-delivery here.
DECODE_ROWS = rows(
    default="handle _misdelivered", foreign="run", data="run", data_seq="run",
    format="handle absorb", token="handle absorb_token",
)  # fmt: skip


class DecodePipeline:
    """Receive-side decode machinery shared by every PBIO endpoint.

    The pipeline does not own the registry or the expected-format table —
    it borrows the context's (they are live references, so ``expect()``
    calls are visible immediately).  The converter cache may be private
    or shared between any number of pipelines; the cache key includes the
    conversion mode and machine ABI, so sharing is always safe.
    """

    __slots__ = (
        "registry",
        "expected",
        "machine",
        "conversion",
        "cache",
        "metrics",
        "limits",
        "resolver",
        "_max_msg",
        "_plans",
        "_staging",
    )

    def __init__(
        self,
        *,
        registry: FormatRegistry,
        expected: dict[str, IOFormat],
        machine: MachineDescription,
        conversion: str | Callable = "dcg",
        cache: ConverterCache | None = None,
        metrics: Metrics | None = None,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
    ) -> None:
        self.registry = registry
        self.expected = expected
        self.machine = machine
        self.conversion = conversion
        self.limits = limits
        # Hoisted ceiling: the per-message hot path pays one local load
        # and one compare, not two attribute chases.
        self._max_msg = limits.max_message_size if limits is not None else None
        if cache is None:
            cache = ConverterCache(
                max_entries=limits.max_cache_entries if limits is not None else None
            )
        self.cache = cache
        self.metrics = metrics if metrics is not None else Metrics()
        #: Fingerprint resolver for token-only announcements — typically
        #: a :meth:`repro.fmtserv.FormatService.resolve` bound method.
        #: ``None`` means this pipeline cannot absorb tokens by itself.
        self.resolver: Any = None
        # Format plans (_plan): the lock-free front of the registry, the
        # expected table and the (possibly shared, locked) cache.
        self._plans: dict[tuple[int, int], list] = {}
        # Grow-only source staging for multi-record kernel calls.
        self._staging = bytearray()

    # -- stage 1+2: parse and resolve ---------------------------------------

    def open_data(self, message, *, header=None) -> tuple[IOFormat, memoryview]:
        """Validate a data message; return its wire format and payload.

        The first stop for untrusted bytes on every decode path: the
        header must parse, the message must fit the :class:`DecodeLimits`,
        the payload must match the header's declared length *and* the wire
        format's record size (a string format's may be longer, never
        shorter).  Failures raise the PbioError taxonomy and count as
        ``decode.rejected``.  ``header`` may carry the tuple an upstream
        stage parsed.  A ``MSG_DATA_SEQ`` frame's record starts 8 bytes
        later, behind a prefix :func:`~repro.core.encoder.read_seq`
        validates: here the sequence is just framing (dedup lives in
        ``DurableSubscription``).
        """
        plan, payload = self._open(message, header)
        return plan[0], payload

    def _open(self, message, header) -> tuple[list, memoryview]:
        """:meth:`open_data` for the decode bodies: the frame's plan (the
        wire half at least, see :meth:`_plan`) and its payload."""
        try:
            if self._max_msg is not None and len(message) > self._max_msg:
                raise LimitError(
                    f"message of {len(message)} bytes exceeds max_message_size "
                    f"({self._max_msg})"
                )
            msg_type, context_id, format_id, payload_len = (
                unpack_header(message) if header is None else header
            )
            if msg_type == MSG_DATA:
                start = HEADER_SIZE
                if len(message) - start != payload_len:
                    raise MessageError(
                        f"payload length mismatch: header says {payload_len}, "
                        f"got {len(message) - start}"
                    )
            elif msg_type == MSG_DATA_SEQ:
                read_seq(message, payload_len)
                start = SEQ_RECORD_OFFSET
                payload_len -= SEQ_PREFIX_SIZE
            else:
                raise MessageError("expected a data message")
            payload = memoryview(message)[start:]
            key = (context_id, format_id)
            plan = self._plans.get(key)
            if plan is None:
                plan = self._plan(key)
            rec_size = plan[1]
            if payload_len != rec_size and (payload_len < rec_size or not plan[2]):
                raise MessageError(
                    f"payload of {payload_len} bytes does not cover a "
                    f"{rec_size}-byte {plan[0].name!r} record"
                )
            return plan, payload
        except PbioError:
            self.metrics.inc("decode.rejected")
            raise

    def _plan(self, key) -> list:
        """The format plan of one ``(context id, format id)``, made once: ``[wire
        format, record size, has_strings, expected native format, cache entry,
        native codec]``, its native half empty until :meth:`_refresh` fills it."""
        wire_fmt = self.registry.remote_format(*key)
        if self.limits is not None and len(self._plans) >= self.limits.max_cache_entries:
            self._plans.clear()  # keep the lock-free front bounded too
        plan = self._plans[key] = [wire_fmt, wire_fmt.record_size, wire_fmt.has_strings, None, None, None]
        return plan

    def _refresh(self, plan: list, codec: bool) -> bool | None:
        """Fill a plan's native half if missing or not the live ``expected`` entry (a
        replacing ``expect()`` holds at once), its codec where records are read; ``None``
        on a steady lookup (the caller counts the cache's hit), else whether it missed."""
        wire_fmt, missed = plan[0], None
        expected = self.expected.get(wire_fmt.name)
        if expected is None or expected is not plan[3]:
            expected = self.native_for(wire_fmt)
            entry, missed = self.entry_for(wire_fmt, expected)
            plan[3:] = expected, entry, None
        if codec and plan[5] is None:
            plan[5] = codec_for(self._layout_of(expected))
        return missed

    def native_for(self, wire_fmt: IOFormat) -> IOFormat:
        """The expected native format matching ``wire_fmt`` by name."""
        native = self.expected.get(wire_fmt.name)
        if native is None:
            raise FormatError(
                f"no expected format declared for {wire_fmt.name!r}; "
                f"call expect() or use reflection to inspect the format"
            )
        return native

    def absorb(self, message, header) -> None:
        """Register the format carried by an announcement message whose
        ``header`` the caller parsed.

        Validation order matters: the meta block is parsed and
        structurally validated (``from_meta_bytes`` under this
        pipeline's limits) *before* the per-peer format quota is
        consulted (:meth:`_register`).
        """
        try:
            meta = memoryview(message)[HEADER_SIZE:]
            if len(meta) != header[3]:
                raise MessageError(
                    f"meta payload length mismatch: header says {header[3]}, "
                    f"got {len(meta)}"
                )
            self._register(header[1], header[2], IOFormat.from_meta_bytes(meta, limits=self.limits))
        except PbioError:
            self.metrics.inc("decode.rejected")
            raise

    def _register(self, context_id: int, format_id: int, fmt: IOFormat) -> None:
        """Register a peer's format under the per-peer quota, which only
        genuinely new (context, id) pairs count against — benign
        re-announcements never trip it."""
        if (
            self.limits is not None
            and not self.registry.knows_remote(context_id, format_id)
            and self.registry.remote_count(context_id) >= self.limits.max_formats_per_peer
        ):
            raise LimitError(
                f"peer {context_id:#010x} exceeded max_formats_per_peer "
                f"({self.limits.max_formats_per_peer})"
            )
        self.registry.register_remote(context_id, format_id, fmt)

    def absorb_token(self, message, header) -> None:
        """Register a token-only announcement, resolving the fingerprint.

        Resolution goes through :attr:`resolver` (a format service's
        cache ladder).  Failure raises
        :class:`~repro.core.errors.TokenResolutionError`, counted as
        ``fmtserv.unresolved`` — deliberately *not* ``decode.rejected``:
        an unresolvable token is a cache/availability condition, not
        hostile input, and duplex endpoints recover from it by asking
        the announcer for inline meta.  Malformed token frames and quota
        violations are protocol damage as usual.
        """
        _, context_id, format_id, _ = header
        try:
            fingerprint, _token = parse_control(message, header)
            if self.registry.knows_remote(context_id, format_id):
                if self.registry.remote_format(context_id, format_id).fingerprint == fingerprint:
                    return  # benign re-announcement (replays, reconnects)
                raise FormatError(
                    f"context {context_id:#010x} re-announced id {format_id} "
                    f"with a different fingerprint"
                )
        except PbioError:
            self.metrics.inc("decode.rejected")
            raise
        fmt = self.resolver(fingerprint) if self.resolver is not None else None
        if fmt is None or fmt.fingerprint != fingerprint:
            self.metrics.inc("fmtserv.unresolved")
            raise TokenResolutionError(context_id, format_id, fingerprint)
        try:
            self._register(context_id, format_id, fmt)
        except PbioError:
            self.metrics.inc("decode.rejected")
            raise
        self.metrics.inc("fmtserv.tokens_absorbed")

    def _misdelivered(self, message, header) -> None:
        """The link-control rows of :data:`DECODE_ROWS`."""
        self.metrics.inc("decode.rejected")
        raise MessageError(f"link control message (type {header[0]}) outside a negotiated stream")

    # -- stage 3: converter resolution --------------------------------------

    def entry_for(self, wire_fmt: IOFormat, native: IOFormat) -> tuple[CacheEntry, bool]:
        """The cached conversion decision for one format pair, and whether the
        cache had to make it — a build is mirrored into this pipeline's own
        metrics, so per-context counters stay meaningful under a shared cache."""
        try:
            entry, outcome = self.cache.resolve(
                wire_fmt, native, self.conversion, self.machine, self._build_entry
            )
        except PbioError:
            raise
        except _LEAKY_ERRORS as exc:
            # A format pair that passed structural validation but still
            # broke converter generation: protocol damage, not a crash.
            raise FormatError(
                f"cannot build converter {wire_fmt.name!r} -> {native.name!r}: {exc}"
            ) from exc
        if outcome == "hit":
            return entry, False
        if outcome == "built":
            self.metrics.inc("converters_generated")
            self.metrics.add("generation_time_s", entry.generation_time_s)
        full = self.cache.max_entries
        if full is not None and len(self.cache) >= full:
            self._plans.clear()  # the insert may have evicted an entry a plan still names
        return entry, True

    def set_cache(self, cache: ConverterCache) -> None:
        """Re-point at another (shared) cache, dropping the format plans."""
        self.cache = cache
        self._plans.clear()

    def _build_entry(self, wire_fmt: IOFormat, native: IOFormat) -> CacheEntry:
        match = match_formats(wire_fmt, native)
        if match.zero_copy:
            return CacheEntry(True, None, None, wire_fmt.name, native.name, native.record_size)
        plan = build_plan(wire_fmt, native, match)
        batch = None
        var_batch = None
        kernel_min_group = 0
        if self.conversion == "interpreted":
            converter = InterpretedConverter(plan)
            source = plan.describe()
            generation_time_s = 0.0
        else:
            dcg = self.conversion == "dcg"
            generated = generate_converter(plan) if dcg else self.conversion(plan)
            converter = generated.convert
            source = generated.source
            generation_time_s = generated.generation_time_s
            if dcg:
                # The same plan compiled to a record kernel, cached
                # alongside the scalar converter.  DCG only: the
                # interpreter and a factory's converters exist to measure
                # *their* per-record mechanism, so batch decodes loop
                # their scalar converters instead.
                if native.record_size <= KERNEL_MAX_RECORD:
                    batch = build_batch_converter(plan, generated.gather)
                    kernel_min_group = -(-KERNEL_CALL_STATEMENTS // max(generated.statements, 1))
                    if generated.gather is not None:  # a byte move: two records are one gather
                        kernel_min_group = 2
                var_batch = build_var_batch_converter(plan)
        return CacheEntry(
            zero_copy=False, converter=converter, source=source, wire_name=wire_fmt.name,
            native_name=native.name, native_size=native.record_size, generation_time_s=generation_time_s,
            batch=batch, var_batch=var_batch, kernel_min_group=kernel_min_group,
        )

    # -- public decode entry points -----------------------------------------

    def decode(self, message, *, header=None) -> dict[str, Any]:
        """Decode to a fully materialized value dict."""
        return self._decode(message, header, False, False)

    def decode_view(self, message, *, header=None, lease=None) -> RecordView:
        """Decode to a :class:`RecordView` (``lease``: see :meth:`_decode`)."""
        return self._decode(message, header, False, True, lease)

    def decode_native(self, message, *, header=None) -> bytes:
        """Decode to record bytes in the pipeline's native layout."""
        return self._decode(message, header, True, False)

    def _decode(self, message, header, native: bool, lend: bool, lease=None):
        """The one scalar decode body: admit (:meth:`_open`), resolve, then
        zero-copy or convert, into the output shape — native record bytes
        (``native``; with ``lend`` a memoryview), a :class:`RecordView`
        (``lend``) or a value dict.

        Zero-copy views view the *message buffer itself*, with ``lease`` (a
        :class:`~repro.core.runtime.pool.Lease`, or a transport's loan of
        one) attached when the message aliases borrowed storage (a lent
        receive buffer, an mmap'd file): the storage outlives every view
        because each view holds the lease alive.  Converted views view a
        fresh destination the converter filled in place, which the view
        alone owns — the source frame may be overwritten at once.
        """
        plan, payload = self._open(message, header)
        wire_fmt, _, has_strings, expected, entry, codec = plan
        try:
            missed = None  # a steady hit: _refresh's check, inlined
            stale = expected is None or (codec is None and not native)
            if stale or self.expected.get(wire_fmt.name) is not expected:
                missed = self._refresh(plan, not native)
                entry, codec = plan[4:]
            if missed is None:
                self.cache.metrics.inc("converter_cache_hits")
            elif missed:
                self.metrics.inc("converter_cache_hits", -1)
            if entry.zero_copy:
                self.metrics.inc("zero_copy_decodes")
                if lend and lease is not None:
                    lease = lease.take()  # the result aliases the frame
                if native:
                    return payload if lend else bytes(payload)
                record = payload
            else:
                self.metrics.inc("converted_decodes")
                # a string plan's output is variable-size: it builds its own
                dst = None if has_strings or native else bytearray(entry.native_size)
                record = self._run_converter(entry, wire_fmt, payload, dst)
                if native:
                    return memoryview(record) if lend else record
                lease = None
        except PbioError:
            self.metrics.inc("decode.rejected")
            raise
        if lend:  # positionally where it can be: the keyword costs a fifth of the call
            return RecordView(codec, record) if lease is None else RecordView(codec, record, lease=lease)
        try:
            return codec.decode(record)
        except _LEAKY_ERRORS as exc:
            # Zero-copy string records materialize straight from the
            # message buffer; a bogus pointer or missing NUL lands here.
            self.metrics.inc("decode.rejected")
            raise ConversionError(f"malformed record content: {exc}") from exc

    def ingest(self, message) -> dict[str, Any] | None:
        """Process one message by its row of :data:`DECODE_ROWS`: data
        decodes to a value dict, an announcement is absorbed (``None``).
        The header is parsed once; a frame over the size limit or with no
        PBIO header goes to the decode, which rejects it."""
        header = None
        if self._max_msg is None or len(message) <= self._max_msg:
            header = try_unpack_header(message)
        row = DECODE_ROWS[None if header is None else header[0]]
        if row is RUN:
            return self._decode(message, header, False, False)
        settle(row, message, header, self)
        return None

    # -- batch decode ---------------------------------------------------------

    def decode_batch(
        self, messages, *, on_error: str = "raise", lend: bool = False, lease=None, headers=None,
        native: bool = False,
    ) -> list:
        """Decode a list of frames in one pass; one result slot per frame.

        Frames are parsed once each, announcements are absorbed in
        arrival order (their slots are ``None``), and consecutive data
        frames of the same (context id, format id) form a *group* that
        dispatches one batch-converter call instead of N scalar ones.  A
        burst of one data frame has nothing to group: it is its scalar
        decode (:meth:`_decode`); a uniform burst is admitted as one group
        (:meth:`_decode_run`), or by the per-frame scan, the reference, when
        a check fails.  Results are byte-for-byte what a
        sequential :meth:`ingest`/:meth:`decode` loop would produce, under
        the same :class:`DecodeLimits`.

        ``headers`` may carry, parallel to ``messages``, header tuples a
        stage upstream parsed (:func:`~repro.core.encoder.try_unpack_header`;
        ``None``: parse here).  Everything else is still checked against
        the frame itself, so a header that lies is rejected like a frame
        that lies.

        ``on_error="raise"`` (default) propagates the first rejection like
        the sequential loop, the results so far as ``exc.partial``;
        ``"skip"`` leaves a bad frame's slot ``None`` and decodes the rest.

        The output shape is the scalar entries': value dicts, with
        ``lend=True`` :class:`RecordView` objects; ``native=True`` returns
        native record bytes (with ``lend=True``, memoryviews).  Zero-copy
        lent results alias the *message buffer itself*, views carrying
        ``lease`` (a memoryview is valid only while ``lease`` is held);
        converted frames are private bytes and carry no lease.  Call
        :meth:`~repro.abi.views.RecordView.detach` on a lent view before
        storing it beyond the receive loop.
        """
        strict = on_error == "raise"
        if not strict and on_error != "skip":
            raise ValueError(f'on_error must be "raise" or "skip", not {on_error!r}')
        if len(messages) == 1:
            message = messages[0]
            header = None if headers is None else headers[0]
            if header is None:
                header = try_unpack_header(message)
            if header is not None and header[0] in DATA_KINDS:  # a run of one: the scalar decode
                try:
                    record = self._decode(message, header, native, lend, lease)
                except PbioError as exc:  # counted decode.rejected where it was raised
                    self.metrics.inc("decode.batch.rejected")
                    if strict:
                        exc.partial = [None]
                        raise
                    return [None]
                self.metrics.inc("decode.batch.groups")
                return [record]
        out: list = [None] * len(messages)
        # The open group — consecutive data frames of one context id
        # `gcid` and format id `gfid`: its format resolved at the first
        # frame (`unresolved` is the PbioError that rejects every frame when
        # it cannot be), its validated frames in `slots`/`payloads`.  A
        # zero-copy lend group has nothing to convert: its views go straight
        # into `out` and only their number, `lent`, waits for the group's end.
        gcid = gfid = failure = None
        slots: list[int] = []
        payloads: list = []
        lent = 0
        plans, max_msg, scan = self._plans, self._max_msg, HEADER_SEQ_STRUCT.unpack_from
        try:
            if len(messages) >= UNIFORM_MIN_RUN and (header := uniform_header(messages, headers)) is not None:
                if self._decode_run(out, messages, header, strict, lend, lease, native):
                    return out
            for i, message in enumerate(messages):
                # Header scan, inlined: header and sequence prefix in one unpack_from; anything
                # anomalous re-parses through unpack_header / read_seq for the exact error messages.
                try:
                    if max_msg is not None and len(message) > max_msg:
                        raise LimitError(
                            f"message of {len(message)} bytes exceeds max_message_size ({max_msg})"
                        )
                    header = None if headers is None else headers[i]
                    if header is None and len(message) >= SEQ_RECORD_OFFSET:  # room for header + sequence
                        magic, version, msg_type, context_id, format_id, payload_len, seq = scan(message, 0)
                        if magic != MAGIC or version != VERSION or msg_type not in MESSAGE_TYPES:
                            msg_type, context_id, format_id, payload_len = unpack_header(message)
                    else:  # parsed upstream (the prefix still to check), or too short for a sequence
                        msg_type, context_id, format_id, payload_len = header or unpack_header(message)
                        seq = 0
                    if msg_type == MSG_DATA:
                        start = HEADER_SIZE
                    elif msg_type == MSG_DATA_SEQ:
                        if not seq or payload_len != len(message) - HEADER_SIZE:
                            read_seq(message, payload_len)  # raises, unless the header came parsed
                        start = SEQ_RECORD_OFFSET
                        payload_len -= SEQ_PREFIX_SIZE
                    else:
                        start = 0  # a control frame
                    bad = None
                except PbioError as exc:
                    start, bad = 0, exc
                if not start or context_id != gcid or format_id != gfid:
                    if slots or lent:  # the group ends: dispatch it
                        self._decode_group(out, slots, payloads, lent, group, strict, lend)
                        slots, payloads, lent = [], [], 0
                    gcid = gfid = None
                    if start:
                        gcid, gfid = key = context_id, format_id
                        try:
                            plan = plans.get(key) or self._plan(key)
                            rec_size, has_strings = plan[1], plan[2]
                            wire_fmt, entry, codec, missed = group = self._group(plan, native)
                            unresolved = None
                        except PbioError as exc:
                            unresolved = exc
                        else:
                            as_views = lend and entry.zero_copy and codec is not None
                            if lend and entry.zero_copy and lease is not None:
                                lease = lease.take()  # results will alias the frames
                if start:
                    payload = memoryview(message)[start:]
                    if len(payload) != payload_len:
                        bad = MessageError(
                            f"payload length mismatch: header says {payload_len}, got {len(payload)}"
                        )
                    elif unresolved is not None:
                        bad = unresolved
                    elif payload_len != rec_size and (payload_len < rec_size or not has_strings):
                        bad = MessageError(
                            f"payload of {payload_len} bytes does not cover a {rec_size}-byte "
                            f"{wire_fmt.name!r} record"
                        )
                    elif as_views:
                        if lease is None:  # positionally: the keyword costs a fifth of the call
                            out[i] = RecordView(codec, payload)
                        else:
                            out[i] = RecordView(codec, payload, lease=lease)
                        lent += 1
                        continue
                    else:
                        slots.append(i)
                        payloads.append(payload)
                        continue
                    if strict:  # a sequential loop decoded everything ahead of the failure
                        failure = bad
                        break
                    self._reject(bad, False)
                elif bad is not None:
                    self._reject(bad, strict)
                else:
                    # Control frames end the run and are absorbed in order, so
                    # a format (re-)announcement takes effect before the data
                    # frames behind it — same semantics as the sequential loop.
                    try:
                        header = (msg_type, context_id, format_id, payload_len)
                        settle(DECODE_ROWS[msg_type], message, header, self)
                    except TokenResolutionError:  # an availability condition, not a rejection
                        if strict:
                            raise
                    except PbioError:  # counted decode.rejected where it was raised
                        self.metrics.inc("decode.batch.rejected")
                        if strict:
                            raise
            if slots or lent:
                self._decode_group(out, slots, payloads, lent, group, strict, lend)
            if failure is not None:
                self._reject(failure, True)
        except PbioError as exc:  # strict only
            exc.partial = out
            raise
        return out

    def _group(self, plan: list, native: bool) -> tuple:
        """A group's ``(wire format, entry, codec, missed)``, resolved as :meth:`_decode` does."""
        wire_fmt, _, _, expected, entry, codec = plan
        missed = None  # a steady hit, as in _decode
        live = self.expected.get(wire_fmt.name)
        if expected is None or (codec is None and not native) or expected is not live:
            missed = self._refresh(plan, not native)
            entry, codec = plan[4:]
        if missed is None:  # the lookup a cold plan would make of the cache
            self.cache.metrics.inc("converter_cache_hits")
        return wire_fmt, entry, None if native else codec, missed  # (another shape may have resolved a codec)

    def _decode_run(self, out, messages, header, strict: bool, lend: bool, lease, native: bool) -> bool:
        """:meth:`decode_batch` of a uniform run into ``out``: the scan's checks made once (the sequence
        prefixes in one pass), a warm plan resolved once; False if a check fails (the scan names it)."""
        kind, context_id, format_id, length = header
        start, max_msg = SEQ_RECORD_OFFSET if kind == MSG_DATA_SEQ else HEADER_SIZE, self._max_msg
        plan, size = self._plans.get((context_id, format_id)), HEADER_SIZE + length - start
        if kind not in DATA_KINDS or plan is None or (max_msg is not None and HEADER_SIZE + length > max_msg):
            return False
        if kind == MSG_DATA_SEQ and (length < SEQ_PREFIX_SIZE or list(map(SEQ_PREFIX, messages)).count(_NO_SEQ)):
            return False
        if size != plan[1] and (size < plan[1] or not plan[2]):
            return False
        try:
            group = self._group(plan, native)
        except PbioError:
            return False
        _, entry, codec, _ = group
        if lend and entry.zero_copy and lease is not None:
            lease = lease.take()  # results will alias the frames
        if lend and entry.zero_copy and codec is not None:  # the views are the group
            if lease is None:  # positionally: the keyword costs a fifth of the call
                out[:] = [RecordView(codec, memoryview(message)[start:]) for message in messages]
            else:
                out[:] = [RecordView(codec, memoryview(message)[start:], lease=lease) for message in messages]
            self._decode_group(out, (), (), len(out), group, strict, lend)
        else:
            payloads = [memoryview(message)[start:] for message in messages]
            self._decode_group(out, range(len(out)), payloads, 0, group, strict, lend)
        return True

    def _decode_group(self, out, slots, payloads, lent: int, group, strict: bool, lend: bool) -> None:
        """Convert one group's validated payloads into their ``out`` slots (a
        zero-copy lend group's ``lent`` views the scan built), and count the
        group, a cache miss at its first record and how its records went:
        zero-copy, converted as a group or by the fallback loop."""
        wire_fmt, entry, codec, missed = group
        inc = self.metrics.inc
        inc("decode.batch.groups")
        if missed:  # the group's first record was the miss
            inc("converter_cache_hits", -1)
        if lent:
            inc("zero_copy_decodes", lent)
            return
        n = len(slots)
        has_strings = wire_fmt.has_strings
        if entry.zero_copy:
            # Lent payloads alias the caller's buffer, which its lease
            # must outlive; owned results copy out of it.
            inc("zero_copy_decodes", n)
            self._emit(out, slots, payloads, codec, lend, strict)
            return

        converted = None
        try:
            if has_strings:
                # Var-length columnar pass: offset tables + one strided
                # tail move.  convert_var returns None when any frame
                # would make the scalar converter raise.
                if entry.var_batch is not None and n >= NUMPY_THRESHOLD:
                    converted = entry.var_batch.convert_var(payloads)
            elif entry.batch is not None:
                # Fixed-size frames only (the scan enforced payload ==
                # record size): the records are exactly n strides of the output.
                d = entry.native_size
                if n < entry.kernel_min_group:
                    # too few records to repay the kernel's fixed cost per call
                    convert = entry.converter
                    converted = [convert(payload, bytearray(d)) for payload in payloads]
                    if lend and codec is None:
                        converted = [memoryview(record) for record in converted]
                else:
                    if n * d <= GATHER_MAX_BYTES and entry.batch.gather is not None:
                        blob = entry.batch.take(payloads)  # a byte move: one 2-D gather
                    else:
                        blob = entry.batch.convert(self._gather(payloads, wire_fmt.record_size))
                    records = None if lend or codec is None else codec.decode_many(blob, n)
                    if records is not None:  # the blob is the group's own: its dicts read by columns
                        inc("decode.batch.converted", n)
                        for i, record in zip(slots, records):
                            out[i] = record
                        return
                    converted = [blob[o : o + d] for o in range(0, n * d, d)]
        except _LEAKY_ERRORS:
            pass  # the scalar loop below isolates the culprit
        if converted is not None:
            inc("decode.batch.converted", n)
            # private converted bytes: safe to lend without a copy or a lease
            self._emit(out, slots, converted, codec, lend, strict)
            return

        # Fallback ladder (docs/wire-format.md §9): the scalar converter, a
        # failure isolated per frame.
        inc("decode.batch.fallback", n)
        for i, payload in zip(slots, payloads):
            try:
                dst = None if has_strings else bytearray(entry.native_size)
                data = self._run_converter(entry, wire_fmt, payload, dst)
            except PbioError as exc:
                self._reject(exc, strict)
                continue
            self._emit(out, (i,), (data,), codec, lend, strict)

    def _gather(self, payloads, size: int) -> memoryview:
        """Pack ``size``-byte payloads back to back for the kernel, in a
        staging buffer reused across calls (the kernel reads it once): a
        fresh ``join`` past the allocator's mmap threshold is mapped and
        unmapped on every call (4 x 100 KB decoded 2.4x slower)."""
        total = len(payloads) * size
        if len(self._staging) < total:
            self._staging = bytearray(total)
        staging = memoryview(self._staging)
        pos = 0
        for payload in payloads:
            staging[pos : pos + size] = payload
            pos += size
        return staging[:total]

    def _emit(self, out, slots, records, codec, lend: bool, strict: bool) -> None:
        """Store ``records`` (native record buffers) in their ``out``
        slots in the requested shape: native bytes (``codec`` is None)
        or records, owned or — with ``lend`` — viewing the buffer."""
        if codec is None:
            for i, record in zip(slots, records):
                out[i] = record if lend else bytes(record)
        elif lend:  # converted records only: private bytes, no lease to carry
            for i, record in zip(slots, records):
                out[i] = RecordView(codec, record)
        else:
            for i, record in zip(slots, records):
                try:
                    out[i] = codec.decode(record)
                except _LEAKY_ERRORS as exc:
                    self._reject(ConversionError(f"malformed record content: {exc}"), strict)

    def _reject(self, exc: PbioError, strict: bool) -> None:
        """Count one rejected frame of a batch; under ``on_error="raise"``
        it raises."""
        self.metrics.inc("decode.rejected")
        self.metrics.inc("decode.batch.rejected")
        if strict:
            raise exc

    def _run_converter(self, entry: CacheEntry, wire_fmt: IOFormat, payload, dst=None):
        """Run a cached converter, translating content-level explosions
        (short string regions, missing NUL terminators, numpy buffer
        mismatches) into :class:`ConversionError`."""
        try:
            return entry.converter(payload, dst)
        except _LEAKY_ERRORS as exc:
            raise ConversionError(
                f"malformed {wire_fmt.name!r} payload broke conversion: {exc}"
            ) from exc

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _layout_of(native: IOFormat) -> StructLayout:
        if native.layout is None:  # pragma: no cover - expect() always sets it
            raise FormatError(f"expected format {native.name!r} has no local layout")
        return native.layout
