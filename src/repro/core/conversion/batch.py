"""Compiled record kernel: N same-format records in one field-wise cast.

The paper's receiver-side result is that a conversion routine *compiled
once* for a wire/native pair beats one that interprets the field list per
message.  The scalar DCG converter compiles to Python source; this module
compiles the same plan one level lower, to a pair of numpy structured
dtypes, so that converting ``n`` records is a single C-level assignment

    dst = zeros(n, native_dtype);  dst[...] = frombuffer(src, wire_dtype)

whatever ``n`` is — no per-op Python, no per-record Python.

**What a field is.**  Each plan op becomes one field, at the op's wire
offset in the source dtype and its native offset in the destination
dtype; numpy pairs structured fields *by position*, so field ``i`` of one
is cast to field ``i`` of the other.  ``COPY``/``CHARS`` are ``u1``
sub-arrays of the moved length (CHARS moves ``min(src, dst)`` bytes:
truncation, or NUL padding from the zeroed destination); ``SWAP`` and
``CVT_*`` are typed scalars, or sub-arrays for element runs, whose
byte-order/size/kind change *is* the cast.  Both dtypes carry the full
record size as ``itemsize``.

**Why padding is zero.**  ``ZERO`` ops, alignment padding, array tails
the wire did not carry and string pointers are simply bytes no field
covers: the cast never writes them and the destination starts zeroed —
exactly the scalar converter's fresh ``bytearray``.

Byte-identity with the scalar converter is load-bearing (the batch
decode path must be indistinguishable from a per-message loop), so the
lowering is deliberately conservative:

* ``STRING`` ops have variable-size output — :func:`build_batch_converter`
  returns ``None`` and :class:`VarBatchConverter` handles them with
  offset-table passes around the same kernel; VAX float plans have no
  numpy dtype and always loop the scalar converter;
* ``CVT_FLOAT_INT`` is excluded even though numpy could express it: the
  scalar short-run lowering is ``int(v) & mask`` (raises on NaN/inf,
  truncates toward zero), while ``astype`` semantics for out-of-range
  floats are platform-defined — close enough to be tempting, different
  enough to break byte-identity on hostile input;
* everything else (COPY, CHARS, ZERO, SWAP, CVT_INT, CVT_FLOAT,
  CVT_INT_FLOAT) has provably identical struct/numpy semantics — the
  kernel equivalence suite in ``tests/core/test_batch.py`` pins this
  down against the interpreted converter.

A plan that only moves bytes carries its byte index too
(:meth:`BatchConverter.take`): small groups skip the cast's fixed cost.

The kernel returns a buffer over its destination array rather than a
copy.  Callers may hand out slices of it (lend-mode views alias the
kernel output): the array is private to one call, so a slice keeps it
alive and nothing else ever writes it.
"""

from __future__ import annotations

import numpy as np

from repro.abi import PrimKind

from .plan import ConversionPlan, OpKind
from .vectorized import np_dtype

_U8 = np.dtype(np.uint8)

#: Fixed-region size (bytes) above which :class:`VarBatchConverter`
#: gathers/scatters record heads with per-record memcpys instead of a
#: fancy-index pass — the ``(n, size)`` ``int64`` index matrix costs 8 B
#: per payload byte and loses to ``memcpy`` past a few hundred bytes
#: (measured ~4.5x at 2 KB heads on this container).
_LOOP_GATHER_MIN = 256

#: Fixed-region size above which the var-length columnar pass is not
#: built at all.  The scalar converter is itself numpy-vectorized per
#: record, so once the fixed head holds hundreds of elements its
#: dispatch overhead is amortized and the columnar pass's extra
#: gather/scatter of every head byte turns into pure loss (measured
#: break-even ~1.5 KB, 0.87x at 2 KB heads).
_VAR_BATCH_MAX_HEAD = 1024


class BatchConverter:
    """One plan compiled to a structured-dtype cast.

    Build via :func:`build_batch_converter` (which vets the plan); call
    :meth:`convert` with the concatenated source payloads.  The result
    is the concatenation of the N converted records — byte-identical to
    running the scalar converter N times and joining the outputs.
    """

    __slots__ = ("src_size", "dst_size", "src_dtype", "dst_dtype", "_fp", "gather")

    def __init__(self, src_dtype: np.dtype, dst_dtype: np.dtype, fp: bool, gather):
        self.src_size = src_dtype.itemsize
        self.dst_size = dst_dtype.itemsize
        self.src_dtype = src_dtype
        self.dst_dtype = dst_dtype
        #: the plan casts to a float type: overflow-to-inf and NaN
        #: quieting would warn outside ``np.errstate``
        self._fp = fp
        self.gather = gather  # the plan's byte index (gather_index), or None

    def cast(self, records: np.ndarray) -> np.ndarray:
        """Cast an array of wire records (``src_dtype``) to a fresh flat
        uint8 array of native records: the one C-level pass."""
        out = np.zeros(len(records) * self.dst_size, _U8)
        # frombuffer, not out.view(): a view to or from a structured
        # dtype runs a Python-level safety check on every call
        dst = np.frombuffer(out, self.dst_dtype)
        if self._fp:
            with np.errstate(over="ignore", invalid="ignore"):
                dst[...] = records
        else:
            dst[...] = records
        return out

    def convert(self, concat) -> memoryview:
        """Convert the records packed back to back in ``concat``.

        ``concat`` must be a whole number of ``src_size`` strides
        (callers validate frame lengths before concatenating).  Returns
        a byte view of the freshly converted records.
        """
        return self.cast(np.frombuffer(concat, self.src_dtype)).data

    def take(self, payloads) -> memoryview:
        """:meth:`convert` by the byte index: rows of a zero byte and a record, one
        ``ndarray.take`` along them (C contiguous, unlike ``a[:, index]``: lendable)."""
        size, stride, pos = self.src_size, self.src_size + 1, 1
        rows = bytearray(len(payloads) * stride)  # zeroed: column 0 is the zero byte
        view = memoryview(rows)
        for payload in payloads:
            view[pos : pos + size] = payload
            pos += stride
        grid = np.ndarray((len(payloads), stride), _U8, rows)
        return grid.take(self.gather, axis=1, mode="wrap").data.cast("B")


class VarBatchConverter:
    """Columnar conversion for *string-bearing* plans (var-length output).

    The scalar converter's string lowering is a per-record Python loop:
    unpack the pointer, ``src.index(0, ptr)`` to find the NUL, append the
    segment to a tail list.  This class lifts all of it to offset-table
    passes over the concatenation of N payloads:

    1. gather the fixed regions into an ``(n, src_size)`` matrix and run
       the record kernel over it (string pointers are uncovered bytes);
    2. one pass builds the length/offset tables — pointers are read as
       unsigned columns, every NUL terminator is found with a single
       ``searchsorted`` against the sorted zero positions of the search
       buffer, and dst pointers are an exclusive cumulative sum of the
       segment lengths (exactly the scalar ``tail_len`` accumulator);
    3. one strided pass moves all tail bytes at once (ragged
       gather/scatter via ``repeat``/``cumsum`` index arithmetic).

    Records with small fixed regions are gathered with one fancy-index
    pass over the joined payloads.  Above ``_LOOP_GATHER_MIN`` fixed
    bytes that index matrix (8 B of ``int64`` per payload byte) costs
    more than it saves: the heads are instead memcpy'd row-by-row and
    only the var-length tails are joined, which also keeps the NUL scan
    off the fixed bytes (a float column full of 0.0 is all zero bytes).
    In tail-coordinate mode a live pointer into the fixed region (never
    produced by an encoder) punts to the scalar loop.

    Byte-identity with the scalar loop is preserved by *validating* in
    the same pass: a pointer outside its payload, or one whose first NUL
    at-or-after it falls outside the payload, is precisely the case where
    the scalar ``src.index`` raises — :meth:`convert_var` then returns
    ``None`` and the caller falls back to the scalar loop, which isolates
    the hostile frame per-record.
    """

    __slots__ = ("src_size", "dst_size", "_head", "_strings")

    def __init__(self, head: BatchConverter, strings):
        self.src_size = head.src_size
        self.dst_size = head.dst_size
        #: the record kernel for every non-string op of the fixed region
        self._head = head
        #: string ops in plan order: (dst_off, src_off, src ptr dtype,
        #: dst ptr dtype) — plan order is the scalar tail-append order.
        self._strings = strings

    def convert_var(self, payloads) -> list[memoryview] | None:
        """Convert ``payloads`` (one var-length record each); ``None`` if
        any record would make the scalar converter raise (caller falls
        back to the per-record loop, which isolates the bad frame).

        Returns zero-copy views into one freshly converted blob; callers
        that need owned bytes pay the memcpy themselves."""
        n = len(payloads)
        if n == 0:
            return []
        ssz, dsz = self.src_size, self.dst_size
        lens = np.fromiter(map(len, payloads), np.int64, count=n)
        if int(lens.min()) < ssz:
            return None
        loop_mode = ssz >= _LOOP_GATHER_MIN
        if loop_mode:
            # Heads row-by-row; only the tails are joined, so the NUL
            # scan never touches fixed bytes.  Segment coordinates are
            # tail-relative: live pointer floor is the fixed size.  The
            # copies go through raw memoryview slice assignment — per
            # record that is one wrap and two memcpys, several times
            # cheaper than ``np.frombuffer`` pairs.
            tlens = lens - ssz
            seg_limit = np.cumsum(tlens)
            seg_base = seg_limit - tlens
            src_flat = np.empty(n * ssz, _U8)
            src = src_flat.reshape(n, ssz)
            buf = np.empty(int(seg_limit[-1]), _U8)
            smv = src_flat.data
            tmv = buf.data
            o = b = 0
            for p in payloads:
                mv = memoryview(p)
                smv[o : o + ssz] = mv[:ssz]
                o += ssz
                if len(mv) > ssz:
                    e = b + len(mv) - ssz
                    tmv[b:e] = mv[ssz:]
                    b = e
            ptr_floor = ssz
        else:
            buf = np.frombuffer(b"".join(payloads), _U8)
            seg_limit = np.cumsum(lens)
            seg_base = seg_limit - lens
            src = buf[seg_base[:, None] + np.arange(ssz)]
            ptr_floor = 0

        head = self._head
        dst = head.cast(np.frombuffer(src, head.src_dtype)).reshape(n, dsz)

        # -- pass 1: length/offset tables ------------------------------
        k = len(self._strings)
        ulens = lens.astype(np.uint64)
        rel = np.zeros((k, n), np.int64)
        live = np.zeros((k, n), bool)
        ok = np.ones((k, n), bool)
        for j, (_d0, s0, sdt, _ddt) in enumerate(self._strings):
            ptr = src[:, s0 : s0 + sdt.itemsize].view(sdt).reshape(n)
            lv = ptr != 0
            inb = ptr < ulens  # unsigned compare: huge pointers stay huge
            p64 = ptr.astype(np.int64)
            if ptr_floor:
                # wrapped/huge pointers went negative above; the floor
                # check also catches live pointers into the fixed head,
                # which tail coordinates cannot express
                inb &= p64 >= ptr_floor
            ok[j] = ~lv | inb
            r = p64 - ptr_floor
            r[~inb] = 0  # clamped; such records already failed `ok`
            rel[j] = r
            live[j] = lv
        absp = rel + seg_base[np.newaxis, :]
        zeros = np.flatnonzero(buf == 0)
        if zeros.size:
            pos = np.searchsorted(zeros, absp)
            found = pos < zeros.size
            end_abs = zeros[np.where(found, pos, 0)]
            ok &= ~live | (found & (end_abs < seg_limit[np.newaxis, :]))
        else:
            ok &= ~live
            end_abs = absp
        if not ok.all():
            return None
        seg_len = np.where(live, end_abs - absp + 1, 0)

        # dst pointer = native record size + tail bytes appended by the
        # *earlier* string ops of the same record (scalar tail_len).
        csum = np.cumsum(seg_len, axis=0)
        dst_ptr = np.where(live, dsz + csum - seg_len, 0)
        for j, (d0, _s0, _sdt, ddt) in enumerate(self._strings):
            w = ddt.itemsize
            dst[:, d0 : d0 + w] = dst_ptr[j].astype(ddt).view(_U8).reshape(n, w)

        # -- pass 2: one strided move of every tail byte ----------------
        tail_per_rec = seg_len.sum(axis=0)
        out_lens = dsz + tail_per_rec
        out_ends = np.cumsum(out_lens)
        out_starts = out_ends - out_lens
        out = np.empty(int(out_ends[-1]), _U8)
        starts_list = out_starts.tolist()
        total = int(tail_per_rec.sum())

        # Encoders append live segments back-to-back in op order, so a
        # well-formed record's segments tile its tail exactly: each live
        # pointer sits at the exclusive running sum of segment lengths
        # and every tail byte is referenced.  Then each tail is already
        # one contiguous, output-ordered run in ``buf`` and two memcpys
        # assemble the record — worth it once tails average a few dozen
        # bytes, where the per-byte repeat/arange index arithmetic below
        # (~25 ns/B here) loses to straight slice copies.
        contiguous = False
        if total >= 48 * n:
            # rel is tail-relative when ptr_floor == ssz, record-relative
            # when 0; the expected pointer is the exclusive running sum
            # of segment lengths in the same coordinates.
            expect = csum - seg_len + (ssz - ptr_floor)
            contiguous = bool((~live | (rel == expect)).all()) and bool(
                (tail_per_rec == lens - ssz).all()
            )
        blob = out.data
        dmv = dst.reshape(-1).data
        bmv = buf.data
        if contiguous:
            if not ptr_floor and dsz == ssz:
                # Framing unchanged (same record size, tails tile): the
                # joined input IS the output except for the heads — one
                # block memcpy, then re-scatter the converted heads.
                np.copyto(out, buf)
                out[out_starts[:, None] + np.arange(dsz)] = dst
                return [
                    blob[s : s + l] for s, l in zip(starts_list, out_lens.tolist())
                ]
            tail_at = (seg_base if ptr_floor else seg_base + ssz).tolist()
            d = 0
            for s, ts, tl in zip(starts_list, tail_at, tail_per_rec.tolist()):
                e = s + dsz
                blob[s:e] = dmv[d : d + dsz]
                d += dsz
                if tl:
                    blob[e : e + tl] = bmv[ts : ts + tl]
            return [blob[s : s + l] for s, l in zip(starts_list, out_lens.tolist())]

        if dsz >= _LOOP_GATHER_MIN:
            d = 0
            for s in starts_list:
                blob[s : s + dsz] = dmv[d : d + dsz]
                d += dsz
        else:
            out[out_starts[:, None] + np.arange(dsz)] = dst
        seg_l = seg_len.T.ravel()  # record-major: tails stay in record order
        if total:
            seg_s = absp.T.ravel()
            seg_id = np.repeat(np.arange(n * k), seg_l)
            seg_cum = np.cumsum(seg_l)
            within = np.arange(total) - np.repeat(seg_cum - seg_l, seg_l)
            tail_bytes = buf[seg_s[seg_id] + within]
            tail_cum = np.cumsum(tail_per_rec)
            tpos = np.repeat(out_starts + dsz, tail_per_rec) + (
                np.arange(total) - np.repeat(tail_cum - tail_per_rec, tail_per_rec)
            )
            out[tpos] = tail_bytes
        return [blob[s : s + l] for s, l in zip(starts_list, out_lens.tolist())]


def _elem_dtypes(op, plan: ConversionPlan):
    """(src dtype, dst dtype) of one element of a liftable op; either may
    be ``None`` (no numpy spelling), and a non-liftable kind gives
    ``(None, None)``."""
    k = op.kind
    int_kind = PrimKind.INTEGER if op.signed else PrimKind.UNSIGNED
    if k is OpKind.SWAP or k is OpKind.STRING:
        # The scalar lowering swaps through unsigned codes whatever the
        # element kind — raw byte reversal, bit-pattern preserving;
        # string pointers are unsigned offsets.
        kinds = (PrimKind.UNSIGNED, PrimKind.UNSIGNED)
    elif k is OpKind.CVT_INT:
        kinds = (int_kind, int_kind)
    elif k is OpKind.CVT_FLOAT:
        kinds = (PrimKind.FLOAT, PrimKind.FLOAT)
    elif k is OpKind.CVT_INT_FLOAT:
        kinds = (int_kind, PrimKind.FLOAT)
    else:
        return None, None
    return (
        np_dtype(plan.src_endian, kinds[0], op.src_size),
        np_dtype(plan.dst_endian, kinds[1], op.dst_size),
    )


def _record_dtype(fields: list[tuple], size: int) -> np.dtype:
    """Structured dtype of ``size`` bytes with one field per (offset,
    format); a format is a dtype or a ``(dtype, shape)`` sub-array."""
    return np.dtype(
        {
            "names": [f"f{i}" for i in range(len(fields))],
            "formats": [fmt for _, fmt in fields],
            "offsets": [off for off, _ in fields],
            "itemsize": size,
        }
    )


def _lower(plan: ConversionPlan, gather=None) -> tuple[BatchConverter, tuple] | None:
    """Compile ``plan`` to ``(record kernel, string ops)``, or ``None``
    if some op is not liftable (see the module docstring)."""
    if plan.has_vax_floats:
        return None
    src_fields: list[tuple] = []  # (offset, format) per op
    dst_fields: list[tuple] = []
    strings: list[tuple] = []
    fp = False
    for op in plan.ops:
        if op.kind is OpKind.ZERO:
            continue  # uncovered bytes of a zeroed destination
        if op.kind in (OpKind.COPY, OpKind.CHARS):
            # COPY sizes are equal; CHARS truncates or leaves NUL padding
            sdt = ddt = (_U8, (min(op.src_size, op.dst_size),))
        else:
            sdt, ddt = _elem_dtypes(op, plan)
            if sdt is None or ddt is None:
                return None
            if op.kind is OpKind.STRING:
                strings.append((op.dst_off, op.src_off, sdt, ddt))
                continue
            fp = fp or ddt.kind == "f"
            if op.count > 1:
                sdt, ddt = (sdt, (op.count,)), (ddt, (op.count,))
        src_fields.append((op.src_off, sdt))
        dst_fields.append((op.dst_off, ddt))
    kernel = BatchConverter(
        _record_dtype(src_fields, plan.wire.record_size),
        _record_dtype(dst_fields, plan.native.record_size),
        fp,
        gather,
    )
    return kernel, tuple(strings)


def build_batch_converter(plan: ConversionPlan, gather=None) -> BatchConverter | None:
    """A :class:`BatchConverter` for ``plan``, or ``None`` if the plan is
    not expressible as a fixed-size record cast (strings, VAX floats,
    float->int casts) — callers then loop the scalar converter.  ``gather``:
    a byte move's index (``GeneratedConverter.gather``), for :meth:`~BatchConverter.take`."""
    lowered = None if plan.has_strings else _lower(plan, gather)
    return None if lowered is None else lowered[0]


def build_var_batch_converter(plan: ConversionPlan) -> VarBatchConverter | None:
    """A :class:`VarBatchConverter` for a string-bearing ``plan``, or
    ``None`` when some *other* op in the plan is not liftable (VAX
    floats, float->int casts) — callers then loop the scalar converter."""
    if not plan.has_strings or plan.wire.record_size > _VAR_BATCH_MAX_HEAD:
        return None
    lowered = _lower(plan)
    return None if lowered is None else VarBatchConverter(*lowered)
