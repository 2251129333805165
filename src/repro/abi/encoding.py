"""Encode/decode application values to a machine's native byte layout.

In the paper, the application's data already exists in memory in native
binary form; the middleware never sees "Python dicts".  This module is the
simulation's stand-in for the C compiler and memory: it turns canonical
Python values into exactly the bytes a struct instance would occupy on a
given simulated machine (including padding and byte order), and back.

Benchmarks pre-encode records once (that is "the application's data") and
then measure only what the middleware does with the bytes, so the cost of
this layer never pollutes a measurement.

Canonical value forms:

* integer/unsigned/boolean scalar -> :class:`int` / :class:`bool`
* float scalar -> :class:`float`
* scalar char -> 1-byte :class:`bytes`
* fixed array -> tuple of scalars (or numpy array for the fast path)
* char array -> :class:`bytes` (NUL-padded to declared length)
* string -> :class:`str` or ``None`` (stored out-of-line, pointer in-struct)
"""

from __future__ import annotations

import struct
from typing import Any, Mapping

import numpy as np

from .floats import ieee_to_vax_d, ieee_to_vax_f, vax_d_to_ieee, vax_f_to_ieee
from .layout import LaidOutField, StructLayout
from .types import NUMPY_CODES, PrimKind, struct_code

#: Arrays at or above this element count take the numpy bulk path.
_NUMPY_THRESHOLD = 16


class NativeCodec:
    """Precompiled encoder/decoder between canonical values and the native
    bytes of one :class:`~repro.abi.layout.StructLayout`."""

    def __init__(self, layout: StructLayout):
        self.layout = layout
        endian = layout.machine.struct_endian
        self._ops: list[tuple] = []  # (mode, field, extra...)
        self._ptr_struct = struct.Struct(
            endian + ("Q" if layout.machine.pointer_size == 8 else "I")
        )
        # Flattened nested fields carry dotted names ("header.3.x"); the
        # codec navigates nested dicts/lists along these paths.
        self._paths = {f.name: _parse_path(f.name) for f in layout.fields}
        vax_floats = layout.machine.float_format == "vax"
        for f in layout.fields:
            if f.is_string:
                self._ops.append(("string", f))
            elif f.is_char_array:
                self._ops.append(("chars", f, struct.Struct(f"{endian}{f.count}s")))
            elif vax_floats and f.kind is PrimKind.FLOAT:
                self._ops.append(("vaxfloat", f, f.elem_size))
            elif f.count == 1:
                self._ops.append(("scalar", f, struct.Struct(f.struct_fmt(endian))))
            elif f.count >= _NUMPY_THRESHOLD and (f.kind, f.elem_size) in NUMPY_CODES:
                dtype = np.dtype(layout.machine.numpy_endian + NUMPY_CODES[(f.kind, f.elem_size)])
                self._ops.append(("nparray", f, dtype))
            else:
                self._ops.append(("array", f, struct.Struct(f.struct_fmt(endian))))
        #: ``getters[name](data, offset)`` reads one field: what
        #: :meth:`decode_field`, a :class:`~repro.abi.views.RecordView`
        #: access and the :meth:`_decode_ops` loop all call.  The op's
        #: mode is dispatched once, here — not on every access.
        self.getters = {op[1].name: self._compile_getter(op) for op in self._ops}
        # decode's and decode_many's compiled readers (the op loop / False where
        # none applies), built on first use: most codecs only ever encode
        self._reader = self._many = None

    # -- encoding ---------------------------------------------------------

    def encode(self, record: Mapping[str, Any]) -> bytes:
        """Produce the native bytes of ``record`` (fixed part + any string
        region).  Missing fields encode as zero."""
        buf = bytearray(self.layout.size)
        tail: list[bytes] = []
        tail_len = 0
        for op in self._ops:
            mode, f = op[0], op[1]
            path = self._paths[f.name]
            value = record.get(f.name) if len(path) == 1 else _get_path(record, path)
            if mode == "string":
                if value is None:
                    self._ptr_struct.pack_into(buf, f.offset, 0)
                else:
                    data = value.encode("utf-8") + b"\x00"
                    self._ptr_struct.pack_into(buf, f.offset, self.layout.size + tail_len)
                    tail.append(data)
                    tail_len += len(data)
            elif value is None:
                continue  # leave zeroed
            elif mode == "vaxfloat":
                values = [value] if f.count == 1 else list(value)
                raw = ieee_to_vax_f(values) if op[2] == 4 else ieee_to_vax_d(values)
                buf[f.offset : f.offset + f.total_size] = raw
            elif mode == "scalar":
                op[2].pack_into(buf, f.offset, value)
            elif mode == "chars":
                if isinstance(value, str):
                    value = value.encode("utf-8")
                op[2].pack_into(buf, f.offset, value)
            elif mode == "nparray":
                arr = np.asarray(value, dtype=op[2])
                if arr.size != f.count:
                    raise ValueError(
                        f"field {f.name}: expected {f.count} elements, got {arr.size}"
                    )
                buf[f.offset : f.offset + f.total_size] = arr.tobytes()
            else:  # array
                op[2].pack_into(buf, f.offset, *value)
        if tail:
            return bytes(buf) + b"".join(tail)
        return bytes(buf)

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes | bytearray | memoryview, offset: int = 0) -> dict[str, Any]:
        """Rebuild the canonical value dict from native bytes.

        Nested fields come back as nested dicts (and lists for arrays of
        embedded records), mirroring what :meth:`encode` accepts.

        Layouts of fixed scalar / array / char fields are read by a
        routine generated once per codec (:meth:`_compile_reader`);
        everything else — and the tests, as the reference — runs the
        per-field loop :meth:`_decode_ops`.  Both copy what they return:
        ``data`` may be reused as soon as this returns.  :meth:`decode_many`
        reads a converted group's records by columns."""
        reader = self._reader
        if reader is None:
            reader = self._reader = self._compile_reader() or self._decode_ops
        return reader(data, offset)

    def decode_many(self, data, count: int) -> list[dict[str, Any]] | None:
        """:meth:`decode` of ``count`` records back to back in ``data`` — the records' own (a converted
        group's output) — by columns: all scalars in one ``Struct.iter_unpack``, each numpy-path array
        field one read-only ``(count, k)`` view of ``data``, a row a record.  ``None`` for a layout
        :meth:`decode` reads field by field, or a group of at most two records per numpy-path array
        (a column's fixed cost is about two records' ``frombuffer`` of it)."""
        reader = self._many
        if reader is None:
            reader = self._many = self._compile_reader(many=True) or False
        return reader(data, count) if reader else None

    def _compile_reader(self, many: bool = False):
        """Lower the op list to one ``Struct.unpack_from`` over the fixed part
        (``many``: one ``Struct.iter_unpack`` over records of ``layout.size``).

        The conversion counterpart of :func:`repro.core.filters.compile_predicate`:
        the layout is known, so per-field dispatch can be done once, here.
        Pad bytes become ``x``, a numpy-path array an ``s`` run (the same
        private copy of exactly the field's bytes the loop makes, taken
        inside the one C call) wrapped by ``np.frombuffer`` (``many``: pad
        bytes too, the field one strided ``ndarray``), and the
        dict is built by a literal.  Returns ``None`` for layouts the loop must
        keep: strings, VAX floats, nested (dotted) paths, or fields that
        are not laid out in ascending, non-overlapping order.
        """
        fmt = [self.layout.machine.struct_endian]
        namespace: dict[str, Any] = {"_frombuffer": np.frombuffer, "_ndarray": np.ndarray}
        items, columns = [], []  # columns: each numpy-path field's rows, read by ``many``
        pos = index = 0
        for op in self._ops:
            mode, f = op[0], op[1]
            if mode in ("string", "vaxfloat") or len(self._paths[f.name]) != 1 or f.offset < pos:
                return None
            if f.offset > pos:
                fmt.append(f"{f.offset - pos}x")
            pos = f.end
            if mode == "nparray" and many:
                fmt.append(f"{f.total_size}x")
                namespace[f"_dt{f.offset}"], shape = op[2], f"(count, {f.count}), _dt{f.offset}, data, {f.offset}"
                columns.append(f"list(_ndarray({shape}, ({self.layout.size}, {op[2].itemsize})))")
                value = f"c{len(columns) - 1}"
            elif mode == "nparray":
                fmt.append(f"{f.total_size}s")
                namespace[f"_dt{f.offset}"] = op[2]
                value = f"_frombuffer(t[{index}], _dt{f.offset})"
                index += 1
            elif mode == "array":
                fmt.append(op[2].format[1:])
                value = f"t[{index}:{index + f.count}]"
                index += f.count
            else:  # scalar, chars
                fmt.append(op[2].format[1:])
                value = f"bool(t[{index}])" if f.kind is PrimKind.BOOLEAN else f"t[{index}]"
                index += 1
            items.append(f"{f.name!r}: {value}")
        body = "{" + ", ".join(items) + "}"
        if many:  # the record's tail padding too: iter_unpack steps a whole record
            namespace["_iter"] = struct.Struct("".join(fmt) + f"{self.layout.size - pos}x").iter_unpack
            rows = "".join(f"c{k}, " for k in range(len(columns)))
            source = (
                f"def read(data, count):\n    if count <= {2 * len(columns)}:\n        return None\n"
                f"    data = memoryview(data).toreadonly()\n"
                f"    return [{body} for (t, {rows}) in zip(_iter(data), {', '.join(columns)})]\n"
            )
        else:
            namespace["_unpack"] = struct.Struct("".join(fmt)).unpack_from
            source = f"def read(data, offset=0):\n    t = _unpack(data, offset)\n    return {body}\n"
        exec(compile(source, f"<pbio-reader:{self.layout.schema.name}>", "exec"), namespace)
        return namespace["read"]

    def _decode_ops(self, data: bytes | bytearray | memoryview, offset: int = 0) -> dict[str, Any]:
        """The per-field loop: every layout, one getter call per field."""
        out: dict[str, Any] = {}
        for name, getter in self.getters.items():
            path = self._paths[name]
            if len(path) == 1:
                out[name] = getter(data, offset)
            else:
                _set_path(out, path, getter(data, offset))
        return out

    def decode_field(self, data: bytes | bytearray | memoryview, name: str, offset: int = 0) -> Any:
        """Decode a single field without touching the rest of the record."""
        return self.getters[name](data, offset)  # KeyError for an unknown field

    def _compile_getter(self, op: tuple):
        """One field's reader, closed over everything its op decides."""
        mode, f = op[0], op[1]
        at, end = f.offset, f.end
        if mode == "vaxfloat":
            to_ieee = vax_f_to_ieee if op[2] == 4 else vax_d_to_ieee
            if f.count == 1:
                return lambda data, offset: float(to_ieee(bytes(data[offset + at : offset + end]))[0])
            return lambda data, offset: tuple(
                float(v) for v in to_ieee(bytes(data[offset + at : offset + end]))
            )
        if mode == "nparray":
            dtype = op[2]  # a private copy of exactly the field's bytes
            return lambda data, offset: np.frombuffer(bytes(data[offset + at : offset + end]), dtype)
        if mode == "string":
            read_ptr = self._ptr_struct.unpack_from

            def read_string(data, offset):
                ptr = read_ptr(data, offset + at)[0]
                return None if ptr == 0 else _read_cstring(data, offset + ptr)

            return read_string
        unpack = op[2].unpack_from
        if mode == "array":
            return lambda data, offset: unpack(data, offset + at)
        if f.kind is PrimKind.BOOLEAN:
            return lambda data, offset: bool(unpack(data, offset + at)[0])
        return lambda data, offset: unpack(data, offset + at)[0]  # scalar, chars


def _parse_path(name: str) -> tuple:
    """Split a (possibly dotted) field name into navigation steps.

    Numeric segments become integer list indices: ``"pts.2.x"`` ->
    ``("pts", 2, "x")``.
    """
    return tuple(int(p) if p.isdigit() else p for p in name.split("."))


def _get_path(record, path: tuple):
    """Navigate nested dicts/sequences; None anywhere short-circuits."""
    value = record
    for step in path:
        if value is None:
            return None
        try:
            if isinstance(step, int):
                value = value[step]
            else:
                value = value.get(step)
        except (IndexError, KeyError, TypeError, AttributeError):
            return None
    return value


def _set_path(out, path: tuple, value) -> None:
    """Store ``value`` at a nested path, creating dicts/lists as needed."""
    cur = out
    for i, step in enumerate(path[:-1]):
        empty = [] if isinstance(path[i + 1], int) else {}
        if isinstance(step, int):
            while len(cur) <= step:
                cur.append(None)
            if cur[step] is None:
                cur[step] = empty
            cur = cur[step]
        else:
            if step not in cur or cur[step] is None:
                cur[step] = empty
            cur = cur[step]
    last = path[-1]
    if isinstance(last, int):
        while len(cur) <= last:
            cur.append(None)
        cur[last] = value
    else:
        cur[last] = value


def _read_cstring(data: bytes | bytearray | memoryview, pos: int) -> str:
    raw = bytes(data[pos:])
    end = raw.find(b"\x00")
    if end < 0:
        raise ValueError("unterminated string in record buffer")
    return raw[:end].decode("utf-8")


def codec_for(layout: StructLayout) -> NativeCodec:
    """The codec for ``layout``, built once and kept on the layout."""
    codec = layout._codec
    if codec is None:
        codec = layout._codec = NativeCodec(layout)
    return codec


def records_equal(a: Mapping[str, Any], b: Mapping[str, Any], *, rel_tol: float = 1e-6) -> bool:
    """Compare two canonical record dicts, tolerating float32 round-trips
    and tuple-vs-numpy array representation differences."""
    if set(a) != set(b):
        return False
    for name, va in a.items():
        vb = b[name]
        if isinstance(va, (bytes, bytearray)) and isinstance(vb, (bytes, bytearray)):
            # Char arrays round-trip with NUL padding to declared length.
            if bytes(va).rstrip(b"\x00") != bytes(vb).rstrip(b"\x00"):
                return False
        elif isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.allclose(np.asarray(va, dtype=float), np.asarray(vb, dtype=float), rtol=rel_tol):
                return False
        elif isinstance(va, Mapping) and isinstance(vb, Mapping):
            if not records_equal(va, vb, rel_tol=rel_tol):  # nested record
                return False
        elif isinstance(va, (tuple, list)):
            if len(va) != len(vb):
                return False
            for xa, xb in zip(va, vb):
                if isinstance(xa, Mapping):
                    if not isinstance(xb, Mapping) or not records_equal(xa, xb, rel_tol=rel_tol):
                        return False
                elif isinstance(xa, float):
                    if abs(xa - xb) > rel_tol * max(1.0, abs(xa)):
                        return False
                elif xa != xb:
                    return False
        elif isinstance(va, float):
            if abs(va - vb) > rel_tol * max(1.0, abs(va)):
                return False
        elif va != vb:
            return False
    return True
