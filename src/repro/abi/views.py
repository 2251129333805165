"""Zero-copy record views.

When a PBIO receiver's native format matches the incoming wire format
(the homogeneous case), the paper's key win is that "received data [can]
be used directly from the message buffer" — no unpack, no copy.  A
:class:`RecordView` is that capability: field access reads straight out of
the receive buffer through the codec's per-field getters (compiled once
per layout: an access is a dict lookup and one ``unpack_from``); nothing
is copied until the caller asks for a materialized dict.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .encoding import NativeCodec, codec_for
from .layout import StructLayout


class RecordView:
    """Lazy, read-only view of one record inside a byte buffer.

    Read-only to everyone but ``__init__``, which fills the slots through
    their own descriptors (``__setattr__`` refuses every name)."""

    # ``_data`` is declared before ``_lease`` so the buffer slice is
    # dropped before the lease during deallocation (the lease's finalizer
    # may recycle — or, for mmap-backed readers, unmap — the storage).
    __slots__ = ("_codec", "_data", "_offset", "_lease")

    def __init__(
        self,
        layout_or_codec: StructLayout | NativeCodec,
        data,
        offset: int = 0,
        *,
        lease=None,
    ):
        if not isinstance(layout_or_codec, NativeCodec):
            layout_or_codec = codec_for(layout_or_codec)
        _set_codec(self, layout_or_codec)
        _set_data(self, data)
        _set_offset(self, offset)
        _set_lease(self, lease)

    @property
    def layout(self) -> StructLayout:
        return self._codec.layout

    @property
    def buffer(self):
        """The underlying buffer — shared, not copied."""
        return self._data

    @property
    def lease(self):
        """The buffer lease keeping this view's storage alive (or None)."""
        return self._lease

    def detach(self) -> "RecordView":
        """Copy-on-escape: a RecordView over a private copy of the data.

        Lend-mode views alias a pooled receive buffer that is recycled
        when their lease dies; call :meth:`detach` before storing a view
        beyond the receive loop.  The returned view owns its bytes and
        carries no lease.
        """
        return RecordView(self._codec, bytes(self._data), self._offset)

    def __getitem__(self, name: str) -> Any:
        return self._codec.getters[name](self._data, self._offset)

    def __getattr__(self, name: str) -> Any:
        try:
            return self._codec.getters[name](self._data, self._offset)
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("RecordView is read-only")

    def __contains__(self, name: str) -> bool:
        return name in self._codec.layout

    def __iter__(self) -> Iterator[str]:
        return iter(self._codec.layout.field_names())

    def keys(self) -> list[str]:
        return self._codec.layout.field_names()

    def to_dict(self) -> dict[str, Any]:
        """Materialize every field (the only copying operation)."""
        return self._codec.decode(self._data, self._offset)

    def raw_bytes(self) -> memoryview:
        """Memoryview of the fixed-size portion of the record, zero-copy."""
        mv = memoryview(self._data)
        return mv[self._offset : self._offset + self._codec.layout.size]

    def __repr__(self) -> str:
        return (
            f"RecordView({self.layout.schema.name!r} on {self.layout.machine.name}, "
            f"offset={self._offset})"
        )


_set_codec = RecordView._codec.__set__
_set_data = RecordView._data.__set__
_set_offset = RecordView._offset.__set__
_set_lease = RecordView._lease.__set__


class RecordArrayView:
    """View of a packed array of identical records in one buffer.

    Useful for stream workloads: ``view[i]`` is a zero-copy
    :class:`RecordView` of the *i*-th record.
    """

    __slots__ = ("_codec", "_data", "_base", "_count", "_stride")

    def __init__(self, layout: StructLayout, data, count: int, base: int = 0):
        if layout.has_strings:
            raise ValueError("record arrays require fixed-size records (no strings)")
        self._codec = codec_for(layout)
        self._data = data
        self._base = base
        self._count = count
        self._stride = layout.size

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> RecordView:
        if not 0 <= index < self._count:
            raise IndexError(index)
        return RecordView(self._codec, self._data, self._base + index * self._stride)

    def __iter__(self) -> Iterator[RecordView]:
        for i in range(self._count):
            yield self[i]

    def column(self, name: str) -> np.ndarray:
        """Gather one scalar field across all records as a numpy array.

        Strided gathers like this are what zero-copy layouts make cheap;
        a packed wire format would have forced a full unpack first.
        """
        f = self._codec.layout[name]
        if f.count != 1:
            raise ValueError("column() supports scalar fields only")
        from .types import NUMPY_CODES

        code = NUMPY_CODES.get((f.kind, f.elem_size))
        if code is None:
            raise ValueError(f"field {name} has no numpy representation")
        dtype = np.dtype(self._codec.layout.machine.numpy_endian + code)
        raw = np.frombuffer(
            self._data,
            dtype=np.uint8,
            count=self._count * self._stride,
            offset=self._base,
        )
        strided = np.lib.stride_tricks.as_strided(
            raw[f.offset :].view(np.uint8),
            shape=(self._count, f.elem_size),
            strides=(self._stride, 1),
        )
        return np.ascontiguousarray(strided).view(dtype).reshape(self._count)
