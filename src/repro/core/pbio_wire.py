"""PBIO as a :class:`~repro.wire.common.WireSystem` — the adapter the
comparative benchmarks use to treat PBIO uniformly with MPI/XML/IIOP/XDR.

``bind`` performs the one-time work (format registration and the meta-
information exchange, plus converter generation on first decode), so the
bound ``encode``/``decode`` measure steady-state per-message cost exactly
as the paper's figures do.
"""

from __future__ import annotations

from repro.abi import StructLayout
from repro.wire.common import BoundFormat, WireSystem

from . import encoder as enc
from .context import IOContext


class PbioWire(WireSystem):
    """NDR + receiver-side conversion; ``conversion`` picks the strategy
    ("dcg", "interpreted", or "vcode")."""

    def __init__(self, conversion: str = "dcg"):
        self.conversion = conversion
        self.name = "PBIO" if conversion == "dcg" else f"PBIO-{conversion}"

    def bind(self, src_layout: StructLayout, dst_layout: StructLayout) -> "BoundPbio":
        return BoundPbio(src_layout, dst_layout, self.conversion)


class BoundPbio(BoundFormat):
    def __init__(self, src_layout: StructLayout, dst_layout: StructLayout, conversion: str):
        self.system = "PBIO" if conversion == "dcg" else f"PBIO-{conversion}"
        self.sender = IOContext(src_layout.machine, conversion=conversion)
        self.receiver = IOContext(dst_layout.machine, conversion=conversion)
        self.handle = self.sender.register_format(src_layout.schema)
        self.receiver.expect(dst_layout.schema)
        # One-time meta-information exchange (bind-time, like MPI's commit).
        self.receiver.receive(self.sender.announce(self.handle))

    def encode(self, native) -> bytes:
        return self.sender.encode_native(self.handle, native)

    def encode_segments(self, native) -> tuple:
        """The true NDR sender path: header + caller's buffer, no copy."""
        return enc.data_frames(self.sender.context_id, self.handle.format_id, (native,), gather=0)[0].segments

    def decode(self, wire) -> bytes:
        return self.receiver.decode_native(wire)

    def decode_view(self, wire):
        return self.receiver.decode_view(wire)
