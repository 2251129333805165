"""Baseline wire-format systems the paper compares PBIO against.

All implement the :class:`~repro.wire.common.WireSystem` interface:

* :class:`~repro.wire.mpi.MpiWire` — MPICH-like interpreted pack/unpack
  into a canonical packed format (strict a priori agreement).
* :class:`~repro.wire.xml.XmlWire` — ASCII text with per-element tags,
  parsed by an Expat-style SAX parser.
* :class:`~repro.wire.iiop.IiopWire` — CORBA GIOP/CDR, reader-makes-right
  byte order but packed/aligned wire layout.
* :class:`~repro.wire.xdr.XdrWire` — Sun RPC style XDR streams.

PBIO itself lives in :mod:`repro.core`; :class:`~repro.wire.pbio.PbioWire`
adapts it to the same interface, so the comparisons bind all five alike.

This package, :mod:`repro.vcode` and :mod:`repro.workloads` are the
paper's measuring apparatus: they may import the system (abi, core, net,
fmtserv, tools), and the system never imports them.
"""

from .common import BoundFormat, WireFormatError, WireSystem, check_same_schema
from .xdr import BoundXdr, XdrDecoder, XdrEncoder, XdrWire, xdr_item_size
from .mpi import MpiWire
from .xml import XmlWire
from .iiop import IiopWire
from .pbio import BoundPbio, PbioWire

__all__ = [
    "WireSystem",
    "BoundFormat",
    "WireFormatError",
    "check_same_schema",
    "XdrWire",
    "BoundXdr",
    "XdrEncoder",
    "XdrDecoder",
    "xdr_item_size",
    "MpiWire",
    "XmlWire",
    "IiopWire",
    "PbioWire",
    "BoundPbio",
]
