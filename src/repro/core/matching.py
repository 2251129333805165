"""Field matching between incoming wire formats and expected native formats.

"Correspondence between fields in incoming and expected records is
established by field name, with no weight placed on size or ordering in
the record" (Section 3).  This module computes that correspondence and
classifies what the conversion layer must do about each field:

* identical geometry and byte order -> candidate for zero-copy use;
* size / offset / byte-order discrepancy -> conversion op required;
* wire field with no expected counterpart -> ignored (type extension);
* expected field missing from the wire -> defaulted to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abi import PrimKind

from .errors import ConversionError
from .fields import WireField
from .formats import IOFormat

#: Kind pairs PBIO can convert between (beyond same-kind conversions).
_CONVERTIBLE: set[tuple[PrimKind, PrimKind]] = {
    (PrimKind.INTEGER, PrimKind.UNSIGNED),
    (PrimKind.UNSIGNED, PrimKind.INTEGER),
    (PrimKind.INTEGER, PrimKind.FLOAT),
    (PrimKind.FLOAT, PrimKind.INTEGER),
    (PrimKind.UNSIGNED, PrimKind.FLOAT),
    (PrimKind.FLOAT, PrimKind.UNSIGNED),
    (PrimKind.BOOLEAN, PrimKind.INTEGER),
    (PrimKind.INTEGER, PrimKind.BOOLEAN),
    (PrimKind.BOOLEAN, PrimKind.UNSIGNED),
    (PrimKind.UNSIGNED, PrimKind.BOOLEAN),
}


@dataclass(frozen=True)
class FieldMatch:
    """One expected (native) field and its wire-side source, if any."""

    target: WireField  # receiver's native field
    source: WireField | None  # matching wire field (None -> default)
    identical: bool  # byte-identical in place: same offset/size/kind


@dataclass(frozen=True)
class MatchResult:
    """Complete correspondence between a wire format and a native format."""

    wire: IOFormat
    native: IOFormat
    matches: tuple[FieldMatch, ...]
    ignored_wire_fields: tuple[WireField, ...]  # unexpected fields (ignored)
    missing_names: tuple[str, ...]  # expected but absent (defaulted)
    zero_copy: bool  # receiver may reference the message buffer directly

    @property
    def mismatch_count(self) -> int:
        """Number of expected fields needing relocation or conversion —
        Section 4.4: overhead "varies proportionally with the extent of
        the mismatch"."""
        return sum(1 for m in self.matches if not m.identical)

    def describe(self) -> str:
        lines = [
            f"match {self.wire.name!r} (wire) -> {self.native.name!r} (native): "
            f"{'zero-copy' if self.zero_copy else f'{self.mismatch_count} field(s) need conversion'}"
        ]
        for m in self.matches:
            if m.source is None:
                lines.append(f"  {m.target.name}: MISSING -> defaulted to zero")
            elif m.identical:
                lines.append(f"  {m.target.name}: identical @ {m.target.offset}")
            else:
                lines.append(
                    f"  {m.target.name}: wire @{m.source.offset} ({m.source.kind.value} x{m.source.size}) "
                    f"-> native @{m.target.offset} ({m.target.kind.value} x{m.target.size})"
                )
        for f in self.ignored_wire_fields:
            lines.append(f"  {f.name}: unexpected wire field, ignored")
        return "\n".join(lines)


def _kinds_compatible(src: PrimKind, dst: PrimKind) -> bool:
    if src is dst:
        return True
    return (src, dst) in _CONVERTIBLE


def match_formats(wire: IOFormat, native: IOFormat) -> MatchResult:
    """Match ``wire`` (incoming) against ``native`` (expected), by name."""
    same_order = wire.byte_order == native.byte_order
    same_floats = wire.float_format == native.float_format
    matches: list[FieldMatch] = []
    matched_names: set[str] = set()
    zero_copy = same_order and wire.record_size >= native.record_size
    for target in native.fields:
        source = wire[target.name] if target.name in wire else None
        if source is None:
            matches.append(FieldMatch(target, None, identical=False))
            zero_copy = False
            continue
        matched_names.add(target.name)
        if not _kinds_compatible(source.kind, target.kind):
            raise ConversionError(
                f"field {target.name!r}: cannot convert wire kind "
                f"{source.kind.value!r} to expected kind {target.kind.value!r}"
            )
        identical = (
            source.kind is target.kind
            and source.size == target.size
            and source.count == target.count
            and source.offset == target.offset
            and (same_order or source.size == 1 or source.kind is PrimKind.CHAR)
            and (same_floats or source.kind is not PrimKind.FLOAT)
        )
        # Multi-byte identical placement still needs a swap when orders
        # differ, so it is not 'identical' unless orders agree.
        if not identical:
            zero_copy = False
        matches.append(FieldMatch(target, source, identical=identical))
    ignored = tuple(f for f in wire.fields if f.name not in matched_names)
    missing = tuple(m.target.name for m in matches if m.source is None)
    return MatchResult(
        wire=wire,
        native=native,
        matches=tuple(matches),
        ignored_wire_fields=ignored,
        missing_names=missing,
        zero_copy=zero_copy,
    )
