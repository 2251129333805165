"""C structure layout computation for a simulated machine.

Given a machine-independent :class:`~repro.abi.types.RecordSchema` and a
:class:`~repro.abi.machines.MachineDescription`, compute the offsets,
padding, and total size the machine's C compiler would produce.  The rules
are the standard ones shared by the System V ABIs the paper targets:

* each field is placed at the next offset that is a multiple of its
  alignment (arrays align like their element type);
* the total structure size is rounded up to a multiple of the largest
  field alignment, so arrays of the structure stay aligned.

The *gaps* this introduces are central to the paper (Section 4.3): packed
wire formats like XDR/IIOP have no gaps, so moving between wire and native
form forces a copy.  PBIO's NDR keeps the gaps on the wire and thereby
keeps the native buffer usable as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .machines import MachineDescription
from .types import CType, PrimKind, RecordSchema, struct_code


@dataclass(frozen=True)
class LaidOutField:
    """One field bound to a concrete offset/size on a specific machine."""

    name: str
    ctype: CType
    kind: PrimKind
    offset: int
    elem_size: int  # size of one element
    count: int  # number of elements (1 for scalars)

    @property
    def total_size(self) -> int:
        return self.elem_size * self.count

    @property
    def end(self) -> int:
        return self.offset + self.total_size

    @property
    def is_char_array(self) -> bool:
        return self.count > 1 and self.kind is PrimKind.CHAR

    @property
    def is_string(self) -> bool:
        return self.ctype is CType.STRING

    def struct_fmt(self, endian: str) -> str:
        """:mod:`struct` format for this field (without padding)."""
        if self.is_string:
            raise ValueError("variable strings have no fixed struct format")
        if self.kind is PrimKind.CHAR:
            return f"{endian}{self.count}s"
        code = struct_code(self.kind, self.elem_size)
        return f"{endian}{self.count}{code}" if self.count > 1 else f"{endian}{code}"


def _align_up(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class StructLayout:
    """The concrete in-memory form of a record on one machine.

    This *is* the Natural Data Representation of the record for that
    machine: PBIO puts these bytes on the wire unchanged.
    """

    def __init__(self, schema: RecordSchema, machine: MachineDescription):
        self.schema = schema
        self.machine = machine
        self.fields: list[LaidOutField] = []
        offset = 0
        max_align = 1
        for decl in schema:
            if decl.is_nested:
                # Complex subtype: lay out the embedded record recursively,
                # then flatten its fields under dotted names.  C semantics:
                # the struct member aligns to its own max alignment and
                # array elements stride by the padded struct size.
                sub = StructLayout(decl.schema, machine)
                if decl.count * len(sub.fields) > 4096:
                    raise ValueError(
                        f"field {decl.name}: nested array flattens to "
                        f"{decl.count * len(sub.fields)} fields (limit 4096)"
                    )
                max_align = max(max_align, sub.alignment)
                offset = _align_up(offset, sub.alignment)
                for i in range(decl.count):
                    base = offset + i * sub.size
                    prefix = f"{decl.name}." if decl.count == 1 else f"{decl.name}.{i}."
                    for sf in sub.fields:
                        self.fields.append(
                            LaidOutField(
                                name=prefix + sf.name,
                                ctype=sf.ctype,
                                kind=sf.kind,
                                offset=base + sf.offset,
                                elem_size=sf.elem_size,
                                count=sf.count,
                            )
                        )
                offset += sub.size * decl.count
                continue
            elem_size = machine.size_of(decl.ctype)
            align = machine.align_of(decl.ctype)
            max_align = max(max_align, align)
            offset = _align_up(offset, align)
            self.fields.append(
                LaidOutField(
                    name=decl.name,
                    ctype=decl.ctype,
                    kind=decl.ctype.kind,
                    offset=offset,
                    elem_size=elem_size,
                    count=decl.count,
                )
            )
            offset += elem_size * decl.count
        self.size = _align_up(offset, max_align)
        self.alignment = max_align
        self._by_name = {f.name: f for f in self.fields}
        self.has_strings = any(f.is_string for f in self.fields)
        self._codec = None  # kept by codec_for

    def __iter__(self) -> Iterator[LaidOutField]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> LaidOutField:
        return self._by_name[name]

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def padding_bytes(self) -> int:
        """Total number of gap bytes the compiler inserted."""
        return self.size - sum(f.total_size for f in self.fields)

    def gaps(self) -> list[tuple[int, int]]:
        """(offset, length) of every padding gap, including tail padding."""
        result = []
        pos = 0
        for f in self.fields:
            if f.offset > pos:
                result.append((pos, f.offset - pos))
            pos = f.end
        if self.size > pos:
            result.append((pos, self.size - pos))
        return result

    def contiguous_runs(self) -> list[list[LaidOutField]]:
        """Group fields into maximal runs with no intervening padding.

        Conversion planning uses these to coalesce per-field copies into
        single bulk moves when source and destination runs line up.
        """
        runs: list[list[LaidOutField]] = []
        current: list[LaidOutField] = []
        pos = None
        for f in self.fields:
            if pos is not None and f.offset != pos:
                runs.append(current)
                current = []
            current.append(f)
            pos = f.end
        if current:
            runs.append(current)
        return runs

    def __repr__(self) -> str:
        return (
            f"StructLayout({self.schema.name!r} on {self.machine.name}, "
            f"size={self.size}, {len(self.fields)} fields)"
        )

    def describe(self) -> str:
        """Human-readable layout table (offsets, sizes, padding)."""
        lines = [f"struct {self.schema.name} on {self.machine.name} (size {self.size}):"]
        pos = 0
        for f in self.fields:
            if f.offset > pos:
                lines.append(f"  [{pos:5d}] <{f.offset - pos} pad bytes>")
            dim = f"[{f.count}]" if f.count > 1 else ""
            lines.append(
                f"  [{f.offset:5d}] {f.ctype.value} {f.name}{dim} ({f.total_size} bytes)"
            )
            pos = f.end
        if self.size > pos:
            lines.append(f"  [{pos:5d}] <{self.size - pos} tail pad bytes>")
        return "\n".join(lines)


def layout_record(schema: RecordSchema, machine: MachineDescription) -> StructLayout:
    """The native layout of ``schema`` on ``machine``, computed once and
    kept on the schema: it lives exactly as long as the schema does."""
    layout = schema._layouts.get(machine.name)
    if layout is None:
        layout = schema._layouts[machine.name] = StructLayout(schema, machine)
    return layout
