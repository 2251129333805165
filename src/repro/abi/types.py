"""Primitive C-level type model used by the ABI simulator.

The paper's heterogeneity comes from three sources (Section 3): byte
ordering, differences in the *sizes* of data types (e.g. ``long`` vs
``int``), and differences in structure layout produced by compilers.  To
simulate all three we model the C type system abstractly: a record schema
names C types (``int``, ``long``, ``double`` ...), and each simulated
machine (:mod:`repro.abi.machines`) assigns concrete sizes and alignments
to them.

Two layers of "type" exist:

* :class:`CType` — the *declared* type in a record schema ("long").  Its
  size depends on the machine.
* :class:`PrimKind` — the *semantic* kind carried on the wire ("signed
  integer of 8 bytes").  PBIO field matching operates on kinds: an ``int``
  field on one machine and a ``long`` field on another both have kind
  ``INTEGER`` and may differ only in size, which the conversion layer
  reconciles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PrimKind(enum.Enum):
    """Semantic kind of a primitive value, independent of machine size."""

    INTEGER = "integer"
    UNSIGNED = "unsigned integer"
    FLOAT = "float"
    CHAR = "char"
    BOOLEAN = "boolean"
    STRING = "string"


class CType(enum.Enum):
    """Declared C types available to record schemas."""

    CHAR = "char"
    SIGNED_CHAR = "signed char"
    UNSIGNED_CHAR = "unsigned char"
    SHORT = "short"
    UNSIGNED_SHORT = "unsigned short"
    INT = "int"
    UNSIGNED_INT = "unsigned int"
    LONG = "long"
    UNSIGNED_LONG = "unsigned long"
    LONG_LONG = "long long"
    UNSIGNED_LONG_LONG = "unsigned long long"
    FLOAT = "float"
    DOUBLE = "double"
    BOOL = "bool"
    STRING = "string"  # variable-length NUL-terminated string

    @classmethod
    def parse(cls, name: str) -> "CType":
        """Parse a C type name, accepting common aliases."""
        normalized = " ".join(name.split())
        aliases = {
            "uchar": cls.UNSIGNED_CHAR,
            "ushort": cls.UNSIGNED_SHORT,
            "uint": cls.UNSIGNED_INT,
            "unsigned": cls.UNSIGNED_INT,
            "ulong": cls.UNSIGNED_LONG,
            "int64": cls.LONG_LONG,
            "uint64": cls.UNSIGNED_LONG_LONG,
            "int32": cls.INT,
            "uint32": cls.UNSIGNED_INT,
            "int16": cls.SHORT,
            "uint16": cls.UNSIGNED_SHORT,
            "int8": cls.SIGNED_CHAR,
            "uint8": cls.UNSIGNED_CHAR,
            "_Bool": cls.BOOL,
        }
        if normalized in aliases:
            return aliases[normalized]
        for ctype in cls:
            if ctype.value == normalized:
                return ctype
        raise ValueError(f"unknown C type: {name!r}")

    @property
    def kind(self) -> PrimKind:
        """Semantic kind of this C type (what goes in wire meta-info)."""
        return _CTYPE_KINDS[self]

    @property
    def is_float(self) -> bool:
        return self.kind is PrimKind.FLOAT

    @property
    def is_signed(self) -> bool:
        return self.kind is PrimKind.INTEGER


_CTYPE_KINDS: dict[CType, PrimKind] = {
    CType.CHAR: PrimKind.CHAR,
    CType.SIGNED_CHAR: PrimKind.INTEGER,
    CType.UNSIGNED_CHAR: PrimKind.UNSIGNED,
    CType.SHORT: PrimKind.INTEGER,
    CType.UNSIGNED_SHORT: PrimKind.UNSIGNED,
    CType.INT: PrimKind.INTEGER,
    CType.UNSIGNED_INT: PrimKind.UNSIGNED,
    CType.LONG: PrimKind.INTEGER,
    CType.UNSIGNED_LONG: PrimKind.UNSIGNED,
    CType.LONG_LONG: PrimKind.INTEGER,
    CType.UNSIGNED_LONG_LONG: PrimKind.UNSIGNED,
    CType.FLOAT: PrimKind.FLOAT,
    CType.DOUBLE: PrimKind.FLOAT,
    CType.BOOL: PrimKind.BOOLEAN,
    CType.STRING: PrimKind.STRING,
}

#: struct-module codes per (kind, size); used by layout/encoding layers.
STRUCT_CODES: dict[tuple[PrimKind, int], str] = {
    (PrimKind.INTEGER, 1): "b",
    (PrimKind.INTEGER, 2): "h",
    (PrimKind.INTEGER, 4): "i",
    (PrimKind.INTEGER, 8): "q",
    (PrimKind.UNSIGNED, 1): "B",
    (PrimKind.UNSIGNED, 2): "H",
    (PrimKind.UNSIGNED, 4): "I",
    (PrimKind.UNSIGNED, 8): "Q",
    (PrimKind.FLOAT, 4): "f",
    (PrimKind.FLOAT, 8): "d",
    (PrimKind.CHAR, 1): "c",
    (PrimKind.BOOLEAN, 1): "B",
    (PrimKind.BOOLEAN, 4): "I",
}


def struct_code(kind: PrimKind, size: int) -> str:
    """Return the :mod:`struct` format code for a primitive, or raise."""
    try:
        return STRUCT_CODES[(kind, size)]
    except KeyError:
        raise ValueError(f"no struct code for {kind} of size {size}") from None


#: numpy dtype chars per (kind, size); used by vectorized conversion.
NUMPY_CODES: dict[tuple[PrimKind, int], str] = {
    (PrimKind.INTEGER, 1): "i1",
    (PrimKind.INTEGER, 2): "i2",
    (PrimKind.INTEGER, 4): "i4",
    (PrimKind.INTEGER, 8): "i8",
    (PrimKind.UNSIGNED, 1): "u1",
    (PrimKind.UNSIGNED, 2): "u2",
    (PrimKind.UNSIGNED, 4): "u4",
    (PrimKind.UNSIGNED, 8): "u8",
    (PrimKind.FLOAT, 4): "f4",
    (PrimKind.FLOAT, 8): "f8",
    (PrimKind.CHAR, 1): "S1",
    (PrimKind.BOOLEAN, 1): "u1",
    (PrimKind.BOOLEAN, 4): "u4",
}


@dataclass(frozen=True)
class FieldDecl:
    """A field declaration in a machine-independent record schema.

    ``count > 1`` declares a fixed-size array (``double data[100]``).
    ``CType.CHAR`` with ``count > 1`` is a fixed-size character buffer.

    A *nested* field embeds another record (a "complex subtype" in the
    paper's terms): construct it with :meth:`nested`, in which case
    ``schema`` is set and ``ctype`` is ``None``.  Nested fields may also
    be arrays (``count > 1`` — an array of structs).
    """

    name: str
    ctype: CType | None
    count: int = 1
    schema: "RecordSchema | None" = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"field name must be an identifier: {self.name!r}")
        if self.count < 1:
            raise ValueError(f"field {self.name}: count must be >= 1")
        if self.schema is not None:
            if self.ctype is not None:
                raise ValueError(f"field {self.name}: nested fields carry no ctype")
            return
        if self.ctype is None:
            raise ValueError(f"field {self.name}: ctype required for non-nested fields")
        if self.ctype is CType.STRING and self.count != 1:
            raise ValueError(f"field {self.name}: string fields cannot be arrays")

    @property
    def is_nested(self) -> bool:
        return self.schema is not None

    @classmethod
    def nested(cls, name: str, schema: "RecordSchema", count: int = 1) -> "FieldDecl":
        """Declare an embedded record field (``struct inner name[count]``)."""
        return cls(name=name, ctype=None, count=count, schema=schema)

    @classmethod
    def parse(cls, name: str, spec: str) -> "FieldDecl":
        """Parse a declaration like ``"double[100]"`` or ``"unsigned int"``."""
        spec = spec.strip()
        count = 1
        if spec.endswith("]"):
            base, _, dim = spec.rpartition("[")
            count = int(dim[:-1])
            spec = base.strip()
        return cls(name=name, ctype=CType.parse(spec), count=count)


class RecordSchema:
    """An ordered, machine-independent description of a record's fields.

    This is what an application author writes; binding it to a
    :class:`~repro.abi.machines.MachineDescription` (via
    :func:`repro.abi.layout.layout_record`) yields the concrete in-memory
    layout that machine's C compiler would produce.
    """

    def __init__(self, name: str, fields: list[FieldDecl]):
        if not fields:
            raise ValueError("a record schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate field names: {dupes}")
        self.name = name
        self.fields = list(fields)
        self._by_name = {f.name: f for f in fields}
        self._layouts: dict = {}  # machine name -> StructLayout, kept by layout_record

    @classmethod
    def from_pairs(cls, name: str, pairs: list[tuple[str, str]]) -> "RecordSchema":
        """Build a schema from ``[("velocity", "double[3]"), ...]`` pairs."""
        return cls(name, [FieldDecl.parse(fname, spec) for fname, spec in pairs])

    def __iter__(self):
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> FieldDecl:
        return self._by_name[name]

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def extended(self, name: str, new_fields: list[FieldDecl], *, prepend: bool = False) -> "RecordSchema":
        """Return a new schema with extra fields, modelling type extension.

        The paper (Section 4.4) evaluates adding an unexpected field both
        at the front (worst case: every expected field's offset shifts) and
        at the end (best case for un-upgraded receivers).
        """
        fields = (new_fields + self.fields) if prepend else (self.fields + new_fields)
        return RecordSchema(name, fields)

    def __repr__(self) -> str:
        return f"RecordSchema({self.name!r}, {len(self.fields)} fields)"
