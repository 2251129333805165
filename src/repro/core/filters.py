"""DCG-compiled record filters and projections.

The paper's closing section points at placing "selected message
operations ... `into' the communication co-processors"; in the PBIO/ECho
lineage this became *derived event channels*: receivers (or intermediaries)
run small filter/projection functions against incoming records **without
fully decoding them**.  This module reproduces that capability with the
same DCG approach as the converters:

* a filter is written against *field names* in a tiny, safe expression
  language (comparisons, arithmetic, boolean operators);
* when a wire format arrives, the expression is compiled — once per
  (expression, wire format) pair — into Python code whose field reads are
  precompiled ``struct`` accessors at literal offsets into the message
  payload;
* evaluation then touches only the referenced fields: a predicate over 2
  scalars in a 100 KB record reads 12 bytes, not 100 KB.

Example::

    flt = RecordFilter(ctx, "telemetry", "temperature > 700.0 and unit != 2")
    for message in stream:
        if flt.matches(message):
            ...
"""

from __future__ import annotations

import ast
import struct
from operator import itemgetter
from typing import Any, Callable

from repro.abi import PrimKind
from repro.abi.types import struct_code

from .context import IOContext
from .errors import ConversionError, PbioError
from .formats import IOFormat

_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Mod,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.Name,
    ast.Load,
    ast.Constant,
)


class FilterError(ConversionError):
    """Invalid filter expression or unfilterable field."""


def _parse_expression(expression: str) -> tuple[ast.Expression, set[str]]:
    """Parse and validate a filter expression; return (tree, field names)."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise FilterError(f"invalid filter expression: {exc}") from exc
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise FilterError(
                f"filter expressions may not contain {type(node).__name__} nodes"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float, bool)):
            raise FilterError("filter constants must be numbers or booleans")
        if isinstance(node, ast.Name):
            names.add(node.id)
    return tree, names


def _scalar_accessor(fmt: IOFormat, name: str) -> tuple[struct.Struct, int]:
    """A precompiled (struct, offset) accessor for a scalar field."""
    if name not in fmt:
        raise FilterError(f"format {fmt.name!r} has no field {name!r}")
    f = fmt[name]
    if f.count != 1 or f.kind in (PrimKind.CHAR, PrimKind.STRING):
        raise FilterError(f"field {name!r} is not a scalar numeric field")
    if f.kind is PrimKind.FLOAT and fmt.float_format != "ieee754":
        raise FilterError(
            f"field {name!r}: filters read {fmt.float_format} floats only via "
            f"full decode (struct accessors assume IEEE)"
        )
    endian = ">" if fmt.byte_order == "big" else "<"
    return struct.Struct(endian + struct_code(f.kind, f.size)), f.offset


def compile_predicate(fmt: IOFormat, expression: str) -> Callable[[bytes], bool]:
    """Compile ``expression`` against one wire format.

    The returned callable takes the record *payload* (native bytes in the
    wire format) and returns a bool, reading only the referenced fields.
    """
    tree, names = _parse_expression(expression)
    namespace: dict[str, Any] = {}
    reads = []
    for name in sorted(names):
        st, offset = _scalar_accessor(fmt, name)
        acc = f"_get_{name}"
        namespace[acc] = st.unpack_from
        reads.append(f"    {name} = {acc}(src, {offset})[0]")
    body = ast.unparse(tree)
    source = "def predicate(src):\n" + "\n".join(reads) + f"\n    return bool({body})\n"
    code = compile(source, f"<pbio-filter:{fmt.name}>", "exec")
    exec(code, namespace)
    return namespace["predicate"]


def compile_projection(fmt: IOFormat, field_names: list[str]) -> Callable[[bytes], dict]:
    """Compile a projection extracting only ``field_names`` from payloads.

    Dotted names select scalar fields inside nested records.
    """
    namespace: dict[str, Any] = {}
    items = []
    for i, name in enumerate(field_names):
        st, offset = _scalar_accessor(fmt, name)
        acc = f"_get{i}"  # index-based: names may be dotted
        namespace[acc] = st.unpack_from
        items.append(f"{name!r}: {acc}(src, {offset})[0]")
    source = "def project(src):\n    return {" + ", ".join(items) + "}\n"
    code = compile(source, f"<pbio-projection:{fmt.name}>", "exec")
    exec(code, namespace)
    return namespace["project"]


class RecordFilter:
    """A named-format filter that adapts to whatever wire formats arrive.

    Bound to an :class:`IOContext` for format lookup; compiles (and
    caches) one predicate per distinct incoming wire format, so upgraded
    senders with extended formats keep matching without changes.
    """

    def __init__(self, ctx: IOContext, format_name: str, expression: str):
        _parse_expression(expression)  # validate eagerly
        self.ctx = ctx
        self.format_name = format_name
        self.expression = expression
        self._compiled: dict[bytes, Callable[[bytes], bool]] = {}
        #: Wire formats this *instance* had to look up (a shared-cache hit
        #: still counts: the instance saw a new format).  Cross-instance
        #: sharing is visible in ``ctx.cache.metrics`` instead
        #: (``filters_compiled`` / ``filter_cache_hits``).
        self.compilations = 0

    def matches(self, message, *, header=None) -> bool:
        """Evaluate the filter against one data message.

        ``header`` forwards an already-parsed message header to the
        decode pipeline (single-parse discipline: relays sniff every
        frame once and thread the result here).
        """
        # The context's decode pipeline owns header parsing and the
        # remote-format lookup; the payload is a memoryview — the whole
        # point is reading 2 fields out of a possibly 100 KB record
        # without touching the rest.
        fmt, payload = self.ctx.pipeline.open_data(message, header=header)
        predicate = self._predicate(fmt)
        return predicate is not None and predicate(payload)

    def matches_run(self, frames, header) -> list[bool]:
        """:meth:`matches` of each frame of a hub's admitted uniform run (``enc.uniform_header``): one
        ``open_data``, one predicate lookup, the predicate over the payloads.  A run it cannot
        evaluate raises, counted as each of its frames would be."""
        pipeline = self.ctx.pipeline
        try:
            fmt, payload = pipeline.open_data(frames[0], header=header)
        except PbioError:  # counted once by open_data already
            pipeline.metrics.inc("decode.rejected", len(frames) - 1)
            raise
        predicate, start = self._predicate(fmt), len(frames[0]) - len(payload)
        if predicate is None:
            return [False] * len(frames)
        return list(map(predicate, map(itemgetter(slice(start, None)), map(memoryview, frames))))

    def _predicate(self, fmt: IOFormat) -> Callable[[bytes], bool] | None:
        """The compiled predicate for one wire format (``None``: not ours)."""
        if fmt.name != self.format_name:
            return None
        predicate = self._compiled.get(fmt.fingerprint)
        if predicate is None:
            # Compilation goes through the context's converter cache, so
            # N same-predicate subscribers sharing a cache compile once.
            predicate, _built = self.ctx.cache.resolve_compiled(
                "filter",
                self.expression,
                fmt,
                lambda: compile_predicate(fmt, self.expression),
            )
            self._compiled[fmt.fingerprint] = predicate
            self.compilations += 1
        return predicate


class RecordProjector:
    """Like :class:`RecordFilter`, but extracts a subset of fields."""

    def __init__(self, ctx: IOContext, format_name: str, field_names: list[str]):
        self.ctx = ctx
        self.format_name = format_name
        self.field_names = list(field_names)
        self._compiled: dict[bytes, Callable[[bytes], dict]] = {}

    def project(self, message, *, header=None) -> dict | None:
        """Extract the fields from one data message (None if another type)."""
        fmt, payload = self.ctx.pipeline.open_data(message, header=header)
        if fmt.name != self.format_name:
            return None
        projector = self._compiled.get(fmt.fingerprint)
        if projector is None:
            projector, _built = self.ctx.cache.resolve_compiled(
                "projection",
                tuple(self.field_names),
                fmt,
                lambda: compile_projection(fmt, self.field_names),
            )
            self._compiled[fmt.fingerprint] = projector
        return projector(payload)
