"""Outside-in span tracer for the e2e benchmark.

Spans are recorded from the benchmark's side of each layer boundary:
the tracer wraps *public* callables of ``repro`` (class attributes for
the duration of a traced slice, bound methods handed to the system at
build time) and the rig's own phase methods.  Nothing under ``src/`` is
edited; in-program tracing is the later observability issue.

A span's *self* time is its duration minus the part covered by child
spans, so over one root span the self times sum to the root's duration
by construction — :func:`closure_error` checks the bookkeeping held (a
span escaping its root, or a stack left unbalanced by an exception,
would break it).

Spans are aggregated as they close, into a handful of hot list cells.
Logging every span and folding the log after the slice looks cheaper
(one append) and was tried first: it streams ~130 bytes of fresh
objects per span through the cache, 2 MB a slice on ``rtt_scalar``, and
measured 0.8 us a span in place against 0.3 us in a microbenchmark.
Raw spans are therefore only kept for the first ``raw_bursts`` traced
bursts.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter_ns

#: aggregate cell layout
CALLS, TOTAL, SELF, COUNT = range(4)

_WRAPPER = """\
def traced({params}):
    if not _on[0]:
        return _fn({call})
    t0 = _clock()
    _push(0)
    result = _fn({call})
    covered = _pop()
    t1 = _clock()
    duration = t1 - t0
    own = duration - covered
    _cell[0] += 1
    _cell[1] += duration
    _cell[2] += own
    {extra}
    _stack[-1] += duration
    if _keep[0]:
        _raw(({name!r}, t0, t1, len(_stack) + 1))
    return result
"""


class Totals:
    """What a tracer has recorded, detached from it: ``cells`` is
    ``{span: [calls, total_ns, self_ns, count]}`` and ``sizes`` is
    ``{key: {size class: n}}`` (see :attr:`Tracer.sizes`)."""

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {}
        self.sizes: dict[str, dict[str, int]] = {}

    def take(self, cells: dict[str, list[int]], sizes: dict[str, dict[str, int]]) -> None:
        """Add ``cells`` and ``sizes`` in, zeroing the source (the
        wrappers hold the tracer's cells, so recordings are separated by
        moving the numbers out between slices, not by swapping dicts)."""
        for name, cell in cells.items():
            target = self.cells.setdefault(name, [0, 0, 0, 0])
            for i in range(4):
                target[i] += cell[i]
                cell[i] = 0
        for key, by_size in sizes.items():
            target = self.sizes.setdefault(key, {})
            for size, n in by_size.items():
                target[size] = target.get(size, 0) + n
            by_size.clear()

    def merge(self, other: "Totals") -> None:
        self.take(other.cells, other.sizes)

    def size(self, key: str, sizes=None) -> int:
        """``sizes[key]`` summed over the given size classes (or all)."""
        by_size = self.sizes.get(key, {})
        return sum(by_size.values()) if sizes is None else sum(by_size.get(s, 0) for s in sizes)


class Tracer:
    """Span aggregates, a bounded raw span log, and class patching.

    Only every ``every``-th burst is traced; in the others the wrappers
    forward after one flag test.  A span costs ~0.75 us in place (twice
    its microbenchmark cost), and a 65 us round trip crosses ten of
    them, so tracing every burst would cost more than the tenth the
    trace is allowed.  ``every`` should not divide the number of bursts
    in a slice, or every slice would sample the same bursts.
    """

    def __init__(self, *, every: int = 1, raw_bursts: int = 100, by_size: tuple[str, ...] = ()):
        #: ``{span: [calls, total_ns, self_ns, count]}`` since the last :meth:`fold`;
        #: a span's self time includes the bookkeeping of its child spans
        self.agg: dict[str, list[int]] = {}
        #: ``{span: {size class: self_ns}}`` for the ``by_size`` spans,
        #: ``{root span: {size class: total_ns}}``, and the traced work
        #: ``{"records" | "published" | "payload": {size class: n}}``
        self.sizes: dict[str, dict[str, int]] = {}
        self.by_size = by_size
        self.every = every
        self.enabled = True  # False: installed wrappers forward, nothing is recorded
        #: ``(name, start_ns, end_ns, depth)`` of the first traced bursts' spans
        self.raw: list[tuple] = []
        self._stack: list[int] = [0]  # child-time accumulators over a sentinel
        self._on = [False]  # is the current burst traced?
        self._size = [""]  # its size class
        self.raw_bursts = raw_bursts
        self._keep = [raw_bursts > 0]
        self._raw_left = raw_bursts
        self._tick = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping (the only code that runs inside the timed region) ----------

    def _cell(self, name: str) -> list[int]:
        return self.agg.setdefault(name, [0, 0, 0, 0])

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``.  ``count(first_argument)``
        (optional) is added to the span's counter — exact work counts
        are taken at the same boundary as the time.

        The wrapper is generated with ``fn``'s own parameter list: a
        generic ``*args, **kwargs`` forwarder costs ~0.25 us more per
        call (argument packing, and CPython cannot inline the frame)."""
        params, call, env = [], [], {}
        star = False
        for i, p in enumerate(inspect.signature(fn).parameters.values()):
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                raise TypeError(f"cannot trace {fn!r}: variadic signature")
            if p.kind is p.KEYWORD_ONLY and not star:
                params.append("*")
                star = True
            default = ""
            if p.default is not p.empty:
                default = f"=_default{i}"
                env[f"_default{i}"] = p.default
            params.append(p.name + default)
            call.append(f"{p.name}={p.name}" if p.kind is p.KEYWORD_ONLY else p.name)
        extra = []
        if count is not None:
            first = [c for c in call if c != "self"][0]
            extra.append(f"_cell[3] += _count({first})")
        if name in self.by_size:
            extra.append("_sized[_size[0]] += own")
        source = _WRAPPER.format(
            params=", ".join(params),
            call=", ".join(call),
            extra="\n    ".join(extra) or "pass",
            name=name,
        )
        env.update(
            _fn=fn,
            _clock=perf_counter_ns,
            _count=count,
            _cell=self._cell(name),
            _on=self._on,
            _size=self._size,
            _sized=self.sizes.setdefault(name, defaultdict(int)) if name in self.by_size else None,
            _stack=self._stack,
            _push=self._stack.append,
            _pop=self._stack.pop,
            _keep=self._keep,
            _raw=self.raw.append,
        )
        exec(source, env)  # the source is built from a signature, never from input
        traced = env["traced"]
        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name: str, fn):
        """A one-argument span with no child spans (record handlers):
        skips the stack push and the raw log."""
        cell, stack, clock, on = self._cell(name), self._stack, perf_counter_ns, self._on

        def traced(arg):
            if not on[0]:
                return fn(arg)
            t0 = clock()
            fn(arg)
            duration = clock() - t0
            cell[0] += 1
            cell[1] += duration
            cell[2] += duration
            stack[-1] += duration

        traced.__wrapped__ = fn
        return traced

    def wrap_root(self, name: str, fn):
        """The per-burst root span: ``fn(burst)`` where ``burst`` has
        ``size`` (a size-class label) and ``records``.  Decides whether
        this burst is traced.  A traced burst that raises still closes
        its books and resets the span stack, so a failed burst cannot
        leak time into the next one."""
        cell, stack, clock = self._cell(name), self._stack, perf_counter_ns
        on, size, keep = self._on, self._size, self._keep
        by_root, records, published, payload = (
            self.sizes.setdefault(key, defaultdict(int))
            for key in (name, "records", "published", "payload")
        )

        def root(burst):
            self._tick += 1
            if self._tick % self.every or not self.enabled:
                return fn(burst)
            on[0] = True
            size[0] = label = burst.size
            t0 = clock()
            try:
                return fn(burst)
            finally:
                t1 = clock()
                on[0] = False
                duration = t1 - t0
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - stack[0]
                del stack[1:]
                stack[0] = 0
                by_root[label] += duration
                records[label] += burst.records
                published[label] += burst.published
                payload[label] += burst.payload
                if keep[0]:
                    self.raw.append((name, t0, t1, 1))
                    self._raw_left -= 1
                    keep[0] = self._raw_left > 0

        root.__wrapped__ = fn
        return root

    # -- class-level patches --------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Register ``owner.attr`` (a class or module attribute) to be
        replaced by a span wrapper while :meth:`install`-ed.  Slotted
        classes cannot be patched per object, and a class patch also
        covers the objects the system builds for itself."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original, self.wrap(name, original, count)))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def phase(self, k: int) -> None:
        """Restart the sampling cycle ``k`` bursts in: with the slice
        number as ``k`` successive slices trace different bursts,
        whatever the number of bursts in a slice."""
        self._tick = k

    # -- reading --------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (after priming and warm-up)."""
        self.fold(Totals())
        del self.raw[:]
        self._raw_left = self.raw_bursts
        self._keep[0] = self.raw_bursts > 0

    def fold(self, into: Totals) -> None:
        """Move everything recorded since the last fold into ``into``."""
        into.take(self.agg, self.sizes)

    def raw_spans(self) -> list[dict]:
        """The raw span log with parent links rebuilt from nesting.

        Spans are logged as they *close*, so a parent follows its
        children; sorted by start time and walked by depth, each span's
        parent is the latest span one level up.  Spans of one burst
        share its ``burst`` identifier (roots are depth 1)."""
        ordered = sorted(self.raw, key=lambda s: (s[1], s[3]))
        out: list[dict] = []
        open_at: dict[int, int] = {}
        burst = -1
        for span_id, (name, t0, t1, depth) in enumerate(ordered):
            if depth == 1:
                burst += 1
            open_at[depth] = span_id
            out.append(
                {
                    "id": span_id,
                    "parent": open_at.get(depth - 1) if depth > 1 else None,
                    "burst": max(burst, 0),
                    "name": name,
                    "start_ns": t0,
                    "end_ns": t1,
                }
            )
        return out


def closure_error(cells: dict[str, list[int]], root: str) -> float:
    """|sum of self times - root span time| / root span time."""
    root_ns = cells[root][TOTAL] if root in cells else 0
    if not root_ns:
        return 0.0
    return abs(sum(cell[SELF] for cell in cells.values()) - root_ns) / root_ns


def table(cells: dict[str, list[int]]) -> dict[str, dict[str, float]]:
    """``{span: {calls, total_us, self_us, count}}`` for the span file."""
    return {
        name: {
            "calls": cell[CALLS],
            "total_us": cell[TOTAL] / 1e3,
            "self_us": cell[SELF] / 1e3,
            "count": cell[COUNT],
        }
        for name, cell in sorted(cells.items())
    }
