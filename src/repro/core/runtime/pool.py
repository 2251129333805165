"""Receive-buffer pooling and buffer leases for the conversion runtime.

Steady-state receivers fill the same few buffer sizes millions of times;
the pool recycles them, and a lease says when a lent one may go back:

* :meth:`acquire` returns a ``bytearray`` of the requested size, reusing
  a released one when available (pass ``zero=False`` for a receive
  buffer that will be overwritten anyway; the default re-zeroes it with
  one ``memcpy`` from a cached zeros template);
* :meth:`lease` wraps a buffer in a refcounted :class:`Lease` so *many*
  views can share one borrowed buffer (the lend-mode decode path slices
  a whole receive buffer into per-record views; the buffer returns when
  the last view dies, via a single ``weakref.finalize`` on the lease
  rather than one per view).

Conversion destinations are *not* pooled: a converted view owns a fresh
``bytearray`` (allocating one costs less than a finaliser round trip at
every record size, 100 KB included — EXPERIMENTS.md "PR 16").

Debugging aid: set ``PBIO_POOL_GUARD=1`` and every buffer returned to
the pool is poisoned with ``0xA5`` bytes, so use-after-return bugs show
up as garbage reads instead of silent stale data.  The ``leaked``
metric counts leases that were finalized while explicit holds were
still outstanding.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable

from .metrics import Metrics

POISON_BYTE = 0xA5


class _LeaseState:
    """Shared mutable state between a Lease and its finalizer.

    The finalizer must not hold a strong reference to the lease itself
    (that would keep it alive forever), so the refcount lives here.
    """

    __slots__ = ("holds", "fired")

    def __init__(self) -> None:
        self.holds = 0
        self.fired = False


def _fire(on_return: Callable[[], None], state: _LeaseState, metrics: Metrics | None) -> None:
    if state.fired:
        return
    state.fired = True
    if state.holds > 0 and metrics is not None:
        metrics.inc("leaked")
    on_return()


class Lease:
    """A refcounted handle over a borrowed buffer.

    Views produced by lend-mode decodes hold a *strong* reference to the
    lease; when the last one is garbage collected the lease dies and its
    single ``weakref.finalize`` returns the buffer.  Holders that are not
    plain Python objects (queues, C buffers) can pin the lease explicitly
    with :meth:`retain` / :meth:`release`.

    :meth:`close` returns the buffer immediately; doing so while holds
    are outstanding counts as a leak (the ``leaked`` metric) because any
    surviving views now alias recycled memory — ``PBIO_POOL_GUARD=1``
    makes such reads visibly poisoned.
    """

    __slots__ = ("_state", "_finalizer", "__weakref__")

    def __init__(self, on_return: Callable[[], None], *, metrics: Metrics | None = None) -> None:
        self._state = _LeaseState()
        self._finalizer = weakref.finalize(self, _fire, on_return, self._state, metrics)

    def take(self) -> "Lease":  # the face shared with a transport's Loan, a lease not made yet
        return self

    def retain(self) -> "Lease":
        self._state.holds += 1
        return self

    def release(self) -> None:
        state = self._state
        if state.holds <= 0:
            raise RuntimeError("Lease.release() without matching retain()")
        state.holds -= 1

    def close(self) -> None:
        """Return the buffer now instead of waiting for garbage collection."""
        self._finalizer()

    @property
    def alive(self) -> bool:
        return self._finalizer.alive

    @property
    def holds(self) -> int:
        return self._state.holds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lease(alive={self.alive}, holds={self.holds})"


#: Free buffers a pool keeps per size; a returned buffer past it is dropped.
MAX_PER_SIZE = 16


class BufferPool:
    """A bounded free-list of receive buffers."""

    def __init__(self) -> None:
        self._free: dict[int, list[bytearray]] = {}
        self._zeros: dict[int, bytes] = {}  # templates for fast re-zeroing
        self._lock = threading.Lock()
        self._guard = os.environ.get("PBIO_POOL_GUARD", "") == "1"
        self.metrics = Metrics()

    def acquire(self, size: int, *, zero: bool = True) -> bytearray:
        """A buffer of ``size`` bytes (recycled when possible).

        ``zero=True`` (the default) hands back an all-zeros buffer;
        ``zero=False`` skips the re-zeroing memcpy for buffers that will
        be fully overwritten (receive buffers).
        """
        with self._lock:
            stack = self._free.get(size)
            if stack:
                buf = stack.pop()
                if zero:
                    buf[:] = self._zeros[size]
                self.metrics.inc("buffers_reused")
                return buf
        self.metrics.inc("buffers_allocated")
        return bytearray(size)

    def release(self, buf: bytearray) -> None:
        """Return a buffer to the pool (dropped when the size class is full)."""
        size = len(buf)
        if self._guard:
            buf[:] = bytes([POISON_BYTE]) * size
        with self._lock:
            stack = self._free.setdefault(size, [])
            if len(stack) < MAX_PER_SIZE:
                if size not in self._zeros:
                    self._zeros[size] = bytes(size)
                stack.append(buf)
                self.metrics.inc("buffers_returned")
            else:
                self.metrics.inc("buffers_dropped")

    def lease(self, buf: bytearray) -> Lease:
        """A refcounted lease that returns ``buf`` to this pool on death."""
        return Lease(lambda: self.release(buf), metrics=self.metrics)

    @property
    def leaked(self) -> int:
        """Leases finalized while explicit holds were still outstanding."""
        return int(self.metrics.value("leaked"))

    def free_count(self, size: int | None = None) -> int:
        with self._lock:
            if size is not None:
                return len(self._free.get(size, ()))
            return sum(len(stack) for stack in self._free.values())
