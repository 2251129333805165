"""Lease lifecycle, pool-guard, and mmap lend-mode tests.

Lend-mode decodes return views that *borrow* the receive buffer under a
refcounted :class:`~repro.core.runtime.pool.Lease`.  The safety story
has three legs, each tested here: ``detach()`` (copy-on-escape) makes a
view immune to buffer recycling; dropping every view returns the buffer
to the pool (no growth, no leaks, across sustained ingest); and
``PBIO_POOL_GUARD=1`` turns any use-after-return into visible poison
instead of silent stale reads.  The mmap file reader shares the same
discipline with the page cache as the borrowed buffer.

A socket's receive buffer is lent as a :class:`~repro.net.transport.Loan`
— a lease made only when a decode borrows the frames.  That lending
changes nothing a caller can observe is stated once, as a property
(:class:`TestLoanedReceive`): ``recv_batch(lend=True)`` is
``recv_batch(lend=False)`` record for record, and a view kept to the end
of the run still reads the bytes it was made over.
"""

import gc
import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.abi import SPARC_V8, X86, RecordSchema, codec_for, layout_record
from repro.core import IOContext, MessageError, PbioConnection, read_records, write_records
from repro.core.files import PbioFileReader
from repro.core.runtime.pool import POISON_BYTE, BufferPool
from repro.net import EventChannel, loopback_pair
from repro.net.sockets import _recv_pool
from repro.net.transport import RECV_BUF

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

POINT = RecordSchema.from_pairs("point", [("x", "int"), ("y", "double")])


def lend_decode_fixture(records):
    """Encode ``records`` into one pooled buffer and lend-decode it.

    Returns ``(views, blob, lease)`` — the views borrow ``blob`` under
    ``lease``, exactly like a transport receive buffer.
    """
    sender = IOContext(X86)
    h = sender.register_format(POINT)
    messages = [bytes(sender.announce(h))]
    messages += [bytes(sender.encode(h, r)) for r in records]
    blob = bytearray(b"".join(messages))
    frames, off = [], 0
    for m in messages:
        frames.append(memoryview(blob)[off : off + len(m)])
        off += len(m)
    pool = BufferPool()
    lease = pool.lease(blob)
    rx = IOContext(X86)
    rx.expect(POINT)
    views = [v for v in rx.pipeline.decode_batch(frames, lend=True, lease=lease) if v is not None]
    return views, blob, lease


class TestCopyOnEscape:
    @settings(max_examples=25, deadline=None)
    @given(
        vals=st.lists(
            st.tuples(
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_escaped_copy_immune_to_buffer_mutation(self, vals):
        records = [{"x": x, "y": y} for x, y in vals]
        views, blob, lease = lend_decode_fixture(records)
        expected = [v.to_dict() for v in views]
        escaped = [v.detach() for v in views]
        # The receive buffer is recycled under the views' feet.
        blob[:] = bytes([POISON_BYTE]) * len(blob)
        for copy, want in zip(escaped, expected):
            assert copy.to_dict() == want

    def test_live_view_actually_borrows(self):
        # Sanity for the property above: a *non*-detached view reads
        # through to the mutated buffer, proving no hidden copy exists.
        views, blob, _lease = lend_decode_fixture([{"x": 7, "y": 2.5}])
        assert views[0]["x"] == 7
        blob[:] = bytes(len(blob))  # zero everything, headers included
        assert views[0]["x"] == 0


class TestLeaseReturn:
    def test_gc_of_views_returns_buffer(self):
        pool = BufferPool()
        buf = pool.acquire(128, zero=False)
        lease = pool.lease(buf)
        assert pool.free_count(128) == 0
        del lease
        gc.collect()
        assert pool.free_count(128) == 1
        assert pool.leaked == 0

    def test_close_with_outstanding_holds_counts_leak(self):
        pool = BufferPool()
        lease = pool.lease(pool.acquire(64, zero=False))
        lease.retain()
        assert pool.leaked == 0
        lease.close()
        assert pool.leaked == 1

    def test_release_without_retain_rejected(self):
        pool = BufferPool()
        lease = pool.lease(pool.acquire(64, zero=False))
        with pytest.raises(RuntimeError):
            lease.release()

    def test_close_is_idempotent(self):
        pool = BufferPool()
        lease = pool.lease(pool.acquire(64, zero=False))
        assert lease.alive
        lease.close()
        lease.close()
        assert not lease.alive
        assert pool.free_count(64) == 1  # returned exactly once

    def test_subscriber_gc_returns_leases_no_pool_growth(self):
        # 10k lend-mode messages through socket ingest and a view-mode
        # subscriber that drops every view: the shared lease pool must
        # end bounded (recycling, not growth) with zero leaks.
        a, b = loopback_pair()
        pool = _recv_pool
        leaked_before = pool.leaked
        sender = IOContext(X86)
        h = sender.register_format(POINT)
        channel = EventChannel()
        got = [0]
        sub_ctx = IOContext(X86)
        sub_ctx.expect(POINT)
        sub = channel.subscribe(sub_ctx, lambda v: got.__setitem__(0, got[0] + 1), deliver="view")
        try:
            a.send(sender.announce(h))
            total = 10_000
            sent = 0
            while sent < total:
                burst = [
                    sender.encode(h, {"x": sent + i, "y": (sent + i) * 0.5})
                    for i in range(100)
                ]
                a.send_many(burst)
                sent += len(burst)
                want = got[0] + len(burst)
                while got[0] < want:
                    frames, lease = b.recv_many_leased()
                    channel.ingest_many(frames, lease=lease)
                    del frames, lease
            assert got[0] == total
        finally:
            channel.unsubscribe(sub)
            a.close()
            b.close()
        gc.collect()
        assert pool.leaked == leaked_before
        # Bounded free list, not one buffer per burst retained.
        assert pool.free_count() <= 16
        assert int(pool.metrics.value("buffers_reused")) > 0


class TestPoolGuard:
    def test_guard_poisons_returned_buffers(self, monkeypatch):
        monkeypatch.setenv("PBIO_POOL_GUARD", "1")
        pool = BufferPool()
        buf = pool.acquire(32, zero=False)
        buf[:] = b"A" * 32
        survivor = memoryview(buf)  # a view that outlives the lease
        pool.lease(buf).close()
        # Use-after-return reads are garbage *loudly*, not stale data.
        assert bytes(survivor) == bytes([POISON_BYTE]) * 32

    def test_guard_off_by_default(self, monkeypatch):
        monkeypatch.delenv("PBIO_POOL_GUARD", raising=False)
        pool = BufferPool()
        buf = pool.acquire(32, zero=False)
        buf[:] = b"A" * 32
        survivor = memoryview(buf)
        pool.lease(buf).close()
        assert bytes(survivor) == b"A" * 32


SIMPLE = RecordSchema.from_pairs(
    "rec", [("i", "int"), ("d", "double"), ("name", "char[8]")]
)


class TestMmapLend:
    def write(self, tmp_path, machine=X86, n=50):
        path = str(tmp_path / "data.pbio")
        records = [
            {"i": k, "d": k * 0.25, "name": b"n%03d" % k} for k in range(n)
        ]
        write_records(IOContext(machine), path, SIMPLE, records)
        return path, records

    def test_mapped_read_batch_lends_views(self, tmp_path):
        path, records = self.write(tmp_path)
        ctx = IOContext(X86)
        ctx.expect(SIMPLE)
        with PbioFileReader.open(ctx, path) as reader:
            views = reader.read_batch(lend=True)
            assert len(views) == len(records)
            for v, want in zip(views, records):
                assert v["i"] == want["i"]
                assert v["d"] == want["d"]

    def test_detached_view_outlives_reader(self, tmp_path):
        path, records = self.write(tmp_path)
        ctx = IOContext(X86)
        ctx.expect(SIMPLE)
        with PbioFileReader.open(ctx, path) as reader:
            views = reader.read_batch(lend=True)
            snapshot = views[7].to_dict()
            escaped = views[7].detach()
        del views
        gc.collect()
        assert escaped.to_dict() == snapshot

    def test_cross_machine_mapped_lend(self, tmp_path):
        # A foreign-layout file cannot borrow the map; lend-mode must
        # still produce correct (converted, unleased) views.
        path, records = self.write(tmp_path, machine=SPARC_V8)
        ctx = IOContext(X86)
        ctx.expect(SIMPLE)
        with PbioFileReader.open(ctx, path) as reader:
            views = reader.read_batch(lend=True)
            assert [v["i"] for v in views] == [r["i"] for r in records]

    def test_mapped_matches_streamed(self, tmp_path):
        path, records = self.write(tmp_path)
        out = read_records(IOContext(X86), path, SIMPLE)
        assert [r["i"] for r in out] == [r["i"] for r in records]


# -- the loaned socket receive buffer -------------------------------------------

BIG = RecordSchema.from_pairs("big", [("x", "int"), ("blob", "char[70000]")])  # > RECV_BUF: the buffer grows
assert layout_record(BIG, X86).size > RECV_BUF


class Chunked:
    """A socket whose ``recv_into`` hands over at most ``cap`` bytes a
    call, so frames arrive split wherever the test wants them split."""

    def __init__(self, sock):
        self._sock, self.cap = sock, None

    def recv_into(self, view, *args):
        return self._sock.recv_into(view if self.cap is None else view[: self.cap], *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class Link:
    """A loopback pair with a converting (sparc) and a zero-copy (x86)
    sender context on one end and an x86 ``PbioConnection`` on the other.
    Frames are built here and sent raw, so a burst can hold anything."""

    def __init__(self):
        self.a, self.b = loopback_pair(timeout_s=5.0)
        self.b._sock = self.chunked = Chunked(self.b._sock)
        self.senders = {}
        for name, machine, cid in (("conv", SPARC_V8, 0x5A), ("zc", X86, 0x86)):
            ctx = IOContext(machine, context_id=cid)
            self.senders[name] = (ctx, {s.name: ctx.register_format(s) for s in (POINT, BIG)})
        rx = IOContext(X86)
        rx.expect(POINT)
        rx.expect(BIG)
        self.receiver = PbioConnection(rx, self.b)
        self.announced = set()

    def announcement(self, sender, schema):
        ctx, handles = self.senders[sender]
        self.announced.add((sender, schema))
        return ctx.announce(handles[schema])

    def data(self, sender, schema, x):
        """The frames that carry record ``x``: its announcement first, if
        this link has not heard the format yet."""
        ctx, handles = self.senders[sender]
        frames = [] if (sender, schema) in self.announced else [self.announcement(sender, schema)]
        record = {"x": x, "y": x * 0.5} if schema == "point" else {"x": x, "blob": bytes([x % 251 + 1]) * 70000}
        return frames + [ctx.encode(handles[schema], record)]

    def close(self):
        self.a.close()
        self.b.close()


def run_bursts(bursts, lend):
    """Send each burst whole and receive it with ``recv_batch`` under its
    ``max_frames`` and read cap; every result, in order.  Record *k* of
    the run carries ``x == k``."""
    link, out, sent = Link(), [], 0
    try:
        for ops, max_frames, cap in bursts:
            frames = []
            for sender, schema in ops:
                if schema == "announce":
                    frames.append(link.announcement(sender, "point"))
                elif schema == "point" or not any(len(f) > RECV_BUF for f in frames):  # one big frame a burst
                    frames += link.data(sender, schema, sent)
                    sent += 1
            link.a.send_many(frames)
            link.chunked.cap = cap
            while len(out) < sent:
                out += link.receiver.recv_batch(max_frames, lend=lend)
            assert len(out) == sent
    finally:
        link.close()
    return out


OPS = st.tuples(st.sampled_from(["conv", "zc"]), st.sampled_from(["point"] * 6 + ["announce", "big"]))
BURSTS = st.lists(
    st.tuples(
        st.lists(OPS, min_size=1, max_size=12),
        st.sampled_from([0, 0, 1, 2, 5]),
        st.sampled_from([None, None, 7, 100, 3000, 40000]),
    ),
    min_size=1,
    max_size=6,
)


class TestLoanedReceive:
    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(bursts=BURSTS)
    def test_lend_is_copy_and_kept_views_keep_their_bytes(self, bursts):
        """Over any sequence of bursts — converting and zero-copy formats
        mixed, announcements mid-burst, frames split across ``recv_into``
        calls, a frame that grows the buffer, ``max_frames`` bounds —
        ``recv_batch(lend=True)`` is ``recv_batch(lend=False)``, and every
        view, kept to the end, still reads what it read when it was made
        (``PBIO_POOL_GUARD=1`` poisons a buffer given back too early)."""
        leaked = _recv_pool.leaked
        copied = run_bursts(bursts, lend=False)
        views = run_bursts(bursts, lend=True)
        assert [view.to_dict() for view in views] == copied
        assert [record["x"] for record in copied] == list(range(len(copied)))
        del views
        gc.collect()
        assert _recv_pool.leaked == leaked

    def test_a_loan_held_across_the_next_receive_keeps_its_frames(self):
        a, b = loopback_pair()
        leaked = _recv_pool.leaked
        try:
            small, big = b"\x01" * 300, b"\x02" * (RECV_BUF + 1000)
            a.send(small)
            frames, loan = b.recv_many_leased()
            lent = b._framer._buf
            a.send_many([big, small])  # the next fill has to grow the buffer
            later, later_loan = b.recv_many_leased()
            assert b._framer._buf is not lent, "the framer filled a buffer it had lent"
            assert [bytes(f) for f in frames] == [small] and bytes(later[0]) == big
            a.send(small)
            assert b.recv() == small and bytes(later[0]) == big  # a copying receive moves off a lent buffer too
            lease = loan.take()  # still takable: the buffer is the pool's only after the lease
            assert lease.alive and loan.take() is lease and bytes(frames[0]) == small
            loan.close()
            later_loan.close()
            loan.close()
        finally:
            a.close()
            b.close()
        del lease, frames, later
        gc.collect()
        assert _recv_pool.leaked == leaked

    def exchange(self, machine, monkeypatch, bursts=10):
        """``bursts`` bursts of four POINT records ``machine`` -> x86 through
        ``send_batch_native`` / ``recv_batch(lend=True)``, every view kept
        to the end: ``(bursts that returned views, leases made, pool
        acquisitions, same buffer?, sizes of the leased buffers)``."""
        made = []
        lease = BufferPool.lease
        monkeypatch.setattr(BufferPool, "lease", lambda pool, buf: made.append(buf) or lease(pool, buf))
        a, b = loopback_pair()
        tx, rx = IOContext(machine), IOContext(X86)
        handle = tx.register_format(POINT)
        rx.expect(POINT)
        sender, receiver = PbioConnection(tx, a), PbioConnection(rx, b)
        codec = codec_for(layout_record(POINT, machine))
        try:
            sender.send_batch_native(handle, [codec.encode({"x": 0, "y": 0.0})])
            assert receiver.recv_batch(lend=True)[0]["x"] == 0  # the announcement's burst: copied
            del made[:]
            metrics, buffer, calls, kept = _recv_pool.metrics, b._framer._buf, 0, []
            acquired = metrics.value("buffers_allocated") + metrics.value("buffers_reused")
            for burst in range(bursts):
                sender.send_batch_native(handle, [codec.encode({"x": burst * 4 + k, "y": 0.5}) for k in range(4)])
                while len(kept) < burst * 4 + 4:
                    kept += receiver.recv_batch(lend=True)
                    calls += 1
            assert [view["x"] for view in kept] == list(range(4 * bursts))
            acquired = metrics.value("buffers_allocated") + metrics.value("buffers_reused") - acquired
            return calls, len(made), acquired, b._framer._buf is buffer, {len(buf) for buf in made}
        finally:
            a.close()
            b.close()

    def test_a_converting_link_takes_no_lease(self, monkeypatch):
        _calls, leases, acquired, same_buffer, _sizes = self.exchange(SPARC_V8, monkeypatch)
        assert (leases, acquired, same_buffer) == (0, 0, True)

    def test_a_zero_copy_link_takes_one_lease_per_burst_that_lent(self, monkeypatch):
        """Each burst that lent took one lease; once the views are gone every
        leased buffer came back to the pool, which kept at most its bound of
        their size.  Twenty bursts of views kept to the end hold twenty
        buffers at once, more than the bound: a pool that kept every
        returned buffer fails.  What other tests left in the process-wide
        pool (other sizes, other counts) does not enter."""
        metrics, leaked = _recv_pool.metrics, _recv_pool.leaked
        came_back = metrics.value("buffers_returned") + metrics.value("buffers_dropped")
        calls, leases, acquired, same_buffer, (size,) = self.exchange(X86, monkeypatch, bursts=20)
        assert leases == acquired == calls and not same_buffer
        gc.collect()
        came_back = metrics.value("buffers_returned") + metrics.value("buffers_dropped") - came_back
        assert _recv_pool.leaked == leaked and came_back == leases
        assert _recv_pool.free_count(size) <= 16

    @pytest.mark.parametrize("bad", [0, 1, 3], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("lend", [False, True], ids=["copy", "lend"])
    @pytest.mark.parametrize("machine", [SPARC_V8, X86], ids=["converting", "zero-copy"])
    def test_recv_batch_raise_drops_only_the_frame_it_rejects(self, machine, lend, bad):
        """``on_error="raise"`` is the sequential loop: the burst is off
        the transport when a frame is rejected, and the frames behind it
        must still come — as ``recv_view`` calls would get them."""
        tx = IOContext(machine)
        handle = tx.register_format(POINT)
        frames = [tx.encode(handle, {"x": k, "y": k * 0.25}) for k in range(4)]
        frames[bad] = frames[bad][:-3]  # a short payload
        outcomes = []
        for batched in (False, True):
            a, b = loopback_pair(timeout_s=3.0)
            rx = IOContext(X86)
            rx.expect(POINT)
            receiver, seen = PbioConnection(rx, b), []
            try:
                a.send(tx.announce(handle))
                a.send_many([tx.encode(handle, {"x": -1, "y": 0.0})])
                assert receiver.recv()["x"] == -1  # steady state from here
                a.send_many(frames)
                while len(seen) < 4:
                    try:
                        got = receiver.recv_batch(lend=lend) if batched else [receiver.recv_view()]
                    except MessageError as exc:
                        got = [v for v in getattr(exc, "partial", ()) if v is not None] + [MessageError]
                    seen += [v if v is MessageError else v.to_dict() if lend or not batched else v for v in got]
            finally:
                a.close()
                b.close()
            outcomes.append(seen)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][bad] is MessageError and len(outcomes[0]) == 4
