"""Tests for the sharded relay fabric (:mod:`repro.net.fabric`).

The hash ring's contract is property-tested (seeded hypothesis, like the
rest of the chaos suite): arc-mass balance within 20% of fair and the
minimal-movement law — membership changes move only the channels that
the joined/left worker's points own.  The fabric tests then cover
header-only routing, announcement broadcast/replay (each worker hands an
announcement to its own channel's relay only), one-relay-per-channel
fan-out (a membership change touches nobody else's handle, cursors,
quarantine or replay window, and costs one announcement replay), edge
filter push-down with fabric-wide compile sharing, worker kill ->
quarantine -> rebalance -> reactivation, durable ack aggregation, and
the async ``fabric_handler`` surface.
"""

import hashlib
import math
import os
import socket
import threading
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, PbioConnection
from repro.core import encoder as enc
from repro.core.safety import DecodeLimits
from repro.net import (
    AsyncServer,
    DurablePublisher,
    DurableSubscription,
    EventChannel,
    FabricDispatcher,
    FabricError,
    HashRing,
    InMemoryPipe,
    ProbePolicy,
    RelayWorker,
    SocketTransport,
    fabric_handler,
)
from repro.net.health import ACTIVE, QUARANTINED

from .test_health import FlakyLink

CHAOS_SEED = int(os.environ.get("PBIO_CHAOS_SEED", "0"))

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)


def upstream(records, *, context_id=None, machine=SPARC_V8):
    """Sender context + announcement + encoded records (wire order)."""
    sender = (
        IOContext(machine, context_id=context_id)
        if context_id is not None
        else IOContext(machine)
    )
    handle = sender.register_format(TELEMETRY)
    frames = [sender.announce(handle)] + [sender.encode(handle, r) for r in records]
    return sender, handle, frames


def receiver(pipe_end):
    ctx = IOContext(X86)
    ctx.expect(TELEMETRY)
    out = []
    def pump():
        while True:
            frame = pipe_end.poll_recv()
            if frame is None:
                return out
            kind = enc.unpack_header(frame)[0]
            if kind in (enc.MSG_PING, enc.MSG_PONG):
                continue
            record = ctx.receive(frame)
            if record is not None:
                out.append(record)
    return pump


# -- the hash ring -------------------------------------------------------------

WORKER_NAMES = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
    min_size=2,
    max_size=8,
    unique=True,
)

CHANNEL_KEYS = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=64,
    unique=True,
)


class TestHashRingProperties:
    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(WORKER_NAMES)
    def test_arc_mass_balance_within_20_percent(self, names):
        """Each worker's owned share of the hash space is within 20% of
        fair — the ring's deterministic balance, no key sample needed."""
        ring = HashRing(names)
        shares = ring.arc_shares()
        fair = 1.0 / len(names)
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        for name, share in shares.items():
            assert abs(share - fair) <= 0.20 * fair, (
                f"{name!r} owns {share:.4f} of the space, fair is {fair:.4f}"
            )

    @seed(CHAOS_SEED)
    @settings(max_examples=10, deadline=None)
    @given(WORKER_NAMES)
    def test_empirical_balance_over_1000_channels(self, names):
        """1000 concrete channels land within 20% of fair plus a 4-sigma
        binomial sampling allowance (1000 keys *sample* the arc shares;
        the allowance covers exactly that sampling noise)."""
        ring = HashRing(names)
        n, fair = 1000, 1.0 / len(names)
        keys = [(k, k >> 16 ^ 0x9E37) for k in range(n)]
        counts = {name: 0 for name in names}
        for key in keys:
            counts[ring.owner(key)] += 1
        sigma = math.sqrt(n * fair * (1.0 - fair))
        for name, count in counts.items():
            assert abs(count - n * fair) <= 0.20 * n * fair + 4 * sigma, (
                f"{name!r} owns {count}/{n} channels, fair is {n * fair:.0f}"
            )

    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(WORKER_NAMES, CHANNEL_KEYS)
    def test_join_moves_keys_only_to_the_new_worker(self, names, keys):
        ring = HashRing(names[:-1])
        before = {key: ring.owner(key) for key in keys}
        ring.add(names[-1])
        for key in keys:
            after = ring.owner(key)
            if after != before[key]:
                assert after == names[-1], (
                    f"{key} moved {before[key]!r} -> {after!r} when "
                    f"{names[-1]!r} joined: not minimal movement"
                )

    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(WORKER_NAMES, CHANNEL_KEYS)
    def test_leave_moves_only_the_left_workers_keys(self, names, keys):
        ring = HashRing(names)
        before = {key: ring.owner(key) for key in keys}
        ring.remove(names[0])
        for key in keys:
            after = ring.owner(key)
            if before[key] != names[0]:
                assert after == before[key], (
                    f"{key} moved {before[key]!r} -> {after!r} when "
                    f"{names[0]!r} (not its owner) left"
                )
            else:
                assert after != names[0]

    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from(["w0", "w1", "alpha", "beta"])), max_size=24))
    def test_points_are_a_sort_of_every_members_pairs(self, steps):
        """Each member's points are hashed once, when it joins; after any
        sequence of joins and leaves the ring is exactly the sorted
        ``(sha1 point, name)`` pairs of its members, built from scratch."""
        ring, members = HashRing(vnodes=32), set()
        for join, name in steps:
            if join and name not in members:
                ring.add(name)
                members.add(name)
            elif not join and name in members:
                ring.remove(name)
                members.remove(name)
            pairs = sorted(
                (int.from_bytes(hashlib.sha1(f"{w}#{i}".encode()).digest()[:8], "big"), w)
                for w in members
                for i in range(32)
            )
            assert (ring._points, ring._owners) == ([p for p, _ in pairs], [w for _, w in pairs])


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["alpha", "beta", "gamma"])
        b = HashRing(["gamma", "alpha", "beta"])  # insertion order irrelevant
        for key in [(i, i * 7) for i in range(200)]:
            assert a.owner(key) == b.owner(key)

    def test_empty_ring_owns_nothing(self):
        assert HashRing().owner((1, 2)) is None

    def test_duplicate_worker_rejected(self):
        ring = HashRing(["w0"])
        with pytest.raises(ValueError):
            ring.add("w0")

    def test_assignment_partitions_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [(i, 1) for i in range(100)]
        assignment = ring.assignment(keys)
        assert sorted(k for ks in assignment.values() for k in ks) == sorted(keys)


# -- routing and fan-out -------------------------------------------------------


class TestFabricRouting:
    def test_data_routes_to_ring_owner_verbatim(self):
        disp = FabricDispatcher(3)
        _, handle, frames = upstream([{"unit": 1, "temperature": 400.0}], context_id=5)
        key = (5, handle.format_id)
        pipe = InMemoryPipe()
        disp.subscribe(key, pipe.a, format_name="telemetry")
        for frame in frames:
            disp.forward(frame)
        got = [pipe.b.poll_recv() for _ in range(2)]
        assert got == [bytes(f) for f in frames]  # bit-identical, never re-encoded
        owner = disp.ring.owner(key)
        assert disp.worker(owner).metrics.value("worker.routed") == 1
        for other in disp.workers:
            if other.name != owner:
                assert other.metrics.value("worker.routed") == 0

    def test_announcements_broadcast_to_every_worker(self):
        disp = FabricDispatcher(3)
        _, _, frames = upstream([])
        disp.forward(frames[0])
        for worker in disp.workers:
            assert worker.metrics.value("worker.announcements") == 1
        disp.forward(frames[0])  # replays dedup
        assert disp.metrics.value("fabric.announcements") == 1

    def test_forward_batch_groups_per_owner(self):
        disp = FabricDispatcher(4)
        _, handle, frames = upstream(
            [{"unit": i, "temperature": float(i)} for i in range(16)], context_id=9
        )
        sinks = {}
        key = (9, handle.format_id)
        pipe = InMemoryPipe()
        disp.subscribe(key, pipe.a, format_name="telemetry")
        sinks[key] = pipe
        disp.forward_batch(frames)
        pump = receiver(pipe.b)
        assert [r["unit"] for r in pump()] == list(range(16))

    def test_heartbeats_and_acks_are_dropped_with_counters(self):
        disp = FabricDispatcher(2)
        disp.forward(enc.encode_ping(7))
        disp.forward(enc.encode_pong(7))
        disp.forward(enc.encode_ack(1, 2, 3))
        assert disp.metrics.value("fabric.heartbeats_dropped") == 2
        assert disp.metrics.value("fabric.acks_dropped") == 1
        assert disp.metrics.value("fabric.routed") == 0

    def test_garbage_is_rejected_not_raised(self):
        disp = FabricDispatcher(2)
        disp.forward(b"not a pbio frame at all")
        assert disp.metrics.value("fabric.rejected") == 1

    def test_oversized_data_rejected_at_the_front(self):
        from repro.core.safety import DecodeLimits

        _, _, frames = upstream([{"unit": 1, "temperature": 1.0}])
        limit = max(len(f) for f in frames)
        disp = FabricDispatcher(2, limits=DecodeLimits(max_message_size=limit))
        disp.forward(frames[0])
        disp.forward(frames[1][: enc.HEADER_SIZE] + b"y" * (limit + 1))
        assert disp.metrics.value("fabric.rejected") == 1
        # an oversize announcement, inline or token, is dropped the same
        # way — never remembered for replay, at the front or on a worker
        for kind in (enc.MSG_FORMAT, enc.MSG_FORMAT_TOKEN):
            oversize = enc.pack_header(kind, 1, 2, 5000) + b"z" * 5000
            disp.forward(oversize)
            disp.forward_batch([oversize, frames[1]])
            disp.workers[0].ingest(oversize)
        assert disp.metrics.value("fabric.rejected") == 5
        assert disp.metrics.value("fabric.routed") == 2
        assert list(disp._announcements) == [bytes(frames[0])]
        for worker in disp.workers:
            assert list(worker._announcements) == [bytes(frames[0])]
        assert disp.workers[0].metrics.value("worker.rejected") == 2

    def test_subscribe_with_no_workers_raises(self):
        disp = FabricDispatcher(1)
        disp.remove_worker("w0")
        with pytest.raises(FabricError):
            disp.subscribe((1, 2), InMemoryPipe().a)


class TestFanoutTree:
    """Named for the in-process tree these once built; what they pin is
    delivery to every subscriber of one channel, few or many."""

    def test_flat_below_branching_factor(self):
        disp = FabricDispatcher(1)
        _, handle, frames = upstream([{"unit": 1, "temperature": 2.0}], context_id=3)
        key = (3, handle.format_id)
        pipes = [InMemoryPipe() for _ in range(6)]
        for pipe in pipes:
            disp.subscribe(key, pipe.a, format_name="telemetry")
        for frame in frames:
            disp.forward(frame)
        for pipe in pipes:
            assert [r["unit"] for r in receiver(pipe.b)()] == [1]

    def test_interior_levels_above_branching_factor(self):
        disp = FabricDispatcher(1)
        _, handle, frames = upstream(
            [{"unit": 7, "temperature": 1.5}], context_id=3
        )
        key = (3, handle.format_id)
        pipes = [InMemoryPipe() for _ in range(22)]
        for pipe in pipes:
            disp.subscribe(key, pipe.a, format_name="telemetry")
        for frame in frames:
            disp.forward(frame)
        worker = disp.worker(disp.ring.owner(key))
        assert worker.channels()[key]["subscribers"] == 22
        for pipe in pipes:
            assert [r["unit"] for r in receiver(pipe.b)()] == [7]

    def test_late_subscriber_gets_announcement_replay(self):
        disp = FabricDispatcher(2)
        _, handle, frames = upstream(
            [{"unit": 1, "temperature": 8.0}] * 2, context_id=4
        )
        key = (4, handle.format_id)
        for frame in frames:
            disp.forward(frame)
        pipe = InMemoryPipe()  # joins after the announcement went by
        disp.subscribe(key, pipe.a, format_name="telemetry")
        disp.forward(frames[1])
        assert [r["unit"] for r in receiver(pipe.b)()] == [1]


class TestMembershipTouchesNobodyElse:
    """A channel has one relay, built once: a subscriber or tap coming or
    going is one attach/detach on it.  (Each of these failed while every
    membership change rebuilt the channel's relays from scratch.)"""

    KEY = (41, 7)

    @staticmethod
    def sequenced(first, last):
        return [enc.encode_data_seq(41, 7, seq, b"r" * 12) for seq in range(first, last + 1)]

    @pytest.mark.parametrize("change", ["subscribe", "tap_untap", "unsubscribe"])
    def test_upstream_ack_never_passes_a_subscriber(self, change):
        acks = []
        disp = FabricDispatcher(1, ack_upstream=acks.append)
        a, b, other = InMemoryPipe(), InMemoryPipe(), InMemoryPipe()
        disp.subscribe(self.KEY, a.a)
        sub_b = disp.subscribe(self.KEY, b.a)
        third = disp.subscribe(self.KEY, other.a) if change == "unsubscribe" else None
        handle_b = sub_b.downstream
        disp.forward_batch(self.sequenced(1, 5))
        a.b.send(enc.encode_ack(*self.KEY, 5))
        b.b.send(enc.encode_ack(*self.KEY, 3))
        disp.heal()
        assert [enc.parse_ack(frame)[2] for frame in acks] == [3]
        if change == "subscribe":
            disp.subscribe(self.KEY, other.a)
        elif change == "unsubscribe":
            disp.unsubscribe(third)
        else:  # what one ``pbio-fabric status`` probe does
            disp.untap(disp.tap(other.a))
        disp.forward_batch(self.sequenced(6, 8))
        a.b.send(enc.encode_ack(*self.KEY, 8))
        disp.heal()
        # B has confirmed 3: the publisher WAL must keep 4..8
        assert [enc.parse_ack(frame)[2] for frame in acks] == [3]
        assert sub_b.downstream is handle_b
        assert handle_b.ack_cursors == {self.KEY: 3}

    def test_quarantine_and_replay_window_survive_a_join_and_a_leave(self):
        now = [5.0]
        disp = FabricDispatcher(1, clock=lambda: now[0])
        pipe = InMemoryPipe()
        link = FlakyLink(pipe.a)
        sub = disp.subscribe(self.KEY, link)
        handle = sub.downstream
        link.broken = True
        for frame in self.sequenced(1, 3):
            disp.forward(frame)
        assert handle.state == QUARANTINED
        now[0] = 9.0
        joiner = disp.subscribe(self.KEY, InMemoryPipe().a)
        disp.unsubscribe(joiner)
        assert sub.downstream is handle
        assert handle.state == QUARANTINED  # no amnesty
        assert (handle.consecutive_errors, handle.stats.send_errors) == (3, 3)
        assert handle.quarantined_at == 5.0  # the eviction clock kept running
        (relay,) = disp.workers[0]._relays.values()
        assert [seq for seq, _frame in relay._replay[self.KEY]] == [1, 2, 3]

    def test_n_subscribers_cost_n_announcements(self):
        disp = FabricDispatcher(1)
        _, handle, frames = upstream([{"unit": 1, "temperature": 2.0}], context_id=3)
        key = (3, handle.format_id)
        disp.forward(frames[0])
        pipes = [InMemoryPipe() for _ in range(64)]
        for pipe in pipes:
            disp.subscribe(key, pipe.a)
        assert sum(pipe.b.pending() for pipe in pipes) == 64  # 2 080 with a rebuild per join
        assert disp.workers[0].channels()[key]["subscribers"] == 64

    def test_taps_hear_each_announcement_once(self):
        disp = FabricDispatcher(1)
        _, _, frames = upstream([{"unit": u, "temperature": 2.0} for u in (1, 2)], context_id=3)
        early, late = InMemoryPipe(), InMemoryPipe()
        disp.tap(early.a)  # before the channel's first frame
        disp.forward_batch(frames[:2])
        disp.tap(late.a)  # after it
        disp.forward(frames[2])
        assert [early.b.recv() for _ in range(early.b.pending())] == frames
        assert [late.b.recv() for _ in range(late.b.pending())] == [frames[0], frames[2]]


class TestAnnouncementRouting:
    """A worker remembers every announcement but hands each one to its own
    channel's relay only: a subscriber hears its channel's format and no
    other, and a relay spends no format quota on another channel's."""

    def test_foreign_announcements_spend_no_relay_quota(self):
        disp = FabricDispatcher(1, limits=DecodeLimits(max_formats_per_peer=2))
        sender = IOContext(SPARC_V8, context_id=51)
        schemas = [
            RecordSchema.from_pairs(f"telemetry{i}", [("unit", "int"), ("temperature", "double")])
            for i in range(3)
        ]
        handles = [sender.register_format(schema) for schema in schemas]
        pipes = [InMemoryPipe() for _ in handles]
        for handle, pipe in zip(handles, pipes):
            disp.subscribe((51, handle.format_id), pipe.a)
        announcements = [sender.announce(handle) for handle in handles]
        records = [sender.encode(h, {"unit": i, "temperature": 1.0}) for i, h in enumerate(handles)]
        disp.forward_batch(announcements)
        disp.forward_batch(records)
        relays = disp.workers[0]._relays.values()
        assert [relay.metrics.value("relay.rejected") for relay in relays] == [0, 0, 0]
        for i, (schema, pipe) in enumerate(zip(schemas, pipes)):
            got = [pipe.b.recv() for _ in range(pipe.b.pending())]
            assert got == [announcements[i], records[i]]
            ctx = IOContext(X86)
            ctx.expect(schema)
            assert [ctx.receive(frame) for frame in got] == [None, {"unit": i, "temperature": 1.0}]

    @seed(CHAOS_SEED)
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["announce", "data", "subscribe", "tap", "add", "remove", "bounce"]),
                st.integers(0, 3),
            ),
            max_size=40,
        )
    )
    def test_each_leaf_hears_its_channels_format_before_its_data(self, steps):
        """Across joins, leaves, quarantine -> reactivation and taps, a
        subscriber hears its own channel's announcement before that
        channel's first data frame and no other channel's; a tap hears
        each channel's before that channel's first data frame.  Every
        leaf gets every data frame of its channels sent after it joined."""
        now = [0.0]
        disp = FabricDispatcher(2, quarantine_after=1, clock=lambda: now[0])
        channels = TestRememberedOwner.channels(4)
        leaves = []  # [channel key (None: a tap), pipe, data frames owed]
        announced, joined = set(), 0
        for step, i in steps:
            live = [worker.name for worker in disp.workers]
            key, announcement, frames = channels[i]
            if step == "announce":
                disp.forward(announcement)
                announced.add(i)
            elif step == "data" and i in announced:
                disp.forward(frames[0])
                for leaf in leaves:
                    leaf[2] += leaf[0] in (None, key)
            elif step in ("subscribe", "tap"):
                pipe = InMemoryPipe()
                if step == "tap":
                    key = None
                    disp.tap(pipe.a)
                else:
                    disp.subscribe(key, pipe.a)
                leaves.append([key, pipe, 0])
            elif step == "add":
                disp.add_worker(RelayWorker(f"x{joined}", cache=disp.cache))
                joined += 1
            elif step == "remove" and len(live) > 1:
                disp.remove_worker(live[i % len(live)])
            elif step == "bounce":
                name = live[i % len(live)]
                disp.worker(name).kill()
                now[0] += 1.0
                disp.heal()
                assert disp.worker_states()[name] == QUARANTINED
                disp.worker(name).revive()
                disp.reactivate_worker(name)
        for key, pipe, owed in leaves:
            heard, data = set(), 0
            for frame in (pipe.b.recv() for _ in range(pipe.b.pending())):
                kind, cid, fid, _n = enc.unpack_header(frame)
                if kind in enc.LINK_KINDS:
                    continue  # a drained worker's goodbye
                assert key in (None, (cid, fid))
                if kind == enc.MSG_FORMAT:
                    heard.add((cid, fid))
                else:
                    assert (cid, fid) in heard
                    data += 1
            assert data == owed


class TestFilterPushdown:
    def test_filter_runs_at_the_leaf(self):
        disp = FabricDispatcher(2)
        _, handle, _ = upstream([], context_id=6)
        key = (6, handle.format_id)
        sender, handle, frames = upstream(
            [{"unit": i, "temperature": 100.0 * i} for i in range(8)], context_id=6
        )
        hot = InMemoryPipe()
        every = InMemoryPipe()
        disp.subscribe(
            key, hot.a, format_name="telemetry", filter_expr="temperature > 500.0"
        )
        disp.subscribe(key, every.a, format_name="telemetry")
        disp.forward_batch(frames)
        assert [r["unit"] for r in receiver(hot.b)()] == [6, 7]
        assert [r["unit"] for r in receiver(every.b)()] == list(range(8))

    def test_same_predicate_compiles_once_across_the_fabric(self):
        disp = FabricDispatcher(3)
        sender, handle, frames = upstream(
            [{"unit": i, "temperature": 50.0 * i} for i in range(4)], context_id=8
        )
        key = (8, handle.format_id)
        pipes = [InMemoryPipe() for _ in range(6)]
        for pipe in pipes:
            disp.subscribe(
                key, pipe.a, format_name="telemetry", filter_expr="temperature > 75.0"
            )
        disp.forward_batch(frames)
        for pipe in pipes:
            assert [r["unit"] for r in receiver(pipe.b)()] == [2, 3]
        # One fabric-wide cache: six subscriber leaves, one compilation.
        assert disp.cache.metrics.value("filters_compiled") == 1
        assert disp.cache.metrics.value("filter_cache_hits") >= 5


# -- failure, rebalance, reactivation ------------------------------------------


def chaos_dispatcher(n=3, *, clock, ack_upstream=None, replay_window=256):
    return FabricDispatcher(
        n,
        quarantine_after=1,
        probe_policy=ProbePolicy(
            base_delay_s=0.01,
            multiplier=2.0,
            max_delay_s=0.05,
            eviction_deadline_s=3600.0,
        ),
        clock=clock,
        replay_window=replay_window,
        ack_upstream=ack_upstream,
    )


class TestWorkerFailure:
    def test_kill_quarantines_and_rebalances(self):
        now = [0.0]
        disp = chaos_dispatcher(3, clock=lambda: now[0])
        _, handle, frames = upstream(
            [{"unit": i, "temperature": float(i)} for i in range(4)], context_id=11
        )
        key = (11, handle.format_id)
        pipe = InMemoryPipe()
        sub = disp.subscribe(key, pipe.a, format_name="telemetry")
        disp.forward(frames[0])
        disp.forward(frames[1])
        owner = disp.ring.owner(key)
        disp.worker(owner).kill()
        now[0] += 0.1
        disp.heal()  # liveness sweep: quarantine + rebalance
        assert disp.worker_states()[owner] == QUARANTINED
        new_owner = disp.ring.owner(key)
        assert new_owner != owner
        assert sub.worker_name == new_owner  # the same handle migrated
        for frame in frames[2:]:
            disp.forward(frame)
        # Delivered through the new owner: announcement replay means the
        # post-migration frames still decode (the in-memory pipe delivers
        # synchronously, so frame 1 was already across before the kill;
        # frames stuck in a real worker's queues are the durable WAL's job).
        assert [r["unit"] for r in receiver(pipe.b)()] == [0, 1, 2, 3]

    def test_ingest_failures_quarantine_without_heal(self):
        now = [0.0]
        disp = chaos_dispatcher(2, clock=lambda: now[0])
        _, handle, frames = upstream([{"unit": 1, "temperature": 2.0}], context_id=12)
        key = (12, handle.format_id)
        disp.forward(frames[0])
        owner = disp.ring.owner(key)
        disp.worker(owner).kill()
        disp.forward(frames[1])  # the failed ingest itself trips quarantine
        assert disp.worker_states()[owner] == QUARANTINED
        assert disp.metrics.value("fabric.dropped_worker_error") == 1

    def test_probe_reactivates_revived_worker(self):
        now = [0.0]
        disp = chaos_dispatcher(3, clock=lambda: now[0])
        _, handle, frames = upstream([{"unit": 5, "temperature": 1.0}], context_id=13)
        key = (13, handle.format_id)
        pipe = InMemoryPipe()
        disp.subscribe(key, pipe.a, format_name="telemetry")
        disp.forward(frames[0])
        owner = disp.ring.owner(key)
        disp.worker(owner).kill()
        now[0] += 0.1
        disp.heal()
        assert disp.worker_states()[owner] == QUARANTINED
        disp.worker(owner).revive()  # restarted process: empty state
        now[0] += 0.1
        disp.heal()  # probe fires -> reactivate -> rebalance back
        assert disp.worker_states()[owner] == ACTIVE
        assert owner in disp.ring
        assert disp.ring.owner(key) == owner
        disp.forward(frames[1])
        # The reactivated worker got the announcement backlog replayed.
        assert [r["unit"] for r in receiver(pipe.b)()] == [5]

    def test_scale_out_migrates_minimally(self):
        disp = FabricDispatcher(2)
        _, handle, frames = upstream([{"unit": 1, "temperature": 2.0}], context_id=14)
        keys = [(14 + i, handle.format_id) for i in range(20)]
        subs = {}
        for key in keys:
            pipe = InMemoryPipe()
            subs[key] = (pipe, disp.subscribe(key, pipe.a, format_name="telemetry"))
        before = {key: disp.ring.owner(key) for key in keys}
        disp.add_worker(RelayWorker("w2", cache=disp.cache))
        for key in keys:
            after = disp.ring.owner(key)
            _, sub = subs[key]
            assert sub.worker_name == after
            if after != before[key]:
                assert after == "w2"  # minimal movement, end to end

    def test_remove_worker_drains_and_rehomes(self):
        disp = FabricDispatcher(3)
        _, handle, frames = upstream([{"unit": 3, "temperature": 9.0}], context_id=15)
        key = (15, handle.format_id)
        pipe = InMemoryPipe()
        sub = disp.subscribe(key, pipe.a, format_name="telemetry")
        disp.forward(frames[0])
        victim = disp.ring.owner(key)
        disp.remove_worker(victim)
        assert victim not in disp.ring
        assert sub.worker_name == disp.ring.owner(key)
        disp.forward(frames[1])
        assert [r["unit"] for r in receiver(pipe.b)()] == [3]


class TestRememberedOwner:
    """Routing is a dict lookup: ``_owner_for`` answers from what
    ``_rebalance`` keeps equal to the ring, and hashes a key once."""

    @staticmethod
    def channels(n=8):
        out = []
        for c in range(n):
            sender = IOContext(X86, context_id=0x7000 + c)
            handle = sender.register_format(TELEMETRY)
            frames = [sender.encode(handle, {"unit": u, "temperature": 1.0}) for u in range(4)]
            out.append(((sender.context_id, handle.format_id), sender.announce(handle), frames))
        return out

    def test_the_memo_follows_the_ring_through_every_mutation(self):
        now = [0.0]
        disp = chaos_dispatcher(3, clock=lambda: now[0])
        channels = self.channels(24)
        pipes = {key: InMemoryPipe() for key, _a, _f in channels[::3]}
        subs = {key: disp.subscribe(key, pipe.a) for key, pipe in pipes.items()}
        disp.forward_batch([f for _key, announce, frames in channels for f in (announce, frames[0])])

        def check(moved_from=None):
            assert sorted(disp._owner_of) == sorted(key for key, _a, _f in channels)
            for key, _a, _f in channels:
                assert disp._owner_for(key) == disp.ring.owner(key) != moved_from
            assert all(sub.worker_name == disp.ring.owner(key) for key, sub in subs.items())

        check()
        disp.add_worker(RelayWorker("w3", cache=disp.cache))
        check()
        assert "w3" in disp._owner_of.values()
        disp.remove_worker("w0")
        check(moved_from="w0")
        disp.worker("w1").kill()
        now[0] += 0.1
        disp.heal()  # -> quarantine
        assert disp.worker_states()["w1"] == QUARANTINED
        check(moved_from="w1")
        disp.worker("w1").revive()
        disp.reactivate_worker("w1")
        check()
        assert "w1" in disp._owner_of.values()
        # and what was remembered is where frames go
        for key, _announce, frames in channels:
            before = disp.worker(disp.ring.owner(key)).metrics.value("worker.routed")
            disp.forward(frames[1])
            assert disp.worker(disp.ring.owner(key)).metrics.value("worker.routed") == before + 1

    def test_known_channels_never_touch_the_ring(self, monkeypatch):
        disp = FabricDispatcher(4)
        channels = self.channels(8)
        lookups = []
        ring_owner = HashRing.owner
        monkeypatch.setattr(
            HashRing, "owner", lambda ring, key: lookups.append(key) or ring_owner(ring, key)
        )
        for _key, announce, _frames in channels:
            disp.forward(announce)
        burst = [frames[k % 4] for k in range(125) for _key, _a, frames in channels]
        disp.forward_batch(burst[:8])
        assert sorted(lookups) == sorted(key for key, _a, _f in channels)  # from cold: once each
        del lookups[:]
        disp.forward_batch(burst)  # 1000 frames, the channel changing at every one
        for frame in burst[:16]:
            disp.forward(frame)
        assert lookups == []
        assert disp.metrics.value("fabric.routed") == 8 + 1000 + 16


# -- durable integration -------------------------------------------------------


class TestDurableAggregation:
    def test_min_cursor_acks_reach_the_publisher(self, tmp_path):
        chan = EventChannel()
        now = [0.0]
        disp = chaos_dispatcher(
            3, clock=lambda: now[0], ack_upstream=chan.route_ack, replay_window=1024
        )
        chan.attach_wire(disp.forward)
        ctx = IOContext(SPARC_V8, context_id=21)
        handle = ctx.register_format(TELEMETRY)
        pub = DurablePublisher(chan, ctx, wal_dir=str(tmp_path / "wal"))
        key = (21, handle.format_id)

        pipes = [InMemoryPipe() for _ in range(2)]
        chans = []
        for pipe in pipes:
            disp.subscribe(key, pipe.a, format_name="telemetry")
            sub_chan = EventChannel()
            sub_ctx = IOContext(X86)
            sub_ctx.expect(TELEMETRY)
            DurableSubscription(
                sub_chan, sub_ctx, lambda record: None, ack_sink=pipe.b.send
            )
            chans.append(sub_chan)
        for i in range(5):
            pub.publish(handle, {"unit": i, "temperature": float(i)})
        for pipe, sub_chan in zip(pipes, chans):
            while (frame := pipe.b.poll_recv()) is not None:
                if enc.unpack_header(frame)[0] not in (enc.MSG_PING, enc.MSG_PONG):
                    sub_chan.ingest(frame)
        now[0] += 0.1
        disp.heal()  # harvest subscriber acks -> root min-cursor -> dispatcher
        assert pub.unacked_count == 0
        assert disp.metrics.value("fabric.acks_up") >= 1

    def test_shard_cursor_never_regresses(self):
        acks = []
        disp = FabricDispatcher(2, ack_upstream=acks.append)
        disp._on_shard_ack(enc.encode_ack(1, 2, cursor=7))
        disp._on_shard_ack(enc.encode_ack(1, 2, cursor=3))  # replaced shard restarts
        disp._on_shard_ack(enc.encode_ack(1, 2, cursor=9))
        cursors = [enc.parse_ack(frame)[2] for frame in acks]
        assert cursors == [7, 9]


# -- the async serving surface -------------------------------------------------


class TestFabricHandler:
    def test_wire_ingress_routes_and_taps_fan_back(self):
        disp = FabricDispatcher(2)
        server = AsyncServer(fabric_handler(disp))
        host, port = server.bind()
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            sender, handle, frames = upstream(
                [{"unit": 4, "temperature": 40.0}], context_id=31
            )
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.settimeout(10)
                t = SocketTransport(raw)
                rx = PbioConnection(IOContext(X86), t)
                rx.ctx.expect(TELEMETRY)
                deadline = time.monotonic() + 5
                while not disp._taps and time.monotonic() < deadline:
                    time.sleep(0.005)
                t.send_many(frames)
                assert rx.recv() == {"unit": 4, "temperature": 40.0}
                # Pings answer with the fabric's queue depth, not routing.
                t.send(enc.encode_ping(99))
                while True:
                    frame = t.recv()
                    kind = enc.unpack_header(frame)[0]
                    if kind == enc.MSG_PONG:
                        nonce, _depth = enc.parse_pong(frame)
                        assert nonce == 99
                        break
        finally:
            server.stop()
            thread.join(timeout=10)
        assert disp.metrics.value("fabric.routed") >= 1
        assert not disp._taps  # untapped on disconnect
