"""FormatServer and FormatService: registration, resolution, degradation."""

import socket
import threading

import pytest

from repro.net.transport import Transport
from repro.abi import SPARC_V8, X86_64, RecordSchema, layout_record
from repro.core import DecodeLimits, IOContext, IOFormat
from repro.fmtserv import (
    STATUS_INVALID,
    STATUS_OK,
    FormatCache,
    FormatServer,
    FormatService,
)
from repro.net import AsyncServer, RetryPolicy, SocketTransport, TransportError, fmtserv_handler

from .helpers import FakeClock, SyncServerLink, no_sleep

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)
PARTICLE = RecordSchema.from_pairs(
    "particle", [("x", "double"), ("y", "double"), ("id", "int")]
)


def make_format(schema=TELEMETRY, machine=X86_64) -> IOFormat:
    return IOFormat.from_layout(layout_record(schema, machine))


def make_service(server, *, cache=None, clock=None, client_id=None):
    clock = clock if clock is not None else FakeClock()
    return FormatService(
        lambda: SyncServerLink(server),
        cache=cache if cache is not None else FormatCache(clock=clock),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=1),
        clock=clock,
        sleep=no_sleep,
        client_id=client_id,
    )


class TestServer:
    def test_register_mints_monotonic_tokens(self):
        server = FormatServer()
        svc = make_service(server)
        t1 = svc.publish(make_format(TELEMETRY))
        t2 = svc.publish(make_format(PARTICLE))
        assert t1 == 1 and t2 == 2
        assert server.fingerprint_for(1) == make_format(TELEMETRY).fingerprint
        assert len(server) == 2

    def test_reregistration_is_idempotent(self):
        server = FormatServer()
        fmt = make_format()
        first = make_service(server).publish(fmt)
        # A different client re-registering the same content gets the
        # same token — content addressing, no duplicate mint.
        second = make_service(server).publish(fmt)
        assert first == second == 1
        assert server.metrics.value("fmtserv.reregistered") == 1

    def test_fingerprint_mismatch_rejected(self):
        server = FormatServer()
        meta = make_format().to_meta_bytes()
        reply = server._register(
            {"client_id": 1, "fingerprint": (b"\xAA" * 20).hex(), "meta": meta.hex()}
        )
        assert reply["status"] == STATUS_INVALID
        assert server.metrics.value("fmtserv.rejected") == 1
        assert len(server) == 0

    def test_garbage_meta_rejected(self):
        server = FormatServer()
        reply = server._register(
            {"client_id": 1, "fingerprint": (b"\x01" * 20).hex(), "meta": "00" * 64}
        )
        assert reply["status"] == STATUS_INVALID
        not_hex = server._register(
            {"client_id": 1, "fingerprint": "zz", "meta": "also not hex"}
        )
        assert not_hex["status"] == STATUS_INVALID

    def test_per_client_quota(self):
        server = FormatServer(max_formats_per_client=1)
        svc = make_service(server, client_id=77)
        assert svc.publish(make_format(TELEMETRY)) == 1
        assert svc.publish(make_format(PARTICLE)) is None  # over quota
        assert server.metrics.value("fmtserv.quota_rejections") == 1
        # same format again is not a new registration, so it still works
        assert svc.publish(make_format(TELEMETRY)) == 1

    def test_lookup_by_fingerprint_and_token(self):
        server = FormatServer()
        fmt = make_format()
        make_service(server).publish(fmt)
        by_fp = server._lookup({"fingerprint": fmt.fingerprint.hex(), "token": 0})
        assert by_fp["status"] == STATUS_OK and by_fp["token"] == 1
        by_token = server._lookup({"fingerprint": "", "token": 1})
        assert bytes.fromhex(by_token["meta"]) == fmt.to_meta_bytes()
        miss = server._lookup({"fingerprint": (b"\x09" * 20).hex(), "token": 0})
        assert miss["status"] != STATUS_OK

    def test_store_survives_restart_with_monotonic_tokens(self, tmp_path):
        path = str(tmp_path / "server.pbfc")
        fmt = make_format()
        server = FormatServer(store=FormatCache(path))
        assert make_service(server).publish(fmt) == 1
        server.store.close()
        # restart: same store file, token bindings intact, next mint above
        reborn = FormatServer(store=FormatCache(path))
        assert reborn.token_for(fmt.fingerprint) == 1
        assert make_service(reborn).publish(make_format(PARTICLE)) == 2

    def test_purge_resets_population(self):
        server = FormatServer()
        svc = make_service(server)
        svc.publish(make_format(TELEMETRY))
        svc.publish(make_format(PARTICLE))
        assert server._purge({"fingerprint": ""})["removed"] == 2
        assert len(server) == 0
        assert server.fingerprint_for(1) is None


class TestService:
    def test_offline_mode_is_inert(self):
        svc = FormatService(None)
        fmt = make_format()
        assert not svc.online
        assert svc.publish(fmt) is None
        assert svc.resolve(fmt.fingerprint) is None
        assert svc.token_for(fmt.fingerprint) is None

    def test_resolve_fills_cache_once(self):
        server = FormatServer()
        fmt = make_format()
        make_service(server).publish(fmt)
        reader = make_service(server)
        resolved = reader.resolve(fmt.fingerprint)
        assert resolved.fingerprint == fmt.fingerprint
        lookups_after_first = server.metrics.value("fmtserv.lookups")
        assert reader.resolve(fmt.fingerprint).name == "telemetry"
        # second resolve is a pure cache hit: the server saw nothing new
        assert server.metrics.value("fmtserv.lookups") == lookups_after_first
        assert reader.metrics.value("fmtserv.hits") == 1

    def test_miss_is_negative_cached(self):
        server = FormatServer()
        clock = FakeClock()
        svc = make_service(server, clock=clock)
        unknown = b"\x42" * 20
        assert svc.resolve(unknown) is None
        lookups = server.metrics.value("fmtserv.lookups")
        assert svc.resolve(unknown) is None  # within negative TTL: no RPC
        assert server.metrics.value("fmtserv.lookups") == lookups
        assert svc.metrics.value("fmtserv.negative_hits") == 1
        clock.advance(60.0)  # negative TTL over: the server is asked again
        assert svc.resolve(unknown) is None
        assert server.metrics.value("fmtserv.lookups") == lookups + 1

    def test_down_server_holdoff(self):
        clock = FakeClock()
        from repro.net import TransportError

        class DeadTransport(Transport):
            def send(self, data):
                raise TransportError("link down")

            def recv(self):
                raise TransportError("link down")

            def set_timeout(self, timeout_s):
                pass

            def close(self):
                pass

        svc = FormatService(
            DeadTransport(),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=1),
            server_retry_s=5.0,
            clock=clock,
            sleep=no_sleep,
        )
        fmt = make_format()
        assert svc.publish(fmt) is None
        assert svc.metrics.value("fmtserv.server_unreachable") == 1
        assert not svc.online  # holdoff window
        assert svc.resolve(fmt.fingerprint) is None  # no new attempt
        assert svc.metrics.value("fmtserv.server_unreachable") == 1
        clock.advance(6.0)
        assert svc.online  # holdoff over: the next call tries again

    def test_pull_all_primes_local_cache(self, tmp_path):
        server = FormatServer()
        writer = make_service(server)
        writer.publish(make_format(TELEMETRY))
        writer.publish(make_format(PARTICLE))
        path = str(tmp_path / "primed.pbfc")
        svc = make_service(server, cache=FormatCache(path))
        assert svc.pull_all() == 2
        assert svc.pull_all() == 0  # already primed
        svc.close()
        with FormatCache(path) as reopened:
            assert len(reopened) == 2

    def test_warm_start_primes_converters(self):
        server = FormatServer()
        make_service(server).publish(make_format(TELEMETRY, machine=X86_64))
        svc = make_service(server)
        assert svc.pull_all() == 1
        ctx = IOContext(SPARC_V8)
        ctx.expect(TELEMETRY)
        assert svc.warm_start(ctx) == 1
        assert svc.metrics.value("fmtserv.warm_started") == 1
        # an unrelated context (expects nothing) primes nothing
        assert svc.warm_start(IOContext(SPARC_V8)) == 0

    def test_oversized_meta_rejected_under_limits(self):
        tight = DecodeLimits(max_meta_size=8)
        server = FormatServer(limits=tight)
        reply = server._register(
            {
                "client_id": 1,
                "fingerprint": make_format().fingerprint.hex(),
                "meta": make_format().to_meta_bytes().hex(),
            }
        )
        assert reply["status"] == STATUS_INVALID


class TestFailover:
    def _dead_dialer(self):
        from repro.net import TransportError

        def dial():
            raise TransportError("replica down")

        return dial

    def test_failover_to_second_replica(self):
        clock = FakeClock()
        server = FormatServer()
        svc = FormatService(
            [self._dead_dialer(), lambda: SyncServerLink(server)],
            cache=FormatCache(clock=clock),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=1),
            clock=clock,
            sleep=no_sleep,
        )
        fmt = make_format()
        assert svc.publish(fmt) == 1  # answered by the second replica
        assert svc.metrics.value("fmtserv.failovers") == 1
        assert svc.metrics.value("fmtserv.replica_failures") == 1
        assert svc.metrics.value("fmtserv.server_unreachable") == 0
        assert svc.replica_states == ["open", "closed"]
        assert svc.online

    def test_all_replicas_down_degrades_to_inline(self):
        clock = FakeClock()
        svc = FormatService(
            [self._dead_dialer(), self._dead_dialer()],
            cache=FormatCache(clock=clock),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=1),
            server_retry_s=5.0,
            clock=clock,
            sleep=no_sleep,
        )
        assert svc.publish(make_format()) is None  # inline fallback, no raise
        assert svc.metrics.value("fmtserv.server_unreachable") == 1
        assert svc.replica_states == ["open", "open"]
        assert not svc.online  # every breaker open: straight to fallback
        assert svc.publish(make_format(PARTICLE)) is None
        assert svc.metrics.value("fmtserv.server_unreachable") == 1  # no new dials

    def test_primary_recovers_after_holdoff(self):
        clock = FakeClock()
        server = FormatServer()
        calls = {"n": 0}

        def flaky_primary():
            calls["n"] += 1
            if calls["n"] == 1:
                from repro.net import TransportError

                raise TransportError("primary rebooting")
            return SyncServerLink(server)

        svc = FormatService(
            [flaky_primary, lambda: SyncServerLink(server)],
            cache=FormatCache(clock=clock),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=1),
            server_retry_s=5.0,
            clock=clock,
            sleep=no_sleep,
        )
        assert svc.publish(make_format(TELEMETRY)) == 1  # via the secondary
        assert svc.replica_states[0] == "open"
        clock.advance(6.0)
        assert svc.replica_states[0] == "half_open"  # trial call allowed
        assert svc.publish(make_format(PARTICLE)) == 2  # primary answers it
        assert svc.replica_states[0] == "closed"
        # And the success did not count as a failover: replica 0 answered.
        assert svc.metrics.value("fmtserv.failovers") == 1

    def test_single_connect_still_works_unlisted(self):
        # Back-compat: a bare Transport / dialer is a one-replica list.
        server = FormatServer()
        svc = make_service(server)
        assert svc.publish(make_format()) == 1
        assert svc.replica_states == ["closed"]


class TestDrain:
    def test_drain_and_stop_sends_goodbye(self):
        from repro.core import encoder as enc

        server = FormatServer()
        link = SyncServerLink(server)
        clock = FakeClock()
        svc = FormatService(
            link,
            cache=FormatCache(clock=clock),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter_seed=1),
            clock=clock,
            sleep=no_sleep,
        )
        assert svc.publish(make_format()) == 1  # establishes the link state
        server.drain_and_stop()
        assert server.stopped
        assert server._rpc.metrics.value("rpc.goodbyes_sent") == 1
        # The goodbye ping is sitting in the client's inbound pipe.
        goodbye = link._pipe.a.recv()
        kind = enc.unpack_header(goodbye)[0]
        assert kind == enc.MSG_PING
        nonce, _depth = enc.parse_ping(goodbye)
        assert nonce == enc.GOODBYE_NONCE

    def test_restart_clears_drain(self):
        server = FormatServer()
        server.drain_and_stop()
        assert server.stopped
        server.restart()
        assert not server.stopped
        svc = make_service(server)
        assert svc.publish(make_format()) == 1


class TestServeLoop:
    """The per-connection serving loop (``fmtserv_handler``) over TCP."""

    def serve(self, server, drive):
        front = AsyncServer(fmtserv_handler(server), once=True)
        host, port = front.bind()
        thread = threading.Thread(target=front.run, daemon=True)
        thread.start()
        peer = SocketTransport(socket.create_connection((host, port), timeout=10))
        try:
            drive(peer)
            thread.join(timeout=10)  # `once`: the loop ends with the connection
            assert not thread.is_alive(), "serving loop wedged"
        finally:
            peer.close()
            front.stop()

    def test_protocol_garbage_counted_then_connection_dropped(self):
        server = FormatServer()

        def drive(peer):
            with pytest.raises(TransportError):  # dropped, not wedged
                for _ in range(70):  # past MAX_CONSECUTIVE_PROTOCOL_ERRORS
                    peer.send(b"\xde\xad\xbe\xef")
                peer.recv()

        self.serve(server, drive)
        assert server.metrics.value("fmtserv.protocol_errors") == 64
        assert server.metrics.value("fmtserv.connections_dropped") == 1

    def test_peer_disconnect_ends_quietly(self):
        server = FormatServer()
        self.serve(server, lambda peer: peer.close())  # link failure → clean return
        assert server.metrics.value("fmtserv.protocol_errors") == 0
        assert server.metrics.value("fmtserv.connections_dropped") == 0
