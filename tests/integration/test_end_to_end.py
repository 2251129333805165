"""Integration tests: full stacks over in-memory pipes and real sockets."""

import threading

import pytest

from repro.abi import ALPHA, SPARC_V8, X86, CType, FieldDecl, RecordSchema, codec_for, layout_record, records_equal
from repro.core import IOContext, PbioConnection
from repro.net import InMemoryPipe, loopback_pair
from repro.wire.network import SimulatedLink
from repro.wire import IiopWire, MpiWire, PbioWire, XdrWire, XmlWire
from repro.workloads import mechanical as m
from repro.workloads.generators import record_stream


def schema(*pairs, name="rec"):
    return RecordSchema.from_pairs(name, list(pairs))


class TestPbioConnectionOverPipe:
    def test_announcement_is_automatic_and_once(self):
        pipe = InMemoryPipe()
        tx = PbioConnection(IOContext(X86), pipe.a)
        rx = PbioConnection(IOContext(SPARC_V8), pipe.b)
        sch = schema(("i", "int"), ("d", "double"))
        h = tx.ctx.register_format(sch)
        rx.ctx.expect(sch)
        for i in range(3):
            tx.send(h, {"i": i, "d": i * 0.5})
        # 1 announcement + 3 data messages on the wire
        assert pipe.a.messages_sent == 4
        for i in range(3):
            assert rx.recv() == {"i": i, "d": i * 0.5}
        assert rx.ctx.registry.announcements_received == 1

    def test_multiple_formats_interleaved(self):
        pipe = InMemoryPipe()
        tx = PbioConnection(IOContext(X86), pipe.a)
        rx = PbioConnection(IOContext(X86), pipe.b)
        s1, s2 = schema(("a", "int"), name="r1"), schema(("b", "double"), name="r2")
        h1, h2 = tx.ctx.register_format(s1), tx.ctx.register_format(s2)
        rx.ctx.expect(s1)
        rx.ctx.expect(s2)
        tx.send(h1, {"a": 1})
        tx.send(h2, {"b": 2.0})
        tx.send(h1, {"a": 3})
        assert rx.recv() == {"a": 1}
        assert rx.recv() == {"b": 2.0}
        assert rx.recv() == {"a": 3}

    def test_zero_copy_view_over_pipe_homogeneous(self):
        pipe = InMemoryPipe()
        tx = PbioConnection(IOContext(ALPHA), pipe.a)
        rx = PbioConnection(IOContext(ALPHA), pipe.b)
        sch = schema(("x", "double"))
        h = tx.ctx.register_format(sch)
        rx.ctx.expect(sch)
        tx.send(h, {"x": 4.5})
        view = rx.recv_view()
        assert view.x == 4.5
        assert rx.ctx.stats.zero_copy_decodes == 1


class TestPbioOverRealSockets:
    def test_heterogeneous_stream_over_tcp(self):
        client_t, server_t = loopback_pair()
        sch = m.schema_for_size("1kb")
        records = list(record_stream(sch, count=5, seed=7))
        received = []

        def serve():
            rx = PbioConnection(IOContext(SPARC_V8), server_t)
            rx.ctx.expect(sch)
            for _ in records:
                received.append(rx.recv())

        thread = threading.Thread(target=serve)
        thread.start()
        tx = PbioConnection(IOContext(X86), client_t)
        h = tx.ctx.register_format(sch)
        for rec in records:
            tx.send(h, rec)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(received) == 5
        for want, got in zip(records, received):
            assert records_equal(want, got, rel_tol=1e-5)
        client_t.close()
        server_t.close()

    def test_type_extension_over_tcp(self):
        client_t, server_t = loopback_pair()
        old = schema(("i", "int"), ("d", "double"))
        new = old.extended("rec", [FieldDecl("extra", CType.DOUBLE)])
        result = {}

        def serve():
            rx = PbioConnection(IOContext(X86), server_t)
            rx.ctx.expect(old)  # un-upgraded receiver
            result["rec"] = rx.recv()

        thread = threading.Thread(target=serve)
        thread.start()
        tx = PbioConnection(IOContext(SPARC_V8), client_t)
        h = tx.ctx.register_format(new)  # upgraded sender
        tx.send(h, {"i": 1, "d": 2.0, "extra": 3.0})
        thread.join(timeout=10)
        assert result["rec"] == {"i": 1, "d": 2.0}
        client_t.close()
        server_t.close()


class TestAllSystemsOverSockets:
    @pytest.mark.parametrize(
        "system_factory",
        [MpiWire, XmlWire, IiopWire, XdrWire, PbioWire, lambda: PbioWire("interpreted")],
    )
    def test_wire_messages_survive_tcp(self, system_factory):
        system = system_factory()
        sch = m.schema_for_size("100b")
        src, dst = layout_record(sch, X86), layout_record(sch, SPARC_V8)
        bound = system.bind(src, dst)
        rec = m.sample_record("100b", seed=11)
        native = codec_for(src).encode(rec)
        client_t, server_t = loopback_pair()
        try:
            client_t.send(bound.encode(native))
            out = codec_for(dst).decode(bound.decode(server_t.recv()))
            assert records_equal(rec, out, rel_tol=1e-5)
        finally:
            client_t.close()
            server_t.close()


class TestSimulatedLinkRoundTrip:
    def test_pbio_roundtrip_accumulates_modelled_time(self):
        link = SimulatedLink()
        tx = PbioConnection(IOContext(X86), link.a)
        rx = PbioConnection(IOContext(SPARC_V8), link.b)
        sch = schema(("x", "double[100]"))
        h = tx.ctx.register_format(sch)
        rx.ctx.expect(sch)
        tx.send(h, {"x": tuple(float(i) for i in range(100))})
        rec = rx.recv()
        assert rec["x"][99] == 99.0
        assert link.a.wire_time_s > 0
        # Announcement + data message both crossed the link.
        assert link.a.bytes_sent > 800

    def test_wire_sizes_rank_as_expected(self):
        # XML >> XDR/MPI packed ~= CDR < PBIO (native incl. padding).
        sch = m.schema_for_size("1kb")
        src = layout_record(sch, X86)
        native = m.native_bytes("1kb", X86)
        sizes = {}
        for system in (MpiWire(), XmlWire(), IiopWire(), PbioWire()):
            bound = system.bind(src, src)
            sizes[system.name] = len(bound.encode(native))
        assert sizes["XML"] > 2 * sizes["MPICH"]
        assert abs(sizes["PBIO"] - (len(native) + 16)) <= 16
