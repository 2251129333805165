"""Tests for RPC over PBIO."""

import pytest

from repro.net.transport import Transport
from repro.abi import ALPHA, SPARC_V8, X86, CType, FieldDecl, RecordSchema
from repro.core import encoder as enc
from repro.core import RpcClient, RpcFault, RpcInterface, RpcOperation, RpcServer
from repro.net import InMemoryPipe

ADD_REQ = RecordSchema.from_pairs("add_req", [("a", "double"), ("b", "double")])
ADD_REP = RecordSchema.from_pairs("add_rep", [("total", "double")])
NORM_REQ = RecordSchema.from_pairs("norm_req", [("v", "double[8]"), ("n", "int")])
NORM_REP = RecordSchema.from_pairs("norm_rep", [("norm", "double")])

CALC = RpcInterface(
    "Calculator",
    [
        RpcOperation("add", ADD_REQ, ADD_REP),
        RpcOperation("norm", NORM_REQ, NORM_REP),
    ],
)


def make_pair(client_machine=X86, server_machine=SPARC_V8, interface=CALC):
    pipe = InMemoryPipe()
    client = RpcClient(client_machine, interface)
    server = RpcServer(server_machine, interface)

    def add(req):
        return {"total": req["a"] + req["b"]}

    def norm(req):
        values = list(req["v"])[: req["n"]]
        return {"norm": sum(x * x for x in values) ** 0.5}

    server.register(b"calc", {"add": add, "norm": norm})

    class SyncTransport(Transport):
        """Client-side transport that runs the server synchronously."""

        def send(self, data):
            pipe.a.send(data)

        def recv(self):
            # Let the server consume everything queued and reply first.
            while pipe.b.pending() and not pipe.a.pending():
                server.serve_one(pipe.b)
            return pipe.a.recv()

        def close(self):
            pass

    return client, SyncTransport()


class TestRpc:
    def test_simple_call(self):
        client, transport = make_pair()
        assert client.invoke(transport, b"calc", "add", {"a": 2.0, "b": 3.0}) == {"total": 5.0}

    def test_heterogeneous_call_with_arrays(self):
        client, transport = make_pair(X86, ALPHA)
        result = client.invoke(
            transport, b"calc", "norm", {"v": (3.0, 4.0, 0, 0, 0, 0, 0, 0), "n": 2}
        )
        assert result == {"norm": 5.0}

    def test_repeated_calls_announce_once(self):
        client, transport = make_pair()
        sent = []
        send = transport.send
        transport.send = lambda data: (sent.append(bytes(data)), send(data))[1]
        for i in range(4):
            client.invoke(transport, b"calc", "add", {"a": float(i), "b": 1.0})
        # one request-format announcement total (per transport)
        assert [enc.try_message_type(m) for m in sent].count(enc.MSG_FORMAT) == 1
        # and the server generated exactly one converter for add_req
        # (cached across calls)

    def test_unknown_object_faults(self):
        client, transport = make_pair()
        with pytest.raises(RpcFault, match="no object"):
            client.invoke(transport, b"nope", "add", {"a": 1.0, "b": 1.0})

    def test_servant_missing_operation_faults(self):
        # 'norm' is in the interface but this servant doesn't implement it.
        pipe = InMemoryPipe()
        client = RpcClient(X86, CALC)
        server = RpcServer(SPARC_V8, CALC)
        server.register(b"calc", {"add": lambda r: {"total": r["a"] + r["b"]}})

        class SyncTransport(Transport):
            def send(self, data):
                pipe.a.send(data)

            def recv(self):
                while pipe.b.pending() and not pipe.a.pending():
                    server.serve_one(pipe.b)
                return pipe.a.recv()

            def close(self):
                pass

        with pytest.raises(RpcFault, match="no operation"):
            client.invoke(SyncTransport(), b"calc", "norm", {"v": (0.0,) * 8, "n": 1})

    def test_operation_not_in_interface_rejected_client_side(self):
        from repro.core import PbioError

        client, transport = make_pair()
        with pytest.raises(PbioError, match="no operation"):
            client.invoke(transport, b"calc", "frobnicate", {})


class TestRpcEvolution:
    def test_upgraded_client_older_server(self):
        """An IDL-stub system would reject this outright: the client's
        request record gained a field the server has never heard of."""
        new_req = ADD_REQ.extended("add_req", [FieldDecl("precision", CType.INT)])
        new_iface = RpcInterface(
            "Calculator", [RpcOperation("add", new_req, ADD_REP)]
        )
        # Server still speaks the OLD interface.
        pipe = InMemoryPipe()
        client = RpcClient(X86, new_iface)
        server = RpcServer(SPARC_V8, CALC)
        server.register(b"calc", {"add": lambda r: {"total": r["a"] + r["b"]}})

        class SyncTransport(Transport):
            def send(self, data):
                pipe.a.send(data)

            def recv(self):
                while pipe.b.pending() and not pipe.a.pending():
                    server.serve_one(pipe.b)
                return pipe.a.recv()

            def close(self):
                pass

        result = client.invoke(
            SyncTransport(), b"calc", "add", {"a": 1.0, "b": 2.0, "precision": 9}
        )
        assert result == {"total": 3.0}

    def test_duplicate_operations_rejected(self):
        from repro.core import PbioError

        with pytest.raises(PbioError, match="duplicate"):
            RpcInterface(
                "X",
                [RpcOperation("f", ADD_REQ, ADD_REP), RpcOperation("f", ADD_REQ, ADD_REP)],
            )
