"""The link plane: what an endpoint does with every kind of frame a peer
may interleave on one link, and what it keeps per link.

* a sequenced frame is data and an ack is link control at every receive
  entry point (``ENDPOINT_ROWS`` has a cell per kind, no default, no
  fall-through that parses "everything else" as a format request);
* the state kept per link — formats announced, negotiator, reply window —
  is the same size after ten times more links have come and gone.
"""

import gc
import weakref

import pytest

from repro.abi import SPARC_V8, X86, X86_64, RecordSchema
from repro.core import IOContext, PbioConnection, RpcClient, RpcInterface, RpcOperation, RpcServer
from repro.core import encoder as enc
from repro.core.negotiation import ENDPOINT_ROWS, Announcer
from repro.net import InMemoryPipe, TransportError, loopback_pair
from repro.net.transport import Transport

TELEMETRY = RecordSchema.from_pairs("telemetry", [("unit", "int"), ("temperature", "double")])
RECORDS = [{"unit": k, "temperature": 100.0 + k} for k in range(6)]
CID = 0x51DE

ADD_REQ = RecordSchema.from_pairs("add_req", [("a", "double"), ("b", "double")])
ADD_REP = RecordSchema.from_pairs("add_rep", [("total", "double")])
CALC = RpcInterface("Calculator", [RpcOperation("add", ADD_REQ, ADD_REP)])

LINKS = {"pipe": lambda: InMemoryPipe().endpoints(), "socket": lambda: loopback_pair(timeout_s=0.2)}


class Peer:
    """The sending end: frames built by hand, so a burst can hold anything."""

    def __init__(self, link):
        self.a, self.b = LINKS[link]()
        self.ctx = IOContext(X86_64, context_id=CID)
        self.handle = self.ctx.register_format(TELEMETRY)
        self.fid = self.handle.format_id
        self.seq = 0
        self.rx = IOContext(SPARC_V8)
        self.rx.expect(TELEMETRY)
        self.receiver = PbioConnection(self.rx, self.b)

    def plain(self, record):
        return enc.encode_data_message(CID, self.fid, self.handle.codec.encode(record))

    def sequenced(self, record):
        self.seq += 1
        return enc.encode_data_seq(CID, self.fid, self.seq, self.handle.codec.encode(record))

    def ack(self):
        return enc.encode_ack(CID, self.fid, self.seq)

    def interleaved(self):
        """Announcement, then plain / sequenced / ack, every record both ways."""
        frames = [self.ctx.announce(self.handle)]
        for record in RECORDS:
            frames += [self.plain(record), self.sequenced(record), self.ack()]
        return frames

    def close(self):
        self.a.close()
        self.b.close()


@pytest.fixture(params=sorted(LINKS))
def peer(request):
    peer = Peer(request.param)
    yield peer
    peer.close()


def twice(records):
    return [pytest.approx(r) for r in records for _ in (0, 1)]


class TestSequencedFramesAreData:
    """Defect (1): ``recv()`` on a ``MSG_DATA_SEQ`` frame raised
    ``expected a format request, got type 7`` (8 for an ack)."""

    def test_recv(self, peer):
        peer.a.send_many(peer.interleaved())
        assert [peer.receiver.recv() for _ in range(2 * len(RECORDS))] == twice(RECORDS)
        self.acks_counted_and_dropped(peer)

    def test_recv_view(self, peer):
        peer.a.send_many(peer.interleaved())
        views = [peer.receiver.recv_view() for _ in range(2 * len(RECORDS))]
        assert [view.to_dict() for view in views] == twice(RECORDS)
        natives = [bytes(view.buffer) for view in views]
        assert natives[0::2] == natives[1::2]  # the sequenced record, byte for byte the plain one
        self.acks_counted_and_dropped(peer)

    @pytest.mark.parametrize("lend", [False, True])
    def test_recv_batch(self, peer, lend):
        peer.a.send_many(peer.interleaved())
        got = []
        while len(got) < 2 * len(RECORDS):
            got += peer.receiver.recv_batch(lend=lend)
        assert [g.to_dict() if lend else g for g in got] == twice(RECORDS)
        self.acks_counted_and_dropped(peer)

    def test_recv_batch_of_data_only_decodes_where_it_lies(self, peer):
        """Plain and sequenced frames alone are the steady state: no frame
        goes through the negotiator."""
        peer.a.send(peer.ctx.announce(peer.handle))
        peer.a.send(peer.plain(RECORDS[0]))
        assert peer.receiver.recv() == pytest.approx(RECORDS[0])
        offered = []
        peer.receiver._negotiator.offer = lambda *a, **k: offered.append(a)
        peer.a.send_many([f(r) for r in RECORDS for f in (peer.plain, peer.sequenced)])
        got = []
        while len(got) < 2 * len(RECORDS):
            got += peer.receiver.recv_batch()
        assert got == twice(RECORDS) and offered == []

    def acks_counted_and_dropped(self, peer):
        peer.receiver.poll()  # the last ack lies behind the last record
        assert peer.rx.metrics.value("link.acks_dropped") == len(RECORDS)
        assert peer.rx.metrics.value("decode.rejected") == 0

    def test_rpc_client_filter_path(self, peer):
        """``RpcClient._recv_frame``: data frames — plain or sequenced —
        come out as they went in, in order; the ack is nobody's frame."""
        client = RpcClient(SPARC_V8, CALC)
        frames = peer.interleaved()
        peer.a.send_many(frames)
        data = [f for f in frames if enc.try_message_type(f) in (enc.MSG_DATA, enc.MSG_DATA_SEQ)]
        assert [client._recv_frame(peer.b)[0] for _ in data] == data
        assert client.ctx.metrics.value("link.acks_dropped") == len(RECORDS) - 1  # the last is still queued

    def test_unresolved_token_holds_sequenced_frames_like_plain_ones(self, peer):
        token = enc.encode_token_message(CID, peer.fid, peer.handle.iofmt.fingerprint, 7)
        held = [f(r) for r in RECORDS[:3] for f in (peer.plain, peer.sequenced)]
        peer.a.send_many([token] + held + [peer.ack()])
        with pytest.raises(TransportError):  # nothing decodable yet: the link runs dry
            peer.receiver.recv()
        assert peer.rx.metrics.value("fmtserv.messages_held") == len(held)
        assert enc.try_message_type(peer.a.recv()) == enc.MSG_FORMAT_REQUEST
        peer.a.send(peer.ctx.announce(peer.handle))  # the inline answer
        assert [peer.receiver.recv() for _ in held] == twice(RECORDS[:3])
        assert peer.rx.metrics.value("fmtserv.messages_released") == len(held)
        assert peer.rx.metrics.value("link.acks_dropped") == 1

    def test_offer_has_a_row_per_kind_and_no_default(self):
        assert set(ENDPOINT_ROWS) == enc.MESSAGE_TYPES | {None} and enc.MESSAGE_TYPES == set(range(1, 9))


# -- defect (3): per-link state is released with the link ------------------------


class Loop(Transport):
    """A client-side link that runs ``server`` synchronously on its far end."""

    def __init__(self, server):
        self.pipe, self.server = InMemoryPipe(), server

    def send(self, data):
        self.pipe.a.send(data)

    def recv(self):
        while self.pipe.b.pending() and not self.pipe.a.pending():
            self.server.serve_one(self.pipe.b)
        return self.pipe.a.recv()

    def close(self):
        pass


def per_link_sizes(*endpoints):
    """``len()`` of every container an endpoint (or what it keeps in
    ``repro.core.negotiation``) holds — found by walking, so the table is
    not a list this test must be told about."""
    sizes, seen, todo = {}, set(), [(type(e).__name__, e) for e in endpoints]
    while todo:
        path, obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for name, value in vars(obj).items():
            if isinstance(value, (dict, set, list, weakref.WeakKeyDictionary)):
                sizes[f"{path}.{name}"] = len(value)
            elif type(value).__module__ == "repro.core.negotiation" and hasattr(value, "__dict__"):
                todo.append((f"{path}.{name}", value))
    return sizes


class TestLinkStateIsReleasedWithTheLink:
    def serve_links(self, client, server, n):
        for k in range(n):
            link = Loop(server)
            assert client.invoke(link, b"calc", "add", {"a": float(k), "b": 1.0}) == {"total": k + 1.0}
            del link  # dropped after one call
        gc.collect()  # (a pipe's two ends refer to each other)

    def test_rpc_endpoints_after_n_and_after_ten_n_links(self):
        server, client = RpcServer(SPARC_V8, CALC), RpcClient(X86, CALC)
        server.register(b"calc", {"add": lambda r: {"total": r["a"] + r["b"]}})
        self.serve_links(client, server, 10)
        after_n = per_link_sizes(server, client)
        self.serve_links(client, server, 100)
        assert per_link_sizes(server, client) == after_n
        assert len(after_n) >= 6  # the walk found the tables it is about

    def test_one_long_lived_announcer(self):
        ctx = IOContext(X86)
        handle = ctx.register_format(TELEMETRY)
        announcer = Announcer(ctx)

        def announce(n):
            for _ in range(n):
                end = InMemoryPipe().a
                announcer.ensure_announced(end, handle)
                assert end.messages_sent == 1
                del end
            gc.collect()
            return per_link_sizes(announcer)

        assert announce(10) == announce(100)
