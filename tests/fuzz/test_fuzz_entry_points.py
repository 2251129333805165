"""Deterministic mutation fuzzing of every decode entry point.

The invariant under test (ISSUE 3 tentpole): feeding mutated or
arbitrary bytes into any PBIO ingress — meta parser, context receive,
the three decode forms, the file reader, RPC serving, relay forwarding —
either succeeds or raises an exception from the PBIO taxonomy.  A
``struct.error``, ``IndexError``, ``UnicodeDecodeError`` or unbounded
allocation escaping any of these is a bug.
"""

import io

import pytest

from repro.core import (
    DecodeLimits,
    IOContext,
    IOFormat,
    PbioError,
    RpcError,
    RpcInterface,
    RpcOperation,
    RpcServer,
    generic_decode,
)
from repro.core import encoder as enc
from repro.core.files import PbioFileReader, file_to_buffer
from repro.abi import SPARC_V8, X86, RecordSchema
from repro.net import InMemoryPipe, Relay, TransportError

from .common import (
    RECORD,
    SCHEMA,
    fresh_receiver,
    mutate,
    mutations,
    rng_for,
    sender_messages,
)

N = 200  # mutations per entry point; fast (<1 s each) but broad


class TestMetaParser:
    def test_mutated_meta_only_raises_pbio_errors(self):
        announce, _ = sender_messages()
        meta = bytes(announce[16:])
        for blob in mutations("meta", meta, N):
            try:
                IOFormat.from_meta_bytes(blob)
            except PbioError:
                pass

    def test_random_bytes_only_raise_pbio_errors(self):
        rng = rng_for("meta-random")
        for _ in range(N):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            try:
                IOFormat.from_meta_bytes(blob)
            except PbioError:
                pass


class TestContextReceive:
    def test_mutated_announce(self):
        announce, _ = sender_messages()
        for blob in mutations("announce", bytes(announce), N):
            receiver = fresh_receiver()
            try:
                receiver.receive(blob)
            except PbioError:
                pass

    def test_mutated_data_message(self):
        announce, message = sender_messages()
        receiver = fresh_receiver()
        receiver.receive(announce)
        for blob in mutations("data", bytes(message), N):
            try:
                receiver.receive(blob)
            except PbioError:
                pass

    def test_all_decode_forms(self):
        announce, message = sender_messages()
        receiver = fresh_receiver()
        receiver.receive(announce)
        decoders = (receiver.decode, receiver.decode_native, receiver.decode_view)
        for i, blob in enumerate(mutations("decode-forms", bytes(message), N)):
            try:
                decoders[i % 3](blob)
            except PbioError:
                pass


class TestGenericDecode:
    def test_mutated_frames_never_leak_stdlib_errors(self):
        """Reflection's decode admits a frame like every other decode: a
        mutated data message — fixed or string-bearing, plain or sequenced
        — decodes or raises from the PBIO taxonomy."""
        sender = IOContext(X86)
        stringy = sender.register_format(RecordSchema.from_pairs("tagged", [("n", "int"), ("tag", "string")]))
        receiver = IOContext(SPARC_V8)  # expects nothing: the wire format is the target
        announce, message = sender_messages()
        receiver.receive(announce)
        receiver.receive(sender.announce(stringy))
        tagged = sender.encode(stringy, {"n": 3, "tag": "a tag"})
        sequenced = enc.encode_data_seq(sender.context_id, stringy.format_id, 1, tagged[enc.HEADER_SIZE :])
        for stream, frame in (("generic", message), ("generic-string", tagged), ("generic-seq", sequenced)):
            for blob in mutations(stream, bytes(frame), N):
                try:
                    generic_decode(receiver, blob)
                except PbioError:
                    pass


class TestFileReader:
    def _blob(self):
        return file_to_buffer(IOContext(X86), SCHEMA, [RECORD] * 3)

    def test_mutated_file_raise_policy(self):
        blob = self._blob()
        for mutated in mutations("file-raise", blob, N):
            ctx = fresh_receiver()
            try:
                list(PbioFileReader(ctx, io.BytesIO(mutated)))
            except PbioError:
                pass

    def test_mutated_file_skip_policy_never_raises_past_header(self):
        """With recover="skip", damage ends or thins iteration — it never
        raises once the file header was accepted."""
        blob = self._blob()
        for mutated in mutations("file-skip", blob, N):
            ctx = fresh_receiver()
            try:
                reader = PbioFileReader(ctx, io.BytesIO(mutated), recover="skip")
            except PbioError:
                continue  # damaged file header: rejected at open
            list(reader)  # must not raise


_REQ = RecordSchema.from_pairs("fz_req", [("x", "double")])
_REP = RecordSchema.from_pairs("fz_rep", [("y", "double")])
_IFACE = RpcInterface("Fuzz", [RpcOperation("echo", _REQ, _REP)])


class TestRpcServer:
    def test_mutated_frames_never_leak_stdlib_errors(self):
        """serve_one on a mutated frame stream: succeeds, or raises from
        the PBIO/RPC/transport taxonomies only."""
        from repro.core.rpc import _call_header

        header = _call_header(1, reply=False, fault=False, operation="echo", key=b"obj")
        client = IOContext(X86)
        handle = client.register_format(_REQ)
        frames = [
            bytes(client.announce(handle)),
            bytes(header),
            bytes(client.encode(handle, {"x": 2.0})),
        ]
        rng = rng_for("rpc")
        for case in range(N):
            server = RpcServer(SPARC_V8, _IFACE)
            server.register(b"obj", {"echo": lambda r: {"y": r["x"]}})
            pipe = InMemoryPipe()
            victim = rng.randrange(len(frames))
            for i, frame in enumerate(frames):
                blob = frame
                if i == victim:
                    for _ in range(rng.randrange(1, 4)):
                        blob = mutate(rng, blob)
                pipe.a.send(blob)
            try:
                server.serve_one(pipe.b)
            except (PbioError, RpcError, TransportError):
                pass


class TestRelay:
    def test_forward_never_raises(self):
        """The relay is an intermediary: damaged frames are dropped and
        counted, never raised into the pump loop."""
        announce, message = sender_messages()
        relay = Relay()
        downstream = InMemoryPipe()
        relay.attach(downstream.a)
        for blob in mutations("relay", bytes(announce) + bytes(message), N):
            relay.forward(blob)  # must not raise
        assert relay.metrics.value("relay.rejected") > 0


class TestResourceLimits:
    def test_oversized_message_rejected_before_decode(self):
        from repro.core import LimitError

        announce, message = sender_messages()
        receiver = IOContext(SPARC_V8, limits=DecodeLimits(max_message_size=64))
        receiver.expect(SCHEMA)
        with pytest.raises(LimitError):
            receiver.receive(bytes(message) + b"\0" * 128)

    def test_field_count_bomb_rejected(self):
        import struct

        # A meta block declaring 65535 fields backed by no data.
        bomb = b"PBFM" + b"\0\0" + struct.pack(">IH", 8, 1) + b"f" + struct.pack(">H", 0xFFFF)
        with pytest.raises(PbioError):
            IOFormat.from_meta_bytes(bomb)
