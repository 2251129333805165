"""Async serving core: one event-loop process vs thread-per-connection.

ISSUE 6's tentpole claim: a single :class:`repro.net.aio.AsyncServer`
process multiplexes hundreds of connections with no per-connection
threads, and loses nothing to the thread-per-connection design it
replaces.  The workload echoes bursts of the paper's 1 KB records: every
frame crosses the kernel twice in each direction, through the buffered
framer one way and the bounded-queue vectored writer the other.

The baseline is the *replaced* design, faithfully: one thread per
connection running the per-frame ``recv``/``send`` serve loop of the
thread-per-connection ``EchoServer`` this repo once shipped (and of
every pre-async serve loop in it — ``RpcServer.serve_one``,
``FormatServer.serve``).  The async
side serves bursts with ``recv_many``/``send_many`` because batched
serving *is* part of the new design.  Both sides are driven by the same
client pump, which keeps a bounded window of connections in flight so
neither server is measured against an artificially jammed kernel buffer.

Gate (run in CI bench-smoke):

* one async echo process must sustain ``PBIO_BENCH_ASYNC_CLIENTS``
  (default 512) concurrent clients with aggregate records/sec at least
  ``PBIO_BENCH_ASYNC_MIN`` x (default 1.0) the thread-per-connection
  baseline serving ``PBIO_BENCH_ASYNC_BASE_CLIENTS`` (default 32).

Knobs: ``PBIO_BENCH_ASYNC_ROUNDS`` (default 4), ``PBIO_BENCH_ASYNC_BURST``
(default 16 frames per client per round), ``PBIO_BENCH_ASYNC_WINDOW``
(default 32 connections in flight) and ``PBIO_BENCH_ASYNC_REPS``
(default 3, best-of) tune the workload for slow CI.
"""

import os
import socket
import threading
import time

from repro.net import AsyncServer, SocketTransport, TransportError, echo_handler

PAYLOAD = b"\xa5" * 1024  # one of the paper's 1 KB records, opaque here


def _env_int(name: str, default: int) -> int:
    override = os.environ.get(name)
    return int(override) if override else default


def _async_clients() -> int:
    return _env_int("PBIO_BENCH_ASYNC_CLIENTS", 512)


def _base_clients() -> int:
    return _env_int("PBIO_BENCH_ASYNC_BASE_CLIENTS", 32)


def _rounds() -> int:
    return _env_int("PBIO_BENCH_ASYNC_ROUNDS", 4)


def _burst() -> int:
    return _env_int("PBIO_BENCH_ASYNC_BURST", 16)


def _window() -> int:
    return _env_int("PBIO_BENCH_ASYNC_WINDOW", 32)


def _reps() -> int:
    return _env_int("PBIO_BENCH_ASYNC_REPS", 3)


def _ratio_floor() -> float:
    override = os.environ.get("PBIO_BENCH_ASYNC_MIN")
    return float(override) if override else 1.0


class ThreadedEchoServer:
    """The design being replaced: one accept loop, one thread per
    connection, each blocking on its own socket in a per-frame
    ``recv``/``send`` loop."""

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(512)
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(30.0)
        transport = SocketTransport(conn)
        try:
            while True:
                transport.send(transport.recv())  # one frame in, one frame out
        except TransportError:
            pass
        finally:
            transport.close()

    def close(self) -> None:
        self._listener.close()
        self._accept_thread.join(timeout=5)


def _connect_all(address, count: int) -> list[SocketTransport]:
    clients = []
    for _ in range(count):
        sock = socket.create_connection(address, timeout=30.0)
        sock.settimeout(30.0)
        clients.append(SocketTransport(sock))
    return clients


def _pump(
    clients: list[SocketTransport], rounds: int, burst: int, window: int = 0
) -> float:
    """Drive every open connection through ``rounds`` echo bursts;
    returns aggregate records/sec.  A sliding window of ``window``
    connections (0 = all of them) holds in-flight traffic at once, so
    the server genuinely multiplexes — while bounding the bytes in
    flight to what kernel socket buffers absorb, so neither server
    design is measured through an artificial traffic jam."""
    frames = [PAYLOAD] * burst
    n = len(clients)
    if window <= 0 or window > n:
        window = n
    start = time.perf_counter()
    for _ in range(rounds):
        for i in range(n + window):
            if i < n:
                clients[i].send_many(frames)
            j = i - window
            if j >= 0:
                transport = clients[j]
                got = 0
                while got < burst:
                    got += len(transport.recv_many(burst - got))
    elapsed = time.perf_counter() - start
    return n * rounds * burst / elapsed


def _measure_threaded(n_clients: int, rounds: int, burst: int) -> float:
    server = ThreadedEchoServer()
    clients = _connect_all(server.address, n_clients)
    try:
        return max(
            _pump(clients, rounds, burst, _window()) for _ in range(_reps())
        )
    finally:
        for transport in clients:
            transport.close()
        server.close()


def _measure_async(n_clients: int, rounds: int, burst: int) -> tuple[float, int]:
    server = AsyncServer(echo_handler(), backlog=512)
    host, port = server.bind()
    loop_thread = threading.Thread(target=server.run, daemon=True)
    loop_thread.start()
    clients = _connect_all((host, port), n_clients)
    try:
        rate = max(
            _pump(clients, rounds, burst, _window()) for _ in range(_reps())
        )
        peak = server.active_connections
        return rate, peak
    finally:
        for transport in clients:
            transport.close()
        server.stop()
        loop_thread.join(timeout=10)


def test_shape_async_sustains_many_clients_at_baseline_rate():
    """ISSUE 6 acceptance gate: >= 512 concurrent clients on one event
    loop, aggregate records/sec >= the 32-thread baseline."""
    rounds, burst = _rounds(), _burst()
    baseline_rate = _measure_threaded(_base_clients(), rounds, burst)
    async_rate, peak = _measure_async(_async_clients(), rounds, burst)
    assert peak >= _async_clients(), (
        f"only {peak} connections concurrently open (need {_async_clients()})"
    )
    floor = _ratio_floor()
    assert async_rate >= baseline_rate * floor, (
        f"async @ {_async_clients()} clients: {async_rate:,.0f} rec/s < "
        f"{floor:.2f}x threaded @ {_base_clients()} clients: "
        f"{baseline_rate:,.0f} rec/s"
    )


def test_shape_async_echo_is_byte_faithful():
    """The gate only counts if every record comes back bit-identical."""
    server = AsyncServer(echo_handler())
    host, port = server.bind()
    loop_thread = threading.Thread(target=server.run, daemon=True)
    loop_thread.start()
    try:
        with SocketTransport(
            socket.create_connection((host, port), timeout=10.0)
        ) as transport:
            frames = [bytes([i % 256]) * (1 + i * 37 % 2048) for i in range(64)]
            transport.send_many(frames)
            got = []
            while len(got) < len(frames):
                got.extend(transport.recv_many(len(frames) - len(got)))
            assert got == frames
    finally:
        server.stop()
        loop_thread.join(timeout=10)


def test_bench_async_echo_small_fleet(benchmark):
    """Tracked number: one echo round over 8 async-served connections."""
    server = AsyncServer(echo_handler(), backlog=64)
    host, port = server.bind()
    loop_thread = threading.Thread(target=server.run, daemon=True)
    loop_thread.start()
    clients = _connect_all((host, port), 8)
    benchmark.group = "async echo serving"
    try:
        benchmark(_pump, clients, 1, _burst())
    finally:
        for transport in clients:
            transport.close()
        server.stop()
        loop_thread.join(timeout=10)
