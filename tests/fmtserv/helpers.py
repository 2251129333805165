"""Shared fixtures for the format-service suite.

The server runs *synchronously* under the client: a
:class:`SyncServerLink` is a client-side transport whose ``recv`` lets
the in-process :class:`~repro.fmtserv.FormatServer` drain the request
pipe and reply first — the same single-threaded idiom the RPC tests
use.  Fault tests wrap this link in a
:class:`~repro.net.FaultInjectingTransport`; a request the faults eat
leaves the reply pipe empty, so ``recv`` raises
:class:`~repro.net.TransportError` exactly like a timed-out socket.
"""

from repro.core import PbioError
from repro.net import InMemoryPipe, Transport


class SyncServerLink(Transport):
    """Client transport that serves a FormatServer synchronously."""

    def __init__(self, server):
        self._pipe = InMemoryPipe()
        self._server = server
        self.closed = False

    def send(self, data):
        self._pipe.a.send(data)

    def recv(self):
        while self._pipe.b.pending() and not self._pipe.a.pending():
            try:
                self._server.serve_one(self._pipe.b)
            except PbioError:
                # What FormatServer.serve does on a real socket: count
                # the damage, keep the connection.
                self._server.metrics.inc("fmtserv.protocol_errors")
        return self._pipe.a.recv()

    def set_timeout(self, timeout_s):
        pass  # synchronous: nothing ever blocks

    def close(self):
        self.closed = True


class FakeClock:
    """Injectable monotonic/epoch clock for deterministic sweeps."""

    def __init__(self, t: float = 1_000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def no_sleep(_s: float) -> None:
    pass
