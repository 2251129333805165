"""Deterministic network model calibrated to the paper's testbed.

The paper's machines sit on 100 Mbps Ethernet; Figure 1 reports one-way
network times of 0.227 ms (100 B), 0.345 ms (1 KB), 1.94 ms (10 KB) and
15.39 ms (100 KB).  A two-parameter affine model ``t = latency +
bytes/effective_bandwidth`` fitted to the 100 B and 100 KB points gives
latency ≈ 0.212 ms and effective bandwidth ≈ 6.75 MB/s (≈ 54 Mbps — about
half the wire rate, which is typical for 1999-era TCP on 100 Mbps
Ethernet) and predicts the intermediate sizes within ~11 %.

The model also carries a fixed per-receive kernel overhead standing in for
the ``select()`` cost the paper calls out ("for smaller record sizes, most
of the cost of receiving data is actually caused by the overhead of the
kernel select() call", Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.transport import InMemoryPipe, Transport

#: Calibration from Figure 1 (see module docstring).
PAPER_LATENCY_S = 0.212e-3
PAPER_BYTES_PER_S = 6.75e6
PAPER_SELECT_OVERHEAD_S = 0.05e-3


@dataclass(frozen=True)
class NetworkModel:
    """Affine one-way transfer-time model."""

    latency_s: float = PAPER_LATENCY_S
    bytes_per_s: float = PAPER_BYTES_PER_S
    select_overhead_s: float = PAPER_SELECT_OVERHEAD_S

    def one_way_s(self, nbytes: int) -> float:
        """Modelled one-way delivery time for a message of ``nbytes``."""
        return self.latency_s + nbytes / self.bytes_per_s

    def receive_overhead_s(self) -> float:
        """Fixed receiver-side kernel overhead per message."""
        return self.select_overhead_s

    @classmethod
    def ethernet_100mbps(cls) -> "NetworkModel":
        """The paper-calibrated model (default construction)."""
        return cls()

    @classmethod
    def ideal(cls) -> "NetworkModel":
        """Zero-cost network: isolates CPU costs in composed results."""
        return cls(latency_s=0.0, bytes_per_s=float("inf"), select_overhead_s=0.0)


class SimulatedLink:
    """A duplex link over :class:`InMemoryPipe` that *accounts* modelled
    network time instead of sleeping.

    Each endpoint accumulates ``clock_s``, the virtual time its messages
    spent on the wire.  Benchmarks compose this with measured CPU times to
    produce Figure 1/5-style breakdowns without multi-second sleeps.
    """

    def __init__(self, model: NetworkModel | None = None):
        self.model = model or NetworkModel()
        pipe = InMemoryPipe()
        self.a = SimulatedEndpoint(pipe.a, self.model)
        self.b = SimulatedEndpoint(pipe.b, self.model)

    def endpoints(self) -> tuple["SimulatedEndpoint", "SimulatedEndpoint"]:
        return self.a, self.b


class SimulatedEndpoint(Transport):
    """Transport endpoint that tracks modelled wire time per message."""

    def __init__(self, pipe_end, model: NetworkModel):
        self._pipe = pipe_end
        self.model = model
        self.wire_time_s = 0.0
        self.recv_overhead_s = 0.0

    def send(self, payload) -> None:
        self.wire_time_s += self.model.one_way_s(len(payload))
        self._pipe.send(payload)

    def recv(self) -> bytes:
        data = self._pipe.recv()
        self.recv_overhead_s += self.model.receive_overhead_s()
        return data

    def pending(self) -> int:
        return self._pipe.pending()

    def poll_recv(self) -> bytes | None:
        return self.recv() if self._pipe.pending() else None

    @property
    def bytes_sent(self) -> int:
        return self._pipe.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._pipe.bytes_received

    def close(self) -> None:
        self._pipe.close()


def paper_network_times_ms() -> dict[str, float]:
    """The paper's measured one-way network times (Figure 1), for
    benchmark tables that quote paper-vs-model."""
    return {"100b": 0.227, "1kb": 0.345, "10kb": 1.94, "100kb": 15.39}
