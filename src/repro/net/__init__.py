"""Network substrate: transports, the paper-calibrated network model, real
loopback sockets, the async event-loop serving core, and round-trip cost
accounting."""

from .transport import (
    FrameBuffer,
    InMemoryPipe,
    PeerClosedError,
    PeerUnresponsive,
    Transport,
    TransportError,
    TransportTimeout,
    WriteQueueFull,
)
from .health import (
    CircuitBreaker,
    HeartbeatMonitor,
    ProbePolicy,
)
from ..core.negotiation import send_goodbye
from .aio import (
    AsyncServer,
    AsyncSocketTransport,
    channel_handler,
    drain,
    echo_handler,
    fmtserv_handler,
    relay_handler,
    rpc_handler,
    serve_rpc_call,
)
from .faults import (
    FaultInjectingTransport,
    FaultPlan,
    ReconnectingTransport,
    RetryPolicy,
)
from .simulated import (
    NetworkModel,
    SimulatedEndpoint,
    SimulatedLink,
    paper_network_times_ms,
)
from .shm import (
    ShmRingTransport,
    attach_endpoint,
    auto_connect,
    create_endpoint,
    shm_pair,
)
from .sockets import SocketTransport, loopback_pair
from .timing import LegCost, RoundTripCost, TimingTable, VirtualClock, best_of, calibrated_inner
from .channel import ChannelPublisher, EventChannel, SubscriberStats, Subscription, WireTap
from .relay import Downstream, Relay
from .fabric import (
    EdgeSubscription,
    FabricDispatcher,
    FabricError,
    HashRing,
    RelayWorker,
    fabric_handler,
)
from .durable import (
    AckCursorStore,
    DurablePublisher,
    DurableSubscription,
    PublisherWAL,
    SequenceWindow,
)

__all__ = [
    "Transport",
    "TransportError",
    "TransportTimeout",
    "PeerClosedError",
    "PeerUnresponsive",
    "WriteQueueFull",
    "HeartbeatMonitor",
    "ProbePolicy",
    "CircuitBreaker",
    "send_goodbye",
    "FrameBuffer",
    "InMemoryPipe",
    "AsyncServer",
    "AsyncSocketTransport",
    "serve_rpc_call",
    "drain",
    "rpc_handler",
    "fmtserv_handler",
    "relay_handler",
    "channel_handler",
    "echo_handler",
    "FaultPlan",
    "FaultInjectingTransport",
    "RetryPolicy",
    "ReconnectingTransport",
    "NetworkModel",
    "SimulatedLink",
    "SimulatedEndpoint",
    "paper_network_times_ms",
    "SocketTransport",
    "loopback_pair",
    "ShmRingTransport",
    "shm_pair",
    "auto_connect",
    "create_endpoint",
    "attach_endpoint",
    "LegCost",
    "RoundTripCost",
    "TimingTable",
    "VirtualClock",
    "best_of",
    "calibrated_inner",
    "EventChannel",
    "ChannelPublisher",
    "Subscription",
    "SubscriberStats",
    "WireTap",
    "Relay",
    "Downstream",
    "HashRing",
    "RelayWorker",
    "FabricDispatcher",
    "FabricError",
    "EdgeSubscription",
    "fabric_handler",
    "AckCursorStore",
    "DurablePublisher",
    "DurableSubscription",
    "PublisherWAL",
    "SequenceWindow",
]
