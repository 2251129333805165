"""Network substrate: transports, real loopback sockets, shared memory, the
async event-loop serving core, and the health, relay, fabric and durable
planes built on them."""

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
    VirtualClock,
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
)
from .faults import (
    FaultInjectingTransport,
    FaultPlan,
    ReconnectingTransport,
    RetryPolicy,
)
from .shm import (
    ShmRingTransport,
    attach_endpoint,
    auto_connect,
    create_endpoint,
    shm_pair,
)
from .sockets import SocketTransport, loopback_pair
from .channel import EventChannel
from .relay import Relay
from .fabric import FabricDispatcher, FabricError, HashRing, RelayWorker, fabric_handler
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
    "SocketTransport",
    "loopback_pair",
    "ShmRingTransport",
    "shm_pair",
    "auto_connect",
    "create_endpoint",
    "attach_endpoint",
    "VirtualClock",
    "EventChannel",
    "Relay",
    "HashRing",
    "RelayWorker",
    "FabricDispatcher",
    "FabricError",
    "fabric_handler",
    "AckCursorStore",
    "DurablePublisher",
    "DurableSubscription",
    "PublisherWAL",
    "SequenceWindow",
]
