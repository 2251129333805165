"""pbio-fabric: run and inspect a sharded relay fabric.

Usage::

    pbio-fabric serve --port 7799 --workers 4            # run a fabric front
    pbio-fabric serve --port 0 --workers 2 --once        # CI smoke: one conn
    pbio-fabric status --server 127.0.0.1:7799           # liveness + depth
    pbio-fabric ring --workers 4                         # ownership, offline
    pbio-fabric ring --workers 4 --key 7:1 --channels 1000

``serve`` runs a :class:`~repro.net.fabric.FabricDispatcher` behind one
:class:`~repro.net.aio.AsyncServer` event loop: every peer is an ingress
publisher and a fabric-wide subscriber tap, frames route to the owning
:class:`~repro.net.fabric.RelayWorker` by header sniff alone, and the
healing pass (quarantine, probes, rebalance) runs once per pump burst.
With ``--port 0`` the kernel picks a free port, printed as ``listening
on HOST:PORT`` before the first accept — scripts can parse it.
``--once`` serves a single connection and exits (smoke tests).

``status`` dials a serving fabric, sends one ``MSG_PING`` and reports
the answering pong's aggregate queue depth — the same probe the
self-healing plane uses (docs/robustness.md §9).

``ring`` answers placement questions without any server: it builds the
same consistent-hash ring a dispatcher would and prints each worker's
owned share of the hash space (and, with ``--channels N`` /
``--key CID:FID``, where concrete channels land).  Operators use it to
predict rebalance impact before adding or draining a worker.

Exit codes: 0 — success; 1 — operation failed (cannot bind, server
unreachable, ping unanswered); 2 — usage error.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.core.errors import PbioError
from repro.net.aio import AsyncServer
from repro.net.fabric import DEFAULT_VNODES, FabricDispatcher, HashRing
from repro.net.health import ProbePolicy, ping_once
from repro.net.sockets import SocketTransport
from repro.net.transport import TransportError


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _parse_key(text: str) -> tuple[int, int]:
    cid, _, fid = text.partition(":")
    if not cid.isdigit() or not fid.isdigit():
        raise ValueError(f"expected CID:FID (two integers), got {text!r}")
    return int(cid), int(fid)


# -- serve ---------------------------------------------------------------------


def _serve(args) -> int:
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    from repro.net.fabric import fabric_handler

    dispatcher = FabricDispatcher(
        args.workers,
        vnodes=args.vnodes,
        quarantine_after=args.quarantine_after,
        probe_policy=ProbePolicy(),
    )
    server = AsyncServer(
        fabric_handler(dispatcher),
        host=args.host,
        port=args.port,
        max_clients=args.max_clients,
        once=args.once,
    )
    try:
        host, port = server.bind()
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    print(f"fabric: {args.workers} worker(s), vnodes={args.vnodes}", flush=True)
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    finally:
        dispatcher.drain_and_stop()
        counters = dict(dispatcher.metrics.counters())
        for worker in dispatcher.workers:
            for name, value in worker.metrics.counters().items():
                counters[name] = counters.get(name, 0) + value
        counters.update(server.metrics.counters())
        if counters:
            summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            print(f"served: {summary}", flush=True)
    return 0


# -- status --------------------------------------------------------------------


def _status(args) -> int:
    host, port = _parse_endpoint(args.server)
    try:
        sock = socket.create_connection((host, port), timeout=args.timeout)
    except OSError as exc:
        print(f"{args.server}: DOWN ({exc})", file=sys.stderr)
        return 1
    transport = SocketTransport(sock)
    try:
        depth = ping_once(transport, args.timeout)
    except (TransportError, PbioError, OSError) as exc:
        print(f"{args.server}: DOWN ({exc})", file=sys.stderr)
        return 1
    finally:
        transport.close()
    print(f"{args.server}: alive (queue depth {depth})")
    return 0


# -- ring ----------------------------------------------------------------------


def _ring(args) -> int:
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    names = [f"w{i}" for i in range(args.workers)]
    ring = HashRing(names, vnodes=args.vnodes)
    fair = 1.0 / len(names)
    print(f"{len(names)} worker(s), vnodes={args.vnodes}")
    print(f"{'worker':8s}  {'arc share':>9s}  {'vs fair':>8s}")
    for name in names:
        share = ring.arc_shares()[name]
        print(f"{name:8s}  {share:9.4f}  {100 * (share - fair) / fair:+7.1f}%")
    if args.channels:
        counts = dict.fromkeys(names, 0)
        for i in range(args.channels):
            counts[ring.owner((i, 1))] += 1
        print(f"\n{args.channels} sample channel(s):")
        for name in names:
            print(f"{name:8s}  {counts[name]:6d}")
    for key in args.key or ():
        cid, fid = _parse_key(key)
        print(f"\nchannel ({cid}, {fid}) -> {ring.owner((cid, fid))}")
    return 0


# -- CLI -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbio-fabric",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a sharded relay fabric")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7799, help="0 = kernel-assigned")
    serve.add_argument("--workers", type=int, default=4, help="relay shards")
    serve.add_argument("--vnodes", type=int, default=DEFAULT_VNODES)
    serve.add_argument("--quarantine-after", type=int, default=3)
    serve.add_argument(
        "--once", action="store_true", help="serve one connection, then exit"
    )
    serve.add_argument(
        "--max-clients",
        type=int,
        default=None,
        help="shed connections beyond this many concurrent clients",
    )
    serve.set_defaults(func=_serve)

    status = sub.add_parser("status", help="ping a serving fabric")
    status.add_argument("--server", metavar="HOST:PORT", required=True)
    status.add_argument(
        "--timeout", type=float, default=5.0, help="seconds to wait for the pong"
    )
    status.set_defaults(func=_status)

    ring = sub.add_parser("ring", help="print ring ownership, offline")
    ring.add_argument("--workers", type=int, required=True, help="worker count")
    ring.add_argument("--vnodes", type=int, default=DEFAULT_VNODES)
    ring.add_argument(
        "--channels", type=int, default=0, help="sample this many concrete channels"
    )
    ring.add_argument(
        "--key",
        metavar="CID:FID",
        action="append",
        help="repeatable: print the owner of one channel",
    )
    ring.set_defaults(func=_ring)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
