"""pbio-fmtserv: run and administer the format server.

Usage::

    pbio-fmtserv serve --port 7788 --store formats.pbfc   # run a server
    pbio-fmtserv serve --port 0 --once                    # CI smoke: one conn
    pbio-fmtserv ls --server 127.0.0.1:7788               # list server formats
    pbio-fmtserv ls --cache formats.pbfc                  # list a cache file
    pbio-fmtserv prime --server 127.0.0.1:7788 --cache local.pbfc
    pbio-fmtserv purge --server 127.0.0.1:7788 [--fingerprint HEX]
    pbio-fmtserv purge --cache local.pbfc [--fingerprint HEX]
    pbio-fmtserv ping --server 127.0.0.1:7788 --server 127.0.0.1:7789

``serve`` accepts loopback-or-anywhere TCP connections, multiplexed on
one :class:`~repro.net.aio.AsyncServer` event loop — one process, no
per-connection threads; ``--store`` makes the population (and its token
bindings) survive restarts.  With ``--port 0`` the kernel picks a free
port, printed as ``listening on HOST:PORT`` before the first accept —
scripts can parse it.  ``--once`` serves a single connection and exits
(smoke tests); ``--max-clients`` sheds connections beyond the bound at
accept time (an orderly close, never a hung socket); the default serves
forever.

``prime`` is the warm-start half of the design: it copies the server's
whole format population into a local cache file, so a process restarted
with that file decodes known formats without any server round-trip.

``ping`` is the liveness probe of the self-healing plane
(docs/robustness.md §9): it dials each ``--server`` in turn, sends one
``MSG_PING`` control frame, and waits for the matching ``MSG_PONG``
(the serve loop's negotiator answers it without touching the RPC
layer).  Exit 0 when every server answered, 1 when any did not.

Exit codes: 0 — success; 1 — operation failed (server unreachable,
nothing purged when a fingerprint was named, ping unanswered);
2 — usage error.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.core.errors import PbioError
from repro.fmtserv import FormatCache, FormatServer, FormatService
from repro.net.aio import AsyncServer, fmtserv_handler
from repro.net.health import ping_once
from repro.net.sockets import SocketTransport
from repro.net.transport import TransportError


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _dial(endpoint: str, timeout_s: float = 5.0) -> SocketTransport:
    host, port = _parse_endpoint(endpoint)
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
    except OSError as exc:
        # FormatService expects dial failures as TransportError (its
        # "server unreachable" path), not a raw socket exception.
        raise TransportError(f"cannot reach {endpoint}: {exc}") from exc
    sock.settimeout(timeout_s)
    return SocketTransport(sock)


def _service_for(args) -> FormatService:
    cache = FormatCache(getattr(args, "cache", None))
    endpoint = getattr(args, "server", None)
    connect = (lambda: _dial(endpoint)) if endpoint else None
    return FormatService(connect, cache=cache)


# -- serve ---------------------------------------------------------------------


def _serve(args) -> int:
    store = FormatCache(args.store) if args.store else None
    fserver = FormatServer(store=store)
    server = AsyncServer(
        fmtserv_handler(fserver),
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
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    finally:
        counters = dict(fserver.metrics.counters())
        counters.update(server.metrics.counters())
        if counters:
            summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            print(f"served: {summary}", flush=True)
    return 0


# -- ls ------------------------------------------------------------------------


def _ls_rows_from_cache(cache: FormatCache) -> list[str]:
    rows = []
    for entry in cache.entries():
        fmt = cache.format_for(entry.fingerprint)
        name = fmt.name if fmt is not None else "?"
        size = fmt.record_size if fmt is not None else 0
        rows.append(f"{entry.fingerprint.hex()} {entry.token or 0} {name} {size}")
    return rows


def _ls(args) -> int:
    if args.server:
        service = _service_for(args)
        try:
            reply = service._call("list", {"max_entries": args.max})
        finally:
            service.close()
        if reply is None:
            print(f"server unreachable: {args.server}", file=sys.stderr)
            return 1
        rows = reply["listing"].splitlines()
    else:
        with FormatCache(args.cache) as cache:
            rows = _ls_rows_from_cache(cache)
        if args.max > 0:
            rows = rows[: args.max]
    print(f"{'fingerprint':40s}  {'token':>6s}  {'name':16s}  {'size':>6s}")
    for row in rows:
        fp_hex, token, name, size = row.split(" ", 3)
        print(f"{fp_hex:40s}  {token:>6s}  {name:16s}  {size:>6s}")
    print(f"{len(rows)} format(s)")
    return 0


# -- prime ---------------------------------------------------------------------


def _prime(args) -> int:
    service = _service_for(args)
    try:
        added = service.pull_all()
        if not service.online and added == 0:
            print(f"server unreachable: {args.server}", file=sys.stderr)
            return 1
        total = len(service.cache)
    finally:
        service.close()
    print(f"primed {args.cache}: {added} new, {total} total")
    return 0


# -- purge ---------------------------------------------------------------------


def _purge(args) -> int:
    fingerprint = ""
    if args.fingerprint:
        try:
            bytes.fromhex(args.fingerprint)
        except ValueError:
            print(f"not a hex fingerprint: {args.fingerprint}", file=sys.stderr)
            return 2
        fingerprint = args.fingerprint
    if args.server:
        service = _service_for(args)
        try:
            reply = service._call("purge", {"fingerprint": fingerprint})
        finally:
            service.close()
        if reply is None:
            print(f"server unreachable: {args.server}", file=sys.stderr)
            return 1
        removed = reply["removed"]
    else:
        with FormatCache(args.cache) as cache:
            removed = cache.purge(bytes.fromhex(fingerprint) if fingerprint else None)
    print(f"purged {removed} format(s)")
    return 0 if (removed or not fingerprint) else 1


# -- ping ----------------------------------------------------------------------


def _ping_one(endpoint: str, timeout_s: float) -> tuple[bool, str]:
    """One liveness round-trip; (alive, human-readable detail)."""
    try:
        transport = _dial(endpoint, timeout_s=timeout_s)
    except TransportError as exc:
        return False, str(exc)
    try:
        return True, f"queue depth {ping_once(transport, timeout_s)}"
    except (TransportError, PbioError) as exc:
        return False, str(exc)
    finally:
        transport.close()


def _ping(args) -> int:
    failures = 0
    for endpoint in args.server:
        alive, detail = _ping_one(endpoint, args.timeout)
        if alive:
            print(f"{endpoint}: alive ({detail})")
        else:
            print(f"{endpoint}: DOWN ({detail})", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


# -- CLI -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbio-fmtserv",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a format server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7788, help="0 = kernel-assigned")
    serve.add_argument("--store", default=None, help="persist formats to this file")
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

    ls = sub.add_parser("ls", help="list formats on a server or in a cache file")
    target = ls.add_mutually_exclusive_group(required=True)
    target.add_argument("--server", metavar="HOST:PORT")
    target.add_argument("--cache", metavar="PATH")
    ls.add_argument("--max", type=int, default=0, help="limit rows (0 = all)")
    ls.set_defaults(func=_ls)

    prime = sub.add_parser(
        "prime", help="copy the server's formats into a local cache file"
    )
    prime.add_argument("--server", metavar="HOST:PORT", required=True)
    prime.add_argument("--cache", metavar="PATH", required=True)
    prime.set_defaults(func=_prime)

    purge = sub.add_parser("purge", help="remove formats from a server or cache file")
    target = purge.add_mutually_exclusive_group(required=True)
    target.add_argument("--server", metavar="HOST:PORT")
    target.add_argument("--cache", metavar="PATH")
    purge.add_argument(
        "--fingerprint", default=None, help="hex fingerprint (omit to purge all)"
    )
    purge.set_defaults(func=_purge)

    ping = sub.add_parser("ping", help="liveness-check one or more servers")
    ping.add_argument(
        "--server",
        metavar="HOST:PORT",
        action="append",
        required=True,
        help="repeatable: every listed server is probed",
    )
    ping.add_argument(
        "--timeout", type=float, default=5.0, help="seconds to wait per server"
    )
    ping.set_defaults(func=_ping)
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
