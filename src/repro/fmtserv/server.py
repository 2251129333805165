"""The format server: fingerprint-keyed meta store, token mint.

One server per cluster replaces per-connection meta exchange with a
single registration: a writer registers each format once (by meta
bytes), receives a compact global token, and thereafter announces only
``(fingerprint, token)`` to every peer.  Receivers that miss resolve
the fingerprint here — or, with a primed on-disk cache, not at all.

Ingress is hostile-input territory: every register goes through
:meth:`IOFormat.from_meta_bytes` under this server's
:class:`~repro.core.safety.DecodeLimits`, the claimed fingerprint must
match the one recomputed from the meta (content addressing means a
client cannot bind someone else's fingerprint to different meta), and a
per-client quota caps how many distinct formats any one ``client_id``
may register — the same ``max_formats_per_peer`` discipline the decode
path applies to announcements.
"""

from __future__ import annotations

from repro.abi import MachineDescription
from repro.abi.machines import X86_64
from repro.core.errors import FormatError
from repro.core.formats import IOFormat
from repro.core.rpc import RpcServer
from repro.core.runtime import Metrics
from repro.core.safety import DEFAULT_LIMITS, DecodeLimits, LimitError
from repro.net.transport import Transport

from .cache import FormatCache
from .protocol import (
    FMTSERV_INTERFACE,
    FMTSERV_OBJECT,
    STATUS_INVALID,
    STATUS_MISS,
    STATUS_OK,
    STATUS_QUOTA,
)


class FormatServer:
    """A format server servicing register/lookup/list/purge calls.

    ``store`` is a :class:`FormatCache`; give it a path and the server's
    population (formats *and* token bindings) survives restarts — tokens
    are re-minted above the highest persisted one, so bindings cached by
    clients stay valid.  In-process use calls :meth:`serve_one`
    directly on a transport; the ``pbio-fmtserv`` tool serves accepted
    sockets through :func:`repro.net.aio.fmtserv_handler`.
    """

    def __init__(
        self,
        *,
        machine: MachineDescription = X86_64,
        limits: DecodeLimits | None = DEFAULT_LIMITS,
        store: FormatCache | None = None,
        metrics: Metrics | None = None,
        max_formats_per_client: int | None = None,
    ):
        self.limits = limits
        self.metrics = metrics if metrics is not None else Metrics()
        self.store = store if store is not None else FormatCache(limits=limits)
        if max_formats_per_client is None and limits is not None:
            max_formats_per_client = limits.max_formats_per_peer
        self.max_formats_per_client = max_formats_per_client
        self._rpc = RpcServer(machine, FMTSERV_INTERFACE, limits=limits)
        self._rpc.register(
            FMTSERV_OBJECT,
            {
                "register": self._register,
                "lookup": self._lookup,
                "list": self._list,
                "purge": self._purge,
            },
        )
        self._tokens: dict[int, bytes] = {}  # token -> fingerprint
        self._client_formats: dict[int, set[bytes]] = {}
        next_token = 1
        for entry in self.store.entries():
            if entry.token is not None:
                self._tokens[entry.token] = entry.fingerprint
                next_token = max(next_token, entry.token + 1)
        self._next_token = next_token

    # -- servants ------------------------------------------------------------

    def _register(self, request: dict) -> dict:
        client_id = request["client_id"]
        try:
            fingerprint = bytes.fromhex(request["fingerprint"] or "")
            meta = bytes.fromhex(request["meta"] or "")
        except ValueError:
            self.metrics.inc("fmtserv.rejected")
            return {"status": STATUS_INVALID, "token": 0}
        known = self.store.get(fingerprint)
        if known is not None and known.token is not None:
            # Idempotent re-registration: same content, same token.
            self.metrics.inc("fmtserv.reregistered")
            return {"status": STATUS_OK, "token": known.token}
        try:
            if self.limits is not None:
                self.limits.check_meta_size(len(meta))
            fmt = IOFormat.from_meta_bytes(meta, limits=self.limits)
        except (FormatError, LimitError):
            self.metrics.inc("fmtserv.rejected")
            return {"status": STATUS_INVALID, "token": 0}
        if fmt.fingerprint != fingerprint:
            self.metrics.inc("fmtserv.rejected")
            return {"status": STATUS_INVALID, "token": 0}
        owned = self._client_formats.setdefault(client_id, set())
        if (
            self.max_formats_per_client is not None
            and fingerprint not in owned
            and len(owned) >= self.max_formats_per_client
        ):
            self.metrics.inc("fmtserv.quota_rejections")
            return {"status": STATUS_QUOTA, "token": 0}
        owned.add(fingerprint)
        token = self._next_token
        self._next_token += 1
        self._tokens[token] = fingerprint
        self.store.put(meta, token=token)
        self.metrics.inc("fmtserv.registered")
        return {"status": STATUS_OK, "token": token}

    def _lookup(self, request: dict) -> dict:
        self.metrics.inc("fmtserv.lookups")
        try:
            fingerprint = bytes.fromhex(request["fingerprint"] or "")
        except ValueError:
            self.metrics.inc("fmtserv.rejected")
            return {"status": STATUS_INVALID, "token": 0, "meta": ""}
        if not fingerprint:
            fingerprint = self._tokens.get(request["token"], b"")
        entry = self.store.get(fingerprint) if fingerprint else None
        if entry is None:
            self.metrics.inc("fmtserv.lookup_misses")
            return {"status": STATUS_MISS, "token": 0, "meta": ""}
        self.metrics.inc("fmtserv.lookup_hits")
        return {
            "status": STATUS_OK,
            "token": entry.token or 0,
            "meta": entry.meta.hex(),
        }

    def _list(self, request: dict) -> dict:
        rows = []
        for entry in self.store.entries():
            name, size = "?", 0
            fmt = self.store.format_for(entry.fingerprint)
            if fmt is not None:
                name, size = fmt.name, fmt.record_size
            rows.append(f"{entry.fingerprint.hex()} {entry.token or 0} {name} {size}")
        limit = request["max_entries"]
        if limit > 0:
            rows = rows[:limit]
        return {"count": len(rows), "listing": "\n".join(rows)}

    def _purge(self, request: dict) -> dict:
        try:
            fingerprint = bytes.fromhex(request["fingerprint"] or "")
        except ValueError:
            return {"removed": 0}
        if fingerprint:
            removed = self.store.purge(fingerprint)
            self._tokens = {t: fp for t, fp in self._tokens.items() if fp != fingerprint}
        else:
            removed = self.store.purge()
            self._tokens.clear()
            self._client_formats.clear()
        self.metrics.inc("fmtserv.purged", removed)
        return {"removed": removed}

    # -- direct (in-process) access ------------------------------------------

    def token_for(self, fingerprint: bytes) -> int | None:
        return self.store.token_for(fingerprint)

    def fingerprint_for(self, token: int) -> bytes | None:
        return self._tokens.get(token)

    def __len__(self) -> int:
        return len(self.store)

    # -- serving -------------------------------------------------------------

    def serve_one(self, transport: Transport) -> None:
        """Handle exactly one RPC call on ``transport``."""
        self._rpc.serve_one(transport)

    def stop(self) -> None:
        """Ask every connection's serving loop
        (:func:`repro.net.aio.fmtserv_handler`) to exit after its
        in-flight call (sticky; thread-safe)."""
        self._rpc.stop()

    def restart(self) -> None:
        """Clear a previous :meth:`stop` so new connections are served."""
        self._rpc.restart()

    @property
    def stopped(self) -> bool:
        return self._rpc.stopped

    def drain_and_stop(self, deadline_s: float = 5.0) -> None:
        """Goodbye every known client link, then :meth:`stop`.

        Clients holding a :class:`~repro.fmtserv.client.FormatService`
        see the goodbye (or the subsequent closed link) as a replica
        failure and move down their server list — exactly the failover
        the drain wants to trigger promptly.
        """
        self._rpc.drain_and_stop(deadline_s)
