"""Command-line tools: inspect PBIO messages/files and struct layouts.

* ``pbio-layout`` (:mod:`repro.tools.layout_tool`) — print a record
  schema's native layout on one or many simulated machines.
* ``pbio-dump`` (:mod:`repro.tools.dump_tool`) — dump the messages of a
  PBIO file: formats, records, hex payloads.
* ``pbio-fsck`` (:mod:`repro.tools.fsck_tool`) — verify a PBIO file's
  per-record CRCs, report damage, repair or truncate.
* ``pbio-fmtserv`` (:mod:`repro.tools.fmtserv_tool`) — run a format
  server; list, prime and purge format caches.
* ``pbio-wal`` (:mod:`repro.tools.wal_tool`) — inspect, verify and
  compact durable-publisher WAL directories.
* ``pbio-fabric`` (:mod:`repro.tools.fabric_tool`) — run a sharded
  relay fabric; probe its status; print ring ownership offline.

Each tool is its own module with a ``main``; this package imports none
of them, so running one loads only the layers it uses.
"""
