"""Compile-as-a-service: a persistent daemon over the Ecmas pipeline.

After four PRs of one-shot CLI entry points, this package adds the long-lived
execution mode the ROADMAP's "serve heavy traffic" north star needs: a local
HTTP+JSON daemon (stdlib only) that keeps per-chip compile state warm across
requests instead of rebuilding chips, routing graphs and landmark tables from
cold on every invocation.

* :mod:`repro.service.schema` — the frozen, versioned wire format
  (:data:`~repro.service.schema.API_VERSION`), request validation and result
  serialisation; the docs site's API reference is generated from it.
* :mod:`repro.service.state` — what stays warm: the process's
  routing-graph store, reported under ``/stats``.
* :mod:`repro.service.jobs` — the job queue (``queued → running →
  done | failed``) behind ``/jobs/<id>``.
* :mod:`repro.service.service` — :class:`CompileService`, binding schema to
  the batch engine and the streaming result cache.
* :mod:`repro.service.server` — the HTTP endpoints ``/compile``, ``/batch``,
  ``/jobs/<id>``, ``/healthz``, ``/stats``.
* :mod:`repro.service.client` — a stdlib client (used by ``repro submit``).

Start a daemon with ``python -m repro serve`` and talk to it with
``python -m repro submit`` or any HTTP client; see ``docs/http-api.md``.
"""

from __future__ import annotations

import importlib

#: Public name → the submodule that defines it.  Names load on first access
#: (PEP 562), so ``import repro.service.client`` (what ``repro submit`` runs)
#: loads the client alone, not the daemon, the QASM front end or the batch
#: engine's record builder.
_EXPORTS = {
    "ServiceClient": "client",
    "ServiceError": "client",
    "JobManager": "jobs",
    "ServiceJob": "jobs",
    "API_VERSION": "schema",
    "BatchRequest": "schema",
    "CompileRequest": "schema",
    "SchemaError": "schema",
    "parse_batch_request": "schema",
    "parse_compile_request": "schema",
    "schedule_payload": "schema",
    "ServiceServer": "server",
    "create_server": "server",
    "CompileService": "service",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
