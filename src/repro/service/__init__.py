"""The service layer: the match session behind a network boundary.

The paper's deployment story -- one COMA instance whose repository, cubes and
strategies many users share -- needs the warm session (and its ~2.7x cache
reuse win) to live *behind* a network boundary.  This package provides that:

* :class:`~repro.service.server.MatchService` -- the transport-agnostic core:
  schema registry, strategy registry, and a
  :class:`~repro.service.pool.SessionPool` of lock-guarded worker sessions;
* :class:`~repro.service.aserver.MatchServiceServer` /
  :func:`~repro.service.aserver.create_server` /
  :func:`~repro.service.aserver.serve` -- the stdlib-only asyncio HTTP shell
  (``coma serve`` on the command line);
* :class:`~repro.service.client.ServiceClient` -- the matching stdlib-only
  client.

See ``docs/service.md`` for the endpoint reference and deployment guide.
"""

from __future__ import annotations

from repro.service.aserver import MatchServiceServer, create_server, serve
from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobEventStream, JobManager
from repro.service.pool import SessionPool
from repro.service.server import MatchService

__all__ = [
    "Job",
    "JobEventStream",
    "JobManager",
    "MatchService",
    "MatchServiceServer",
    "ServiceClient",
    "SessionPool",
    "create_server",
    "serve",
]
