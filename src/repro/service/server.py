"""The match service: COMA's session layer behind an HTTP boundary.

The transport-agnostic core of a stdlib-only JSON API, wrapping a pool
of warm :class:`~repro.session.session.MatchSession` workers -- in-process
shards (:class:`~repro.service.pool.SessionPool`, the default ``thread``
backend) or spawned worker processes
(:class:`~repro.parallel.pool.ProcessSessionPool`, the ``process`` backend
that scales warm throughput past the GIL) -- so the session's
cross-operation caches (path profiles, similarity cubes) keep paying off
across *network* requests, not just in-process calls.

Endpoints (all request/response bodies are JSON):

=======  ====================  ==============================================
method   path                  purpose
=======  ====================  ==============================================
GET      ``/health``           liveness probe with registry/pool counts
GET      ``/stats``            cache occupancy + request counters per shard
GET      ``/schemas``          list the uploaded schemas
POST     ``/schemas``          upload a schema through the importers registry
GET      ``/schemas/{name}``   statistics of one uploaded schema
DELETE   ``/schemas/{name}``   remove one uploaded schema
POST     ``/match``            match two uploaded schemas
POST     ``/match/batch``      match many pairs in one session acquisition
POST     ``/search``           top-K corpus search for an uploaded schema
GET      ``/corpus``           schema-corpus occupancy and registered names
POST     ``/jobs``             start a background batch/search campaign (202)
GET      ``/jobs``             the jobs table (per-state counts + snapshots)
GET      ``/jobs/{id}``        one job's progress/result snapshot
DELETE   ``/jobs/{id}``        cancel a running job
GET      ``/jobs/{id}/events`` NDJSON stream of the job's progress events
GET      ``/strategies``       list the stored named strategies
POST     ``/strategies``       store a named strategy spec
GET      ``/strategies/{name}``  one stored strategy (spec + dict form)
DELETE   ``/strategies/{name}``  delete a stored strategy
POST     ``/shutdown``         stop the server (used by tests and ops)
=======  ====================  ==============================================

Errors are JSON too -- ``{"error": "<message>"}`` with a 4xx/5xx status; the
:class:`~repro.service.client.ServiceClient` raises them as
:class:`~repro.exceptions.ServiceError`.

:class:`MatchService` maps each request to a response;
:mod:`repro.service.aserver` is the HTTP shell that serves it
(``coma serve``).

See ``docs/service.md`` for the full endpoint reference and deployment guide.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.strategy import MatchStrategy
from repro.exceptions import ComaError, FaultInjected, ServiceError
from repro.importers.registry import DEFAULT_IMPORTERS, ImporterRegistry
from repro.model.schema import Schema
from repro.service.jobs import JobEventStream, JobManager
from repro.service.pool import SessionFactory, SessionPool
from repro.session.session import MatchSession, StrategyLike

__version__ = "1.0"

#: Response payload limit guard: refuse request bodies beyond this size.
MAX_BODY_BYTES = 16 * 1024 * 1024


class MatchService:
    """The service core: schema registry, strategy registry and session pool.

    The service is transport-agnostic -- :meth:`handle_request` maps a
    ``(method, path, payload)`` triple to a ``(status, payload)`` pair, and
    the HTTP layer (:class:`~repro.service.aserver.MatchServiceServer`) is a
    thin shell around it.
    All registry state is guarded by one lock; match execution happens on an
    exclusively acquired pool shard outside that lock, so slow matches do not
    serialise unrelated requests.

    Parameters
    ----------
    pool_size:
        The number of warm workers (one per expected concurrent request):
        pooled sessions for the thread backend, worker processes for the
        process backend.
    backend:
        ``"thread"`` (default) keeps every worker session in this process
        behind a :class:`~repro.service.pool.SessionPool`; ``"process"``
        spawns a :class:`~repro.parallel.pool.ProcessSessionPool` of worker
        processes, so warm match throughput scales with the cores instead of
        the GIL.  Results are byte-identical either way; see
        ``docs/service.md`` for the selection guide.
    repository_path:
        Optional SQLite file backing the strategy registry (and the reuse
        matchers of every worker session).  Opened ``threadsafe=True`` and
        shared by all shards; strategies stored through the service are
        visible to other sessions over the same file.
    store_path:
        Optional persistent similarity store
        (:class:`~repro.repository.store.SimilarityStore`) shared by all
        pool shards: cube-cache misses are served by content address from
        disk, so a restarted service answers repeated match workloads warm
        from its very first request.  See ``docs/service.md`` for sizing and
        invalidation guidance.
    store_dtype:
        The storage dtype for cubes the store writes: ``"float64"``
        (default, bit-identical round trips), ``"float32"``, or quantized
        ``"uint16"`` (quarter the bytes at a tested ~1e-5 tolerance).
        Applies to the service's own store handle and, on the process
        backend, to every worker's store connection.  Requires
        ``store_path``; see ``docs/service.md`` for the selection guide.
    corpus_path:
        Optional schema corpus (:class:`~repro.search.corpus.SchemaCorpus`
        SQLite file, or ``":memory:"``) enabling the ``POST /search`` /
        ``GET /corpus`` endpoints.  Uploaded schemas are registered into the
        corpus automatically (and deregistered on delete), so a service
        fed schemas over ``POST /schemas`` builds its search index as it
        goes; survivor matching fans out over the configured backend.  See
        ``docs/search.md``.
    importers:
        The importer registry resolving upload formats (default: the
        built-in relational / xsd / dict importers).
    session_factory:
        Overrides worker-session construction (e.g. to configure a custom
        library or default strategy).  The repository is not attached
        automatically when a factory is given.
    default_strategy:
        The strategy spec worker sessions fall back to when a match request
        names none (default: the paper's default operation).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or its ``to_dict()``
        document) armed process-wide for chaos runs.  Process-backend
        workers receive the same plan through their spawn options, so one
        plan exercises both sides of the pipe.  ``coma serve`` only accepts
        ``--fault-plan`` when ``COMA_ENABLE_FAULTS=1`` is set; see
        ``docs/robustness.md``.

    Examples
    --------
    >>> service = MatchService(pool_size=1)
    >>> status, payload = service.handle_request("GET", "/health", None)
    >>> status, payload["status"]
    (200, 'ok')
    """

    def __init__(
        self,
        pool_size: int = 4,
        backend: str = "thread",
        repository_path: Optional[str] = None,
        store_path: Optional[str] = None,
        store_dtype: Optional[str] = None,
        corpus_path: Optional[str] = None,
        importers: Optional[ImporterRegistry] = None,
        session_factory: Optional[SessionFactory] = None,
        default_strategy: Optional[str] = None,
        fault_plan: Optional[object] = None,
    ):
        if backend not in ("thread", "process"):
            raise ServiceError(
                f"unknown service backend {backend!r}: choose 'thread' or 'process'"
            )
        if backend == "process" and session_factory is not None:
            raise ServiceError(
                "session_factory only applies to the thread backend (process "
                "workers build their sessions from primitive options in their "
                "own interpreter)"
            )
        self._backend = backend
        self._fault_plan = None
        if fault_plan is not None:
            from repro import faults

            # Armed before the pool spawns so process workers inherit the
            # plan document through their spawn options (fresh counters per
            # process, which is what crash-loop scenarios need).
            plan = (
                fault_plan
                if isinstance(fault_plan, faults.FaultPlan)
                else faults.FaultPlan.from_dict(dict(fault_plan))
            )
            faults.arm(plan)
            self._fault_plan = plan
        #: Event-driven degradation marks: component name -> failure detail.
        #: Store degradation is derived from its corruption counters instead
        #: (the failures happen inside worker processes, not here).
        self._degraded: Dict[str, str] = {}
        self._repository = None
        if repository_path:
            from repro.repository.repository import Repository

            self._repository = Repository(repository_path, threadsafe=True)
        if store_dtype is not None:
            from repro.repository.store import CUBE_DTYPES

            if store_dtype not in CUBE_DTYPES:
                raise ServiceError(
                    f"unknown store dtype {store_dtype!r}, "
                    f"expected one of {CUBE_DTYPES}"
                )
            if not store_path:
                raise ServiceError("store_dtype requires a store_path")
        self._store = None
        if store_path:
            from repro.repository.store import SimilarityStore

            self._store = SimilarityStore(store_path, dtype=store_dtype or "float64")
        if backend == "process":
            from repro.matchers.registry import DEFAULT_LIBRARY
            from repro.parallel.pool import ProcessSessionPool

            # Workers open their own connections to the shared repository /
            # store files; the parent-side handles above serve the strategy
            # registry and the /stats occupancy numbers.
            self._pool = ProcessSessionPool(
                pool_size,
                store_path=store_path,
                repository_path=repository_path,
                store_dtype=store_dtype if store_path else None,
                default_strategy=default_strategy,
            )
            self._library = DEFAULT_LIBRARY
        else:
            if session_factory is None:
                repository = self._repository
                store = self._store

                def session_factory() -> MatchSession:
                    return MatchSession(
                        repository=repository, store=store, strategy=default_strategy
                    )

            self._pool = SessionPool(pool_size, session_factory)
            self._library = self._pool.sessions[0].library
        self._corpus = None
        self._search_session = None
        if corpus_path:
            from repro.search.corpus import SchemaCorpus
            from repro.search.searcher import CorpusSearcher

            # The search session only *ranks* (profile cache + index); the
            # expensive survivor matching is routed through the worker pool
            # via the searcher's match_many override, so both backends fan
            # out identically and results stay byte-identical to the
            # in-process MatchSession.search path.
            self._search_session = MatchSession()
            self._corpus = SchemaCorpus(
                corpus_path, tokenizer=self._search_session.tokenizer
            )
            self._searcher = CorpusSearcher(self._search_session, self._corpus)
        self._importers = importers if importers is not None else DEFAULT_IMPORTERS
        self._schemas: Dict[str, Schema] = {}
        self._strategies: Dict[str, MatchStrategy] = {}
        self._state_lock = threading.RLock()
        self._request_counts: Dict[str, int] = {}
        self._started = time.monotonic()
        self._jobs = JobManager(self)
        #: The HTTP server installs its live ``/stats`` ``frontend`` block
        #: provider here (None when the service is driven in-process).
        self.frontend_stats: Optional[Callable[[], dict]] = None

    # -- registries ------------------------------------------------------------

    @property
    def pool(self):
        """The underlying worker pool (:class:`~repro.service.pool.SessionPool`
        or :class:`~repro.parallel.pool.ProcessSessionPool`)."""
        return self._pool

    @property
    def backend(self) -> str:
        """The execution backend: ``"thread"`` or ``"process"``."""
        return self._backend

    @property
    def jobs(self) -> JobManager:
        """The background-jobs table (:class:`~repro.service.jobs.JobManager`)."""
        return self._jobs

    def schema(self, name: str) -> Schema:
        """The uploaded schema registered under ``name``.

        Raises
        ------
        ServiceError
            With status 404 when no schema of that name was uploaded.
        """
        with self._state_lock:
            schema = self._schemas.get(name)
            known = ", ".join(sorted(self._schemas)) or "none uploaded yet"
        if schema is None:
            raise ServiceError(
                f"no schema named {name!r}; known schemas: {known}", status=404
            )
        return schema

    def register_schema(self, schema: Schema) -> bool:
        """Register a schema under its own name; True when it replaced one.

        With a corpus attached, the schema is also indexed for
        ``POST /search`` (replacing any previous registration of the name).
        """
        with self._state_lock:
            replaced = schema.name in self._schemas
            self._schemas[schema.name] = schema
        if self._corpus is not None:
            self._corpus.add(
                schema,
                replace=True,
                profile=self._search_session.profile_for(schema),
            )
        return replaced

    def resolve_strategy(self, reference: StrategyLike) -> Optional[MatchStrategy]:
        """Resolve a request's strategy reference at the service level.

        ``None`` keeps the worker session's default.  A spec string (it
        contains parentheses) is parsed against the library; any other string
        is looked up in the service strategy registry, then the repository.

        Raises
        ------
        ServiceError
            With status 404 for an unknown stored name, 400 for an invalid
            spec or reference type.
        """
        if reference is None:
            return None
        if isinstance(reference, MatchStrategy):
            return reference
        if not isinstance(reference, str):
            raise ServiceError(
                f"'strategy' must be a spec string or a stored name, "
                f"got {type(reference).__name__}", status=400,
            )
        if "(" in reference:
            try:
                return MatchStrategy.parse(reference, library=self._library)
            except ComaError as error:
                raise ServiceError(f"invalid strategy spec: {error}", status=400)
        with self._state_lock:
            stored = self._strategies.get(reference)
        if stored is not None:
            return stored
        if self._repository is not None and self._repository.has_strategy(reference):
            loaded = self._repository.load_strategy(reference, library=self._library)
            with self._state_lock:
                self._strategies.setdefault(reference, loaded)
            return loaded
        known = ", ".join(self.strategy_names()) or "none stored yet"
        raise ServiceError(
            f"no stored strategy named {reference!r}; stored strategies: {known}",
            status=404,
        )

    def strategy_names(self) -> Tuple[str, ...]:
        """Sorted names of all stored strategies (registry + repository)."""
        with self._state_lock:
            names = set(self._strategies)
        if self._repository is not None:
            names.update(self._repository.strategy_names())
        return tuple(sorted(names))

    # -- request dispatch ------------------------------------------------------

    def handle_request(
        self, method: str, path: str, payload: Optional[dict]
    ) -> Tuple[int, Union[dict, JobEventStream]]:
        """Map one request to a ``(status, response payload)`` pair.

        Unknown routes yield 404, method mismatches 405, all
        :class:`~repro.exceptions.ServiceError` raises their carried status
        (plus any structured ``details`` merged into the error payload) and
        any other :class:`~repro.exceptions.ComaError` a 400.  One route
        (``GET /jobs/<id>/events``) answers with a
        :class:`~repro.service.jobs.JobEventStream` instead of a JSON dict;
        the HTTP shell renders it as a chunked NDJSON response.
        """
        segments = [
            urllib.parse.unquote(part)
            for part in path.split("?")[0].split("/")
            if part
        ]
        route = (method.upper(), *segments)
        self._count_request(segments)
        try:
            return self._dispatch(route, payload if payload is not None else {})
        except ServiceError as error:
            return (error.status or 400, {"error": str(error), **error.details})
        except ComaError as error:
            return (400, {"error": str(error)})

    #: Top-level route segments with their own request counter; everything
    #: else (unknown probes, arbitrary names) collapses into fixed templates
    #: so the counter dict stays bounded on a long-lived server.
    _COUNTED_ROUTES = frozenset(
        {"schemas", "match", "rematch", "strategies", "health", "stats",
         "shutdown", "search", "corpus", "jobs"}
    )

    def _count_request(self, segments: List[str]) -> None:
        if not segments:
            key = "/"
        elif segments[0] not in self._COUNTED_ROUTES:
            key = "<other>"
        elif len(segments) == 1:
            key = segments[0]
        elif segments[:2] == ["match", "batch"]:
            key = "match/batch"
        else:
            key = f"{segments[0]}/*"
        with self._state_lock:
            self._request_counts[key] = self._request_counts.get(key, 0) + 1

    def _dispatch(self, route: Tuple[str, ...], payload: dict) -> Tuple[int, dict]:
        if route == ("GET", "health"):
            return 200, self._health()
        if route == ("GET", "stats"):
            return 200, self._stats()
        if route == ("GET", "schemas"):
            return 200, self._list_schemas()
        if route == ("POST", "schemas"):
            return self._upload_schema(payload)
        if len(route) == 3 and route[0] == "GET" and route[1] == "schemas":
            return 200, self._schema_details(route[2])
        if len(route) == 3 and route[0] == "DELETE" and route[1] == "schemas":
            return self._delete_schema(route[2])
        if route == ("POST", "match"):
            return 200, self._match(payload)
        if route == ("POST", "match", "batch"):
            return 200, self._match_batch(payload)
        if route == ("POST", "rematch"):
            return 200, self._rematch(payload)
        if route == ("POST", "search"):
            return 200, self._search(payload)
        if route == ("GET", "corpus"):
            return 200, self._corpus_info()
        if route == ("GET", "jobs"):
            return 200, self._jobs.info()
        if route == ("POST", "jobs"):
            return self._jobs.submit(payload)
        if len(route) == 3 and route[0] == "GET" and route[1] == "jobs":
            return 200, self._jobs.get(route[2]).status()
        if len(route) == 3 and route[0] == "DELETE" and route[1] == "jobs":
            return self._cancel_job(route[2])
        if len(route) == 4 and route[0] == "GET" and route[1] == "jobs" \
                and route[3] == "events":
            return 200, JobEventStream(self._jobs, self._jobs.get(route[2]))
        if route == ("GET", "strategies"):
            return 200, self._list_strategies()
        if route == ("POST", "strategies"):
            return self._store_strategy(payload)
        if len(route) == 3 and route[0] == "GET" and route[1] == "strategies":
            return 200, self._strategy_details(route[2])
        if len(route) == 3 and route[0] == "DELETE" and route[1] == "strategies":
            return self._delete_strategy(route[2])
        if len(route) > 1 and route[1] in self._COUNTED_ROUTES:
            return 405, {"error": f"method {route[0]} is not supported on /{route[1]}"}
        return 404, {"error": f"unknown route /{'/'.join(route[1:])}"}

    # -- endpoint implementations ----------------------------------------------

    def component_health(self) -> dict:
        """Per-component health: ``pool`` / ``store`` / ``corpus`` states.

        Each entry carries ``status`` (``"ok"`` or ``"degraded"``) plus the
        evidence: the pool reports its circuit-breaker / watchdog counters
        (process backend), the store its corruption and quarantine counters,
        the corpus the last infrastructure failure that forced a typed 503.
        A degraded component keeps serving -- matching recomputes around
        quarantined blobs and breaker-routed chunks run in-process -- so
        this block is an operator signal, not an availability bit.
        """
        components: Dict[str, dict] = {}
        pool_entry: Dict[str, object] = {
            "status": "ok",
            "size": self._pool.size,
            "idle": self._pool.idle,
        }
        resilience_info = getattr(self._pool, "resilience_info", None)
        if resilience_info is not None:
            resilience = resilience_info()
            if resilience["breaker"]["state"] == "open":
                pool_entry["status"] = "degraded"
                pool_entry["detail"] = (
                    "circuit breaker open: match chunks run in-process "
                    "until a worker probe succeeds"
                )
            pool_entry.update(resilience)
        components["pool"] = pool_entry
        if self._store is not None:
            info = self._store.info()
            corrupt = int(info.get("corrupt", 0))
            quarantined = int(info.get("quarantined", 0))
            store_entry: Dict[str, object] = {
                "status": "degraded" if corrupt else "ok",
                "corrupt": corrupt,
                "quarantined": quarantined,
            }
            if corrupt:
                store_entry["detail"] = (
                    f"{corrupt} corrupt blob(s) detected this process "
                    f"({quarantined} quarantined); affected keys recompute"
                )
            components["store"] = store_entry
        if self._corpus is not None:
            with self._state_lock:
                detail = self._degraded.get("corpus")
            corpus_entry: Dict[str, object] = {
                "status": "degraded" if detail else "ok",
            }
            if detail:
                corpus_entry["detail"] = detail
            components["corpus"] = corpus_entry
        return components

    def _health(self) -> dict:
        with self._state_lock:
            schema_count = len(self._schemas)
        jobs = self._jobs.info()["by_state"]
        components = self.component_health()
        degraded = any(
            entry["status"] != "ok" for entry in components.values()
        )
        return {
            "status": "degraded" if degraded else "ok",
            "components": components,
            "service": f"coma-match-service/{__version__}",
            "backend": self._backend,
            "pool_size": self._pool.size,
            "jobs_running": jobs["running"],
            "schemas": schema_count,
            "strategies": len(self.strategy_names()),
            "repository": self._repository.path if self._repository else None,
            "store": self._store.path if self._store else None,
            "corpus": self._corpus.path if self._corpus else None,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    def _stats(self) -> dict:
        from repro.matchers.memo import DEFAULT_MEMO_POOL

        with self._state_lock:
            requests = dict(sorted(self._request_counts.items()))
            schema_count = len(self._schemas)
        frontend = self.frontend_stats() if self.frontend_stats is not None else None
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "backend": self._backend,
            "frontend": frontend,
            "schemas": schema_count,
            "strategies": len(self.strategy_names()),
            "requests": {"total": sum(requests.values()), "by_route": requests},
            "pool": {
                "size": self._pool.size,
                "idle": self._pool.idle,
                **self._pool.cache_info(),
                **(
                    {"resilience": self._pool.resilience_info()}
                    if hasattr(self._pool, "resilience_info")
                    else {}
                ),
            },
            "jobs": self._jobs.info(),
            "kernel_memo": DEFAULT_MEMO_POOL.info(),
            "store": self._store.info() if self._store is not None else None,
            "corpus": self._corpus.info() if self._corpus is not None else None,
        }

    def close(self) -> None:
        """Release the worker pool and persistent resources.  Idempotent.

        Process-backend workers are shut down (each flushes its own store
        connection); closing the parent store folds its process-local
        hit/miss counters into the on-disk lifetime totals, which is what
        ``coma stats --store`` reads.  Running background jobs are cancelled
        first, so no job thread is still holding a pool shard when the pool
        goes down.
        """
        self._jobs.close()
        if self._backend == "process":
            self._pool.close()
        if self._store is not None:
            self._store.close()
        if self._corpus is not None:
            self._corpus.close()
        if self._fault_plan is not None:
            from repro import faults

            if faults.active_plan() is self._fault_plan:
                faults.disarm()
            self._fault_plan = None

    def _list_schemas(self) -> dict:
        with self._state_lock:
            schemas = dict(self._schemas)
        return {
            "schemas": [
                {"name": name, "paths": len(schema.paths())}
                for name, schema in sorted(schemas.items())
            ]
        }

    def _upload_schema(self, payload: dict) -> Tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ServiceError("the upload payload must be a JSON object", status=400)
        name = payload.get("name")
        spec = payload.get("spec")
        text = payload.get("text")
        format_name = payload.get("format")
        if spec is not None and text is not None:
            raise ServiceError(
                "pass either 'text' (with a 'format') or an inline dict 'spec', "
                "not both", status=400,
            )
        if spec is not None:
            text = json.dumps(spec)
            format_name = format_name or "dict"
        if not isinstance(text, str) or not text.strip():
            raise ServiceError(
                "schema uploads need a non-empty 'text' (or a dict 'spec')",
                status=400,
            )
        if not format_name:
            raise ServiceError(
                f"schema uploads need a 'format'; known formats: "
                f"{', '.join(self._importers.formats())}", status=400,
            )
        importer = self._importers.by_format(str(format_name))
        schema = importer.import_text(text, str(name) if name else "schema")
        replaced = self.register_schema(schema)
        statistics = schema.statistics()
        return (200 if replaced else 201), {
            "name": schema.name,
            "format": importer.format_name,
            "paths": len(schema.paths()),
            "statistics": statistics.as_row(),
            "replaced": replaced,
        }

    def _schema_details(self, name: str) -> dict:
        schema = self.schema(name)
        return {
            "name": schema.name,
            "paths": len(schema.paths()),
            "statistics": schema.statistics().as_row(),
        }

    def _delete_schema(self, name: str) -> Tuple[int, dict]:
        with self._state_lock:
            removed = self._schemas.pop(name, None)
        if removed is None:
            raise ServiceError(f"no schema named {name!r}", status=404)
        if self._corpus is not None:
            self._corpus.remove(name)
        return 200, {"deleted": name}

    def _match_request(
        self, payload: dict, default_min_similarity: float = 0.0
    ) -> Tuple[Schema, Schema, Optional[MatchStrategy], float]:
        if not isinstance(payload, dict):
            raise ServiceError("the match payload must be a JSON object", status=400)
        for field in ("source", "target"):
            if not isinstance(payload.get(field), str):
                raise ServiceError(
                    f"match requests need a {field!r} schema name", status=400
                )
        source = self.schema(payload["source"])
        target = self.schema(payload["target"])
        strategy = self.resolve_strategy(payload.get("strategy"))
        try:
            min_similarity = float(
                payload.get("min_similarity", default_min_similarity)
            )
        except (TypeError, ValueError):
            raise ServiceError("'min_similarity' must be a number", status=400)
        return source, target, strategy, min_similarity

    @staticmethod
    def outcome_payload(outcome, min_similarity: float) -> dict:
        """The JSON form of one match outcome (thresholded correspondences).

        Shared by ``/match``, ``/match/batch``, ``/search`` and the jobs
        runner, so every execution path serialises outcomes identically (the
        golden-transcript suite hashes these payloads on both backends).
        """
        correspondences = [
            {
                "source": c.source.dotted(),
                "target": c.target.dotted(),
                "similarity": c.similarity,
            }
            for c in outcome.result.correspondences
            if c.similarity >= min_similarity
        ]
        return {
            "source": outcome.context.source_schema.name,
            "target": outcome.context.target_schema.name,
            "strategy": outcome.strategy.to_spec(),
            "schema_similarity": outcome.schema_similarity,
            "correspondences": correspondences,
            "correspondence_count": len(correspondences),
        }

    def _match(self, payload: dict) -> dict:
        source, target, strategy, min_similarity = self._match_request(payload)
        # Both pool flavours expose the same match interface: the thread pool
        # acquires one warm shard, the process pool one worker process.
        outcome = self._pool.match(source, target, strategy=strategy)
        return self.outcome_payload(outcome, min_similarity)

    def _rematch(self, payload: dict) -> dict:
        """``POST /rematch``: incrementally re-match an evolved schema.

        The payload names three uploaded schemas: ``old`` and ``new`` are
        two versions of the evolving schema, ``target`` the unchanged
        opposite side.  On the thread backend one warm session splices the
        previous cube (``MatchSession.rematch``); the process backend falls
        back to a full match -- either way the match payload is
        byte-identical to ``POST /match`` on ``(new, target)``, and the
        ``"rematch"`` block reports the delta and whether splicing happened.
        """
        from repro.model.digests import schema_delta

        if not isinstance(payload, dict):
            raise ServiceError("the rematch payload must be a JSON object", status=400)
        for field in ("old", "new", "target"):
            if not isinstance(payload.get(field), str):
                raise ServiceError(
                    f"rematch requests need an {field!r} schema name", status=400
                )
        old = self.schema(payload["old"])
        new = self.schema(payload["new"])
        target = self.schema(payload["target"])
        strategy = self.resolve_strategy(payload.get("strategy"))
        try:
            min_similarity = float(payload.get("min_similarity", 0.0))
        except (TypeError, ValueError):
            raise ServiceError("'min_similarity' must be a number", status=400)

        delta = schema_delta(old, new)
        spliced = False
        if hasattr(self._pool, "session"):
            with self._pool.session() as session:
                before = session.cache_info()["rematch_spliced"]
                outcome = session.rematch(old, new, target=target, strategy=strategy)
                spliced = session.cache_info()["rematch_spliced"] > before
        else:
            # Process workers hold their own sessions behind a match-shaped
            # wire protocol; the full match is still byte-identical, only the
            # splice shortcut is unavailable.
            outcome = self._pool.match(new, target, strategy=strategy)
        body = self.outcome_payload(outcome, min_similarity)
        body["rematch"] = {
            "spliced": spliced,
            "reused_rows": delta.reused,
            "recomputed_rows": delta.recomputed,
            "added": list(delta.added),
            "removed": list(delta.removed),
        }
        return body

    def resolve_batch(
        self, payload: dict
    ) -> Tuple[List[Tuple[Schema, Schema, Optional[MatchStrategy]]], List[float]]:
        """Resolve a batch payload into ``(items, thresholds)``, exhaustively.

        A bad entry fails the whole batch before any match work is spent, and
        *every* invalid entry is reported -- the raised
        :class:`~repro.exceptions.ServiceError` carries an ``"invalid"``
        details list of ``{"index", "error"}`` objects, one per bad request,
        so one round trip surfaces all the fixes a client needs to make.
        Shared by ``POST /match/batch`` and batch job submission.
        """
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            raise ServiceError(
                "batch matches need a 'requests' list of "
                "{source, target[, strategy]} objects", status=400,
            )
        default = self.resolve_strategy(payload.get("strategy"))
        try:
            default_threshold = float(payload.get("min_similarity", 0.0))
        except (TypeError, ValueError):
            raise ServiceError("'min_similarity' must be a number", status=400)
        items: List[Tuple[Schema, Schema, Optional[MatchStrategy]]] = []
        thresholds: List[float] = []
        invalid: List[dict] = []
        for index, entry in enumerate(payload["requests"]):
            try:
                source, target, strategy, min_similarity = self._match_request(
                    entry if isinstance(entry, dict) else {},
                    default_min_similarity=default_threshold,
                )
            except ServiceError as error:
                invalid.append({"index": index, "error": str(error)})
                continue
            items.append((source, target, strategy if strategy is not None else default))
            thresholds.append(min_similarity)
        if invalid:
            raise ServiceError(
                f"{len(invalid)} of {len(payload['requests'])} batch requests "
                f"are invalid (see 'invalid' for each index)",
                status=400, details={"invalid": invalid},
            )
        return items, thresholds

    def _match_batch(self, payload: dict) -> dict:
        items, thresholds = self.resolve_batch(payload)
        outcomes = self._pool.match_many(items)
        return {
            "results": [
                self.outcome_payload(outcome, threshold)
                for outcome, threshold in zip(outcomes, thresholds)
            ],
            "count": len(outcomes),
        }

    def _cancel_job(self, job_id: str) -> Tuple[int, dict]:
        job = self._jobs.get(job_id)
        cancelled = job.cancel()
        return 200, {"job": job_id, "cancelled": cancelled}

    def _require_corpus(self):
        if self._corpus is None:
            raise ServiceError(
                "this service has no schema corpus; start it with "
                "--corpus <path> (corpus_path=) to enable search", status=400,
            )
        return self._corpus

    @contextlib.contextmanager
    def _corpus_guard(self):
        """Convert corpus infrastructure failures into a typed 503.

        Bad *requests* (unknown schema, invalid strategy) keep their 4xx
        semantics; this guard only catches the failure classes that mean the
        corpus itself is unhealthy -- sqlite errors (index loss, locked or
        torn database), OS errors (unreadable file) and injected faults.
        The component is marked degraded for ``GET /health``; the next
        successful search clears the mark.
        """
        try:
            yield
        except (sqlite3.Error, OSError, FaultInjected) as error:
            detail = f"{type(error).__name__}: {error}"
            with self._state_lock:
                self._degraded["corpus"] = detail
            raise ServiceError(
                f"corpus search unavailable: {error}",
                status=503,
                details={"component": "corpus"},
            )

    def _corpus_info(self) -> dict:
        corpus = self._require_corpus()
        with self._corpus_guard():
            info = corpus.info()
            info["names"] = list(corpus.names())
        return info

    def validate_search(self, payload: dict) -> dict:
        """Resolve a search payload into a validated, executable request.

        Fails fast (schema existence, strategy resolution, numeric fields)
        without running any search work -- ``POST /jobs`` submissions call
        this so an invalid search campaign is rejected at submit time, then
        hand the returned dict to :meth:`run_search` on the job thread.
        """
        corpus = self._require_corpus()
        if not isinstance(payload, dict) or not isinstance(payload.get("source"), str):
            raise ServiceError(
                "search requests need a 'source' schema name "
                "(an uploaded or corpus-registered schema)", status=400,
            )
        name = payload["source"]
        with self._state_lock:
            schema = self._schemas.get(name)
        if schema is None:
            if not corpus.has(name):
                raise ServiceError(
                    f"no schema named {name!r} uploaded or registered in the "
                    f"corpus", status=404,
                )
            with self._corpus_guard():
                schema = corpus.load(name)
        strategy = self.resolve_strategy(payload.get("strategy"))
        try:
            k = int(payload.get("k", 10))
            candidates = payload.get("candidates")
            candidates = None if candidates is None else int(candidates)
            min_similarity = float(payload.get("min_similarity", 0.0))
        except (TypeError, ValueError):
            raise ServiceError(
                "'k' and 'candidates' must be integers and 'min_similarity' "
                "a number", status=400,
            )
        return {
            "name": name, "schema": schema, "strategy": strategy, "k": k,
            "candidates": candidates, "min_similarity": min_similarity,
        }

    def run_search(self, validated: dict) -> dict:
        """Execute a :meth:`validate_search`-resolved request.

        The cheap index ranking runs on the service's search session; the
        full pipeline on the survivors fans out through the worker pool
        (thread or process backend alike), so the ranked results are
        byte-identical to an in-process ``MatchSession.search`` over the
        same corpus.
        """
        corpus = self._require_corpus()
        name, k = validated["name"], validated["k"]
        min_similarity = validated["min_similarity"]
        with self._corpus_guard():
            results = self._searcher.search(
                validated["schema"],
                k=k,
                strategy=validated["strategy"],
                candidates=validated["candidates"],
                match_many=self._pool.match_many,
            )
        # A full search round trip is the recovery probe: the corpus served
        # its index again, so the degradation mark comes off.
        with self._state_lock:
            self._degraded.pop("corpus", None)
        return {
            "query": name,
            "k": k,
            "corpus_size": len(corpus),
            "results": [
                {
                    "rank": rank,
                    "name": result.name,
                    "candidate_score": result.candidate_score,
                    **self.outcome_payload(result.outcome, min_similarity),
                }
                for rank, result in enumerate(results, start=1)
            ],
            "count": len(results),
        }

    def _search(self, payload: dict) -> dict:
        """``POST /search``: top-K pruned corpus search for an uploaded schema."""
        return self.run_search(self.validate_search(payload))

    def _list_strategies(self) -> dict:
        entries = []
        for name in self.strategy_names():
            strategy = self.resolve_strategy(name)
            entries.append({"name": name, "spec": strategy.to_spec()})
        return {"strategies": entries}

    def _store_strategy(self, payload: dict) -> Tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ServiceError("the strategy payload must be a JSON object", status=400)
        name = payload.get("name")
        spec = payload.get("spec")
        if not isinstance(name, str) or not name:
            raise ServiceError("stored strategies need a non-empty 'name'", status=400)
        if "(" in name or ")" in name:
            raise ServiceError(
                f"strategy names must not contain parentheses (got {name!r})",
                status=400,
            )
        if not isinstance(spec, str) or not spec:
            raise ServiceError("stored strategies need a 'spec' string", status=400)
        try:
            strategy = MatchStrategy.parse(spec, library=self._library).replaced(name=name)
        except ComaError as error:
            raise ServiceError(f"invalid strategy spec: {error}", status=400)
        with self._state_lock:
            replaced = name in self._strategies
            if self._repository is not None:
                replaced = replaced or self._repository.has_strategy(name)
                self._repository.store_strategy(name, strategy)
            self._strategies[name] = strategy
        return (200 if replaced else 201), {
            "name": name,
            "spec": strategy.to_spec(),
            "replaced": replaced,
        }

    def _strategy_details(self, name: str) -> dict:
        # A *stored-name* lookup only: resolve_strategy would happily parse a
        # spec-shaped name and answer 200 for something never stored.
        with self._state_lock:
            strategy = self._strategies.get(name)
        if strategy is None and self._repository is not None \
                and self._repository.has_strategy(name):
            strategy = self._repository.load_strategy(name, library=self._library)
            with self._state_lock:
                strategy = self._strategies.setdefault(name, strategy)
        if strategy is None:
            known = ", ".join(self.strategy_names()) or "none stored yet"
            raise ServiceError(
                f"no stored strategy named {name!r}; stored strategies: {known}",
                status=404,
            )
        return {"name": name, "spec": strategy.to_spec(), "document": strategy.to_dict()}

    def _delete_strategy(self, name: str) -> Tuple[int, dict]:
        with self._state_lock:
            removed = self._strategies.pop(name, None) is not None
            if self._repository is not None:
                removed = self._repository.delete_strategy(name) or removed
        if not removed:
            raise ServiceError(f"no stored strategy named {name!r}", status=404)
        return 200, {"deleted": name}
