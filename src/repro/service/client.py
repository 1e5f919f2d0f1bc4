"""A stdlib-only client for the match service.

:class:`ServiceClient` wraps the JSON API of
:class:`~repro.service.aserver.MatchServiceServer` in typed convenience
methods (``urllib.request`` underneath, no third-party dependencies), so
programs talk to a remote matcher with the same vocabulary the in-process
:class:`~repro.session.session.MatchSession` uses::

    client = ServiceClient("http://127.0.0.1:8765")
    client.upload_schema(text=PO1_DDL, format="sql", name="PO1")
    client.upload_schema(text=PO2_XSD, format="xsd", name="PO2")
    client.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
    result = client.match("PO1", "PO2", strategy="tuned")
    for row in result["correspondences"]:
        print(row["source"], "<->", row["target"], row["similarity"])

Failed requests raise :class:`~repro.exceptions.ServiceError` carrying the
HTTP status and the server's error message.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading
import time
import urllib.parse
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.exceptions import ServiceError

#: One batch entry: ``{"source": ..., "target": ..., "strategy": ...}``.
BatchRequest = Dict[str, Union[str, float, None]]

#: Fallback backoff for a 429 without a usable ``Retry-After`` header: the
#: first retry waits this many seconds, doubling per attempt.
RETRY_BACKOFF_BASE = 0.1
#: Upper bound on the doubling fallback's single retry wait.
RETRY_BACKOFF_CAP = 5.0
#: Upper bound on a wait taken from the server's ``Retry-After`` header.  A
#: header value is clamped into ``[0, MAX_RETRY_WAIT]``: negative values wait
#: nothing, and a server asking for a five-minute (or misconfigured
#: five-year) pause must not silently stall a client call that long.
MAX_RETRY_WAIT = 30.0


def _quoted(name: str) -> str:
    """Percent-encode a name used as a path segment (the server unquotes)."""
    return urllib.parse.quote(str(name), safe="")


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """An HTTPConnection with Nagle's algorithm disabled.

    The client writes headers and body as separate segments; with Nagle on,
    that write-write-read pattern interacts with delayed ACKs into ~40ms
    stalls per request under concurrent load.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ServiceClient:
    """A convenience client for one match-service base URL.

    The client keeps one persistent (keep-alive) HTTP connection *per
    thread*, so request streams skip the TCP handshake and the instance can
    be shared across threads (each thread talks over its own connection).

    Parameters
    ----------
    base_url:
        The service root, e.g. ``"http://127.0.0.1:8765"`` (a trailing slash
        is tolerated).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times a request answered ``429 Too Many Requests`` is
        retried (default 0: fail fast).  A 429 means the server's
        bounded queue refused admission *before* any work started, so the
        replay is safe for every method, not just GET.  Each wait honours
        the server's ``Retry-After`` header, falling back to a deterministic
        doubling backoff (``RETRY_BACKOFF_BASE`` seconds, doubling per
        attempt); either way one wait never exceeds ``RETRY_BACKOFF_CAP``
        seconds.

    Raises
    ------
    ServiceError
        If ``base_url`` is not a plain http URL with a host.

    Examples
    --------
    >>> client = ServiceClient("http://127.0.0.1:8765/")
    >>> client.base_url
    'http://127.0.0.1:8765'
    """

    def __init__(self, base_url: str, timeout: float = 60.0, retries: int = 0):
        self._base_url = base_url.rstrip("/")
        self._timeout = timeout
        self._retries = max(0, int(retries))
        parsed = urllib.parse.urlsplit(self._base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceError(
                f"the service client speaks plain http to a host:port base URL, "
                f"got {base_url!r}"
            )
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._prefix = parsed.path.rstrip("/")
        self._local = threading.local()

    @property
    def base_url(self) -> str:
        """The normalised service root URL."""
        return self._base_url

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _NoDelayHTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            self._local.connection = connection
        return connection

    def close(self) -> None:
        """Close the calling thread's persistent connection (if any)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    #: Transport failures that indicate the server dropped the connection
    #: between (or during) requests -- the signature of a *recycled
    #: keep-alive* connection, e.g. across a server restart.  Only these are
    #: retried, and only when it is safe: always for reused connections, and
    #: for *idempotent GETs* even on a fresh connection (a restarting server
    #: may reset the very first connection's request).  Non-GET requests on a
    #: fresh connection are never re-submitted, and neither is any timeout --
    #: a /match that timed out may still be computing server-side.
    _STALE_CONNECTION_ERRORS = (
        http.client.RemoteDisconnected,
        http.client.CannotSendRequest,
        ConnectionResetError,
        BrokenPipeError,
    )

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        """Issue one JSON request and return the decoded response payload.

        The request rides the calling thread's keep-alive connection; a stale
        connection (e.g. after a server restart) is re-opened and the request
        retried once when that is safe -- always when the failed connection
        was a recycled keep-alive one, and additionally for idempotent GETs
        such as ``/health`` and ``/stats``, whose replay cannot duplicate
        work.  Timeouts are never retried.

        With ``retries > 0``, a ``429 Too Many Requests`` answer (the
        server's bounded queue refusing admission -- the request was
        never started, so replay cannot duplicate work) is retried up to
        that many times, sleeping the server's ``Retry-After`` when it sent
        one and a deterministic doubling backoff otherwise, both capped at
        ``RETRY_BACKOFF_CAP`` seconds per wait.

        Raises
        ------
        ServiceError
            For non-2xx responses (with the server's error message and the
            HTTP status) and for transport-level failures (status 0).
        """
        for attempt in range(self._retries + 1):
            try:
                return self._request_once(method, path, payload)
            except ServiceError as error:
                if error.status != 429 or attempt >= self._retries:
                    raise
                time.sleep(self._retry_delay(error, attempt))
        raise AssertionError("unreachable: the loop returns or raises")

    def _retry_delay(self, error: ServiceError, attempt: int) -> float:
        """Seconds to wait before retry ``attempt + 1`` of a 429'd request.

        A parsable ``Retry-After`` is honoured but clamped into
        ``[0, MAX_RETRY_WAIT]`` -- a negative header waits nothing and an
        absurdly large (or infinite) one waits the cap at most.  Garbage
        (unparsable or NaN) headers fall back to the capped doubling
        backoff.
        """
        header = (error.details or {}).get("retry_after")
        if header is not None:
            try:
                advertised = float(header)
            except (TypeError, ValueError):
                advertised = None  # an unparsable Retry-After -> doubling
            if advertised is not None and not math.isnan(advertised):
                return min(MAX_RETRY_WAIT, max(0.0, advertised))
        return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2 ** attempt))

    def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        target = f"{self._prefix}/{path.lstrip('/')}"
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        idempotent = method.upper() == "GET"
        for attempt in (1, 2):
            reused = getattr(self._local, "connection", None) is not None
            connection = self._connection()
            try:
                connection.request(method.upper(), target, body=body, headers=headers)
                response = connection.getresponse()
                # read() handles every framing the server may use: fixed
                # Content-Length, chunked transfer coding, and close-delimited
                # bodies -- no fixed-length assumption here.
                raw = response.read()
                if response.will_close:
                    # The server ended this connection (Connection: close);
                    # drop it so the next request opens a fresh one instead
                    # of tripping over a half-dead keep-alive socket.
                    self.close()
                break
            except TimeoutError as error:
                self.close()
                raise ServiceError(
                    f"{method} {path} timed out after {self._timeout}s (the "
                    f"server may still be processing it; not retrying)"
                ) from error
            except self._STALE_CONNECTION_ERRORS as error:
                self.close()
                if attempt == 2 or not (reused or idempotent):
                    raise ServiceError(
                        f"cannot reach the match service at {self._base_url}: {error}"
                    ) from error
            except (http.client.HTTPException, OSError) as error:
                self.close()
                raise ServiceError(
                    f"cannot reach the match service at {self._base_url}: {error}"
                ) from error
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"{method} {path} returned a non-JSON response "
                f"(status {response.status})", status=response.status,
            ) from error
        if response.status >= 400:
            message = decoded.get("error") if isinstance(decoded, dict) else None
            details = (
                {key: value for key, value in decoded.items() if key != "error"}
                if isinstance(decoded, dict) else {}
            )
            retry_after = response.getheader("Retry-After")
            if retry_after is not None and "retry_after" not in details:
                details["retry_after"] = retry_after
            raise ServiceError(
                message or f"{method} {path} failed with status {response.status}",
                status=response.status, details=details or None,
            )
        return decoded

    def stream(
        self, method: str, path: str, payload: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Issue one request and yield its NDJSON body line by line.

        Streaming responses (``GET /jobs/<id>/events``) have no
        ``Content-Length`` -- they arrive as chunked transfer coding and end
        when the server closes the stream.  Each decoded JSON line is yielded
        as it arrives.  The request rides a *dedicated* connection (never the
        pooled keep-alive one), so abandoning the generator mid-stream --
        ``break`` out of the loop, or let it be garbage collected -- simply
        closes that connection and cannot desynchronise later requests.

        Raises
        ------
        ServiceError
            For non-2xx responses and transport failures; a ``timeout``
            (defaults to the client timeout) elapsing between lines raises
            too, since a silent stream usually means a dead server.
        """
        target = f"{self._prefix}/{path.lstrip('/')}"
        body = None
        headers = {"Accept": "application/x-ndjson"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = _NoDelayHTTPConnection(
            self._host, self._port,
            timeout=timeout if timeout is not None else self._timeout,
        )
        try:
            try:
                connection.request(method.upper(), target, body=body, headers=headers)
                response = connection.getresponse()
            except (http.client.HTTPException, OSError) as error:
                raise ServiceError(
                    f"cannot reach the match service at {self._base_url}: {error}"
                ) from error
            if response.status >= 400:
                raw = response.read()
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = {}
                raise ServiceError(
                    decoded.get("error")
                    or f"{method} {path} failed with status {response.status}",
                    status=response.status,
                    details={k: v for k, v in decoded.items() if k != "error"},
                )
            while True:
                try:
                    line = response.readline()
                except (http.client.HTTPException, OSError) as error:
                    raise ServiceError(
                        f"{method} {path} stream broke mid-read: {error}"
                    ) from error
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise ServiceError(
                        f"{method} {path} streamed a non-JSON line: {error}"
                    ) from error
        finally:
            connection.close()

    # -- service endpoints -----------------------------------------------------

    def health(self) -> dict:
        """The ``GET /health`` payload (raises if the service is unreachable)."""
        return self.request("GET", "/health")

    def stats(self) -> dict:
        """The ``GET /stats`` payload: cache, pool and request statistics."""
        return self.request("GET", "/stats")

    def upload_schema(
        self,
        name: Optional[str] = None,
        text: Optional[str] = None,
        format: Optional[str] = None,  # noqa: A002 - mirrors the API field
        spec: Optional[dict] = None,
    ) -> dict:
        """Upload a schema (``POST /schemas``).

        Pass either ``text`` + ``format`` (any registered importer format:
        ``sql``, ``xsd``, ``dict``) or an inline dict ``spec``.
        Returns the registration summary (final name, path count,
        statistics).
        """
        payload: dict = {}
        if name is not None:
            payload["name"] = name
        if text is not None:
            payload["text"] = text
        if format is not None:
            payload["format"] = format
        if spec is not None:
            payload["spec"] = spec
        return self.request("POST", "/schemas", payload)

    def schemas(self) -> List[dict]:
        """The uploaded schemas (``GET /schemas``)."""
        return self.request("GET", "/schemas")["schemas"]

    def schema(self, name: str) -> dict:
        """Details of one uploaded schema (``GET /schemas/{name}``)."""
        return self.request("GET", f"/schemas/{_quoted(name)}")

    def delete_schema(self, name: str) -> dict:
        """Remove one uploaded schema (``DELETE /schemas/{name}``)."""
        return self.request("DELETE", f"/schemas/{_quoted(name)}")

    def match(
        self,
        source: str,
        target: str,
        strategy: Optional[str] = None,
        min_similarity: Optional[float] = None,
    ) -> dict:
        """Match two uploaded schemas (``POST /match``).

        ``strategy`` is a full spec string or a stored strategy name; the
        result carries the spec actually used, the schema similarity and the
        selected correspondences.
        """
        payload: dict = {"source": source, "target": target}
        if strategy is not None:
            payload["strategy"] = strategy
        if min_similarity is not None:
            payload["min_similarity"] = min_similarity
        return self.request("POST", "/match", payload)

    def rematch(
        self,
        old: str,
        new: str,
        target: str,
        strategy: Optional[str] = None,
        min_similarity: Optional[float] = None,
    ) -> dict:
        """Incrementally re-match an evolved schema (``POST /rematch``).

        ``old`` and ``new`` name two uploaded versions of the evolving
        schema, ``target`` the unchanged opposite schema.  The server splices
        the previous similarity cube where it can (the response's
        ``"rematch"`` block reports reused vs recomputed rows); the match
        payload itself is byte-identical to ``POST /match`` on
        ``(new, target)``.
        """
        payload: dict = {"old": old, "new": new, "target": target}
        if strategy is not None:
            payload["strategy"] = strategy
        if min_similarity is not None:
            payload["min_similarity"] = min_similarity
        return self.request("POST", "/rematch", payload)

    def match_batch(
        self,
        requests: Sequence[BatchRequest],
        strategy: Optional[str] = None,
        min_similarity: Optional[float] = None,
    ) -> List[dict]:
        """Match many pairs in one request (``POST /match/batch``).

        Each entry is ``{"source": ..., "target": ...}`` with optional
        per-entry ``"strategy"`` / ``"min_similarity"`` overriding the
        batch-level values.
        """
        payload: dict = {"requests": list(requests)}
        if strategy is not None:
            payload["strategy"] = strategy
        if min_similarity is not None:
            payload["min_similarity"] = min_similarity
        return self.request("POST", "/match/batch", payload)["results"]

    def search(
        self,
        source: str,
        k: int = 10,
        strategy: Optional[str] = None,
        candidates: Optional[int] = None,
        min_similarity: Optional[float] = None,
    ) -> dict:
        """Top-K corpus search for an uploaded schema (``POST /search``).

        Requires the service to run with a schema corpus
        (``coma serve --corpus``).  ``source`` is the name of an uploaded or
        corpus-registered schema; the response carries ranked results with
        per-candidate schema similarity, index score and correspondences.
        """
        payload: dict = {"source": source, "k": int(k)}
        if strategy is not None:
            payload["strategy"] = strategy
        if candidates is not None:
            payload["candidates"] = int(candidates)
        if min_similarity is not None:
            payload["min_similarity"] = min_similarity
        return self.request("POST", "/search", payload)

    def corpus_info(self) -> dict:
        """Schema-corpus occupancy and registered names (``GET /corpus``)."""
        return self.request("GET", "/corpus")

    # -- background jobs -------------------------------------------------------

    def submit_job(
        self,
        requests: Optional[Sequence[BatchRequest]] = None,
        kind: str = "batch",
        source: Optional[str] = None,
        k: Optional[int] = None,
        candidates: Optional[int] = None,
        strategy: Optional[str] = None,
        min_similarity: Optional[float] = None,
        chunk_size: Optional[int] = None,
        cancel_on_disconnect: Optional[bool] = None,
    ) -> dict:
        """Start a background campaign (``POST /jobs``); returns the 202 payload.

        ``kind="batch"`` takes the same ``requests`` list as
        :meth:`match_batch` but returns immediately with a job id -- follow
        it with :meth:`stream_job` (live NDJSON events) or :meth:`wait_job`
        (poll until terminal).  ``kind="search"`` takes ``source`` (and
        optionally ``k`` / ``candidates``) like :meth:`search`.
        ``cancel_on_disconnect=True`` asks the server to cancel the job when
        its event-stream consumer drops the connection.
        """
        payload: dict = {"kind": kind}
        if requests is not None:
            payload["requests"] = list(requests)
        if source is not None:
            payload["source"] = source
        if k is not None:
            payload["k"] = int(k)
        if candidates is not None:
            payload["candidates"] = int(candidates)
        if strategy is not None:
            payload["strategy"] = strategy
        if min_similarity is not None:
            payload["min_similarity"] = min_similarity
        if chunk_size is not None:
            payload["chunk_size"] = int(chunk_size)
        if cancel_on_disconnect is not None:
            payload["cancel_on_disconnect"] = bool(cancel_on_disconnect)
        return self.request("POST", "/jobs", payload)

    def jobs(self) -> dict:
        """The jobs table: per-state counts plus snapshots (``GET /jobs``)."""
        return self.request("GET", "/jobs")

    def job(self, job_id: str) -> dict:
        """One job's progress/result snapshot (``GET /jobs/{id}``)."""
        return self.request("GET", f"/jobs/{_quoted(job_id)}")

    def cancel_job(self, job_id: str) -> dict:
        """Cancel a running job (``DELETE /jobs/{id}``)."""
        return self.request("DELETE", f"/jobs/{_quoted(job_id)}")

    def stream_job(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """Tail a job's events as they happen (``GET /jobs/{id}/events``).

        Yields each event dict (``accepted`` -> ``progress`` per chunk ->
        ``result`` | ``error`` | ``cancelled``); the stream ends after the
        terminal event.  Events published before the call are replayed
        first, so a late subscriber still sees the full history.
        """
        return self.stream(
            "GET", f"/jobs/{_quoted(job_id)}/events", timeout=timeout
        )

    def wait_job(
        self, job_id: str, poll_seconds: float = 0.2, timeout: float = 600.0
    ) -> dict:
        """Poll ``GET /jobs/{id}`` until the job reaches a terminal state.

        Returns the final snapshot (with ``result`` for completed jobs);
        raises :class:`~repro.exceptions.ServiceError` when ``timeout``
        elapses first.
        """
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot["state"] != "running":
                return snapshot
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id!r} still running after {timeout}s "
                    f"({snapshot['done']}/{snapshot['total']} done)"
                )
            time.sleep(poll_seconds)

    def save_strategy(self, name: str, spec: str) -> dict:
        """Store a named strategy spec (``POST /strategies``)."""
        return self.request("POST", "/strategies", {"name": name, "spec": spec})

    def strategies(self) -> List[dict]:
        """The stored named strategies (``GET /strategies``)."""
        return self.request("GET", "/strategies")["strategies"]

    def strategy(self, name: str) -> dict:
        """One stored strategy with its dict form (``GET /strategies/{name}``)."""
        return self.request("GET", f"/strategies/{_quoted(name)}")

    def delete_strategy(self, name: str) -> dict:
        """Delete a stored strategy (``DELETE /strategies/{name}``)."""
        return self.request("DELETE", f"/strategies/{_quoted(name)}")

    def shutdown(self) -> dict:
        """Ask the server to stop serving (``POST /shutdown``)."""
        return self.request("POST", "/shutdown", {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceClient({self._base_url!r})"
