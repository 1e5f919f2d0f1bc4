"""Background jobs: long-running match campaigns behind the service API.

Corpus-scale work -- a thousand-pair batch, a top-K search over a large
corpus -- takes minutes, and holding an HTTP connection open for the whole
run does not survive real networks.  The job subsystem turns those requests
into *background campaigns*:

* ``POST /jobs`` validates the campaign up front (every invalid entry is
  reported with its index, like ``/match/batch``), registers a :class:`Job`
  and starts it on a worker thread -- the response is an immediate ``202``
  with the job id;
* the job thread splits the campaign into chunks and runs each chunk through
  the service's worker pool (thread or process backend alike), so a running
  job never holds a pool shard between chunks and a cancelled job releases
  its shard at the next chunk boundary;
* every state change appends a JSON **event** (``accepted`` -> ``progress``
  per chunk -> ``result`` | ``error`` | ``cancelled``) to the job's ordered
  event log.  ``GET /jobs/<id>/events`` replays the log and live-tails it as
  newline-delimited JSON (NDJSON); ``GET /jobs/<id>`` is the poll-style
  snapshot of the same state.

Events are deterministic -- sequence numbers and counts, no timestamps -- so
the same campaign streams byte-identical event lines on the thread and
process backends (the golden-transcript suite pins them).  Wall-clock
timing lives only in the ``GET /jobs/<id>`` snapshot (``duration_seconds``).

A job submitted with ``"cancel_on_disconnect": true`` is cancelled when the
client streaming its events disconnects mid-stream -- the fault-injection
suite asserts the worker shard is reaped back into the pool when that
happens.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.exceptions import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import MatchService

#: Default number of pairs matched per pool acquisition.
DEFAULT_CHUNK_SIZE = 8
#: Upper bound on the per-chunk size a submission may request.
MAX_CHUNK_SIZE = 1024
#: Finished jobs kept for status/event queries before eviction (FIFO).
MAX_FINISHED_JOBS = 64

#: Job lifecycle states.
JOB_STATES = ("running", "done", "error", "cancelled")


class Job:
    """One background campaign: state, progress counters and the event log.

    All mutation happens under one lock; readers take consistent snapshots
    (:meth:`status`, :meth:`events_after`), which the HTTP shell polls from
    its event loop to tail the event log.
    """

    def __init__(self, job_id: str, kind: str, total: int, chunks: int,
                 cancel_on_disconnect: bool):
        self.id = job_id
        self.kind = kind
        self.total = total
        self.chunks = chunks
        self.cancel_on_disconnect = cancel_on_disconnect
        self.state = "running"
        self.done = 0
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self._events: List[dict] = []
        self._lock = threading.Lock()
        self._cancel = threading.Event()
        self._started = time.monotonic()
        self._finished_at: Optional[float] = None

    # -- event log -------------------------------------------------------------

    def publish(self, event: dict) -> None:
        """Append one event (stamped with its sequence number)."""
        with self._lock:
            self._events.append({"seq": len(self._events), **event})

    def finish(self, state: str, *, result: Optional[dict] = None,
               error: Optional[str] = None) -> None:
        """Transition to a terminal state and publish the terminal event."""
        with self._lock:
            if self.state != "running":  # already terminal (e.g. cancel race)
                return
            self.state = state
            self.result = result
            self.error = error
            self._finished_at = time.monotonic()
        terminal = {"event": "cancelled" if state == "cancelled" else state,
                    "job": self.id, "done": self.done, "total": self.total}
        if state == "done":
            terminal = {"event": "result", "job": self.id, **(result or {})}
        elif state == "error":
            terminal = {"event": "error", "job": self.id, "error": error}
        self.publish(terminal)

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state != "running"

    def cancel(self) -> bool:
        """Request cancellation; True when the job was still running.

        The job thread honours the request at the next chunk boundary, so the
        pool shard working the current chunk is always released back to the
        free-list -- cancellation never leaks a shard.
        """
        with self._lock:
            running = self.state == "running"
        self._cancel.set()
        return running

    @property
    def cancelled(self) -> bool:
        """True when cancellation has been requested."""
        return self._cancel.is_set()

    def events_after(self, seq: int) -> Tuple[List[dict], bool]:
        """Events with sequence >= ``seq`` plus the current finished flag."""
        with self._lock:
            return list(self._events[seq:]), self.state != "running"

    def status(self, include_result: bool = True) -> dict:
        """The ``GET /jobs/<id>`` snapshot of this job."""
        with self._lock:
            payload = {
                "job": self.id,
                "kind": self.kind,
                "state": self.state,
                "done": self.done,
                "total": self.total,
                "chunks": self.chunks,
                "events": len(self._events),
                "cancel_on_disconnect": self.cancel_on_disconnect,
                "duration_seconds": round(
                    (self._finished_at or time.monotonic()) - self._started, 3
                ),
            }
            if self.error is not None:
                payload["error"] = self.error
            if include_result and self.result is not None:
                payload["result"] = self.result
            return payload


class JobManager:
    """The service's jobs table: submission, execution, streaming, eviction.

    One manager per :class:`~repro.service.server.MatchService`; jobs run on
    daemon worker threads and execute their chunks through the service's
    worker pool, so the thread and process backends serve jobs identically.
    """

    def __init__(self, service: "MatchService",
                 max_finished: int = MAX_FINISHED_JOBS):
        self._service = service
        self._max_finished = max_finished
        self._jobs: Dict[str, Job] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._next_id = 0

    # -- registry --------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job registered under ``job_id`` (404 when unknown/evicted)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(
                f"no job named {job_id!r} (unknown id, or an old finished "
                f"job already evicted from the table)", status=404,
            )
        return job

    def jobs(self) -> List[Job]:
        """All registered jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def info(self) -> dict:
        """The ``/stats`` summary: per-state counts plus the jobs table."""
        jobs = self.jobs()
        by_state = {state: 0 for state in JOB_STATES}
        for job in jobs:
            by_state[job.state] += 1
        return {
            "total": len(jobs),
            "by_state": by_state,
            "jobs": [job.status(include_result=False) for job in jobs],
        }

    def _evict_finished(self) -> None:
        # caller holds self._lock
        finished = [job_id for job_id, job in self._jobs.items() if job.finished]
        while len(finished) > self._max_finished:
            evicted = finished.pop(0)
            self._jobs.pop(evicted, None)
            self._threads.pop(evicted, None)

    # -- submission ------------------------------------------------------------

    def submit(self, payload: dict) -> Tuple[int, dict]:
        """Validate and start one campaign; the ``POST /jobs`` entry point.

        Returns ``(202, acceptance payload)``.  Validation is all-or-nothing
        and exhaustive: every invalid batch entry is reported with its index
        (the same contract as ``POST /match/batch``), and no job is
        registered unless the whole campaign resolved.
        """
        if not isinstance(payload, dict):
            raise ServiceError("the job payload must be a JSON object", status=400)
        kind = payload.get("kind", "batch")
        if kind not in ("batch", "search"):
            raise ServiceError(
                f"unknown job kind {kind!r}: choose 'batch' or 'search'",
                status=400,
            )
        chunk_size = payload.get("chunk_size", DEFAULT_CHUNK_SIZE)
        if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) \
                or not 1 <= chunk_size <= MAX_CHUNK_SIZE:
            raise ServiceError(
                f"'chunk_size' must be an integer in [1, {MAX_CHUNK_SIZE}], "
                f"got {chunk_size!r}", status=400,
            )
        cancel_on_disconnect = bool(payload.get("cancel_on_disconnect", False))
        if kind == "batch":
            items, thresholds = self._service.resolve_batch(payload)
            total = len(items)
            chunks = (total + chunk_size - 1) // chunk_size
            runner_args = (items, thresholds, chunk_size)
        else:
            search_payload = self._service.validate_search(payload)
            total, chunks = 1, 1
            runner_args = (search_payload,)
        with self._lock:
            self._next_id += 1
            job_id = f"j{self._next_id}"
            job = Job(job_id, kind, total, chunks, cancel_on_disconnect)
            self._jobs[job_id] = job
            self._evict_finished()
            thread = threading.Thread(
                target=self._run, args=(job, kind, runner_args),
                name=f"coma-job-{job_id}", daemon=True,
            )
            self._threads[job_id] = thread
        job.publish({"event": "accepted", "job": job_id, "kind": kind,
                     "total": total, "chunks": chunks})
        thread.start()
        return 202, {"job": job_id, "state": "running", "kind": kind,
                     "total": total, "chunks": chunks}

    # -- execution -------------------------------------------------------------

    def _run(self, job: Job, kind: str, runner_args: tuple) -> None:
        try:
            if kind == "batch":
                self._run_batch(job, *runner_args)
            else:
                self._run_search(job, *runner_args)
        except Exception as error:  # noqa: BLE001 - job errors become events
            job.finish("error", error=str(error))

    def _run_batch(self, job: Job, items, thresholds, chunk_size: int) -> None:
        results: List[dict] = []
        for chunk_index in range(job.chunks):
            if job.cancelled:
                job.finish("cancelled")
                return
            start = chunk_index * chunk_size
            chunk = items[start:start + chunk_size]
            outcomes = self._service.pool.match_many(chunk)
            for outcome, threshold in zip(outcomes, thresholds[start:start + len(chunk)]):
                results.append(self._service.outcome_payload(outcome, threshold))
            job.done += len(chunk)
            job.publish({"event": "progress", "job": job.id, "done": job.done,
                         "total": job.total, "chunk": chunk_index + 1,
                         "chunks": job.chunks})
        job.finish("done", result={"count": len(results), "results": results})

    def _run_search(self, job: Job, payload: dict) -> None:
        if job.cancelled:
            job.finish("cancelled")
            return
        job.publish({"event": "progress", "job": job.id, "done": 0,
                     "total": 1, "chunk": 1, "chunks": 1})
        result = self._service.run_search(payload)
        job.done = 1
        if job.cancelled:
            job.finish("cancelled")
            return
        job.finish("done", result=result)

    # -- streaming and disconnects ---------------------------------------------

    def subscriber_disconnected(self, job: Job) -> bool:
        """A client streaming ``job``'s events dropped the connection.

        Cancels the job when it opted in via ``cancel_on_disconnect``;
        returns True when a cancellation was actually triggered.
        """
        if job.cancel_on_disconnect and not job.finished:
            return job.cancel()
        return False

    def close(self, timeout: float = 10.0) -> None:
        """Cancel every running job and wait briefly for the job threads."""
        for job in self.jobs():
            job.cancel()
        with self._lock:
            threads = list(self._threads.values())
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))


class JobEventStream:
    """A streamed ``GET /jobs/<id>/events`` response body.

    The transport-agnostic :meth:`MatchService.handle_request
    <repro.service.server.MatchService.handle_request>` returns this object
    instead of a JSON dict for the events endpoint; the HTTP shell polls
    :meth:`poll` from its event loop, renders the lines as chunked NDJSON
    and reports a dropped consumer through :meth:`disconnected`.
    """

    content_type = "application/x-ndjson"

    def __init__(self, manager: JobManager, job: Job):
        self._manager = manager
        self.job = job
        self._seq = 0

    @staticmethod
    def encode(event: dict) -> bytes:
        """One NDJSON line for ``event`` (trailing newline included)."""
        return (json.dumps(event) + "\n").encode("utf-8")

    def poll(self) -> Tuple[List[bytes], bool]:
        """Encoded lines published since the last call + the finished flag."""
        events, finished = self.job.events_after(self._seq)
        self._seq += len(events)
        return [self.encode(event) for event in events], finished

    @property
    def drained(self) -> bool:
        """True once the terminal event has been handed out."""
        events, finished = self.job.events_after(self._seq)
        return finished and not events

    def disconnected(self) -> bool:
        """Report a consumer disconnect; True when it cancelled the job."""
        return self._manager.subscriber_disconnected(self.job)
