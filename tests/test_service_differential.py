"""Differential harness: the service still serves the bytes both former
front-ends served.

One *request script* covers every endpoint (schemas, match, batch -- valid
and invalid --, strategies, search, corpus, jobs with their event streams and
a mid-run cancel, plus the 404/405 error paths).  Each step's canonical JSON
response is sha256-hashed, and the transcript of hashes must equal the one
checked in as ``service_golden.json``, on the thread *and* the process
backend.  The golden file also pins the raw NDJSON lines of job event
streams.

The golden was recorded when the service still had two HTTP front-ends (a
threaded one and the asyncio one) and the suite compared them live; both
produced exactly these transcripts and event lines, so the remaining
front-end is held to the bytes of both.

Volatile fields that legitimately differ between two server instances
(wall-clock uptimes/durations and worker pids) are normalised out before
hashing; everything else -- float similarities included -- must match to the
byte.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pathlib
import time

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ServiceError
from repro.service import ServiceClient, create_server

GOLDEN = pathlib.Path(__file__).with_name("service_golden.json")

#: Pool size per backend the golden transcripts were recorded with.
BACKENDS = {"thread": 2, "process": 1}

#: Response keys that legitimately differ between two separately started
#: servers: wall-clock readings and process ids.
VOLATILE_KEYS = frozenset({"uptime_seconds", "duration_seconds", "pid", "workers"})

#: Seconds each job chunk is stretched by, so the scripted DELETE always
#: lands while the cancelled job is still running (a warm chunk is far
#: faster than a request round trip on the thread backend).
CHUNK_DELAY_SECONDS = 0.05


def _normalise(value):
    """Strip volatile keys recursively so hashes compare only semantics."""
    if isinstance(value, dict):
        return {
            key: _normalise(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    return value


def _digest(step_result) -> str:
    canonical = json.dumps(_normalise(step_result), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _call(client: ServiceClient, method: str, path: str, payload=None):
    """One scripted request as a canonicalisable (status, payload) pair.

    Error responses are part of the transcript too: the status, message and
    structured details are pinned like any success payload.
    """
    try:
        return ("ok", client.request(method, path, payload))
    except ServiceError as error:
        return ("error", error.status, str(error), error.details)


def _run_script(client: ServiceClient):
    """The full endpoint sweep; returns ``[(label, result), ...]``."""
    steps = []

    def step(label, result):
        steps.append((label, result))

    step("health", _call(client, "GET", "/health"))
    step("upload-po1", _call(client, "POST", "/schemas", {
        "name": "PO1", "text": PO1_DDL, "format": "sql"}))
    step("upload-po2", _call(client, "POST", "/schemas", {
        "name": "PO2", "text": PO2_XSD, "format": "xsd"}))
    step("upload-conflict", _call(client, "POST", "/schemas", {
        "name": "PO1", "text": PO1_DDL, "format": "sql"}))
    step("list-schemas", _call(client, "GET", "/schemas"))
    step("get-schema", _call(client, "GET", "/schemas/PO1"))
    step("get-missing-schema", _call(client, "GET", "/schemas/NOPE"))

    step("match-default", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2"}))
    step("match-strategy", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2",
        "strategy": "Name+Leaves(Average,Both,Thr(0.6),Dice)"}))
    step("match-threshold", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2", "min_similarity": 0.5}))

    step("batch-valid", _call(client, "POST", "/match/batch", {
        "requests": [
            {"source": "PO1", "target": "PO2"},
            {"source": "PO2", "target": "PO1",
             "strategy": "All(Max,Both,Thr(0.5)+MaxN(1),Average)"},
            {"source": "PO1", "target": "PO2", "min_similarity": 0.7},
        ]}))
    step("batch-all-invalid-indices", _call(client, "POST", "/match/batch", {
        "requests": [
            {"source": "PO1", "target": "MISSING"},
            {"target": "PO2"},
            {"source": "PO1", "target": "PO2"},
            {"source": "PO1", "target": "PO2", "strategy": "Bogus("},
        ]}))

    step("save-strategy", _call(client, "POST", "/strategies", {
        "name": "tuned", "spec": "All(Average,Both,Thr(0.5)+Delta(0.02),Average)"}))
    step("list-strategies", _call(client, "GET", "/strategies"))
    step("match-saved-strategy", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2", "strategy": "tuned"}))

    step("corpus-info", _call(client, "GET", "/corpus"))
    step("search", _call(client, "POST", "/search", {
        "name": "PO1", "k": 1}))

    # -- jobs: submission, polling, streaming, cancellation -------------------
    accepted = _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "PO2"}] * 5,
        "chunk_size": 2})
    step("job-submit", accepted)
    job_id = accepted[1]["job"]
    step("job-events", ("stream", list(client.stream_job(job_id))))
    final = client.wait_job(job_id)
    step("job-final-status", ("ok", final))
    step("job-unknown", _call(client, "GET", "/jobs/j999"))
    step("job-invalid-chunk", _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "PO2"}], "chunk_size": 0}))
    step("job-invalid-batch", _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "NOPE"}, {"source": "PO1"}]}))

    cancelled = _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "PO2"}] * 64,
        "chunk_size": 1, "cancel_on_disconnect": True})
    step("job-submit-2", cancelled)
    step("job-cancel", _call(client, "DELETE", f"/jobs/{cancelled[1]['job']}"))
    terminal = client.wait_job(cancelled[1]["job"])
    # How many chunks ran before the flag was seen depends on timing; the
    # *state* is the deterministic part.
    step("job-cancelled-state", ("ok", terminal["state"]))
    step("jobs-table-states",
         ("ok", _call(client, "GET", "/jobs")[1]["by_state"]))

    step("unknown-route", _call(client, "GET", "/no/such/route"))
    step("bad-method", _call(client, "DELETE", "/stats"))
    step("delete-schema", _call(client, "DELETE", "/schemas/PO2"))
    # /stats carries per-run timing artifacts beyond the volatile keys (poll
    # counts from wait_job, cache totals from however many chunks the
    # cancelled job completed), so only its timing-free slice is hashed.
    stats = _call(client, "GET", "/stats")[1]
    step("stats-stable", ("ok", {
        key: stats[key] for key in ("backend", "schemas", "strategies")}))
    step("stats-pool-shape", ("ok", {
        "size": stats["pool"]["size"], "idle": stats["pool"]["idle"]}))
    return steps


def _raw_event_lines(port: int, job_id: str):
    """The raw NDJSON lines of a job's ``/events`` stream."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        return response.read().decode("utf-8").splitlines()
    finally:
        connection.close()


def replay(port: int, pool):
    """Run the script against a fresh server on ``port`` whose worker pool is
    ``pool``; returns ``(transcript, event lines of the first job)``."""
    match_many = pool.match_many

    def stretched(items):
        time.sleep(CHUNK_DELAY_SECONDS)
        return match_many(items)

    pool.match_many = stretched
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        transcript = [[label, _digest(result)] for label, result in _run_script(client)]
        return transcript, _raw_event_lines(port, "j1")
    finally:
        client.close()
        pool.match_many = match_many


@pytest.mark.parametrize("backend,pool_size", list(BACKENDS.items()))
def test_front_ends_serve_sha256_identical_transcripts(backend, pool_size):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    server = create_server(
        port=0, pool_size=pool_size, backend=backend, corpus_path=":memory:"
    )
    thread = server.run_in_thread()
    try:
        transcript, events = replay(server.port, server.service.pool)
    finally:
        server.request_shutdown()
        thread.join(timeout=10)
    expected = golden["transcripts"][backend]
    assert [label for label, _ in transcript] == [label for label, _ in expected]
    mismatches = [
        label for (label, digest), (_, want) in zip(transcript, expected)
        if digest != want
    ]
    assert not mismatches, f"responses differ from the golden transcript: {mismatches}"
    assert events == golden["event_stream"][backend]


def test_event_stream_lines_are_byte_identical_across_front_ends():
    """The raw NDJSON lines (not just parsed dicts) of a three-request job on
    a one-worker pool must equal the lines both front-ends produced."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    server = create_server(port=0, pool_size=1)
    thread = server.run_in_thread()
    client = ServiceClient(server.url)
    try:
        client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
        client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
        job = client.submit_job(
            requests=[{"source": "PO1", "target": "PO2"}] * 3, chunk_size=2
        )
        lines = _raw_event_lines(server.port, job["job"])
    finally:
        client.close()
        server.request_shutdown()
        thread.join(timeout=10)
    assert lines == golden["small_job_event_stream"]
