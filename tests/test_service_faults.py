"""Fault injection against the HTTP front-end: misbehaving clients and load.

The golden-transcript suite pins the happy paths byte for byte; this suite
proves the front-end *fails* the way it promises to:

* a slow-loris client (drip-feeding a request head or body forever) is
  answered 408 and dropped within the read timeout, never pinning the loop;
* malformed request lines / invalid JSON / oversized bodies get clean 4xx
  JSON answers (and recoverable ones keep the connection alive);
* a saturated dispatch queue answers ``429`` + ``Retry-After`` immediately
  instead of queueing unbounded work, and a draining server answers 503;
* pipelined requests are answered strictly in order;
* a client that disconnects mid-event-stream gets its
  ``cancel_on_disconnect`` job cancelled -- and the worker shard the job was
  using is reaped back into the pool's free-list (no leak);
* handler exceptions never leak a pool shard (the free-list invariant holds
  after 100 raising requests).
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ServiceError
from repro.service import ServiceClient, SessionPool, create_server
from repro.service.server import MAX_BODY_BYTES


def _start(read_timeout=30.0, max_queue=64, **service_kwargs):
    server = create_server(
        port=0, read_timeout=read_timeout, max_queue=max_queue, **service_kwargs
    )
    thread = server.run_in_thread()
    return server, thread


def _stop(server, thread):
    server.request_shutdown()
    thread.join(timeout=10)


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_response(sock: socket.socket) -> tuple:
    """One (status, headers, body) parsed off a raw socket."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = response.read()
    return response.status, dict(response.getheaders()), body


class TestSlowLoris:
    def test_stalled_request_head_is_answered_408_and_dropped(self):
        server, thread = _start(read_timeout=0.5, pool_size=1)
        try:
            sock = _connect(server.port)
            sock.sendall(b"GET /health HT")  # ...and then never finish
            status, _, body = _read_response(sock)
            assert status == 408
            assert b"slow client or stalled request" in body
            assert sock.recv(64) == b""  # server closed the connection
            sock.close()
        finally:
            _stop(server, thread)

    def test_stalled_request_body_is_answered_408(self):
        server, thread = _start(read_timeout=0.5, pool_size=1)
        try:
            sock = _connect(server.port)
            sock.sendall(
                b"POST /match HTTP/1.1\r\nContent-Length: 50\r\n"
                b"Content-Type: application/json\r\n\r\n{\"so"
            )
            status, _, body = _read_response(sock)
            assert status == 408
            assert b"request body" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_a_stalled_connection_does_not_block_other_clients(self):
        server, thread = _start(read_timeout=5.0, pool_size=1)
        try:
            stalled = _connect(server.port)
            stalled.sendall(b"GET /heal")  # parked mid-request-line
            client = ServiceClient(server.url)
            start = time.monotonic()
            assert client.health()["status"] == "ok"
            assert time.monotonic() - start < 2.0  # served while one stalls
            stalled.close()
            client.close()
        finally:
            _stop(server, thread)


class TestMalformedInput:
    def test_garbage_request_line_is_a_400(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.port)
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 400
            assert b"malformed" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_invalid_json_body_is_a_400_and_keeps_the_connection(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.port)
            bad = b"{not json"
            sock.sendall(
                b"POST /match HTTP/1.1\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(bad) + bad
            )
            status, headers, body = _read_response(sock)
            assert status == 400
            assert b"not valid JSON" in body
            assert headers["Connection"] == "keep-alive"
            # The same connection still serves the next (valid) request.
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            sock.close()
        finally:
            _stop(server, thread)

    def test_oversized_body_is_a_413_without_reading_it(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.port)
            declared = 5 * MAX_BODY_BYTES  # over the drain threshold: cut off
            sock.sendall(
                b"POST /schemas HTTP/1.1\r\n"
                + b"Content-Length: %d\r\n\r\n" % declared
            )
            status, headers, body = _read_response(sock)
            assert status == 413
            assert str(MAX_BODY_BYTES).encode() in body
            assert headers["Connection"] == "close"
            sock.close()
        finally:
            _stop(server, thread)

    def test_negative_content_length_is_a_400(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.port)
            sock.sendall(b"POST /match HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 400
            assert b"Content-Length" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_chunked_request_bodies_are_refused_with_411(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.port)
            sock.sendall(
                b"POST /match HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
            status, _, body = _read_response(sock)
            assert status == 411
            sock.close()
        finally:
            _stop(server, thread)


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after_immediately(self):
        server, thread = _start(max_queue=3, pool_size=1)
        release = threading.Event()
        original = server.service.handle_request

        def blocking(method, path, payload=None):
            if path.rstrip("/") == "/block":
                release.wait(timeout=30)
                return 200, {"blocked": True}
            return original(method, path, payload)

        server.service.handle_request = blocking
        try:
            # Saturate every admission slot with parked requests.
            def park():
                sock = _connect(server.port)
                sock.sendall(b"GET /block HTTP/1.1\r\n\r\n")
                return sock

            parked = [park() for _ in range(3)]
            deadline = time.monotonic() + 10
            while server._in_flight < 3:
                assert time.monotonic() < deadline, "requests never admitted"
                time.sleep(0.01)

            # The next request must be rejected *now*, not queued.
            start = time.monotonic()
            sock = _connect(server.port)
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(sock)
            elapsed = time.monotonic() - start
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert b"at capacity" in body
            assert elapsed < 2.0  # rejected immediately, not after the stall
            # 429 keeps the keep-alive connection usable for the retry.
            assert headers["Connection"] == "keep-alive"

            release.set()
            for parked_sock in parked:  # the admitted requests all complete
                status, _, body = _read_response(parked_sock)
                assert status == 200 and json.loads(body)["blocked"]
                parked_sock.close()
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")  # the retry succeeds
            status, _, _ = _read_response(sock)
            assert status == 200
            sock.close()
            assert server._rejected_429 >= 1
        finally:
            release.set()
            server.service.handle_request = original
            _stop(server, thread)

    def test_draining_server_answers_503_and_closes(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.port)  # established before the drain
            server._draining = True  # what close() flips first during shutdown
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(sock)
            assert status == 503
            assert b"draining" in body
            assert headers["Connection"] == "close"
            sock.close()
            assert server._rejected_503 >= 1
        finally:
            server._draining = False
            _stop(server, thread)


class TestPipelining:
    def test_pipelined_requests_are_answered_strictly_in_order(self):
        server, thread = _start(pool_size=2)
        try:
            sock = _connect(server.port)
            sock.sendall(
                b"GET /health HTTP/1.1\r\n\r\n"
                b"GET /stats HTTP/1.1\r\n\r\n"
                b"GET /schemas HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            first = _read_response(sock)
            second = _read_response(sock)
            third = _read_response(sock)
            assert json.loads(first[2])["status"] == "ok"
            assert "uptime_seconds" in json.loads(second[2])
            assert json.loads(third[2]) == {"schemas": []}
            assert third[1]["Connection"] == "close"
            sock.close()
        finally:
            _stop(server, thread)


class TestDisconnectReapsJobs:
    def test_mid_stream_disconnect_cancels_the_job_without_leaking_a_shard(self):
        server, thread = _start(pool_size=1)
        service = server.service
        pool = service.pool
        slow_original = pool.match_many

        def slow_match_many(items):
            time.sleep(0.15)  # stretch each chunk so the stream outlives us
            return slow_original(items)

        pool.match_many = slow_match_many
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            job = client.submit_job(
                requests=[{"source": "PO1", "target": "PO2"}] * 200,
                chunk_size=1, cancel_on_disconnect=True,
            )

            sock = _connect(server.port)
            sock.sendall(
                f"GET /jobs/{job['job']}/events HTTP/1.1\r\n\r\n".encode()
            )
            head = sock.recv(4096)  # the 200 + at least the accepted event
            assert b"200 OK" in head
            # Hard disconnect: SO_LINGER(on, 0) turns close() into a RST,
            # which is what a crashed consumer looks like to the server.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()

            final = client.wait_job(job["job"], timeout=30.0)
            assert final["state"] == "cancelled"
            assert final["done"] < final["total"]  # stopped mid-campaign

            # The reap invariant: no shard left checked out by the dead job.
            deadline = time.monotonic() + 10
            while pool.idle != pool.size:
                assert time.monotonic() < deadline, (
                    f"leaked a shard: idle={pool.idle} size={pool.size}"
                )
                time.sleep(0.05)
            # ...and the pool still serves new work.
            assert client.match("PO1", "PO2")["correspondences"]
            client.close()
        finally:
            pool.match_many = slow_original
            _stop(server, thread)

    def test_disconnect_leaves_jobs_without_the_flag_running(self):
        server, thread = _start(pool_size=1)
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            job = client.submit_job(
                requests=[{"source": "PO1", "target": "PO2"}] * 6,
                chunk_size=2,  # default cancel_on_disconnect=False
            )
            sock = _connect(server.port)
            sock.sendall(
                f"GET /jobs/{job['job']}/events HTTP/1.1\r\n\r\n".encode()
            )
            assert b"200 OK" in sock.recv(4096)
            sock.close()  # polite FIN, job must keep running
            final = client.wait_job(job["job"], timeout=60.0)
            assert final["state"] == "done"
            assert final["done"] == 6
            client.close()
        finally:
            _stop(server, thread)


class TestShardLeakOnHandlerExceptions:
    def test_pool_free_list_survives_raising_sessions(self):
        pool = SessionPool(size=2)

        class Boom(RuntimeError):
            pass

        failures = 0
        for _ in range(100):
            try:
                with pool.session():
                    raise Boom("handler blew up mid-request")
            except Boom:
                failures += 1
        assert failures == 100
        assert pool.idle == pool.size  # every shard released despite the raise

    def test_100_raising_requests_leave_the_service_pool_intact(self):
        server, thread = _start(pool_size=2, max_queue=8)
        service = server.service
        pool = service.pool
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")

            # Every shard's match() raises mid-request from now on.
            broken = []
            for session in pool.sessions:
                broken.append((session, session.match))

                def exploding(*args, _s=session, **kwargs):
                    raise RuntimeError("injected session failure")

                session.match = exploding
            try:
                for _ in range(100):
                    with pytest.raises(ServiceError) as failure:
                        client.match("PO1", "PO2")
                    assert failure.value.status == 500
            finally:
                for session, original in broken:
                    session.match = original

            assert pool.idle == pool.size  # the free-list invariant
            # And the service still works with the sessions restored.
            assert client.match("PO1", "PO2")["correspondences"]
            client.close()
        finally:
            _stop(server, thread)
