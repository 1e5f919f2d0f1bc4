"""Client resilience: retries across recycled keep-alive connections.

The regression these tests lock down: a long-lived :class:`ServiceClient`
whose server is killed and restarted mid-lifetime must transparently recover
on idempotent GETs (``/health``, ``/stats``) -- including when the dropped
connection was *fresh* (a restarting server resetting the first request) --
while non-GET requests are never silently re-submitted on a fresh connection.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ServiceError
from repro.service import ServiceClient, create_server

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def _free_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


class _ServerDied(RuntimeError):
    """The child exited before coming healthy (e.g. the picked port was
    re-bound by another process between ``_free_port`` and the spawn)."""


def _spawn_server(port: int) -> subprocess.Popen:
    """Run ``coma serve`` in a real child process (a killable server).

    An in-process shutdown is not a faithful restart: it drains gracefully
    instead of dropping connections mid-flight.  Killing a child process
    drops every connection the way a real crash-and-restart does.
    """
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC_DIR + os.pathsep + environment.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port), "--workers", "1", "--quiet",
        ],
        env=environment,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    probe = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise _ServerDied(
                f"coma serve exited with {process.returncode} before "
                f"serving on port {port} (port race?)"
            )
        try:
            if probe.health()["status"] == "ok":
                probe.close()
                return process
        except ServiceError:
            time.sleep(0.1)
    process.kill()
    raise RuntimeError(f"coma serve did not come up on port {port}")


def _spawn_server_on_a_free_port() -> "tuple[subprocess.Popen, int]":
    """Pick a port with ``bind(0)`` and spawn on it; retry once on a race.

    The pick-then-bind window is small but real under parallel test runs:
    another process can grab the port between ``_free_port`` releasing it and
    the child binding it.  One retry with a freshly picked port removes that
    flake without masking genuine startup failures.
    """
    for attempt in (1, 2):
        port = _free_port()
        try:
            return _spawn_server(port), port
        except _ServerDied:
            if attempt == 2:
                raise
    raise AssertionError("unreachable")


def _kill(process: subprocess.Popen) -> None:
    process.kill()
    process.wait(timeout=10)


class TestRestartMidClientLifetime:
    def test_idempotent_gets_survive_a_server_restart(self):
        first, port = _spawn_server_on_a_free_port()
        client = ServiceClient(f"http://127.0.0.1:{port}")
        try:
            assert client.health()["status"] == "ok"  # keep-alive established
        finally:
            _kill(first)

        # The client's pooled connection is now stale: the next GET hits a
        # recycled keep-alive socket the dead server dropped.  With a fresh
        # server on the same port, one retry must recover transparently.
        second = _spawn_server(port)
        try:
            assert client.health()["status"] == "ok"
            assert client.stats()["requests"]["total"] >= 1
            # Non-GET traffic also flows again (on the re-opened connection).
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            assert client.match("PO1", "PO2")["correspondences"]
        finally:
            _kill(second)

    def test_requests_fail_cleanly_when_the_server_stays_down(self):
        server, port = _spawn_server_on_a_free_port()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
        assert client.health()["status"] == "ok"
        _kill(server)
        with pytest.raises(ServiceError):
            client.health()  # one retry, then a clean error -- no hang


class _ResetFirstConnectionProxy(threading.Thread):
    """A TCP proxy that resets its first connection, then tunnels the rest.

    This reproduces the restart race the retry exists for: the *first*
    connection a client opens is dropped without a response (as a restarting
    server does), while subsequent connections reach the real server.
    """

    def __init__(self, target_port: int):
        super().__init__(daemon=True)
        self._target_port = target_port
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._dropped_one = False
        self._running = True

    def run(self) -> None:
        while self._running:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            if not self._dropped_one:
                self._dropped_one = True
                # RST instead of FIN, so the client sees ConnectionResetError
                # (a FIN would surface as RemoteDisconnected -- also retried).
                connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                connection.close()
                continue
            upstream = socket.create_connection(("127.0.0.1", self._target_port))
            for source, sink in ((connection, upstream), (upstream, connection)):
                threading.Thread(
                    target=self._pump, args=(source, sink), daemon=True
                ).start()

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket) -> None:
        try:
            while True:
                data = source.recv(1 << 16)
                if not data:
                    break
                sink.sendall(data)
        except OSError:
            pass
        for endpoint in (source, sink):
            try:
                endpoint.close()
            except OSError:
                pass

    def stop(self) -> None:
        self._running = False
        self._listener.close()


@pytest.fixture()
def real_server():
    server = create_server(port=0, pool_size=1)
    thread = server.run_in_thread()
    yield server
    server.request_shutdown()
    thread.join(timeout=10)


class _SaturatedServer:
    """A real server wedged at capacity (every slot parked).

    ``max_queue`` raw requests are parked on a patched ``/block`` route, so
    the *next* request of any client is answered with a genuine
    ``429 Too Many Requests`` + ``Retry-After`` by the production admission
    path -- no mocked responses anywhere.  ``release()`` un-parks them,
    draining the queue so retried requests are admitted.
    """

    def __init__(self, max_queue: int = 2):
        self.server = create_server(port=0, pool_size=1, max_queue=max_queue)
        self.thread = self.server.run_in_thread()
        self.max_queue = max_queue
        self._release = threading.Event()
        self._original = self.server.service.handle_request
        self._parked: "list[socket.socket]" = []

        def blocking(method, path, payload=None):
            if path.rstrip("/") == "/block":
                self._release.wait(timeout=30)
                return 200, {"blocked": True}
            return self._original(method, path, payload)

        self.server.service.handle_request = blocking

    def saturate(self) -> None:
        for _ in range(self.max_queue):
            sock = socket.create_connection(("127.0.0.1", self.server.port), timeout=10)
            sock.sendall(b"GET /block HTTP/1.1\r\n\r\n")
            self._parked.append(sock)
        deadline = time.monotonic() + 10
        while self.server._in_flight < self.max_queue:
            assert time.monotonic() < deadline, "parked requests never admitted"
            time.sleep(0.01)

    def release(self) -> None:
        self._release.set()

    def release_after(self, seconds: float) -> None:
        threading.Timer(seconds, self.release).start()

    def close(self) -> None:
        self.release()
        for sock in self._parked:
            sock.close()
        self.server.service.handle_request = self._original
        self.server.request_shutdown()
        self.thread.join(timeout=10)


class TestRetryAfterBackoff:
    def test_default_client_fails_fast_with_the_retry_hint(self):
        wedged = _SaturatedServer()
        try:
            wedged.saturate()
            client = ServiceClient(f"http://127.0.0.1:{wedged.server.port}")
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.status == 429
            # The server's Retry-After header rides along for callers that
            # want to implement their own policy.
            assert excinfo.value.details["retry_after"] == "1"
        finally:
            wedged.close()

    def test_opted_in_client_honours_retry_after_and_succeeds(self):
        wedged = _SaturatedServer()
        try:
            wedged.saturate()
            client = ServiceClient(
                f"http://127.0.0.1:{wedged.server.port}", retries=5
            )
            # The queue drains while the client sleeps the advertised
            # Retry-After; the retried request is then admitted for real.
            wedged.release_after(0.5)
            start = time.monotonic()
            assert client.health()["status"] == "ok"
            elapsed = time.monotonic() - start
            assert elapsed >= 0.5  # it genuinely waited for capacity
            assert wedged.server._rejected_429 >= 1  # the 429 was real
        finally:
            wedged.close()

    def test_retries_exhaust_into_the_original_429(self):
        wedged = _SaturatedServer()
        try:
            wedged.saturate()
            # Never released: every retry meets the same full queue, and the
            # caller gets the typed 429 (not a hang) once retries run out.
            client = ServiceClient(
                f"http://127.0.0.1:{wedged.server.port}", retries=1
            )
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.status == 429
        finally:
            wedged.close()


class TestRetryDelayClamping:
    """Unit tests for the Retry-After clamp: a hostile or buggy server header
    must never stall the client (negative, huge, infinite) nor crash the
    retry loop (garbage).  No server needed -- the delay computation is pure."""

    @staticmethod
    def _delay(header, attempt=0):
        from repro.service.client import ServiceClient

        client = ServiceClient("http://127.0.0.1:1", retries=1)
        details = {} if header is None else {"retry_after": header}
        error = ServiceError("throttled", status=429, details=details)
        return client._retry_delay(error, attempt)

    def test_negative_header_waits_nothing(self):
        assert self._delay("-5") == 0.0
        assert self._delay("-1e9") == 0.0
        assert self._delay("-inf") == 0.0

    def test_zero_header_waits_nothing(self):
        assert self._delay("0") == 0.0

    def test_ordinary_header_is_honoured_verbatim(self):
        assert self._delay("1") == 1.0
        assert self._delay("2.5") == 2.5

    def test_huge_and_infinite_headers_wait_the_cap_at_most(self):
        from repro.service.client import MAX_RETRY_WAIT

        assert self._delay("1e9") == MAX_RETRY_WAIT
        assert self._delay(str(10**12)) == MAX_RETRY_WAIT
        assert self._delay("inf") == MAX_RETRY_WAIT

    def test_garbage_headers_fall_back_to_doubling(self):
        from repro.service.client import RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP

        for garbage in ("soon", "", "nan", "1s", None):
            expected = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * 2**3)
            assert self._delay(garbage, attempt=3) == expected

    def test_doubling_fallback_is_capped(self):
        from repro.service.client import RETRY_BACKOFF_CAP

        assert self._delay(None, attempt=50) == RETRY_BACKOFF_CAP


class TestFreshConnectionSemantics:
    def test_fresh_get_is_retried_once_after_a_reset(self, real_server):
        proxy = _ResetFirstConnectionProxy(real_server.port)
        proxy.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{proxy.port}")
            # The very first connection this client ever opens is reset; the
            # idempotent GET must be replayed on a new connection.
            assert client.health()["status"] == "ok"
        finally:
            proxy.stop()

    def test_fresh_post_is_not_silently_replayed(self, real_server):
        proxy = _ResetFirstConnectionProxy(real_server.port)
        proxy.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{proxy.port}")
            with pytest.raises(ServiceError):
                # A POST on a fresh connection must surface the failure: the
                # server may have received (and be executing) the request.
                client.upload_schema(
                    name="PO1", text=PO1_DDL, format="sql"
                )
            # The transport itself is fine -- the next call simply works.
            assert client.health()["status"] == "ok"
        finally:
            proxy.stop()
