"""The HTTP service on the process backend: same API, same bytes, more cores."""

from __future__ import annotations

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD, load_po1, load_po2
from repro.exceptions import ServiceError
from repro.service import MatchService, ServiceClient, create_server
from repro.session import MatchSession


@pytest.fixture(scope="module")
def process_client():
    """A running process-backend server (two workers) + client."""
    server = create_server(port=0, pool_size=2, backend="process")
    thread = server.run_in_thread()
    client = ServiceClient(server.url)
    client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
    client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
    yield client
    client.shutdown()
    thread.join(timeout=10)


def _expected_rows(source, target, strategy=None):
    outcome = MatchSession().match(source, target, strategy=strategy)
    return [
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    ]


def _rows(result: dict):
    return [
        (row["source"], row["target"], row["similarity"])
        for row in result["correspondences"]
    ]


class TestProcessBackendEndpoints:
    def test_health_reports_the_backend(self, process_client):
        payload = process_client.health()
        assert payload["status"] == "ok"
        assert payload["backend"] == "process"
        assert payload["pool_size"] == 2

    def test_match_is_identical_to_the_in_process_session(self, process_client):
        result = process_client.match("PO1", "PO2")
        assert _rows(result) == _expected_rows(load_po1(), load_po2())

    def test_match_with_a_spec_strategy(self, process_client):
        spec = "Name+Leaves(Average,Both,Thr(0.6),Dice)"
        result = process_client.match("PO1", "PO2", strategy=spec)
        assert result["strategy"] == spec
        assert _rows(result) == _expected_rows(load_po1(), load_po2(), strategy=spec)

    def test_match_with_a_stored_strategy_name(self, process_client):
        process_client.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        result = process_client.match("PO1", "PO2", strategy="tuned")
        assert _rows(result) == _expected_rows(
            load_po1(), load_po2(), strategy="All(Max,Both,Thr(0.6),Dice)"
        )

    def test_batch_preserves_order_and_bytes(self, process_client):
        results = process_client.match_batch(
            [
                {"source": "PO1", "target": "PO2"},
                {"source": "PO2", "target": "PO1"},
            ]
        )
        assert [r["source"] for r in results] == ["PO1", "PO2"]
        assert _rows(results[1]) == _expected_rows(load_po2(), load_po1())

    def test_unknown_schema_is_a_clean_404(self, process_client):
        with pytest.raises(ServiceError) as excinfo:
            process_client.match("PO1", "Nope")
        assert excinfo.value.status == 404

    def test_stats_expose_per_worker_counters(self, process_client):
        stats = process_client.stats()
        assert stats["backend"] == "process"
        pool = stats["pool"]
        assert pool["backend"] == "process"
        assert len(pool["shards"]) == 2 and len(pool["workers"]) == 2
        workers = pool["workers"]
        assert all(isinstance(worker["pid"], int) for worker in workers)
        assert sum(worker["requests"] for worker in workers) >= 1
        assert pool["cube_hits"] + pool["cube_misses"] >= 1


class TestBackendValidation:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ServiceError):
            MatchService(pool_size=1, backend="gevent")

    def test_session_factory_conflicts_with_the_process_backend(self):
        with pytest.raises(ServiceError):
            MatchService(
                pool_size=1, backend="process", session_factory=MatchSession
            )

    def test_thread_backend_stays_the_default(self):
        service = MatchService(pool_size=1)
        assert service.backend == "thread"
        status, payload = service.handle_request("GET", "/health", None)
        assert (status, payload["backend"]) == (200, "thread")
