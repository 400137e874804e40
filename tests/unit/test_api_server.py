"""End-to-end tests for the `repro serve` HTTP endpoint (`repro.api.server`)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import (
    ExplanationService,
    create_server,
    explanation_schema,
    validate_against_schema,
)
from repro.core import Configuration


@pytest.fixture(scope="module")
def live_server(mut_database, trained_mut_model):
    """A real ThreadingHTTPServer on an ephemeral port, torn down at the end."""
    service = ExplanationService(
        "MUT",
        database=mut_database,
        model=trained_mut_model,
        config=Configuration().with_default_bound(0, 5),
    )
    server = create_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=120) as response:
        return json.loads(response.read())


def _post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read())


class TestReadEndpoints:
    def test_health(self, live_server):
        payload = _get(live_server, "/v1/health")
        assert payload["status"] == "ok"
        assert payload["dataset"] == "MUT"

    def test_algorithms(self, live_server):
        names = _get(live_server, "/v1/algorithms")["algorithms"]
        assert "approx" in names and "gnnexplainer" in names

    def test_schema_endpoint_serves_the_published_schema(self, live_server):
        assert _get(live_server, "/v1/schema") == json.loads(
            json.dumps(explanation_schema())
        )

    def test_unknown_endpoint_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live_server, "/v1/nope")
        assert excinfo.value.code == 404


class TestExplainEndpoint:
    def test_explain_round_trip_validates_against_the_schema(self, live_server):
        payload = _post(
            live_server, "/v1/explain", {"algorithm": "approx", "max_nodes": 5, "limit": 3}
        )
        assert validate_against_schema(payload, explanation_schema()) == []
        assert payload["kind"] == "explanation_result"
        assert payload["payload"]["view"]["subgraphs"]

    def test_repeat_request_is_served_from_cache(self, live_server):
        body = {"algorithm": "approx", "max_nodes": 5, "limit": 3}
        _post(live_server, "/v1/explain", body)
        second = _post(live_server, "/v1/explain", body)
        assert second["payload"]["provenance"]["cache_hit"] is True

    def test_unknown_parameter_is_a_400(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(live_server, "/v1/explain", {"algorithm": "approx", "bogus": 1})
        assert excinfo.value.code == 400
        assert "bogus" in json.loads(excinfo.value.read())["error"]

    def test_unknown_algorithm_is_a_400_with_suggestions(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(live_server, "/v1/explain", {"algorithm": "magic"})
        assert excinfo.value.code == 400
        assert "approx" in json.loads(excinfo.value.read())["error"]


class TestQueryEndpoints:
    @pytest.fixture(autouse=True)
    def _ensure_a_view(self, live_server):
        self.result = _post(
            live_server, "/v1/explain", {"algorithm": "approx", "max_nodes": 5, "limit": 3}
        )

    def test_views_listing_carries_provenance(self, live_server):
        views = _get(live_server, "/v1/views")["views"]
        assert views
        assert all("config_fingerprint" in view for view in views)

    def test_query_summary(self, live_server):
        summary = _get(live_server, "/v1/query/summary")["summary"]
        label = str(self.result["payload"]["provenance"]["label"])
        assert label in summary

    def test_query_witness_for_graph(self, live_server):
        graph_id = self.result["payload"]["view"]["subgraphs"][0]["source_graph_id"]
        payload = _get(live_server, f"/v1/query/graph/{graph_id}")
        assert payload["graph_id"] == graph_id
        assert payload["witness"]["nodes"]

    def test_query_witness_missing_graph_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live_server, "/v1/query/graph/999999")
        assert excinfo.value.code == 404

    def test_query_non_integer_graph_id_is_400(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live_server, "/v1/query/graph/abc")
        assert excinfo.value.code == 400

    def test_query_label_report(self, live_server):
        label = self.result["payload"]["provenance"]["label"]
        payload = _get(live_server, f"/v1/query/label/{label}")
        assert payload["label"] == label
        assert "fidelity" in payload["report"]


@pytest.fixture()
def mutable_server(mut_database, trained_mut_model):
    """A live server over a *private* mutable database copy."""
    from repro.graphs import GraphDatabase

    database = GraphDatabase("live")
    # Copies: the server mutates its database and warms sparse caches, which
    # must never leak into the session-scoped graphs.
    for graph, label in zip(mut_database.graphs[:8], mut_database.labels[:8]):
        database.add_graph(graph.copy(), label)
    service = ExplanationService(
        "MUT",
        database=database,
        model=trained_mut_model,
        config=Configuration(theta=0.08).with_default_bound(0, 6),
    )
    server = create_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", service, mut_database
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


class TestIngestEndpoint:
    def test_add_remove_relabel_round_trip(self, mutable_server):
        base, service, source = mutable_server
        graph_payload = source.graphs[8].to_dict()
        graph_payload["graph_id"] = None  # let the database assign a stable id

        added = _post(base, "/v1/ingest", {"graph": graph_payload, "label": 1})
        assert added["op"] == "ingest"
        assert added["num_graphs"] == 9
        assert added["maintained"] is True
        assert added["refreshed_labels"]
        graph_id = added["graph_id"]

        relabelled = _post(
            base, "/v1/ingest", {"op": "relabel", "graph_id": graph_id, "label": 0}
        )
        assert relabelled["op"] == "relabel"
        assert relabelled["database_version"] == added["database_version"] + 1

        removed = _post(base, "/v1/ingest", {"op": "remove", "graph_id": graph_id})
        assert removed["op"] == "remove"
        assert removed["num_graphs"] == 8

    def test_ingested_views_are_served_by_explain(self, mutable_server):
        base, service, source = mutable_server
        graph_payload = source.graphs[9].to_dict()
        graph_payload["graph_id"] = None
        added = _post(base, "/v1/ingest", {"graph": graph_payload, "label": 1})
        label = added["refreshed_labels"][0]
        explained = _post(base, "/v1/explain", {"algorithm": "stream", "label": label})
        assert explained["payload"]["provenance"]["num_graphs"] == added["num_graphs"]

    def test_unknown_op_rejected(self, mutable_server):
        base, _, _ = mutable_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/ingest", {"op": "truncate"})
        assert excinfo.value.code == 400

    def test_add_without_graph_rejected(self, mutable_server):
        base, _, _ = mutable_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/ingest", {"label": 1})
        assert excinfo.value.code == 400

    def test_unknown_parameter_rejected(self, mutable_server):
        base, _, _ = mutable_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/ingest", {"op": "remove", "graph_id": 1, "force": True})
        assert excinfo.value.code == 400


def _get_with_headers(base: str, path: str):
    with urllib.request.urlopen(f"{base}{path}", timeout=120) as response:
        return json.loads(response.read()), dict(response.headers)


class TestVersionedSurface:
    """Every route lives under /v1; nothing answers outside it."""

    def test_v1_health_reports_the_api_version(self, live_server):
        payload, headers = _get_with_headers(live_server, "/v1/health")
        assert payload["status"] == "ok"
        assert payload["api_version"] == "v1"
        assert payload["read_only"] is False
        assert "database_version" in payload

    def test_every_get_route_exists_under_v1(self, live_server):
        for path in ("/v1/algorithms", "/v1/schema", "/v1/views", "/v1/query/summary"):
            payload, _headers = _get_with_headers(live_server, path)
            assert payload, path

    def test_v1_explain_round_trip(self, live_server):
        payload = _post(live_server, "/v1/explain", {"algorithm": "approx", "max_nodes": 5, "limit": 3})
        assert payload["kind"] == "explanation_result"

    def test_unversioned_get_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live_server, "/health")
        assert excinfo.value.code == 404
        assert "/v1" in json.loads(excinfo.value.read())["error"]

    def test_unversioned_post_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(live_server, "/explain", {"algorithm": "approx", "max_nodes": 5})
        assert excinfo.value.code == 404

    def test_unknown_v1_endpoint_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(live_server, "/v1/nope")
        assert excinfo.value.code == 404


class TestReplicationSurface:
    def test_deltas_requires_since(self, mutable_server):
        base, _, _ = mutable_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/deltas")
        assert excinfo.value.code == 400
        assert "since" in json.loads(excinfo.value.read())["error"]

    def test_deltas_streams_the_mutations(self, mutable_server):
        base, service, source = mutable_server
        before = service.database.version
        graph_payload = source.graphs[10].to_dict()
        graph_payload["graph_id"] = None
        added = _post(base, "/v1/ingest", {"graph": graph_payload, "label": 1})
        feed = _get(base, f"/v1/deltas?since={before}")
        assert feed["since"] == before
        assert feed["version"] == added["database_version"]
        assert feed["source"] == "memory"
        assert [d["payload"]["kind"] for d in feed["deltas"]] == ["add"]
        assert feed["deltas"][0]["kind"] == "database_delta"

    def test_deltas_at_head_is_an_empty_feed(self, mutable_server):
        base, service, _ = mutable_server
        feed = _get(base, f"/v1/deltas?since={service.database.version}")
        assert feed["deltas"] == []

    def test_future_since_is_410_gone_with_resync(self, mutable_server):
        base, _, _ = mutable_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/deltas?since=999999")
        assert excinfo.value.code == 410
        body = json.loads(excinfo.value.read())
        assert body["resync"] is True

    def test_dropped_range_without_wal_is_410(self, mutable_server):
        base, service, source = mutable_server
        before = service.database.version
        service.database.DELTA_LOG_CAPACITY = 1  # instance-level shrink
        for offset in (11, 12):
            graph_payload = source.graphs[offset].to_dict()
            graph_payload["graph_id"] = None
            _post(base, "/v1/ingest", {"graph": graph_payload, "label": 1})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, f"/v1/deltas?since={before}")
        assert excinfo.value.code == 410

    def test_replica_bootstrap_payload_shape(self, mutable_server):
        base, service, _ = mutable_server
        payload = _get(base, "/v1/replica/bootstrap")
        assert payload["kind"] == "replica_bootstrap"
        assert payload["version"] == service.database.version
        assert payload["database"]["graphs"]
        assert payload["model"]["spec"]["feature_dim"] == 14
        assert len(payload["model"]["weights"]) >= 1
        assert "theta" in payload["config"]

    def test_live_signatures_endpoint(self, mutable_server):
        base, service, source = mutable_server
        graph_payload = source.graphs[13].to_dict()
        graph_payload["graph_id"] = None
        _post(base, "/v1/ingest", {"graph": graph_payload, "label": 0})
        payload = _get(base, "/v1/live")
        assert payload["version"] == service.database.version
        assert payload["signatures"]
        from repro.api.replication import view_signature

        with service._lock:
            expected = {str(v.label): view_signature(v) for v in service.live_views()}
        assert payload["signatures"] == expected


@pytest.fixture()
def read_only_server(mut_database, trained_mut_model):
    """A read-only (replica-style) server over a private database copy."""
    from repro.graphs import GraphDatabase

    database = GraphDatabase("replica")
    for graph, label in zip(mut_database.graphs[:6], mut_database.labels[:6]):
        database.add_graph(graph.copy(), label)
    service = ExplanationService(
        "MUT",
        database=database,
        model=trained_mut_model,
        config=Configuration(theta=0.08).with_default_bound(0, 6),
    )
    server = create_server(service, port=0, read_only=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


class TestReadOnlyServer:
    def test_health_reports_read_only(self, read_only_server):
        assert _get(read_only_server, "/v1/health")["read_only"] is True

    def test_ingest_is_403(self, read_only_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(read_only_server, "/v1/ingest", {"op": "remove", "graph_id": 1})
        assert excinfo.value.code == 403

    def test_reads_still_work(self, read_only_server):
        assert "approx" in _get(read_only_server, "/v1/algorithms")["algorithms"]
