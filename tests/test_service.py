"""The planning control plane: routes, error mapping, concurrency.

``PlanningService.dispatch`` is exercised without sockets for the
route/error matrix; a real ``PlanningServer`` + ``PlanningClient``
pair covers the HTTP path end to end.  The concurrency test pins the
single-flight contract: N parallel identical ``/v1/plan`` requests
cost exactly one evaluation (1 miss, N-1 hits).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ApiError, PlanRequest, PlanningClient, clear_api_caches
from repro.obs import MetricsRegistry, Tracer, scoped_observability
from repro.service import PlanningServer, PlanningService
from repro.service.server import MAX_BODY_BYTES

#: a tiny grid so service tests never pay for the full catalog
SMALL = {"catalog": ("p2.16xlarge", "p2.8xlarge"), "instances_per_type": 2}


def _body(**kwargs) -> bytes:
    request = PlanRequest(**{**SMALL, **kwargs})
    return json.dumps(request.to_dict(), sort_keys=True).encode("utf-8")


@pytest.fixture()
def service():
    return PlanningService()


class TestDispatch:
    def test_plan_route_answers_200(self, service):
        status, content_type, payload = service.dispatch(
            "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
        )
        assert status == 200
        assert content_type == "application/json"
        answer = json.loads(payload)
        assert answer["schema"] == "repro.api/v1"
        assert answer["kind"] == "min_budget"

    def test_healthz(self, service):
        status, _, payload = service.dispatch("GET", "/v1/healthz")
        assert status == 200
        health = json.loads(payload)
        assert health["status"] == "ok"
        assert "space_cache" in health and "fleet_cache" in health

    def test_metrics_is_openmetrics(self, service):
        status, content_type, payload = service.dispatch(
            "GET", "/v1/metrics"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert payload.decode("utf-8").rstrip().endswith("# EOF")

    def test_unknown_route_is_404(self, service):
        status, _, payload = service.dispatch("POST", "/v1/nope", b"{}")
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, service):
        status, _, payload = service.dispatch("GET", "/v1/plan")
        assert status == 405
        assert json.loads(payload)["error"]["code"] == "invalid_request"

    def test_bad_json_is_400(self, service):
        status, _, payload = service.dispatch(
            "POST", "/v1/plan", b"{not json"
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid_request"

    def test_unknown_model_is_404(self, service):
        status, _, payload = service.dispatch(
            "POST",
            "/v1/plan",
            json.dumps({"target": 78.0, "model": "resnet"}).encode(),
        )
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "unknown_model"

    def test_bad_schema_is_400(self, service):
        status, _, payload = service.dispatch(
            "POST",
            "/v1/plan",
            json.dumps(
                {"schema": "repro.api/v9", "target": 78.0}
            ).encode(),
        )
        assert status == 400

    def test_unknown_field_is_400(self, service):
        status, _, payload = service.dispatch(
            "POST",
            "/v1/plan",
            json.dumps({"target": 78.0, "deadlnie_h": 6.0}).encode(),
        )
        assert status == 400
        assert "deadlnie_h" in json.loads(payload)["error"]["message"]

    def test_infeasible_is_422(self, service):
        status, _, payload = service.dispatch(
            "POST", "/v1/plan", _body(target=80.0, metric="top1")
        )
        assert status == 422
        assert json.loads(payload)["error"]["code"] == "infeasible"

    def test_overload_is_503_and_exempts_health(self):
        shedding = PlanningService(max_inflight=0)
        status, _, payload = shedding.dispatch(
            "POST", "/v1/plan", _body(target=78.0)
        )
        assert status == 503
        assert json.loads(payload)["error"]["code"] == "overloaded"
        assert shedding.dispatch("GET", "/v1/healthz")[0] == 200
        assert shedding.dispatch("GET", "/v1/metrics")[0] == 200

    def test_negative_inflight_rejected(self):
        with pytest.raises(ApiError):
            PlanningService(max_inflight=-1)

    def test_query_string_and_trailing_slash_normalised(self, service):
        assert service.dispatch("GET", "/v1/healthz/?probe=1")[0] == 200

    def test_request_counter_ticks(self, service):
        registry = MetricsRegistry()
        with scoped_observability(Tracer(enabled=False), registry):
            service.dispatch(
                "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
            )
        counters = registry.snapshot()["counters"]
        assert counters.get("service.requests") == 1


class TestSingleFlight:
    def test_parallel_identical_plans_cost_one_evaluation(self):
        """N parallel identical /v1/plan -> exactly 1 miss, N-1 hits."""
        n = 8
        service = PlanningService()
        # a content-key no other test uses, so the probe starts cold
        body = _body(target=78.0, deadline_h=6.0, images=19_000_001)
        registry = MetricsRegistry()
        clear_api_caches()
        with scoped_observability(Tracer(enabled=False), registry):
            with ThreadPoolExecutor(max_workers=n) as pool:
                statuses = list(
                    pool.map(
                        lambda _: service.dispatch(
                            "POST", "/v1/plan", body
                        )[0],
                        range(n),
                    )
                )
        assert statuses == [200] * n
        counters = registry.snapshot()["counters"]
        assert counters["evalspace.cache_misses"] == 1
        assert counters["evalspace.cache_hits"] == n - 1
        clear_api_caches()


class TestHttpServer:
    def test_end_to_end_with_client(self):
        registry = MetricsRegistry()
        with PlanningServer(port=0, registry=registry) as server:
            assert server.url.startswith("http://127.0.0.1:")
            client = PlanningClient(server.url)

            health = client.healthz()
            assert health["status"] == "ok"

            response = client.plan(
                PlanRequest(target=78.0, deadline_h=6.0, **SMALL)
            )
            assert response.kind == "min_budget"
            assert response.best.top5 >= 78.0

            with pytest.raises(ApiError) as exc:
                client.plan(
                    PlanRequest(target=80.0, metric="top1", **SMALL)
                )
            assert exc.value.code == "infeasible"

            text = client.metrics()
            assert "repro_service_requests_total" in text
            assert text.rstrip().endswith("# EOF")

    def test_close_is_idempotent(self):
        server = PlanningServer(port=0)
        server.start()
        server.close()
        server.close()


def _raw_exchange(server, head: bytes, timeout: float = 2.0) -> bytes:
    """Send raw bytes; read until the server closes the connection (a
    server that keeps waiting fails the read with a timeout)."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(head)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with request bytes unread
            pass
    return b"".join(chunks)


class TestHttpEdge:
    def test_kept_alive_requests_do_not_stall(self):
        body = _body(target=78.0, deadline_h=6.0)
        with PlanningServer(port=0) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            try:
                conn.request("POST", "/v1/plan", body)  # warms the grid
                assert conn.getresponse().read()
                started = time.perf_counter()
                for _ in range(20):
                    conn.request("POST", "/v1/plan", body)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                elapsed = time.perf_counter() - started
            finally:
                conn.close()
        # a delayed-ACK stall costs ~40 ms per kept-alive response
        assert elapsed < 0.4, elapsed

    @pytest.mark.parametrize(
        "length, status",
        [
            ("-1", 400),
            ("abc", 400),
            ("1.5", 400),
            ("", 400),
            (str(MAX_BODY_BYTES + 1), 413),
            ("9" * 5000, 413),
        ],
        ids=["negative", "letters", "fraction", "empty", "over", "digits"],
    )
    def test_bad_content_length_is_refused_unread(self, length, status):
        body = _body(target=78.0, deadline_h=6.0)
        head = (
            f"POST /v1/plan HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii")
        with PlanningServer(port=0) as server:
            reply = _raw_exchange(server, head + body)
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == str(status).encode()
        assert b"Connection: close" in rest
        # one answer only: the unread body was not parsed as a request
        assert reply.count(b"HTTP/1.1 ") == 1
        error = json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert error["code"] == "invalid_request"

    def test_body_at_the_limit_is_read(self):
        with PlanningServer(port=0) as server:
            head = (
                "POST /v1/plan HTTP/1.1\r\nHost: x\r\nConnection: close"
                f"\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n"
            ).encode("ascii")
            reply = _raw_exchange(server, head + b" " * MAX_BODY_BYTES)
        # all whitespace is not JSON: the body was read and decoded
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"not valid JSON" in reply


class TestObservabilityRoutes:
    def test_healthz_reports_uptime_inflight_served(self):
        service = PlanningService()
        first = json.loads(service.dispatch("GET", "/v1/healthz")[2])
        assert first["uptime_s"] >= 0.0
        assert first["inflight"] == 0
        assert first["served"] == 0  # counted after dispatch completes
        service.dispatch(
            "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
        )
        second = json.loads(service.dispatch("GET", "/v1/healthz")[2])
        assert second["served"] == 2  # healthz + plan
        assert second["uptime_s"] >= first["uptime_s"]

    def test_status_route_serves_windows_and_anomalies(self):
        service = PlanningService()
        for _ in range(3):
            service.dispatch(
                "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
            )
        status, content_type, payload = service.dispatch(
            "GET", "/v1/status"
        )
        assert status == 200
        assert content_type == "application/json"
        body = json.loads(payload)
        assert body["schema"] == "repro.api/v1"
        assert body["anomalies"] == []
        metrics = body["metrics"]
        assert {
            "latency_s",
            "cost",
            "shed_rate",
            "error_rate",
            "cache_hit_ratio",
        } <= set(metrics)
        assert metrics["latency_s"]["detector"]["metric"] == "latency_s"

    def test_status_is_exempt_from_shedding(self):
        shedding = PlanningService(max_inflight=0)
        assert shedding.dispatch("GET", "/v1/status")[0] == 200

    def test_access_events_replace_the_stdlib_log(self):
        from repro.obs import get_event_bus

        service = PlanningService()
        events = []
        with get_event_bus().subscribed(events.append):
            service.dispatch(
                "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
            )
            service.dispatch("GET", "/v1/healthz")
        access = [e for e in events if e["kind"] == "service.access"]
        assert [(e["method"], e["path"], e["status"]) for e in access] == [
            ("POST", "/v1/plan", 200),
            ("GET", "/v1/healthz", 200),
        ]
        for event in access:
            assert event["latency_s"] >= 0.0
            assert len(event["trace_id"]) == 16

    def test_dispatch_joins_the_header_trace(self):
        from repro.obs.context import TRACE_HEADER

        from repro.obs import get_event_bus

        service = PlanningService()
        events = []
        with get_event_bus().subscribed(events.append):
            service.dispatch(
                "GET",
                "/v1/healthz",
                b"",
                headers={TRACE_HEADER: "ab12cd34ef56ab78-7"},
            )
        (event,) = [e for e in events if e["kind"] == "service.access"]
        assert event["trace_id"] == "ab12cd34ef56ab78"

    def test_monitor_records_latency_shed_and_cost(self):
        clock = iter(
            [0.0] + [0.1 * i for i in range(1, 200)]
        ).__next__
        from repro.service import ServiceMonitor

        monitor = ServiceMonitor(window_s=1.0, clock=clock)
        service = PlanningService(max_inflight=0, monitor=monitor)
        for _ in range(12):
            service.dispatch("POST", "/v1/plan", _body(target=78.0))
        monitor.pipeline.flush()
        shed = monitor.pipeline.series["shed_rate"]
        assert shed.closed >= 1
        assert all(w.mean == 1.0 for w in shed.windows)  # all 503s
