"""Envelope contract: every serve endpoint answers the versioned
envelope — ``{"schema": 2, ...}`` on success, ``{"schema": 2, "error":
{"kind", "message"}}`` on every typed error — and version skew is
rejected loudly. There is no negotiation: schema-1 ingest bodies are
refused and an ``X-Repro-Schema`` header is ignored."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.account import CostModel
from repro.pricing.plan import PricingPlan
from repro.serve.envelope import (
    SCHEMA_VERSION,
    envelope,
    error_envelope,
    error_kind,
    require_schema,
)
from repro.serve.errors import SchemaSkewError
from repro.serve.server import AdvisoryServer, build_app


def small_model(period: int = 8) -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=4.0, alpha=0.25, period_hours=period
    )
    return CostModel(plan=plan, selling_discount=0.8)


@pytest.fixture(scope="module")
def served():
    app = build_app(small_model())
    server = AdvisoryServer(("127.0.0.1", 0), app)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield app, f"http://127.0.0.1:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def request(method, url, payload=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEnvelopeHelpers:
    def test_envelope_stamps_version(self):
        assert envelope({"x": 1}) == {"schema": SCHEMA_VERSION, "x": 1}

    def test_error_envelope_shape(self):
        body = error_envelope("SomeError", "boom")
        assert body == {
            "schema": SCHEMA_VERSION,
            "error": {"kind": "SomeError", "message": "boom"},
        }
        assert error_kind(body) == "SomeError"
        assert error_kind(envelope({"x": 1})) is None

    def test_require_schema_passes_current_version(self):
        body = envelope({"x": 1})
        assert require_schema(body) is body

    @pytest.mark.parametrize("bad", [None, [], "x", {}, {"schema": 0}, {"schema": "1"}])
    def test_require_schema_rejects_skew(self, bad):
        with pytest.raises(SchemaSkewError):
            require_schema(bad, source="test peer")


class TestNegotiation:
    """There is no negotiation: every response is ``SCHEMA_VERSION`` and
    an ingest body naming any other schema is refused."""

    def test_current_schema_is_2(self):
        assert SCHEMA_VERSION == 2

    def test_current_schema_passes_payload_through(self):
        payload = {"instances": [{"drawn_phi": 0.75, "policy_spec": "keep"}]}
        assert envelope(payload) == {"schema": SCHEMA_VERSION, **payload}
        assert payload == {"instances": [{"drawn_phi": 0.75, "policy_spec": "keep"}]}

    @pytest.mark.parametrize("header", [None, "", "   "])
    def test_no_header_means_current_version(self, served, header):
        _, base = served
        req = urllib.request.Request(f"{base}/healthz", method="GET")
        if header is not None:
            req.add_header("X-Repro-Schema", header)
        with urllib.request.urlopen(req, timeout=10) as response:
            assert json.loads(response.read())["schema"] == SCHEMA_VERSION

    def test_schema_header_is_ignored(self, served):
        _, base = served
        for header in ("1", "9", "nope"):
            req = urllib.request.Request(f"{base}/healthz", method="GET")
            req.add_header("X-Repro-Schema", header)
            with urllib.request.urlopen(req, timeout=10) as response:
                assert response.status == 200
                assert json.loads(response.read())["schema"] == SCHEMA_VERSION

    @pytest.mark.parametrize("version", [1, 9, 0, -1, 1.5, "nope", "2", None])
    def test_unsupported_versions_are_rejected(self, served, version):
        """An ingest body naming any schema but the current one — the
        retired ``1`` included — gets 400 ``SchemaSkewError``."""
        _, base = served
        status, body = request(
            "POST",
            f"{base}/v1/events",
            {"schema": version, "events": [{"instance": "i-old", "busy": True}]},
        )
        assert status == 400
        assert body["schema"] == SCHEMA_VERSION
        assert body["error"]["kind"] == "SchemaSkewError"


class TestSuccessEnvelopes:
    def test_ingest(self, served):
        _, base = served
        status, body = request(
            "POST",
            f"{base}/v1/events",
            {"events": [{"instance": "i-env", "busy": True}]},
        )
        assert status == 200 and body["schema"] == SCHEMA_VERSION
        assert body["accepted"] == 1

    def test_decisions(self, served):
        _, base = served
        status, body = request("GET", f"{base}/v1/decisions")
        assert status == 200 and body["schema"] == SCHEMA_VERSION
        assert "instances" in body and "verdicts_by_phi" in body

    def test_costs(self, served):
        app, base = served
        status, body = request("GET", f"{base}/v1/costs")
        assert status == 200 and body["schema"] == SCHEMA_VERSION
        for phi in app.fleet.phis:
            entry = body["phis"][repr(phi)]
            assert set(entry["counts"]) == {
                "instances",
                "sold",
                "billed_hours",
                "od_hours",
            }
            assert set(entry["breakdown"]) == {
                "on_demand",
                "upfront",
                "reserved_hourly",
                "sale_income",
                "total",
            }

    def test_healthz(self, served):
        _, base = served
        status, body = request("GET", f"{base}/healthz")
        assert status == 200 and body["schema"] == SCHEMA_VERSION


class TestErrorEnvelopes:
    """Each typed error arrives as the single error shape."""

    def assert_error(self, status, body, expected_status, kind):
        assert status == expected_status
        assert body["schema"] == SCHEMA_VERSION
        assert body["error"]["kind"] == kind
        assert isinstance(body["error"]["message"], str) and body["error"]["message"]

    def test_request_validation_error(self, served):
        _, base = served
        status, body = request("POST", f"{base}/v1/events", {"events": []})
        self.assert_error(status, body, 400, "RequestValidationError")

    def test_schema_skew_error(self, served):
        _, base = served
        status, body = request(
            "POST",
            f"{base}/v1/events",
            {"schema": 999, "events": [{"instance": "i-env", "busy": True}]},
        )
        self.assert_error(status, body, 400, "SchemaSkewError")

    def test_unknown_resource_error(self, served):
        _, base = served
        status, body = request("GET", f"{base}/v1/decisions?instance=ghost")
        self.assert_error(status, body, 404, "UnknownResourceError")
        status, body = request("GET", f"{base}/no-such-route")
        self.assert_error(status, body, 404, "UnknownResourceError")

    def test_payload_too_large_error(self, served):
        app, base = served
        old = app.max_batch
        app.max_batch = 1
        try:
            events = [{"instance": f"i-{k}", "busy": True} for k in range(2)]
            status, body = request("POST", f"{base}/v1/events", {"events": events})
        finally:
            app.max_batch = old
        self.assert_error(status, body, 413, "PayloadTooLargeError")

    def test_server_busy_error(self, served):
        app, base = served
        old = app.max_inflight
        app.max_inflight = 0
        try:
            status, body = request(
                "POST",
                f"{base}/v1/events",
                {"events": [{"instance": "i-env", "busy": True}]},
            )
        finally:
            app.max_inflight = old
        self.assert_error(status, body, 429, "ServerBusyError")


class TestIngestSeqContract:
    def test_replayed_seq_returns_stored_response(self, served):
        app, base = served
        batch = {
            "schema": SCHEMA_VERSION,
            "seq": 1_000_001,
            "events": [{"instance": "i-seq", "busy": True}],
        }
        first = app.ingest(dict(batch))
        replay = app.ingest(dict(batch))
        assert first == replay
        assert app.events_ingested == replay["events_ingested"]

    def test_stale_seq_is_rejected(self, served):
        app, _ = served
        events = [{"instance": "i-seq", "busy": True}]
        app.ingest({"schema": SCHEMA_VERSION, "seq": 2_000_000, "events": events})
        with pytest.raises(Exception) as exc_info:
            app.ingest({"schema": SCHEMA_VERSION, "seq": 1, "events": events})
        assert "stale" in str(exc_info.value)
