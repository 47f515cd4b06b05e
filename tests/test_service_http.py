"""Tests for the HTTP service surface and its client.

An in-process :class:`ExperimentService` (port 0, real drain-worker
processes) backs most cases; the shutdown test drives the real CLI in a
subprocess and asserts SIGTERM exits 0.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.api.config import ExperimentConfig
from repro.api.session import FleetSession
from repro.obs import clock
from repro.service import ExperimentService, ServiceClient, ServiceError
from repro.service import server
from repro.service.server import MAX_BODY_BYTES

REPO_ROOT = Path(__file__).resolve().parents[1]

CONFIG = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, seed=5)
OTHER = ExperimentConfig(scenario="mixed_ev_dos", vehicles=12, seed=6)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    db = tmp_path_factory.mktemp("service") / "svc.db"
    with ExperimentService(
        db, port=0, drain_workers=2, lease_s=30.0, poll_s=0.05
    ) as service:
        yield service


@pytest.fixture()
def client(service):
    return ServiceClient(service.url)


class TestSubmitAndFetch:
    def test_dedup_two_identical_one_distinct(self, service, client):
        # The headline invariant: 2 identical + 1 distinct submission
        # cost exactly 2 simulations, the duplicate is a cache hit, and
        # every fingerprint matches a foreground run of its config.
        a = client.submit(CONFIG)
        b = client.submit(dict(reversed(list(CONFIG.to_dict().items()))))
        c = client.submit(OTHER)
        assert not a["cached"]
        assert a["config_hash"] == b["config_hash"] != c["config_hash"]
        result_a = client.result(a["id"])
        result_b = client.result(b["id"])
        result_c = client.result(c["id"])
        assert result_a.fingerprint() == result_b.fingerprint()
        assert result_a.to_dict() == result_b.to_dict()
        with FleetSession(CONFIG) as session:
            assert result_a.fingerprint() == session.run().fingerprint()
        with FleetSession(OTHER) as session:
            assert result_c.fingerprint() == session.run().fingerprint()
        snapshot = client.metrics()
        assert snapshot.counter("service.runs") == 2
        assert snapshot.counter("service.cache_hits") == 1
        assert snapshot.gauge("service.result_cache.entries") == 2.0

    def test_submission_after_done_reports_cached(self, client):
        client.result(client.submit(CONFIG)["id"])
        assert client.submit(CONFIG)["cached"]

    def test_job_payload_carries_result_once_done(self, client):
        payload = client.wait(client.submit(CONFIG)["id"])
        assert payload["state"] == "done"
        assert payload["result"]["fingerprint"]
        assert payload["attempts"] >= 1

    def test_jobs_listing_filters_by_state(self, client):
        client.result(client.submit(CONFIG)["id"])
        done = client.jobs(state="done")
        assert done and all(job["state"] == "done" for job in done)

    def test_invalid_config_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"scenario": "x", "vehicles": 3, "vehicels": 9})
        assert excinfo.value.status == 400
        assert "vehicels" in str(excinfo.value)

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job(99999)
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_a_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_cancel_done_job_is_a_409(self, client):
        job_id = client.submit(CONFIG)["id"]
        client.wait(job_id)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409


class TestOutcomeStreaming:
    def test_stream_matches_foreground_outcomes_exactly(self, client):
        job_id = client.submit(CONFIG)["id"]
        client.wait(job_id)
        streamed = list(client.iter_outcomes(job_id))
        with FleetSession(CONFIG) as session:
            direct = list(session.iter_outcomes())
        # Deterministic fields match bit for bit; wall/build seconds are
        # host telemetry and legitimately differ between the two runs.
        assert [o.deterministic_tuple() for o in streamed] == [
            o.deterministic_tuple() for o in direct
        ]
        assert [o.vehicle_id for o in streamed] == sorted(
            o.vehicle_id for o in direct
        )

    def test_stream_uses_chunked_transfer(self, service, client):
        job_id = client.submit(CONFIG)["id"]
        client.wait(job_id)
        response = urllib.request.urlopen(
            f"{service.url}/experiments/{job_id}/outcomes", timeout=30
        )
        assert response.headers.get("Transfer-Encoding") == "chunked"
        assert response.headers.get("Content-Type") == "application/x-ndjson"
        lines = [line for line in response.read().splitlines() if line]
        assert len(lines) == CONFIG.vehicles
        json.loads(lines[0])  # each line is one JSON object

    def test_stream_for_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.iter_outcomes(99999))
        assert excinfo.value.status == 404


class TestServiceState:
    def test_health_reports_counts(self, client):
        health = client.health()
        assert health["ok"] is True
        assert set(health["counts"]) == {
            "queued", "leased", "done", "failed", "cancelled",
        }

    def test_prometheus_exposition(self, client):
        client.result(client.submit(CONFIG)["id"])
        text = client.metrics_text()
        assert "# TYPE repro_service_runs counter" in text
        assert "repro_service_queue_depth_done" in text
        assert "repro_service_job_latency_seconds_bucket" in text

    def test_metrics_json_round_trips(self, client):
        snapshot = client.metrics()
        assert snapshot.counter("service.http_requests") > 0

    def test_unknown_metrics_format_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/metrics?format=yaml")
        assert excinfo.value.status == 400

    def test_cancel_queued_job(self, tmp_path):
        # A workerless service: submissions stay queued, so cancel is
        # deterministic (no race against a drain worker taking the job).
        with ExperimentService(
            tmp_path / "idle.db", port=0, drain_workers=0
        ) as idle:
            client = ServiceClient(idle.url)
            job_id = client.submit(CONFIG)["id"]
            cancelled = client.cancel(job_id)
            assert cancelled["state"] == "cancelled"
            assert client.job(job_id)["state"] == "cancelled"


def _raw_request(service, method, path, headers=(), body=b""):
    """One request on its own connection: ``(status, json payload)``.

    The body is sent exactly as given, whatever ``Content-Length`` the
    headers declare -- the point is to lie about it.
    """
    host, port = service.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest(method, path, skip_accept_encoding=True)
        for name, value in headers:
            connection.putheader(name, value)
        connection.endheaders(body or None)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHostileInput:
    """Malformed requests get a 4xx, never a hang, and the service stays up."""

    @pytest.fixture()
    def idle(self, tmp_path):
        with ExperimentService(tmp_path / "hostile.db", port=0, drain_workers=0) as idle:
            yield idle

    def _assert_healthy(self, service):
        status, payload = _raw_request(service, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True

    @pytest.mark.parametrize("length", ["-1", "-4096", "twelve", "1.5"])
    def test_bad_content_length_is_a_400(self, idle, length):
        status, payload = _raw_request(
            idle, "POST", "/experiments", [("Content-Length", length)], b"{}"
        )
        assert status == 400
        assert "Content-Length" in payload["error"]
        self._assert_healthy(idle)

    def test_oversized_body_is_a_413_without_reading_it(self, idle):
        # Only the headers are sent: answering means the body was never awaited.
        status, payload = _raw_request(
            idle, "POST", "/experiments", [("Content-Length", str(MAX_BODY_BYTES + 1))]
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        self._assert_healthy(idle)

    def test_body_at_the_limit_is_read(self, idle):
        body = json.dumps({"config": CONFIG.to_dict()}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, payload = _raw_request(
            idle, "POST", "/experiments", [("Content-Length", str(len(body)))], body
        )
        assert status == 202 and payload["state"] == "queued"

    @pytest.mark.parametrize("limit", ["-1", "ten", "2.5", str(1 << 64)])
    def test_bad_list_limit_is_a_400(self, idle, limit):
        status, payload = _raw_request(idle, "GET", f"/experiments?limit={limit}")
        assert status == 400
        assert "limit" in payload["error"]
        self._assert_healthy(idle)

    @pytest.mark.parametrize(
        "field, value",
        [("vehicles", 2.5), ("vehicles", True), ("seed", 1.0), ("workers", 2.0)],
    )
    def test_non_integer_config_field_is_a_400(self, idle, field, value):
        body = json.dumps({"config": {**CONFIG.to_dict(), field: value}}).encode()
        status, payload = _raw_request(
            idle, "POST", "/experiments", [("Content-Length", str(len(body)))], body
        )
        assert status == 400
        assert f"{field} must be an integer" in payload["error"]
        self._assert_healthy(idle)

    @pytest.mark.parametrize("field", ["priority", "max_attempts"])
    @pytest.mark.parametrize(
        "value",
        ["1e400", "-1e400", str(1 << 63), str(-(1 << 63) - 1), "1.5", "true", '"3"'],
    )
    def test_out_of_range_job_integer_is_a_400(self, idle, field, value):
        body = (
            b'{"config": ' + json.dumps(CONFIG.to_dict()).encode()
            + f', "{field}": {value}}}'.encode()
        )
        status, payload = _raw_request(
            idle, "POST", "/experiments", [("Content-Length", str(len(body)))], body
        )
        assert status == 400
        assert field in payload["error"]
        self._assert_healthy(idle)

    def test_job_integers_at_the_sqlite_bounds_are_accepted(self, idle):
        client = ServiceClient(idle.url)
        job = client.submit(CONFIG, priority=(1 << 63) - 1, max_attempts=(1 << 63) - 1)
        assert job["priority"] == (1 << 63) - 1
        job = client.submit(CONFIG, priority=-(1 << 63))
        assert job["priority"] == -(1 << 63)

    def test_silent_client_is_disconnected(self, idle, monkeypatch):
        monkeypatch.setattr(server, "REQUEST_TIMEOUT_S", 0.2)
        with socket.create_connection(idle.address, timeout=10) as silent:
            # Send nothing: the server must close its end, not wait forever.
            assert silent.recv(1024) == b""
        self._assert_healthy(idle)

    def test_zero_limit_lists_nothing(self, idle):
        ServiceClient(idle.url).submit(CONFIG)
        status, payload = _raw_request(idle, "GET", "/experiments?limit=0")
        assert status == 200 and payload["jobs"] == []


class TestCliShutdown:
    def test_sigterm_stops_the_service_with_exit_0(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "service", "start",
                "--db", str(tmp_path / "svc.db"),
                "--host", "127.0.0.1", "--port", "0",
                "--drain-workers", "1", "--poll", "0.05",
            ],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # The CLI prints the bound URL on startup; wait for it, then
            # poll /healthz so SIGTERM lands on a fully started service.
            url = None
            deadline = clock.wall() + 60.0
            while url is None:
                assert clock.wall() < deadline, "service never printed its URL"
                line = process.stdout.readline()
                if line.startswith("service"):
                    url = line.split(":", 1)[1].strip()
            deadline = clock.wall() + 60.0
            while True:
                try:
                    urllib.request.urlopen(f"{url}/healthz", timeout=1)
                    break
                except OSError:
                    assert clock.wall() < deadline, "service never became healthy"
                    clock.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            output = process.communicate(timeout=60)[0]
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "service stopped" in output
