"""The HTTP front end and client: routes, status codes, streaming,
multi-tenant listing."""

import json
import socket

import pytest

from repro.cli import main
from repro.cosim import CosimConfig
from repro.difftest import generate_spec
from repro.errors import FarmError, QuotaExceeded
from repro.farm import Farm, FarmClient, FarmServer, Job, TenantQuota
from repro.farm.server import MAX_BODY_BYTES
from repro.router.testbench import RouterWorkload, build_router_cosim

ROUTER_PAYLOAD = {"mode": "inproc", "t_sync": 200,
                  "packets_per_producer": 1, "interval_cycles": 100,
                  "num_ports": 2}


@pytest.fixture
def served():
    """A started farm server plus a client bound to its real port."""
    farm = Farm(workers=2)
    with FarmServer(farm) as server:
        host, port = server.address
        yield farm, FarmClient(host=host, port=port)


def _raw(client, request: bytes):
    """Send *request* bytes as-is; returns (status, JSON body).  The
    server must answer and close within the socket timeout."""
    with socket.create_connection((client.host, client.port),
                                  timeout=5.0) as sock:
        sock.sendall(request)
        response = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def _post_jobs(client, length: str) -> bytes:
    return (f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n").encode("ascii")


def _post_job(kind, payload) -> bytes:
    body = json.dumps({"tenant": "alice", "kind": kind,
                       "payload": payload}).encode("utf-8")
    return (f"POST /jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def _job(name, tenant="alice", **overrides):
    payload = dict(ROUTER_PAYLOAD, **overrides.pop("payload", {}))
    return Job(tenant=tenant, kind="router", payload=payload,
               name=name, **overrides)


class TestEndpoints:
    def test_health_and_metrics(self, served):
        _farm, client = served
        assert client.health() is True
        metrics = client.metrics()
        assert metrics["workers"] == 2
        assert "farm_jobs=" in metrics["summary"]

    def test_submit_wait_result_roundtrip(self, served):
        _farm, client = served
        job = _job("round")
        doc = client.submit(job)
        assert doc["job_id"] == job.job_id
        final = client.wait(job.job_id, timeout_s=30)
        assert final["state"] == "done"
        result = client.result(job.job_id)
        assert result["ok"] and result["windows"] > 0

    def test_submit_plain_dict(self, served):
        _farm, client = served
        doc = client.submit({"tenant": "bob", "kind": "router",
                             "payload": dict(ROUTER_PAYLOAD),
                             "name": "dict-born"})
        assert client.wait(doc["job_id"], timeout_s=30)["state"] == "done"

    def test_jobs_listing_filters_by_tenant(self, served):
        _farm, client = served
        client.submit(_job("a1", tenant="alice"))
        client.submit(_job("b1", tenant="bob"))
        assert len(client.jobs()) == 2
        bobs = client.jobs(tenant="bob")
        assert [j["tenant"] for j in bobs] == ["bob"]

    def test_cancel_endpoint(self, served):
        farm, client = served
        # Saturate both workers so the victim stays queued.
        for index in range(2):
            client.submit(Job(
                tenant="alice", kind="router", name=f"block-{index}",
                payload=dict(ROUTER_PAYLOAD, packets_per_producer=4,
                             emulated_network_delay_s=0.05)))
        victim = _job("victim")
        client.submit(victim)
        assert client.cancel(victim.job_id) is True
        assert client.job(victim.job_id)["state"] == "cancelled"
        farm.wait(timeout_s=30)


class TestErrorCodes:
    def test_unknown_job_404(self, served):
        _farm, client = served
        with pytest.raises(FarmError, match="404"):
            client.job("doesnotexist")
        with pytest.raises(FarmError, match="404"):
            client.result("doesnotexist")

    def test_result_before_terminal_404(self, served):
        _farm, client = served
        job = _job("early",
                   payload={"emulated_network_delay_s": 0.05,
                            "packets_per_producer": 4})
        client.submit(job)
        with pytest.raises(FarmError, match="no result yet"):
            client.result(job.job_id)
        client.wait(job.job_id, timeout_s=30)

    def test_malformed_job_400(self, served):
        _farm, client = served
        with pytest.raises(FarmError, match="400"):
            client.submit({"tenant": "", "kind": "router"})
        with pytest.raises(FarmError, match="400"):
            client.submit({"tenant": "a", "kind": "bogus"})

    def test_quota_blown_429(self):
        quota = TenantQuota(max_in_flight=1, max_total_windows=2)
        farm = Farm(workers=1, default_quota=quota)
        with FarmServer(farm) as server:
            host, port = server.address
            client = FarmClient(host=host, port=port)
            client.submit(_job("fits", payload={"max_cycles": 300}))
            with pytest.raises(QuotaExceeded):
                client.submit(_job("blown",
                                   payload={"max_cycles": 4000}))
            farm.wait(timeout_s=30)

    def test_non_numeric_content_length_400(self, served):
        _farm, client = served
        status, doc = _raw(client, _post_jobs(client, "abc"))
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_negative_content_length_400(self, served):
        _farm, client = served
        status, doc = _raw(client, _post_jobs(client, "-1"))
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_oversized_body_413(self, served):
        _farm, client = served
        status, doc = _raw(client,
                           _post_jobs(client, str(MAX_BODY_BYTES + 1)))
        assert status == 413
        assert str(MAX_BODY_BYTES) in doc["error"]

    @pytest.mark.parametrize("payload,message", [
        ({"t_sync": "x"}, "t_sync"),
        ({"t_sync": 0}, "t_sync"),
        ({"packets_per_prodcuer": 4}, "unknown"),
        ({"seed": 1.5}, "seed"),
        ({"mode": "tcp"}, "mode"),
        ({"trace": "yes"}, "trace"),
        ({"mode": "queue"}, "mode"),
    ])
    def test_malformed_router_payload_400(self, served, payload, message):
        _farm, client = served
        status, doc = _raw(client, _post_job("router", payload))
        assert status == 400
        assert message in doc["error"]
        assert client.jobs() == []

    @pytest.mark.parametrize("change", [{"t_sync": "x"}, {"seed": None},
                                        {"num_ports": 0}])
    def test_malformed_fuzz_spec_400(self, served, change):
        _farm, client = served
        spec = dict(generate_spec(42, 0).to_dict(), **change)
        status, doc = _raw(client, _post_job("fuzz_case", {"spec": spec}))
        assert status == 400
        assert next(iter(change)) in doc["error"]
        assert client.jobs() == []

    @pytest.mark.parametrize("payload,message", [
        ({"base_seed": 42}, "index"),
        ({"base_seed": 42, "index": 0, "backends": "inproc"}, "backends"),
        ({"base_seed": 42, "index": 0, "shrink": "no"}, "shrink"),
    ])
    def test_malformed_fuzz_case_payload_400(self, served, payload,
                                             message):
        _farm, client = served
        status, doc = _raw(client, _post_job("fuzz_case", payload))
        assert status == 400
        assert message in doc["error"]
        assert client.jobs() == []

    @pytest.mark.parametrize("cursor", ["xyz", "-3"])
    def test_bad_stream_cursor_400(self, served, cursor):
        _farm, client = served
        job = _job("cursor")
        client.submit(job)
        for path in (f"/stream?cursor={cursor}",
                     f"/jobs/{job.job_id}/stream?cursor={cursor}"):
            request = (f"GET {path} HTTP/1.1\r\nHost: x\r\n"
                       f"Connection: close\r\n\r\n").encode("ascii")
            status, doc = _raw(client, request)
            assert status == 400
            assert "cursor" in doc["error"]
        client.wait(job.job_id, timeout_s=30)

    def test_unknown_route_404(self, served):
        _farm, client = served
        with pytest.raises(FarmError, match="404"):
            client._request("GET", "/nope")
        with pytest.raises(FarmError, match="404"):
            client._request("POST", "/jobs/x/promote")


class TestRouterJobs:
    def test_bursty_job_matches_the_direct_run(self, served):
        _farm, client = served
        knobs = {"packets_per_producer": 4, "interval_cycles": 100,
                 "num_ports": 2, "burst_size": 2, "burst_gap_cycles": 1500}
        job = _job("bursty", payload=knobs)
        client.submit(job)
        assert client.wait(job.job_id, timeout_s=30)["state"] == "done"
        result = client.result(job.job_id)
        # The farm's small-job defaults fill the knobs the payload omits.
        workload = RouterWorkload(payload_size=16, corrupt_rate=0.0,
                                  buffer_capacity=8, seed=1, **knobs)
        cosim = build_router_cosim(CosimConfig(t_sync=200), workload)
        metrics = cosim.run()
        assert result["master_cycles"] == metrics.master_cycles
        assert result["stats"] == json.loads(
            json.dumps(cosim.stats.snapshot()))


class TestSubmitCommand:
    def _run(self, argv, capsys):
        code = main(["submit", "--server", "127.0.0.1:9", *argv])
        return code, capsys.readouterr().err.strip().splitlines()

    def test_non_json_payload(self, capsys):
        code, lines = self._run(["--payload", "{t_sync: 5"], capsys)
        assert code == 2 and len(lines) == 1
        assert "--payload" in lines[0]

    def test_unreadable_job_file(self, tmp_path, capsys):
        code, lines = self._run([str(tmp_path / "absent.json")], capsys)
        assert code == 2 and len(lines) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, lines = self._run([str(bad)], capsys)
        assert code == 2 and len(lines) == 1

    def test_malformed_payload_is_refused_with_400(self, served, capsys):
        _farm, client = served
        code = main(["submit", "--server", f"{client.host}:{client.port}",
                     "--payload", '{"t_sync": 0}'])
        assert code != 0
        assert "400" in capsys.readouterr().err
        assert client.jobs() == []


class TestStreaming:
    def test_job_stream_ends_at_terminal_state(self, served):
        _farm, client = served
        job = _job("streamed")
        client.submit(job)
        events = list(client.stream(job_id=job.job_id, timeout_s=30))
        kinds = [e["event"] for e in events]
        assert kinds == ["submitted", "started", "done"]
        assert all(e["job_id"] == job.job_id for e in events)

    def test_stream_cursor_resumes(self, served):
        _farm, client = served
        job = _job("cursored")
        client.submit(job)
        client.wait(job.job_id, timeout_s=30)
        first = list(client.stream(job_id=job.job_id, timeout_s=10))
        # Resuming past the first event yields only the remainder.
        rest = list(client.stream(job_id=job.job_id,
                                  cursor=first[0]["seq"],
                                  timeout_s=10))
        assert [e["seq"] for e in rest] == \
            [e["seq"] for e in first[1:]]

    def test_stream_is_valid_ndjson(self, served):
        _farm, client = served
        job = _job("ndjson")
        client.submit(job)
        import http.client
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("GET", f"/jobs/{job.job_id}/stream")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == \
                "application/x-ndjson"
            lines = [line for line in response.read().splitlines()
                     if line.strip()]
            parsed = [json.loads(line) for line in lines]
            assert parsed[-1]["state"] == "done"
        finally:
            conn.close()
