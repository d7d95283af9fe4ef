"""Socket front end: request dispatch, structured refusals, drain."""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import ScenarioSpec
from repro.experiments.service.server import ServiceServer, request
from repro.experiments.service.service import CampaignService


def good_spec(seed=0):
    return ScenarioSpec("exp4", seed=seed, duration_bits=1_000)


@pytest.fixture
def server(tmp_path):
    service = CampaignService(str(tmp_path / "journal.jsonl"),
                              n_workers=1, heartbeat_seconds=0.1,
                              queue_capacity=2)
    return ServiceServer(service, str(tmp_path / "svc.sock"))


# ----------------------------------------------- dispatch (no socket I/O)

def test_ping(server):
    assert server.handle_request({"op": "ping"}) == {"ok": True,
                                                     "pong": True}


def test_unknown_op_is_a_structured_refusal(server):
    response = server.handle_request({"op": "explode"})
    assert response["ok"] is False
    assert response["kind"] == "bad-request"


def test_submit_requires_a_spec_list(server):
    for payload in ({"op": "submit"}, {"op": "submit", "specs": []},
                    {"op": "submit", "specs": "exp4"}):
        response = server.handle_request(payload)
        assert response["ok"] is False
        assert response["kind"] == "bad-request"


def test_submit_with_malformed_spec_is_bad_request(server):
    response = server.handle_request(
        {"op": "submit", "specs": [{"scenario": "no_such_scenario"}]})
    assert response["ok"] is False
    assert response["kind"] == "bad-request"


def test_submit_beyond_queue_capacity_is_queue_full(server):
    specs = [good_spec(seed=s).to_dict() for s in range(3)]
    response = server.handle_request({"op": "submit", "specs": specs})
    assert response["ok"] is False
    assert response["kind"] == "queue-full"
    assert response["capacity"] == 2
    # Nothing was enqueued by the rejected batch.
    assert server.service.status()["queued"] == 0


def test_submit_while_draining_is_refused(server):
    server.service.request_drain()
    response = server.handle_request(
        {"op": "submit", "specs": [good_spec().to_dict()]})
    assert response["ok"] is False
    assert response["kind"] == "draining"


def test_status_and_report_ops(server):
    status = server.handle_request({"op": "status"})
    assert status["ok"] and status["status"]["submitted"] == 0
    report = server.handle_request({"op": "report"})
    assert report["ok"] and report["report"]["records"] == []


def test_drain_op_flips_the_service_and_sets_shutdown(server):
    response = server.handle_request({"op": "drain"})
    assert response == {"ok": True, "draining": True}
    assert server.service.draining


# ------------------------------------------------------- live socket runs

SERVE_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
from repro.experiments.service.server import ServiceServer
from repro.experiments.service.service import CampaignService
service = CampaignService({journal!r}, n_workers=1, heartbeat_seconds=0.1)
ServiceServer(service, {sock!r}).run()
print("DRAINED", len(service.report().records))
"""


def start_serve(tmp_path):
    src = os.path.join(os.getcwd(), "src")
    sock = str(tmp_path / "svc.sock")
    journal = str(tmp_path / "journal.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-c",
         SERVE_SNIPPET.format(src=src, journal=journal, sock=sock)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(sock):
            return proc, sock
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    out = proc.communicate()[0]
    raise AssertionError(f"serve never opened its socket: {out}")


def test_socket_round_trip_and_sigterm_drain(tmp_path):
    proc, sock = start_serve(tmp_path)
    try:
        assert request(sock, {"op": "ping"})["pong"] is True
        submitted = request(sock, {
            "op": "submit",
            "specs": [good_spec(seed=s).to_dict() for s in range(2)]})
        assert submitted["ok"] and len(submitted["accepted"]) == 2
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = request(sock, {"op": "status"})["status"]
            if status["completed"] == 2:
                break
            time.sleep(0.1)
        assert status["completed"] == 2
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "DRAINED 2" in out
    assert not os.path.exists(sock), "drain removes the socket"


def test_undecodable_request_line_gets_a_structured_reply(tmp_path):
    proc, sock = start_serve(tmp_path)
    try:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(10)
        client.connect(sock)
        client.sendall(b"this is not json\n")
        reply = json.loads(client.makefile().readline())
        assert reply["ok"] is False
        assert reply["kind"] == "bad-request"
        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def test_client_refuses_cleanly_when_no_service_listens(tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="repro serve"):
        request(str(tmp_path / "nothing.sock"), {"op": "ping"})
