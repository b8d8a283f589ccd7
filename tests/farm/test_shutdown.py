"""Graceful shutdown at the process level: ``repro serve`` under
SIGINT/SIGTERM must drain (or cancel), join every worker, flush the
result index, and leave **no orphan processes** — the farm analogue of
the threaded-session leak tests.

These drive a real ``python -m repro.cli serve`` subprocess and kill
it with real signals; worker PIDs come from the ``/metrics`` endpoint
before the signal lands.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.farm import FarmClient, Job

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _spawn_server(tmp_path, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_LOCK_SANITIZER"] = "1"
    port_file = str(tmp_path / "farm.port")
    results = str(tmp_path / "results")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--port-file", port_file,
         "--workers", "2", "--results", results, *extra_args],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30
    while not (os.path.exists(port_file)
               and os.path.getsize(port_file) > 0):
        if process.poll() is not None:
            raise AssertionError(
                f"server died at startup:\n{process.stdout.read()}")
        assert time.monotonic() < deadline, "server never wrote port"
        time.sleep(0.05)
    with open(port_file, encoding="utf-8") as handle:
        port = int(handle.read().strip())
    return process, FarmClient(port=port), results


def _assert_all_dead(pids):
    deadline = time.monotonic() + 10
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except OSError:
                break  # gone (or at least not ours any more)
            assert time.monotonic() < deadline, \
                f"worker {pid} survived server shutdown"
            time.sleep(0.05)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_single_signal_drains_and_exits_clean(tmp_path, signum):
    process, client, results = _spawn_server(tmp_path)
    try:
        job = Job(tenant="alice", kind="router",
                  payload={"mode": "inproc", "t_sync": 200,
                           "packets_per_producer": 1,
                           "interval_cycles": 100, "num_ports": 2},
                  name="drain-me")
        client.submit(job)
        pids = client.metrics()["worker_pids"]
        assert len(pids) == 2

        process.send_signal(signum)
        out, _ = process.communicate(timeout=60)
        assert process.returncode == 0, out
        assert "draining" in out

        # Drained: the in-flight job completed before exit.
        with open(os.path.join(results, "index.json"),
                  encoding="utf-8") as handle:
            index = json.load(handle)
        assert index["jobs"][job.job_id]["state"] == "done"
        _assert_all_dead(pids)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)


def test_second_signal_cancels_instead_of_draining(tmp_path):
    process, client, results = _spawn_server(
        tmp_path, extra_args=("--drain-timeout", "60"))
    try:
        # A job long enough that the drain demonstrably has not
        # finished when the second signal lands (~10 s of emulated
        # network latency).
        job = Job(tenant="alice", kind="router",
                  payload={"mode": "inproc", "t_sync": 50,
                           "packets_per_producer": 8,
                           "interval_cycles": 400, "num_ports": 2,
                           "emulated_network_delay_s": 0.2},
                  name="too-slow")
        client.submit(job)
        deadline = time.monotonic() + 20
        while client.job(job.job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        pids = client.metrics()["worker_pids"]

        process.send_signal(signal.SIGTERM)
        time.sleep(0.5)
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=60)
        assert process.returncode == 0, out

        with open(os.path.join(results, "index.json"),
                  encoding="utf-8") as handle:
            index = json.load(handle)
        # Force-cancelled, not drained to completion.
        assert index["jobs"][job.job_id]["state"] in (
            "cancelled", "failed")
        _assert_all_dead(pids)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
