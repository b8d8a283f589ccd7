"""The farm facade end to end (in-process): lifecycle, events,
cancellation, quotas, persistence, crash accounting."""

import os
import time

import pytest

import repro.farm.runner as runner_mod
from repro.errors import FarmError, QuotaExceeded
from repro.farm import TERMINAL_STATES, Farm, Job, TenantQuota

ROUTER_PAYLOAD = {"mode": "inproc", "t_sync": 200,
                  "packets_per_producer": 1, "interval_cycles": 100,
                  "num_ports": 2}


def _router_job(name, tenant="alice", **overrides):
    payload = dict(ROUTER_PAYLOAD, **overrides.pop("payload", {}))
    return Job(tenant=tenant, kind="router", payload=payload,
               name=name, **overrides)


class TestLifecycle:
    def test_submit_run_result(self):
        with Farm(workers=2) as farm:
            job = farm.submit(_router_job("one"))
            assert farm.wait(job.job_id, timeout_s=30)
            assert job.state == "done"
            result = farm.result(job.job_id)
            assert result["ok"] and result["windows"] > 0
            assert job.result["windows"] == result["windows"]

    def test_resubmit_is_idempotent(self):
        with Farm(workers=1) as farm:
            first = farm.submit(_router_job("same"))
            second = farm.submit(_router_job("same"))
            assert second is first
            farm.wait(timeout_s=30)
            assert len(farm.jobs()) == 1

    def test_submit_after_shutdown_rejected(self):
        farm = Farm(workers=1)
        farm.start()
        farm.shutdown()
        with pytest.raises(FarmError, match="not accepting"):
            farm.submit(_router_job("late"))

    def test_event_feed_orders_lifecycle(self):
        with Farm(workers=1) as farm:
            job = farm.submit(_router_job("tracked"))
            farm.wait(job.job_id, timeout_s=30)
            _cursor, events = farm.events_since(0)
            kinds = [e["event"] for e in events
                     if e["job_id"] == job.job_id]
            assert kinds == ["submitted", "started", "done"]
            # Cursor resume: nothing new after the last event.
            cursor, _ = farm.events_since(0)
            assert farm.events_since(cursor, wait_s=0.05) == (cursor, [])

    def test_wait_times_out(self):
        with Farm(workers=1) as farm:
            job = farm.submit(_router_job(
                "slow", payload={"packets_per_producer": 4,
                                 "emulated_network_delay_s": 0.05}))
            assert farm.wait(job.job_id, timeout_s=0.01) is False
            assert farm.wait(job.job_id, timeout_s=30) is True


class TestSubmitReadsPayload:
    """A job built in process is read like one posted as JSON: a
    malformed payload is refused at submit and never reaches a
    worker."""

    @pytest.mark.parametrize("kind, payload, match", [
        ("fuzz_case", {}, "base_seed"),
        ("router", dict(ROUTER_PAYLOAD, mode="tcp"), "mode"),
        ("fuzz_case", {"base_seed": 42, "index": 0, "backends": "inproc"},
         "backends"),
    ])
    def test_malformed_payload_queues_nothing(self, kind, payload, match):
        with Farm(workers=1) as farm:
            job = Job(tenant="a", kind=kind, payload=payload)
            with pytest.raises(FarmError, match=match):
                farm.submit(job)
            assert farm.jobs() == []
            assert farm.events_since(0) == (0, [])


class TestCancellation:
    def test_cancel_queued_job(self):
        # One worker + a long job in front keeps the victim queued.
        with Farm(workers=1) as farm:
            blocker = farm.submit(_router_job(
                "blocker", payload={"packets_per_producer": 4,
                                    "emulated_network_delay_s": 0.05}))
            victim = farm.submit(_router_job("victim"))
            assert farm.cancel(victim.job_id) is True
            assert victim.state == "cancelled"
            farm.wait(timeout_s=30)
            assert blocker.state == "done"

    def test_cancel_running_job_kills_worker(self, monkeypatch):
        def hang(task):
            time.sleep(60)
            return {"ok": True}

        monkeypatch.setattr(runner_mod, "execute_task", hang)
        with Farm(workers=1) as farm:
            job = farm.submit(_router_job("hung"))
            deadline = time.monotonic() + 10
            while job.state != "running":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert farm.cancel(job.job_id) is True
            assert farm.wait(job.job_id, timeout_s=10)
            assert job.state == "cancelled"

    def test_cancel_unknown_and_terminal(self):
        with Farm(workers=1) as farm:
            job = farm.submit(_router_job("done-soon"))
            farm.wait(job.job_id, timeout_s=30)
            assert farm.cancel(job.job_id) is False
            assert farm.cancel("nope") is False

    def test_non_drain_shutdown_cancels_queue(self):
        farm = Farm(workers=1)
        farm.start()
        jobs = [farm.submit(_router_job(f"q-{i}", payload={
            "packets_per_producer": 4,
            "emulated_network_delay_s": 0.05})) for i in range(4)]
        farm.shutdown(drain=False)
        assert all(job.state in TERMINAL_STATES for job in jobs)
        assert any(job.state == "cancelled" for job in jobs)


class TestQuotasAndFailures:
    def test_window_budget_surfaces_quota_exceeded(self):
        quota = TenantQuota(max_in_flight=2, max_total_windows=5)
        with Farm(workers=1, default_quota=quota) as farm:
            farm.submit(_router_job("a", payload={"max_cycles": 400}))
            with pytest.raises(QuotaExceeded):
                farm.submit(_router_job(
                    "b", payload={"max_cycles": 2000}))

    def test_worker_crash_fails_job_and_counts(self, monkeypatch):
        def die(task):
            os._exit(23)

        monkeypatch.setattr(runner_mod, "execute_task", die)
        with Farm(workers=1) as farm:
            job = farm.submit(_router_job("doomed"))
            farm.wait(job.job_id, timeout_s=30)
            assert job.state == "failed"
            assert "exit code 23" in job.error
            assert farm.snapshot()["crashes"] == 1
            summary = farm.metrics_summary()
            assert "farm_jobs=1" in summary

    def test_job_timeout_fails_job(self, monkeypatch):
        def hang(task):
            time.sleep(60)
            return {"ok": True}

        monkeypatch.setattr(runner_mod, "execute_task", hang)
        with Farm(workers=1, job_timeout_s=0.3) as farm:
            job = farm.submit(_router_job("tardy"))
            farm.wait(job.job_id, timeout_s=30)
            assert job.state == "failed"
            assert "timed out" in job.error


class TestPersistence:
    def test_results_land_on_disk(self, tmp_path):
        root = str(tmp_path / "results")
        with Farm(workers=1, results_dir=root) as farm:
            job = farm.submit(_router_job(
                "traced", payload={"trace": True}))
            farm.wait(job.job_id, timeout_s=30)
        store = farm.store
        assert store.job_doc(job.job_id)["state"] == "done"
        assert store.result(job.job_id)["ok"] is True
        assert "trace.csv" in store.artifacts(job.job_id)
        assert os.path.exists(store.index_path)

    def test_router_job_trace_has_a_row_per_window(self, tmp_path):
        artifacts = str(tmp_path / "artifacts")
        result = runner_mod.execute_task({
            "job": _router_job("traced-rows", payload={
                "trace": True}).to_dict(),
            "artifacts_dir": artifacts})
        assert result["ok"] is True, result.get("error")
        assert result["artifacts"] == ["trace.csv"]
        with open(os.path.join(artifacts, "trace.csv")) as handle:
            rows = handle.read().splitlines()
        assert len(rows) == 1 + result["windows"]

    def test_snapshot_shape(self):
        with Farm(workers=2) as farm:
            job = farm.submit(_router_job("snap"))
            farm.wait(job.job_id, timeout_s=30)
            snap = farm.snapshot()
        assert snap["jobs"] == 1
        assert snap["states"] == {"done": 1}
        assert snap["workers"] == 2
        assert len(snap["worker_pids"]) == 2
        assert snap["tenants"]["alice"]["jobs_accepted"] == 1
