"""The ``repro-job/1`` wire format: deterministic ids, round-trips,
validation."""

import pytest

from repro.difftest import generate_spec
from repro.errors import FarmError
from repro.farm import JOB_SCHEMA, Job, job_id_for, validate_job_dict
from repro.farm.job import read_fuzz_payload
from repro.farm.runner import execute_task


class TestDeterministicIds:
    def test_same_identity_same_id(self):
        a = Job(tenant="alice", kind="router", name="run-1", seed=7)
        b = Job(tenant="alice", kind="router", name="run-1", seed=7,
                payload={"t_sync": 999}, priority=3)
        # Payload and priority are not part of the identity.
        assert a.job_id == b.job_id == job_id_for(7, "alice", "router",
                                                  "run-1")

    @pytest.mark.parametrize("other", [
        Job(tenant="bob", kind="router", name="run-1", seed=7),
        Job(tenant="alice", kind="fuzz_case", name="run-1", seed=7),
        Job(tenant="alice", kind="router", name="run-2", seed=7),
        Job(tenant="alice", kind="router", name="run-1", seed=8),
    ])
    def test_any_identity_field_changes_the_id(self, other):
        base = Job(tenant="alice", kind="router", name="run-1", seed=7)
        assert other.job_id != base.job_id

    def test_fuzz_case_name_defaults_to_campaign_index(self):
        job = Job(tenant="fuzz", kind="fuzz_case",
                  payload={"spec": {"index": 17}})
        assert job.name == "case-17"


class TestRoundTrip:
    def test_dict_round_trip(self):
        job = Job(tenant="alice", kind="router", name="nightly",
                  payload={"mode": "inproc", "t_sync": 250}, priority=2,
                  seed=11)
        doc = job.to_dict()
        assert doc["schema"] == JOB_SCHEMA
        clone = Job.from_dict(doc)
        assert clone == job

    def test_file_round_trip(self, tmp_path):
        job = Job(tenant="alice", kind="fuzz_case",
                  payload={"base_seed": 42, "index": 3})
        path = str(tmp_path / "job.json")
        job.save(path)
        assert Job.load(path) == job

    def test_forged_job_id_rejected(self):
        doc = Job(tenant="alice", kind="router", name="x").to_dict()
        doc["job_id"] = "deadbeef" * 4
        with pytest.raises(FarmError, match="deterministic id"):
            Job.from_dict(doc)

    def test_windows_estimated_from_payload_shape(self):
        job = Job(tenant="alice", kind="router",
                  payload={"t_sync": 100, "max_cycles": 1000})
        assert job.windows_requested == 10
        nested = Job(tenant="fuzz", kind="fuzz_case",
                     payload={"spec": {"index": 0, "t_sync": 50,
                                       "max_cycles": 500}})
        assert nested.windows_requested == 10


class TestValidation:
    @pytest.mark.parametrize("doc,message", [
        ("not a dict", "JSON object"),
        ({"schema": "repro-job/999", "tenant": "a"}, "schema"),
        ({"tenant": ""}, "tenant"),
        ({"tenant": "a", "kind": "bogus"}, "kind"),
        ({"tenant": "a", "payload": []}, "payload"),
        ({"tenant": "a", "priority": "high"}, "priority"),
        ({"tenant": "a", "state": "exploded"}, "state"),
        ({"tenant": "a", "kind": "fuzz_case",
          "payload": {"spec": "nope"}}, "spec"),
        ({"tenant": "a", "kind": "router",
          "payload": {"mode": "queue"}}, "mode"),
    ])
    def test_malformed_documents_rejected(self, doc, message):
        with pytest.raises(FarmError, match=message):
            validate_job_dict(doc)

    # Each of these was once accepted, queued, and failed in the worker.
    @pytest.mark.parametrize("payload,message", [
        ({}, "base_seed"),
        ({"base_seed": 42}, "index"),
        ({"base_seed": "x", "index": 0}, "base_seed"),
        ({"base_seed": True, "index": 0}, "base_seed"),
        ({"base_seed": 42, "index": -1}, "index"),
        ({"base_seed": 42, "index": 0, "backends": "inproc"}, "backends"),
        ({"base_seed": 42, "index": 0, "backends": 5}, "backends"),
        ({"base_seed": 42, "index": 0, "backends": [1]}, "backends"),
        ({"base_seed": 42, "index": 0, "backends": ["bogus"]},
         "unknown difftest backend"),
        ({"base_seed": 42, "index": 0, "scenarios": "router"}, "scenarios"),
        ({"base_seed": 42, "index": 0, "scenarios": ["bogus"]},
         "unknown fuzz scenario"),
        ({"base_seed": 42, "index": 0, "shrink": "no"}, "shrink"),
        ({"base_seed": 42, "index": 0, "shirnk": False}, "unknown keys"),
    ])
    def test_malformed_fuzz_case_payload_rejected(self, payload, message):
        doc = {"tenant": "a", "kind": "fuzz_case", "payload": payload}
        with pytest.raises(FarmError, match=message):
            validate_job_dict(doc)
        # The worker reads the payload the same way.
        result = execute_task({"job": doc})
        assert not result["ok"]
        assert result["error"].startswith("FarmError: fuzz_case payload")

    @pytest.mark.parametrize("field", ["priority", "seed",
                                       "windows_requested"])
    def test_bool_is_not_an_integer_field(self, field):
        with pytest.raises(FarmError, match=field):
            validate_job_dict({"tenant": "a", field: True})

    def test_derived_fuzz_case_payload_accepted(self):
        payload = {"base_seed": 42, "index": 3, "scenarios": ["iss"],
                   "backends": ["iss-default"], "shrink": False}
        validate_job_dict({"tenant": "a", "kind": "fuzz_case",
                           "payload": payload})
        spec, backends, shrink = read_fuzz_payload(payload)
        assert spec == generate_spec(42, 3, scenarios=["iss"])
        assert (backends, shrink) == (["iss-default"], False)

    def test_constructor_validates_too(self):
        with pytest.raises(FarmError):
            Job(tenant="")
        with pytest.raises(FarmError):
            Job(tenant="a", kind="bogus")
