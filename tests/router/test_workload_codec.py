"""The one plain-data form of the router workload and its readers.

``RouterWorkload.to_dict``/``from_dict`` own the field names, defaults,
types and ranges; run meta (recordings, checkpoints), plugin ``init``
configs, farm jobs and fuzz specs all read through them.  The property
form is ``test_workload_properties.py``.
"""

import dataclasses

import pytest

from repro.cosim import CosimConfig
from repro.errors import FmiError, WorkloadError
from repro.fmi.adapter import read_router_plugin_config, router_plugin_config
from repro.fmi.behavioral import BehavioralRouterModel
from repro.router.packet import MAX_PAYLOAD
from repro.router.testbench import (
    RouterWorkload,
    router_run_from_meta,
    router_run_meta,
)

FIELDS = [f.name for f in dataclasses.fields(RouterWorkload)]


class TestCodec:
    def test_defaults_and_field_order(self):
        doc = RouterWorkload().to_dict()
        assert list(doc) == FIELDS
        assert RouterWorkload.from_dict({}) == RouterWorkload()

    def test_edge_workloads_existing_code_builds_are_accepted(self):
        for knobs in ({"packets_per_producer": 0}, {"payload_size": 1024},
                      {"num_ports": 1}, {"corrupt_rate": 1}):
            workload = RouterWorkload(**knobs)
            assert RouterWorkload.from_dict(workload.to_dict()) == workload

    def test_int_corrupt_rate_reads_as_float(self):
        workload = RouterWorkload.from_dict({"corrupt_rate": 0})
        assert workload.corrupt_rate == 0.0
        assert isinstance(workload.corrupt_rate, float)

    @pytest.mark.parametrize("doc,message", [
        ([], "object"),
        ({"packets": 4}, "unknown workload keys"),
        ({"seed": None}, "seed must be int"),
        ({"packets_per_producer": "4"}, "packets_per_producer must be int"),
        ({"num_ports": True}, "num_ports must be int"),
        ({"interval_cycles": 2.0}, "interval_cycles must be int"),
        ({"interval_cycles": 0}, "interval_cycles must be >= 1"),
        ({"corrupt_rate": float("nan")}, "corrupt_rate must be in"),
        ({"payload_size": MAX_PAYLOAD + 1}, "payload_size must be in"),
        ({"num_ports": 257}, "num_ports must be in"),
        ({"burst_size": 0}, "burst_size"),
    ])
    def test_malformed_documents(self, doc, message):
        with pytest.raises(WorkloadError, match=message):
            RouterWorkload.from_dict(doc)

    def test_split_hands_back_the_other_keys(self):
        workload, rest = RouterWorkload.split({"seed": 3, "mode": "tcp"})
        assert workload == RouterWorkload(seed=3)
        assert rest == {"mode": "tcp"}


class TestRunMeta:
    def test_meta_round_trip(self):
        config = CosimConfig(t_sync=700)
        workload = RouterWorkload(seed=9, burst_size=2, burst_gap_cycles=50)
        meta = router_run_meta(config, workload, mode="tcp",
                               iss_timing=True)
        rebuilt_config, rebuilt, iss_timing = router_run_from_meta(meta)
        assert rebuilt_config.t_sync == 700
        assert rebuilt == workload
        assert iss_timing is True

    @pytest.mark.parametrize("change,message", [
        ({"seed": None}, "seed"),
        ({"packets_per_producer": "4"}, "packets_per_producer"),
        ({"t_sync": 0}, "t_sync"),
        ({"iss_timing": "yes"}, "iss_timing"),
        ({"scenario": "iss"}, "scenario"),
        ({"mode": 3}, "mode"),
        ({"bogus": 1}, "unknown run meta keys"),
    ])
    def test_malformed_meta(self, change, message):
        meta = router_run_meta(CosimConfig(), RouterWorkload())
        with pytest.raises(WorkloadError, match=message):
            router_run_from_meta(dict(meta, **change))


class TestPluginConfig:
    def test_plugin_reads_back_what_the_mount_writes(self):
        config = CosimConfig(clock_period_ps=5000)
        workload = RouterWorkload(num_ports=2, burst_size=3, seed=44)
        doc = router_plugin_config(config, workload)
        assert "seed" not in doc
        rebuilt, own = read_router_plugin_config(doc, 44)
        assert rebuilt == workload
        assert own == {"irq_vector": config.remote_vector,
                       "clock_period_ps": 5000}

    def test_behavioral_defaults_are_the_workload_defaults(self):
        plugin = BehavioralRouterModel()
        plugin.init({}, 123)
        assert plugin.workload == RouterWorkload(seed=123)

    @pytest.mark.parametrize("config", [
        {"interval_cycles": 0}, {"num_ports": "4"}, {"irq_vector": "1"},
        {"input_fifo_capacity": 4},  # the netlist has no such key
    ])
    def test_malformed_config_is_an_fmi_error(self, config):
        with pytest.raises(FmiError, match="plugin config"):
            read_router_plugin_config(config, 1)

    def test_seed_must_be_an_int(self):
        with pytest.raises(FmiError, match="seed"):
            BehavioralRouterModel().init({}, None)
