"""Property-based tests for the workload codecs (needs hypothesis).

Mirrors ``tests/fmi/test_wire_properties.py``: round trips of
:class:`RouterWorkload` and :class:`FuzzSpec` documents, then every
single-field corruption (wrong type, unknown key, out of range) must
surface as :class:`~repro.errors.WorkloadError`, never another
exception.
"""

import dataclasses
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.difftest import FuzzSpec, generate_spec  # noqa: E402
from repro.errors import WorkloadError  # noqa: E402
from repro.router.packet import MAX_PAYLOAD  # noqa: E402
from repro.router.testbench import RouterWorkload  # noqa: E402

FIELDS = [f.name for f in dataclasses.fields(RouterWorkload)]

workloads = st.builds(
    RouterWorkload,
    packets_per_producer=st.integers(0, 10**6),
    interval_cycles=st.integers(1, 10**6),
    payload_size=st.integers(0, MAX_PAYLOAD),
    corrupt_rate=st.floats(0.0, 1.0),
    buffer_capacity=st.integers(1, 10**6),
    num_ports=st.integers(1, 256),
    seed=st.integers(-(1 << 63), 1 << 63),
    burst_size=st.integers(1, 10**6),
    burst_gap_cycles=st.integers(0, 10**6),
)
wrong_types = st.sampled_from(["4", None, [1], {"a": 1}, True])
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=8)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=4),
                                               children, max_size=3)),
    max_leaves=8,
)


def _out_of_range(name):
    """Values just outside *name*'s range (none for an unbounded one)."""
    bounds = next(f for f in dataclasses.fields(RouterWorkload)
                  if f.name == name).metadata
    low, high = bounds.get("min"), bounds.get("max")
    kind = type(getattr(RouterWorkload(), name))
    step = 1 if kind is int else 1e-9
    return ([low - step] if low is not None else []) + (
        [high + step] if high is not None else [])


class TestWorkloadProperties:
    @given(workload=workloads)
    def test_round_trip(self, workload):
        assert RouterWorkload.from_dict(workload.to_dict()) == workload
        doc = json.loads(json.dumps(workload.to_dict()))
        assert RouterWorkload.from_dict(doc) == workload

    @given(workload=workloads, name=st.sampled_from(FIELDS),
           value=wrong_types)
    def test_wrong_type_is_a_workload_error(self, workload, name, value):
        with pytest.raises(WorkloadError, match=name):
            RouterWorkload.from_dict(dict(workload.to_dict(),
                                          **{name: value}))

    @given(workload=workloads, name=st.sampled_from(FIELDS),
           data=st.data())
    def test_out_of_range_is_a_workload_error(self, workload, name, data):
        bad = _out_of_range(name)
        if not bad:
            return
        value = data.draw(st.sampled_from(bad))
        with pytest.raises(WorkloadError, match=name):
            RouterWorkload.from_dict(dict(workload.to_dict(),
                                          **{name: value}))

    @given(workload=workloads, key=st.text(max_size=12))
    def test_unknown_key_is_a_workload_error(self, workload, key):
        hypothesis.assume(key not in FIELDS)
        with pytest.raises(WorkloadError, match="unknown workload keys"):
            RouterWorkload.from_dict(dict(workload.to_dict(), **{key: 1}))

    @given(doc=st.dictionaries(st.sampled_from(FIELDS + ["bogus"]),
                               json_values, max_size=4))
    def test_any_json_document_builds_or_is_a_workload_error(self, doc):
        try:
            RouterWorkload.from_dict(doc)
        except WorkloadError:
            pass


SPEC_FIELDS = [f.name for f in dataclasses.fields(FuzzSpec)]
SPEC_OUT_OF_RANGE = {"t_sync": 0, "max_cycles": 0, "index": -1,
                     "interval_cycles": 0, "buffer_capacity": 0,
                     "num_ports": 0, "burst_size": 0, "corrupt_rate": 1.5,
                     "drop_interrupts": [0]}
specs = st.builds(generate_spec, st.integers(0, 1 << 32),
                  st.integers(0, 10_000))


class TestFuzzSpecProperties:
    @given(spec=specs)
    def test_round_trip(self, spec):
        doc = json.loads(json.dumps(spec.to_dict()))
        assert FuzzSpec.from_dict(doc) == spec

    @given(spec=specs, name=st.sampled_from(SPEC_FIELDS), value=wrong_types)
    def test_wrong_type_is_a_workload_error(self, spec, name, value):
        hypothesis.assume((name, value) != ("drop_interrupts", [1]))
        with pytest.raises(WorkloadError, match=name):
            FuzzSpec.from_dict(dict(spec.to_dict(), **{name: value}))

    @given(spec=specs, name=st.sampled_from(sorted(SPEC_OUT_OF_RANGE)))
    def test_out_of_range_is_a_workload_error(self, spec, name):
        value = SPEC_OUT_OF_RANGE[name]
        with pytest.raises(WorkloadError, match=name):
            FuzzSpec.from_dict(dict(spec.to_dict(), **{name: value}))

    @given(spec=specs, key=st.text(max_size=12))
    def test_unknown_key_is_a_workload_error(self, spec, key):
        hypothesis.assume(key not in SPEC_FIELDS)
        with pytest.raises(WorkloadError, match="unknown FuzzSpec fields"):
            FuzzSpec.from_dict(dict(spec.to_dict(), **{key: 1}))

    @given(spec=specs, name=st.sampled_from(SPEC_FIELDS), value=json_values)
    def test_any_field_value_builds_or_is_a_workload_error(self, spec,
                                                           name, value):
        try:
            FuzzSpec.from_dict(dict(spec.to_dict(), **{name: value}))
        except WorkloadError:
            pass
