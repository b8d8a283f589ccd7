"""The ``fmu`` difftest backend against the cross-backend oracles."""

from repro.difftest import generate_spec, run_spec, scenario_backends


class TestBackendSelection:
    def test_fmu_in_default_router_matrix(self):
        assert "fmu" in scenario_backends("router", None)

    def test_fmu_honoured_when_requested(self):
        assert scenario_backends("router", ["fmu"]) == ["inproc", "fmu"]


class TestOracles:
    def test_fmu_matches_inproc(self):
        spec = generate_spec(42, 0, scenarios=["router"])
        outcomes, mismatches = run_spec(spec,
                                        backends=["inproc", "fmu"])
        assert mismatches == []
        fmu = outcomes["fmu"]
        assert fmu.ok
        assert fmu.digest == outcomes["inproc"].digest
        assert fmu.trace_rows == outcomes["inproc"].trace_rows

    def test_fmu_matches_inproc_under_faults(self):
        # generate_spec(42, 8) carries a drop_interrupts fault plan;
        # both backends build their own plan instance from the spec.
        spec = generate_spec(42, 8, scenarios=["router"])
        assert spec.fault_plan() is not None
        outcomes, mismatches = run_spec(spec,
                                        backends=["inproc", "fmu"])
        assert mismatches == []
        assert outcomes["fmu"].digest == outcomes["inproc"].digest
