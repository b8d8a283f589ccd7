"""The import graph of a run: a run compiles only the modules it runs.

Package ``__init__`` files export lazily (:mod:`repro._lazy`) and an
optional feature imports its module where it is configured.  These
tests check both in a fresh interpreter, since this process already
holds every module:

* a default in-process router run loads none of the optional modules;
* no ``repro`` module is imported for the first time inside ``run()``,
  whichever feature the session was built with — a module first
  compiled there would land in a timed window;
* every lazily exported name resolves and is listed by ``dir()``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

LAZY_PACKAGES = ["repro.simkernel", "repro.rtos", "repro.board",
                 "repro.transport", "repro.cosim", "repro.replay",
                 "repro.obs", "repro.router", "repro.iss", "repro.devices",
                 "repro.analysis"]

#: Modules an in-process router run without optional features never
#: executes.
OPTIONAL_MODULES = ["repro.transport.tcp", "repro.transport.faults",
                    "repro.cosim.optimistic", "repro.cosim.adaptive",
                    "repro.replay.checkpoint", "repro.replay.replayer",
                    "repro.obs.export", "repro.simkernel.trace",
                    "repro.simkernel.bitvec"]

#: Builds one small router session as ``cosim``; the case name picks
#: the feature.  Prints the ``repro`` modules loaded after the build
#: and the ones first loaded by ``run()``.
CHILD = r"""
import json, sys

def loaded():
    return {name for name in sys.modules if name.startswith("repro")}

case = sys.argv[1]
from repro.cosim import CosimConfig
from repro.router.testbench import RouterWorkload, build_router_cosim

config = CosimConfig(t_sync=500)
workload = RouterWorkload(packets_per_producer=3, seed=7)
options = {}
run = {}
recording = None
if case == "tcp":
    options["mode"] = "tcp"
elif case == "speculation":
    config = CosimConfig(t_sync=5000, speculation_depth=8)
    workload = RouterWorkload(packets_per_producer=2, interval_cycles=50_000,
                              corrupt_rate=0.0, seed=7)
    run = {"max_cycles": 100_000, "await_drain": False}
elif case == "adaptive":
    from repro.cosim import AdaptivePolicy
    options["adaptive"] = AdaptivePolicy()
elif case == "faults":
    from repro.transport.faults import FaultPlan
    options["fault_plan"] = FaultPlan(delay_reports={2: 0.0})
elif case == "iss":
    options["iss_timing"] = True
elif case == "recorded":
    from repro.replay import SessionRecording
    recording = SessionRecording()
    options["recorder"] = recording
cosim = build_router_cosim(config, workload, **options)
if case == "checkpointed":
    from repro.replay import Checkpointer
    cosim.session.attach_checkpointer(Checkpointer(every=2))
built = loaded()
metrics = cosim.run(**run)
during = loaded() - built
if recording is not None:
    from repro.router.testbench import finalize_router_recording
    finalize_router_recording(recording, cosim, metrics)
from repro.replay import board_state_summary, state_digest
state_digest({"stats": cosim.stats.snapshot(),
              "board": board_state_summary(cosim.runtime.board)})
print(json.dumps({"windows": metrics.windows, "loaded": sorted(loaded()),
                  "during_run": sorted(during)}))
"""


def run_child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_default_run_loads_no_optional_module():
    result = run_child(CHILD, "inproc")
    assert result["windows"] > 0
    assert sorted(set(OPTIONAL_MODULES) & set(result["loaded"])) == []


@pytest.mark.parametrize("case, module", [
    ("inproc", "repro.cosim.session"),
    ("tcp", "repro.transport.tcp"),
    ("speculation", "repro.cosim.optimistic"),
    ("adaptive", "repro.cosim.adaptive"),
    ("faults", "repro.transport.faults"),
    ("iss", "repro.iss.rtos_bridge"),
    ("recorded", "repro.replay.recorder"),
    ("checkpointed", "repro.replay.checkpoint"),
])
def test_run_imports_nothing_new(case, module):
    """*module* is the feature's own, loaded by the build."""
    result = run_child(CHILD, case)
    assert result["windows"] > 0
    assert module in result["loaded"]
    assert result["during_run"] == []


LISTING = r"""
import importlib, json, sys, types

result = {}
for name in sys.argv[1:]:
    package = importlib.import_module(name)
    missing = [n for n in package.__all__ if not hasattr(package, n)]
    star = {}
    exec(f"from {name} import *", star)
    result[name] = {
        "unlisted": sorted(set(package.__all__) - set(dir(package))),
        "missing": missing,
        "star_missing": sorted(set(package.__all__) - set(star)),
        # An export named like a submodule would be shadowed by it.
        "modules": sorted(n for n in package.__all__
                          if isinstance(getattr(package, n, None),
                                        types.ModuleType)),
    }
print(json.dumps(result))
"""


def test_lazy_packages_resolve_every_export():
    result = run_child(LISTING, *LAZY_PACKAGES)
    for name in LAZY_PACKAGES:
        entry = result[name]
        assert entry["unlisted"] == [], name
        assert entry["missing"] == [], name
        assert entry["star_missing"] == [], name
        assert entry["modules"] == [], name


def test_importing_a_package_compiles_none_of_its_submodules():
    code = ("import json, sys\n"
            "import repro.transport, repro.replay, repro.obs\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('repro.'))))")
    assert run_child(code) == ["repro._lazy", "repro._version", "repro.obs",
                               "repro.replay", "repro.transport"]


def test_unknown_name_is_an_attribute_error():
    import repro.cosim

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.cosim.Nope  # noqa: B018
    with pytest.raises(ImportError):
        from repro.simkernel import EventQueue  # noqa: F401
