"""Public-API stability tests.

Every name each subpackage exports must exist, be importable from the
package root, and be documented.  Catches accidental export removals
and undocumented public surface.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.simkernel",
    "repro.rtos",
    "repro.board",
    "repro.transport",
    "repro.cosim",
    "repro.cosim.baselines",
    "repro.iss",
    "repro.router",
    "repro.devices",
    "repro.analysis",
    "repro.replay",
    "repro.staticcheck",
    "repro.obs",
    "repro.difftest",
    "repro.farm",
    "repro.fmi",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} has no module docstring"
    exported = getattr(package, "__all__", None)
    if exported is None:
        return
    assert exported == sorted(exported), \
        f"{package_name}.__all__ is not sorted"
    for name in exported:
        assert hasattr(package, name), \
            f"{package_name}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES[1:])
def test_public_classes_and_functions_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, \
        f"{package_name}: undocumented public items {undocumented}"


def test_version_is_consistent():
    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_key_entry_points_exist():
    from repro.cli import main
    from repro.cosim import CosimConfig, CosimSession
    from repro.router.testbench import build_router_cosim
    from repro.simkernel import Simulator

    assert callable(main)
    assert callable(build_router_cosim)
    assert Simulator and CosimSession and CosimConfig
