"""The public surface: what the submodules export is what the package exports."""

import importlib

import pytest

import jacobilab

SUBMODULES = ["specfun", "core", "transform", "convolution", "multiplier", "lab"]

# Names removed from the API; none may come back under the same name.
REMOVED = [
    "PrecisionConfig",
    "DEFAULT_PRECISION",
    "jacobi_phi_hypergeometric",
    "HarishChandraSeries",
    "harish_chandra_coefficients",
]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_package_exports(name):
    module = importlib.import_module(f"jacobilab.{name}")
    for export in module.__all__:
        assert export in jacobilab.__all__, (name, export)
        assert getattr(jacobilab, export) is getattr(module, export), (name, export)


def test_package_exports_resolve():
    for export in jacobilab.__all__:
        assert hasattr(jacobilab, export), export


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_stay_gone(name):
    assert name not in jacobilab.__all__
    assert not hasattr(jacobilab, name)
    for sub in SUBMODULES:
        assert not hasattr(importlib.import_module(f"jacobilab.{sub}"), name), sub
