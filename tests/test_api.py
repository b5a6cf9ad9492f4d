"""The public surface: what the submodules export is what the package exports."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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
    "BoundaryTrace",
    "CutoffPair",
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


def _load_tracing():
    """benchmarks/tracing.py as a module, imported without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# The argument names the benchmark tracer binds by name, per traced function.
TRACER_BINDINGS = {
    ("core", "phi_matrix"): ["params", "t_nodes", "lam_nodes"],
    ("specfun", "hyp2f1_real_arg"): ["a", "b", "w"],
    ("convolution", "kernel_values"): ["params", "s", "t", "u"],
    ("transform", "jacobi_transform"): ["f", "sgrid"],
    ("transform", "inverse_transform"): ["g", "rgrid"],
    ("lab", "estimate_operator_norm"): ["trials"],
}


def test_benchmark_tracer_targets_resolve():
    # a rename or re-signature that the traced benchmark depends on fails here
    tracing = _load_tracing()
    for span, (module, attr) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(f"jacobilab.{module}"), attr, None)), span
    for span, targets in tracing.METHODS.items():
        for module, cls, attr in targets:
            owner = getattr(importlib.import_module(f"jacobilab.{module}"), cls)
            assert attr in vars(owner), (span, cls, attr)
    for (module, attr), names in TRACER_BINDINGS.items():
        params = inspect.signature(getattr(importlib.import_module(f"jacobilab.{module}"), attr)).parameters
        assert set(names) <= set(params), (attr, names)
    # the interpolation hook reads the points as the third positional argument
    assert list(inspect.signature(jacobilab.transform._PanelGrid.interpolate).parameters)[2] == "z"
