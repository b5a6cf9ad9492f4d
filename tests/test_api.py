"""The public surface: what the submodules export is what the package exports."""

import cmath
import dataclasses
import importlib
import importlib.util
import inspect
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jacobilab
from jacobilab import errors
from jacobilab.errors import JacobiLabError

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


# The argument contract: every public callable has a row here, with a role per
# argument.  The fed roles take the bad values of BAD_VALUES, one argument at a
# time with the others valid; each call must raise a JacobiLabError whose
# message names the argument (by the name in the row), and for a NaN or an
# infinite real or complex value says so, or return a finite value; and it
# must not warn.  The other roles (parameters, grids, sampled functions,
# multipliers and the plain fields of result records) are listed but not fed:
# checking them would take a guard in about 35 functions (ROADMAP item 14).
REAL, REAL_ARRAY, COMPLEX, COMPLEX_ARRAY, COUNT, EXPONENT = (
    "real", "real array", "complex", "complex array", "count", "exponent")
PARAMS, GRID, SAMPLED, MEMBER, FIELD = "params", "grid", "sampled", "member", "field"
OBJECTS = {PARAMS, GRID, SAMPLED, MEMBER}

_NOT_NUMBERS = ["2", "a", np.array([])]
_PAST_DOUBLES = 10**400  # an int that float() refuses with OverflowError
BAD_VALUES = {
    REAL: [math.nan, math.inf, -math.inf, 1 + 1j, *_NOT_NUMBERS, _PAST_DOUBLES],
    REAL_ARRAY: [math.nan, math.inf, -math.inf, 1 + 1j, *_NOT_NUMBERS, _PAST_DOUBLES],
    COMPLEX: [math.nan, math.inf, -math.inf, complex(1.0, math.nan), *_NOT_NUMBERS, _PAST_DOUBLES],
    COMPLEX_ARRAY: [math.nan, math.inf, -math.inf, complex(1.0, math.nan), *_NOT_NUMBERS, _PAST_DOUBLES],
    # a huge count would be honoured, and allocate
    COUNT: [math.nan, math.inf, -math.inf, 1 + 1j, *_NOT_NUMBERS],
    EXPONENT: [math.nan, -math.inf, 1 + 1j, *_NOT_NUMBERS, _PAST_DOUBLES],  # an L^p exponent may be inf
}

# name -> ((argument, role, valid value[, name in messages]), ...); the valid
# value of a role in OBJECTS is a key of the `contract_objects` fixture
_P = ("params", PARAMS, "params")
CONTRACT = {
    **{name: () for name in errors.__all__},
    "gamma_complex": (("z", COMPLEX_ARRAY, 1.5),),
    "hyp2f1": (("a", COMPLEX, 0.5), ("b", COMPLEX, 1.0), ("c", COMPLEX, 2.0), ("z", REAL, 0.3)),
    "bessel_script_J": (("alpha", REAL, 1.5), ("x", REAL, 2.0)),
    "JacobiParameters": (("alpha", REAL, 1.2), ("beta", REAL, 0.3), ("relaxed", FIELD, False)),
    "weight_density": (_P, ("t", REAL_ARRAY, 0.7)),
    "jacobi_phi": (_P, ("lam", COMPLEX, 2.0, "lambda"), ("t", REAL, 1.0)),
    "phi_matrix": (_P, ("t_nodes", REAL_ARRAY, [0.5, 1.0], "t"), ("lam_nodes", COMPLEX_ARRAY, [1.0, 2.0], "lambda")),
    "laplacian_residual": (_P, ("lam", COMPLEX, 1.0, "lambda"), ("t", REAL, 0.9)),
    "c_function": (_P, ("lam", COMPLEX_ARRAY, 2.0, "lambda")),
    "plancherel_density": (_P, ("lam", REAL_ARRAY, 2.0, "lambda")),
    "c_asymptotics_report": (_P, ("lambda_list", REAL_ARRAY, [2.0, 4.0])),
    "gangolli_fit": (_P, ("k_max", COUNT, 16), ("lambda_set", COMPLEX_ARRAY, [1.0, 2.0])),
    "bessel_local_expansion": (_P, ("lam", REAL, 2.0, "lambda"), ("t", REAL, 0.3), ("M", COUNT, 2)),
    "RadialGrid": (_P, ("breakpoints", REAL_ARRAY, [0.0, 1.0, 2.0]), ("nodes_per_panel", COUNT, 4)),
    "SpectralGrid": (_P, ("breakpoints", REAL_ARRAY, [0.0, 1.0, 2.0]), ("nodes_per_panel", COUNT, 4)),
    "SampledRadialFunction": (("grid", GRID, "rgrid"), ("values", SAMPLED, "f_values")),
    "SampledSpectralFunction": (("grid", GRID, "sgrid"), ("values", SAMPLED, "g_values")),
    "default_grids": (_P, ("t_max", REAL, 12.0), ("radial_panels", COUNT, 20, "n_panels"),
                      ("lam_max", REAL, 30.0), ("spectral_panels", COUNT, 20, "n_panels")),
    "plancherel_constant": (),
    "jacobi_transform": (_P, ("f", SAMPLED, "f"), ("sgrid", GRID, "sgrid"), ("decay_fraction", REAL, 1e-10)),
    "inverse_transform": (_P, ("g", SAMPLED, "g_hat"), ("rgrid", GRID, "rgrid"), ("decay_fraction", REAL, 1e-10)),
    "plancherel_defect": (_P, ("f", SAMPLED, "f"), ("sgrid", GRID, "sgrid")),
    "heat_kernel": (_P, ("s", REAL, 0.1), ("rgrid", GRID, "rgrid"), ("sgrid", GRID, "sgrid")),
    "apply_laplacian": (_P, ("f", SAMPLED, "f")),
    "KernelEvaluation": tuple((name, FIELD, 1.0) for name in ("s", "t", "u", "value", "in_support")),
    "kernel_K": (_P, ("s", REAL, 1.0), ("t", REAL, 1.2), ("u", REAL, 1.5)),
    "kernel_values": (_P, ("s", REAL_ARRAY, 1.0), ("t", REAL_ARRAY, 1.2), ("u", REAL_ARRAY, 1.5)),
    "translate": (_P, ("f", SAMPLED, "f"), ("x", REAL, 0.5)),
    "convolve": (_P, ("f", SAMPLED, "f"), ("g", SAMPLED, "f")),
    "convolve_direct": (_P, ("f", SAMPLED, "f"), ("g", SAMPLED, "f")),
    "young_check": (_P, ("f", SAMPLED, "f"), ("g", SAMPLED, "f"), ("p", EXPONENT, 2.0), ("q", EXPONENT, 1.0)),
    "convolution_grid": (_P,),
    "MultiplierSpec": (("evaluate", MEMBER, "evaluate"), ("decay_class", FIELD, "bounded"), ("label", FIELD, "m")),
    "omega": (_P, ("lam", COMPLEX_ARRAY, 1.0, "lambda")),
    "modified_multiplier": (_P, ("m", MEMBER, "m"), ("lam", COMPLEX_ARRAY, 1.0, "lambda")),
    "c_inverse_reflected": (_P, ("lam", COMPLEX_ARRAY, 1.0, "lambda")),
    "boundary_trace": (("g", MEMBER, "evaluate"), ("height", REAL, 1.0), ("nodes", REAL_ARRAY, [1.0, 2.0])),
    "w_function": (_P, ("lam", COMPLEX_ARRAY, 2.0, "lambda")),
    "hormander_check": (("g", MEMBER, "evaluate"),),
    "p_s_function": (_P, ("s", COMPLEX, 0.5), ("lam", REAL_ARRAY, [3.0], "lambda")),
    "kernel_from_multiplier": (_P, ("m", MEMBER, "m"), ("rgrid", GRID, "rgrid"), ("sgrid", GRID, "sgrid")),
    "heat_regularize": (("m", MEMBER, "m"), ("s", REAL, 0.1), _P),
    "split_kernel": (("k", SAMPLED, "f"),),
    "delta_expansion": (_P, ("t", REAL_ARRAY, 1.0)),
    "hc_global_pieces": (_P, ("m", MEMBER, "m"), ("ell_max", COUNT, 1), ("t_nodes", REAL_ARRAY, [1.2, 2.0])),
    "contour_shift_check": (_P, ("m", MEMBER, "m"), ("k", COUNT, 1), ("t", REAL, 1.0)),
    "OperatorNormEstimate": (("p", EXPONENT, 2.0), *((name, FIELD, 1) for name in ("lower_bound", "trials", "seed", "witness"))),
    "apply_multiplier_operator": (_P, ("m", MEMBER, "m"), ("f", SAMPLED, "f"), ("p", EXPONENT, 2.0), ("sgrid", GRID, "sgrid")),
    "estimate_operator_norm": (_P, ("m", MEMBER, "m"), ("p", EXPONENT, 2.0), ("grids", GRID, "grids"),
                               ("trials", COUNT, 2), ("seed", COUNT, 0)),
    "mihlin_proxy_norm": (("g", MEMBER, "evaluate"),),
    "probe_theorem": (_P, ("family", MEMBER, "family"), ("p", EXPONENT, 2.0), ("grids", GRID, "grids"),
                      ("seed", COUNT, 0), ("trials", COUNT, 2)),
    "theorem_ratio_experiment": (_P, ("multiplier_family", MEMBER, "family"), ("p", EXPONENT, 2.0), ("grids", GRID, "grids"),
                                 ("seed", COUNT, 0), ("trials", COUNT, 2)),
    "standard_multiplier_family": (_P,),
}

FED = [
    pytest.param(name, i, bad, id=f"{name}-{row[i][0]}-{j}")
    for name, row in CONTRACT.items()
    for i, (_, role, *_) in enumerate(row)
    for j, bad in enumerate(BAD_VALUES.get(role, []))
]


@pytest.fixture(scope="module")
def contract_objects():
    params = jacobilab.JacobiParameters(1.2, 0.3)
    rgrid, sgrid = jacobilab.RadialGrid.graded(params, 12.0, 40), jacobilab.SpectralGrid.build(params, 30.0, 40)
    f_values, g_values = np.exp(-rgrid.nodes**2), np.exp(-0.1 * sgrid.nodes**2)
    m = jacobilab.MultiplierSpec(lambda lam: np.exp(-0.1 * lam**2), "rapidly-decreasing", "gauss")
    return {
        "params": params, "rgrid": rgrid, "sgrid": sgrid, "grids": (rgrid, sgrid),
        "f_values": f_values, "g_values": g_values, "m": m, "evaluate": m.evaluate,
        "f": jacobilab.SampledRadialFunction(rgrid, f_values),
        "g_hat": jacobilab.SampledSpectralFunction(sgrid, g_values),
        "family": jacobilab.standard_multiplier_family(params),
    }


def _is_finite(out):
    """True where every number in a result (arrays, records, dicts, lists) is finite."""
    if isinstance(out, (str, bool, type(None))) or callable(out):
        return True
    if isinstance(out, (list, tuple)):
        return all(_is_finite(x) for x in out)
    if isinstance(out, dict):
        return all(_is_finite(x) for x in out.values())
    if dataclasses.is_dataclass(out):
        return all(_is_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if hasattr(out, "values") and hasattr(out, "grid"):
        return _is_finite(out.values)
    return bool(np.isfinite(np.asarray(out)).all())


def test_contract_covers_every_public_callable():
    callables = {name for name in jacobilab.__all__ if callable(getattr(jacobilab, name))}
    assert callables == set(CONTRACT), sorted(callables ^ set(CONTRACT))
    for name, row in CONTRACT.items():
        if name in errors.__all__:
            continue
        params = list(inspect.signature(getattr(jacobilab, name)).parameters)
        assert [arg for arg, *_ in row] == params, name


@pytest.mark.parametrize("name, i, bad", FED)
def test_bad_argument_is_named_or_harmless(contract_objects, name, i, bad):
    row = CONTRACT[name]
    args = [contract_objects[value] if role in OBJECTS else value for _, role, value, *_ in row]
    args[i] = bad
    arg, role, _, *alias = row[i]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = getattr(jacobilab, name)(*args)
        except JacobiLabError as exc:
            assert re.search(rf"\b{re.escape((alias or [arg])[0])}\b", str(exc)), str(exc)
            if role not in (COUNT, EXPONENT) and isinstance(bad, (float, complex)) and not cmath.isfinite(bad):
                assert re.search("finite|NaN", str(exc)), str(exc)
        else:
            assert _is_finite(out), out
