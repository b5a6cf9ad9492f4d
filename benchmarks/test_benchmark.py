"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest benchmarks/test_benchmark.py

Every workload runs once in smoke mode, traced and untraced, and must emit
exactly the metrics BENCHMARK.json names, each with its unit.  With
--inject-fault every op's output is perturbed and every op must fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    result = result_of(run(workload, trace, "--smoke"))
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_outputs_are_failed_ops(workload):
    result = result_of(run(workload, 0, "--smoke", "--inject-fault"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


@pytest.mark.xfail(strict=True, reason=(
    "the kernel K(s,t,u) has mass 2^(5 - 2 rho) instead of 1 (its prefactor is "
    "right only at rho = 5/2), so convolve fails the product formula for "
    "damek-ricci-like; once this passes, add that preset to the convolution workload"))
def test_kernel_unit_mass_damek_ricci():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import jacobilab as jl

    params = jl.JacobiParameters(1.5, 0.5)
    s, t = 0.6, 1.0
    mass, _ = integrate.quad(
        lambda u: float(jl.kernel_values(params, s, t, u)) * jl.weight_density(params, u),
        abs(s - t), s + t, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    assert abs(mass - 1.0) < 1e-6
