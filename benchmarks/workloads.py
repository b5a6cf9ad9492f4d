"""The four benchmark workloads.

Each workload builds its seeded inputs and independent reference values in
its constructor, before anything is timed.  `setup(lib)` is the timed set-up
after a fresh import; `op(i)` is one timed operation and `check(i, out)`
compares its output with the references, returning (passed, error).  Op i
uses entry i % pool of a fixed input pool, so every run covers the whole pool
within its first `pool` ops and the accuracy figure does not depend on how
many ops fit into the run.  Ops whose cost differs by design (presets,
multiplier members) repeat with period `cycle`, and a run stops only at the
end of a cycle, so every run times the same mix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import oracles

GENERIC = oracles.PRESETS["generic"]


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _read_cli_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(ln for ln in fh if not ln.startswith("#"))]
    return rows[0], rows[1:]


def _cli(lib, argv):
    """Run the CLI in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main([str(a) for a in argv])
    return code, out.getvalue()


class Workload:
    name = ""
    pool = 1  # distinct inputs; the first `pool` ops cover them all
    cycle = 1  # ops per round of the cost mix; divides pool
    setup_reps = 5  # set-ups per run; setup_s is their median

    def __init__(self, seed, smoke, work_dir):
        self.work_dir = work_dir
        if smoke:
            self.pool = self.cycle = 1

    def setup(self, lib):
        self.lib = lib

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def corrupt(self, out):
        """Perturb an op's output the way a wrong result would look."""
        raise NotImplementedError


class SpectralProbe(Workload):
    """theorem_ratio_experiment on one member per op, default grids, warm phi cache."""

    name = "spectral-probe"
    # the defect is near round-off, so its max is steady only over many
    # inputs; 25 ops fill about one run
    pool = 25
    cycle = 5  # the family's members
    setup_reps = 3

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        # (t_max, radial panels, lam_max, spectral panels)
        self.grid = (12.0, 60, 30.0, 60) if smoke else (20.0, 400, 50.0, 300)
        rng = _rng(seed, 1)
        self.trial_seeds = [int(s) for s in rng.integers(0, 2**31, self.pool)]
        self.bumps = [(rng.uniform(0.5, 3.0), rng.uniform(0.3, 1.0)) for _ in range(self.pool)]
        sups = oracles.multiplier_sups(*GENERIC, self.grid[2], self.grid[3])
        self.sups = list(sups.values())

    def setup(self, lib):
        super().setup(lib)
        jl = lib.jl
        t_max, n_r, lam_max, n_s = self.grid
        self.params = jl.JacobiParameters(*GENERIC)
        self.grids = jl.default_grids(self.params, t_max, n_r, lam_max, n_s)
        self.family = jl.standard_multiplier_family(self.params)
        # fills the phi cache for this grid pair
        jl.jacobi_transform(self.params, self._input(0), self.grids[1])

    def _input(self, j):
        # a pair of bumps at +-center: smooth as an even function of t, so the
        # defect measures the transform's quadrature, not a kink at t = 0
        center, width = self.bumps[j]
        t = self.grids[0].nodes
        values = np.exp(-(((t - center) / width) ** 2)) + np.exp(-(((t + center) / width) ** 2))
        return self.lib.jl.SampledRadialFunction(self.grids[0], values)

    def op(self, i):
        j = i % self.pool
        jl = self.lib.jl
        res = jl.theorem_ratio_experiment(
            self.params, [self.family[i % self.cycle]], 2.0, seed=self.trial_seeds[j],
            grids=self.grids, trials=8,
        )
        defect = jl.plancherel_defect(self.params, self._input(j), self.grids[1])
        return res["rows"][0], defect

    def check(self, i, out):
        row, defect = out
        bound = row["lower_bound"]
        ok = (
            row["flags"] == ""
            and 0.0 < bound <= self.sups[i % self.cycle] * (1.0 + 1e-9)
            and defect <= 1e-8
        )
        return ok, defect

    def corrupt(self, out):
        row, defect = out
        return {**row, "lower_bound": 1.01 * self.sups[0] + row["lower_bound"]}, defect


class CliProbe(Workload):
    """`jacobilab probe-theorem` in process; every op builds its grids cold."""

    name = "cli-probe"
    pool = cycle = 3
    presets = ("generic", "damek-ricci-like", "h3")

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        # --t-max, --radial-panels, --lam-max, --spectral-panels; coarser
        # grids leave the probe unstable, so smoke runs keep them
        self.grid = (20.0, 200, 50.0, 150)
        rng = _rng(seed, 2)
        self.cli_seeds = [int(s) for s in rng.integers(0, 2**31, self.pool)]
        self.sups, self.proxies = [], []
        for preset in self.presets:
            alpha, beta = oracles.PRESETS[preset]
            self.sups.append(oracles.multiplier_sups(alpha, beta, self.grid[2], self.grid[3]))
            self.proxies.append(oracles.mihlin_proxies(alpha, beta))

    def op(self, i):
        j = i % self.pool
        t_max, n_r, lam_max, n_s = self.grid
        out_name = f"probe-{j}.csv"
        code, text = _cli(self.lib, [
            "--preset", self.presets[j], "--seed", self.cli_seeds[j],
            "--t-max", t_max, "--radial-panels", n_r, "--lam-max", lam_max,
            "--spectral-panels", n_s, "--output-dir", self.work_dir,
            "probe-theorem", "--trials", 8, "--output", out_name,
        ])
        return code, text, os.path.join(self.work_dir, out_name)

    def check(self, i, out):
        code, text, path = out
        if code != 0 or "(stable)" not in text:
            return False, None
        j = i % self.pool
        header, rows = _read_cli_csv(path)
        col = {name: k for k, name in enumerate(header)}
        ok = len(rows) == len(self.sups[j])
        worst = 0.0
        for row in rows:
            member = row[col["member"]]
            bound = float(row[col["lower_bound"]])
            proxy = float(row[col["proxy_norm"]])
            ref = self.proxies[j][member]
            ok = ok and 0.0 < bound <= self.sups[j][member] * (1.0 + 1e-9)
            worst = max(worst, abs(proxy - ref) / ref)
        return ok and worst <= 1e-6, worst

    def corrupt(self, out):
        code, text, path = out
        header, rows = _read_cli_csv(path)
        col = header.index("lower_bound")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                row[col] = repr(2.0 * float(row[col]) + 1.0)
                writer.writerow(row)
        return out


class Convolution(Workload):
    """`jacobilab convolve` of heat kernels h_s, h_r; checked against h_{s+r}."""

    name = "convolution"

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        import jacobilab as jl

        params = jl.JacobiParameters(*GENERIC)
        grid = jl.convolution_grid(params)
        sgrid = jl.SpectralGrid.build(params, 50.0, 300)
        self.nodes, self.mu = grid.nodes, grid.mu_weights
        rng = _rng(seed, 3)
        self.files, self.expected = [], []
        for j in range(self.pool):
            s, r = rng.uniform(0.05, 0.3, 2)
            paths = []
            for k, time in enumerate((s, r)):
                path = os.path.join(work_dir, f"heat-{j}-{k}.csv")
                values = jl.heat_kernel(params, time, grid, sgrid).values
                with open(path, "w") as fh:
                    fh.write("t,re,im\n")
                    for x, v in zip(self.nodes, values):
                        fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")
                paths.append(path)
            self.files.append(paths)
            self.expected.append(jl.heat_kernel(params, s + r, grid, sgrid).values)

    def op(self, i):
        j = i % self.pool
        out_name = f"conv-{j}.csv"
        f, g = self.files[j]
        code, _ = _cli(self.lib, [
            "--preset", "generic", "--output-dir", self.work_dir, "convolve",
            "--input-f", f, "--input-g", g, "--output", out_name,
        ])
        return code, os.path.join(self.work_dir, out_name)

    def check(self, i, out):
        code, path = out
        if code != 0:
            return False, None
        _, rows = _read_cli_csv(path)
        data = np.array(rows, dtype=float)
        if data.shape != (self.nodes.size, 3) or np.max(np.abs(data[:, 0] - self.nodes)) > 1e-13:
            return False, None
        want = self.expected[i % self.pool]
        diff = data[:, 1] + 1j * data[:, 2] - want
        err = math.sqrt(np.sum(self.mu * np.abs(diff) ** 2) / np.sum(self.mu * np.abs(want) ** 2))
        return err <= 1e-8, err

    def corrupt(self, out):
        code, path = out
        with open(path) as fh:
            lines = fh.readlines()
        t, re_, im = lines[-40].strip().split(",")
        lines[-40] = f"{t},{float(re_) * 1.001 + 1e-6!r},{im}\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        return out


# Pointwise call kinds: name -> (calls per batch, tolerance).  Errors are
# relative, except phi (absolute, scaled by e^(rho t), the decay of phi) and
# the Bessel kernel (relative to its local amplitude).  The 2F1 series loses
# digits to cancellation for complex parameters at z < 0 (2.3e-11 was seen at
# z = -2, lambda = 9), hence its looser tolerance.
POINTWISE_KINDS = {
    "phi_hypergeometric": (8, 1e-10),
    "phi_harish_chandra": (8, 1e-10),
    "c_function": (8, 1e-12),
    "gamma_complex": (8, 1e-12),
    "hyp2f1": (8, 1e-9),
    "bessel_below": (4, 1e-8),
    "bessel_above": (4, 1e-8),
    "kernel_K": (8, 1e-10),
    "omega": (8, 1e-12),
}
SPECFUN_KINDS = ("gamma_complex", "hyp2f1", "bessel_below", "bessel_above")


def pointwise_batch(seed, salt, kinds=POINTWISE_KINDS):
    """A seeded batch of (kind, args, reference, error scale) for the generic preset.

    The argument that sets a call's cost (t for phi, z for 2F1, ...) is drawn
    stratified, one draw per equal slice of its range, so every batch costs
    about the same.
    """
    alpha, beta = GENERIC
    rho = oracles.rho_of(alpha, beta)
    rng = _rng(seed, salt)
    calls = []
    for kind in kinds:
        n = POINTWISE_KINDS[kind][0]
        for q in (np.arange(n) + rng.random(n)) / n:
            if kind == "phi_hypergeometric":
                t = 0.01 + 1.99 * q
                lam = rng.uniform(0.0, min(40.0, 12.0 / t))
                args, ref, scale = (lam, t), oracles.phi(alpha, beta, lam, t), math.exp(-rho * t)
            elif kind == "phi_harish_chandra":
                # half at t > 2; half at t <= 2 with lambda t > 12, stratified
                # in 1/t, which sets the series length 27/t
                t = 2.0 + 12.0 * (q - 0.5) if q >= 0.5 else 1.0 / (2.0 - 3.0 * q)
                lam = rng.uniform(12.0 / t if t <= 2.0 else 0.0, 40.0)
                args, ref, scale = (lam, t), oracles.phi(alpha, beta, lam, t), math.exp(-rho * t)
            elif kind == "c_function":
                lam = complex(0.1 + 39.9 * q)
                ref = oracles.c_function(alpha, beta, lam)
                args, scale = (lam,), abs(ref)
            elif kind == "gamma_complex":
                z = complex(-4.5 + 9.5 * q, rng.uniform(-10.0, 10.0))
                ref = oracles.gamma(z)
                args, scale = (z,), abs(ref)
            elif kind == "hyp2f1":
                lam = rng.uniform(0.0, 10.0)
                a, b = complex(rho, lam) / 2, complex(rho, -lam) / 2
                z = -4.0 + 4.8 * q
                ref = oracles.hyp2f1(a, b, alpha + 1.0, z)
                args, scale = (a, b, alpha + 1.0, z), abs(ref)
            elif kind in ("bessel_below", "bessel_above"):
                x = 10.0 + 8.0 * q if kind == "bessel_below" else 18.0 + 12.0 * q
                args, ref, scale = (alpha, x), oracles.bessel_script_j(alpha, x), oracles.bessel_scale(alpha, x)
            elif kind == "kernel_K":
                s, t = 0.2 + 2.8 * q, rng.uniform(0.2, 3.0)
                u = abs(s - t) + (s + t - abs(s - t)) * rng.uniform(0.05, 0.95)
                ref = oracles.kernel_k(alpha, beta, s, t, u)
                args, scale = (s, t, u), abs(ref)
            else:  # omega
                lam = complex(rng.uniform(-40.0, 40.0), rng.uniform(-0.9, 0.9) * rho)
                ref = oracles.omega(alpha, beta, lam)
                args, scale = (lam,), abs(ref)
            calls.append((kind, args, ref, scale))
    return calls


def evaluate_call(jl, params, kind, args):
    """Evaluate one pointwise call through the library's public API."""
    if kind.startswith("phi_"):
        return jl.jacobi_phi(params, *args).real
    if kind == "c_function":
        return jl.c_function(params, *args)
    if kind == "gamma_complex":
        return jl.gamma_complex(*args)
    if kind == "hyp2f1":
        return jl.hyp2f1(*args)
    if kind.startswith("bessel_"):
        return jl.bessel_script_J(*args)
    if kind == "kernel_K":
        return jl.kernel_K(params, *args).value
    return jl.omega(params, *args)


def call_errors(calls, values):
    """Per call: (kind, error / scale)."""
    return [(kind, abs(v - ref) / scale) for (kind, _, ref, scale), v in zip(calls, values)]


class Pointwise(Workload):
    """Seeded batches of 64 scalar calls into specfun, core, convolution and multiplier."""

    name = "pointwise"
    pool = cycle = 16

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        self.batches = [pointwise_batch(seed, 100 + b) for b in range(self.pool)]

    def setup(self, lib):
        super().setup(lib)
        self.params = lib.jl.JacobiParameters(*GENERIC)

    def op(self, i):
        jl = self.lib.jl
        return [evaluate_call(jl, self.params, kind, args)
                for kind, args, _, _ in self.batches[i % self.pool]]

    def check(self, i, out):
        errs = call_errors(self.batches[i % self.pool], out)
        ok = all(err <= POINTWISE_KINDS[kind][1] for kind, err in errs)
        return ok, max(err for _, err in errs)

    def corrupt(self, out):
        return [out[0] * (1.0 + 1e-6) + 1e-6] + out[1:]


WORKLOADS = {w.name: w for w in (SpectralProbe, CliProbe, Convolution, Pointwise)}
